"""The benchmark's tracer binds grasp functions by name; renaming one fails here.

``perfbench/tracer.py`` wraps its targets from outside the package and
counts rows and users from their arguments, so a renamed function or a
changed argument layout would otherwise surface only when the benchmark
runs.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, targets  # noqa: E402

from grasp import evaluation  # noqa: E402
from grasp.config import RunConfig  # noqa: E402
from grasp.dataset import split_leave_one_out  # noqa: E402
from grasp.evaluation import evaluate  # noqa: E402
from grasp.model import build_id_model, build_semantic_model  # noqa: E402


def test_every_target_resolves():
    Tracer(targets())


def test_counts_match_a_semantic_evaluate(monkeypatch, small_corpus, small_stores):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    model = build_semantic_model(*small_stores, RunConfig(h=8, max_seq_len=20), seed=3)
    encoded = []
    encode_items = model.encoder.encode_items

    def recording_encode(users, items, *args, **kwargs):
        encoded.append(np.asarray(items).size)
        return encode_items(users, items, *args, **kwargs)

    model.encoder.encode_items = recording_encode
    monkeypatch.setattr(evaluation, "EVAL_BATCH_ROWS", 16)
    tracer = Tracer(targets())
    tracer.install()
    try:
        report, records = evaluate(model, split, ds, "test", eval_negatives=20, seed=4,
                                   max_seq_len=20)
    finally:
        tracer.uninstall()
    assert sum(encoded) > len(split) * 21
    assert tracer.counts["hae.rows"] == sum(encoded)
    assert tracer.counts["evaluation.users"] == len(records) == report.n_users_evaluated


def test_cells_match_an_id_gru4rec_evaluate(monkeypatch, small_corpus):
    """The last-position inference path still enters the traced
    ``Gru4Rec.forward(x, mask, ...)`` once per length bucket."""
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    max_seq_len = 6
    model = build_id_model(ds.item_count, RunConfig(backbone="gru4rec", encoder="id", h=8,
                                                    max_seq_len=max_seq_len), seed=3)
    grids = []
    final_representations = model.final_representations

    def recording_final(users, seqs, max_seq_len):
        lengths = [min(len(s), max_seq_len) for s in seqs]
        grids.append((len(seqs) * max(lengths), sum(lengths)))
        return final_representations(users, seqs, max_seq_len)

    model.final_representations = recording_final
    monkeypatch.setattr(evaluation, "EVAL_BATCH_ROWS", 16)
    tracer = Tracer(targets())
    tracer.install()
    try:
        evaluate(model, split, ds, "test", eval_negatives=20, seed=4, max_seq_len=max_seq_len)
    finally:
        tracer.uninstall()
    assert len(grids) > 1
    assert sum(name == "backbone.gru4rec.forward" for name, *_ in tracer.spans) == len(grids)
    assert tracer.counts["backbone.cells"] == sum(cells for cells, _ in grids)
    assert tracer.counts["backbone.real_positions"] == sum(real for _, real in grids)
    assert tracer.counts["backbone.cells"] > tracer.counts["backbone.real_positions"]
