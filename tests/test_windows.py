"""Every model input is a window of the dataset's flat item array.

On both benchmark logs, the training batches and the evaluation inputs
and candidates equal what per-user python lists give: the split's
prefixes, padded item by item (``helpers.pad_sequences``), and negatives
drawn from an explicit complement pool.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402

from grasp import evaluation  # noqa: E402
from grasp.config import RunConfig  # noqa: E402
from grasp.dataset import load_interactions, split_leave_one_out  # noqa: E402
from grasp.evaluation import eval_candidates, evaluate  # noqa: E402
from grasp.trainer import make_training_batch  # noqa: E402
from helpers import pad_sequences, reference_eval_candidates, sequence  # noqa: E402

# Below the longest benchmark histories, so some windows are cut.
MAX_SEQ_LEN = 20


@pytest.fixture(scope="module", params=["trend-sasrec", "long-gru4rec"])
def benchmark_log(request, tmp_path_factory):
    data_dir = tmp_path_factory.mktemp(request.param)
    make_inputs(WORKLOADS[request.param], 1, str(data_dir))
    cfg = RunConfig()
    ds = load_interactions(data_dir / "interactions.tsv", cfg.min_user_len, cfg.min_item_freq)
    split = split_leave_one_out(ds)
    seqs = {u: sequence(ds, u) for u in split.users.tolist()}
    return ds, split, seqs


def reference_batch(ds, seqs, users, cfg, rng):
    """``make_training_batch`` on python lists: pad prefix[:-1] and prefix[1:], draw from pools."""
    users = [u for u in users if len(seqs[u]) - 2 >= 2]
    prefixes = [seqs[u][:-2] for u in users]
    inputs, mask = pad_sequences([p[:-1] for p in prefixes], cfg.max_seq_len)
    targets, _ = pad_sequences([p[1:] for p in prefixes], cfg.max_seq_len)
    B, L = inputs.shape
    negatives = np.zeros((B, L, cfg.negatives_per_positive), dtype=np.int64)
    for b, u in enumerate(users):
        n = int(mask[b].sum())
        pool = np.setdiff1d(np.arange(ds.item_count), seqs[u])
        negatives[b, L - n:] = pool[rng.integers(len(pool), size=(n, cfg.negatives_per_positive))]
    return users, inputs, mask, targets, negatives


def test_histories_cover_the_edges(request, benchmark_log):
    _, _, seqs = benchmark_log
    lengths = [len(s) for s in seqs.values()]
    assert max(lengths) - 3 > MAX_SEQ_LEN  # a training input is cut
    if request.node.callspec.params["benchmark_log"] == "trend-sasrec":
        assert lengths.count(3) > 10  # a prefix of one, which no batch trains on


def test_training_batches_equal_the_list_oracle(benchmark_log):
    ds, split, seqs = benchmark_log
    cfg = RunConfig(max_seq_len=MAX_SEQ_LEN, negatives_per_positive=2)
    users = split.users[np.random.default_rng(0).permutation(len(split))]
    for start in range(0, len(users), 128):
        chunk = users[start : start + 128]
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(start), chunk)
        want_users, *want = reference_batch(ds, seqs, chunk.tolist(), cfg,
                                            np.random.default_rng(start))
        assert batch.users.tolist() == want_users
        for got, expected in zip((batch.inputs, batch.mask, batch.targets, batch.negatives), want):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class _RecordingScorer:
    """Keeps every ``final_representations`` grid; all candidates tie."""

    def __init__(self):
        self.grids = []

    def final_representations(self, users, inputs, mask):
        self.grids.append((users.copy(), inputs.copy(), mask.copy()))
        return np.zeros((len(users), 4))

    def candidate_scores(self, users, cand_ids, o_final):
        return np.full(cand_ids.shape, 0.5)


@pytest.mark.parametrize("which", ["valid", "test"])
def test_evaluation_inputs_equal_the_list_oracle(monkeypatch, benchmark_log, which):
    ds, split, seqs = benchmark_log
    back = 2 if which == "valid" else 1
    cands, target_pos = eval_candidates(split, ds, which, 100, seed=1)
    for row, user in enumerate(split.users.tolist()):
        want, want_pos = reference_eval_candidates(ds, user, seqs[user][-back], 100, 1)
        np.testing.assert_array_equal(cands[row], want)
        assert target_pos[row] == want_pos

    monkeypatch.setattr(evaluation, "EVAL_BATCH_ROWS", 64)
    scorer = _RecordingScorer()
    evaluate(scorer, split, ds, which, eval_negatives=100, seed=1, max_seq_len=MAX_SEQ_LEN,
             candidates=(cands, target_pos))
    assert sum(len(users) for users, _, _ in scorer.grids) == len(split)
    for users, inputs, mask in scorer.grids:
        want_inputs, want_mask = pad_sequences([seqs[u][:-back] for u in users.tolist()],
                                               MAX_SEQ_LEN)
        np.testing.assert_array_equal(inputs, want_inputs)
        np.testing.assert_array_equal(mask, want_mask)
