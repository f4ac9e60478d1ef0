"""Span recorder that wraps public grasp functions from outside the package.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` swaps each
target attribute (a module function or a class method) for a wrapper that
appends a span ``[name, start, end, parent, run_id]`` to an in-memory list
and bumps the target's counters; ``uninstall`` puts the originals back, so
untraced cycles run the unmodified code.  Spans are written to disk once,
by the caller, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np


class MissingTargetError(RuntimeError):
    """A wrap target no longer exists; reporting 0 for it would be a lie."""


# -- counters: called with the wrapped function's arguments ------------------

def _count_cells(counts, _self, x, mask, *args, **kwargs):
    counts["backbone.cells"] += int(mask.size)
    counts["backbone.real_positions"] += int(np.count_nonzero(mask))


def _count_fuse_rows(counts, concat, *args, **kwargs):
    counts["hae.rows"] += int(concat.size // concat.shape[-1])


def _count_build_rows(counts, matrix, *args, **kwargs):
    counts["embedstore.build_rows"] += int(matrix.rows)


def _counter(name):
    def count(counts, *args, **kwargs):
        counts[name] += 1
    return count


def targets():
    """(owner, attribute, span name, counter) for every layer the benchmark reports.

    A name listed twice (a function imported into two modules, or two
    methods of one layer) is one layer: both bindings feed the same span.
    """
    from grasp import embedstore, evaluation, hae, pipeline, trainer
    from grasp.backbone.gru4rec import Gru4Rec
    from grasp.backbone.sasrec import SasRec
    from grasp.model import RecModel

    return [
        (pipeline, "load_data_dir", "pipeline.load_data_dir", None),
        (pipeline, "build_model", "pipeline.build_model", None),
        (pipeline, "train_one_seed", "pipeline.train_one_seed", None),
        (pipeline, "save_model_dir", "pipeline.save_model_dir", None),
        (pipeline, "load_model_dir", "pipeline.load_model_dir", None),
        (pipeline, "eval_model", "pipeline.eval_model", None),
        (pipeline, "fit", "trainer.fit", None),
        (pipeline, "evaluate", "evaluation.evaluate", None),
        (pipeline, "load_interactions", "dataset.load", None),
        (pipeline, "load_embedding_matrix", "embedstore.gemb_load", None),
        (pipeline, "load_neighbor_cache", "embedstore.gnbc_load", None),
        (embedstore, "load_embedding_matrix", "embedstore.gemb_load", None),
        (embedstore, "load_neighbor_cache", "embedstore.gnbc_load", None),
        (embedstore, "save_neighbor_cache", "embedstore.gnbc_save", None),
        (embedstore, "build_neighbor_cache", "embedstore.build_cache", _count_build_rows),
        (evaluation, "emit_report", "evaluation.emit_report", None),
        (evaluation, "rank_of_target", "evaluation.rank", _counter("evaluation.users")),
        (evaluation, "sample_negatives", "dataset.sample_negatives",
         _counter("dataset.sample_negatives_calls")),
        (trainer, "train_epoch", "trainer.train_epoch", None),
        (trainer, "make_training_batch", "trainer.batch_build", _counter("trainer.batches")),
        (trainer, "evaluate", "trainer.validate", None),
        (trainer.Adam, "step", "trainer.adam_step", None),
        (RecModel, "loss_and_grads", "model.loss_and_grads", None),
        (RecModel, "final_representations", "model.final_repr", None),
        (RecModel, "candidate_scores", "model.candidate_scores", None),
        (RecModel, "snapshot", "trainer.snapshot", None),
        (RecModel, "load_snapshot", "trainer.snapshot", None),
        (hae, "_branch_concat", "hae.branch_concat", None),
        (hae, "fuse_forward", "hae.fuse_forward", _count_fuse_rows),
        (hae, "fuse_backward", "hae.fuse_backward", None),
        (SasRec, "forward", "backbone.sasrec.forward", _count_cells),
        (SasRec, "backward", "backbone.sasrec.backward", None),
        (Gru4Rec, "forward", "backbone.gru4rec.forward", _count_cells),
        (Gru4Rec, "backward", "backbone.gru4rec.backward", None),
    ]


def _lookup(owner, attr):
    # Class attributes are read from the class dict so a wrapper is never
    # installed over an inherited method by accident.
    found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(found):
        raise MissingTargetError(f"trace target {owner.__name__}.{attr} is missing or not callable")
    return found


class Tracer:
    """In-memory spans and per-cycle counters around a fixed set of targets."""

    def __init__(self, target_list):
        for owner, attr, _, _ in target_list:
            _lookup(owner, attr)
        self._targets = target_list
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.run_id = ""

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in self._targets:
            original = _lookup(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def _wrap(self, original, name, count):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            index = self._open(name)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index, start, clock())

        wrapper.__wrapped__ = original
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (a cycle stage); records only while installed."""
        if not self.installed:
            yield
            return
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def span_table(spans, run_ids) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name, over the given runs."""
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _, run_id), self_s in zip(spans, self_times(spans)):
        if run_id in run_ids:
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += self_s
    return table
