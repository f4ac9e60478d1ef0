"""BCE training loop: Adam updates, per-epoch validation, early stopping.

Validation metrics are always computed on parameters round-tripped
through checkpoint precision (float32), so a logged value is exactly what
re-evaluating the stored checkpoint reproduces; training itself continues
in float64.  Validation candidates are drawn once per fit with a fixed
seed and reused by every epoch, so early stopping compares like with like.
Each batch is computed in power-of-two length buckets (see
``RecModel.loss_and_grads``), so dropout masks are drawn per bucket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import DataError, NumericError
from .evaluation import eval_candidates, evaluate
from .model import RecModel, pad_sequences

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainState:
    epoch: int = 0
    best_epoch: int = 0
    best_val_ndcg10: float = -np.inf
    loss_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    stopped_early: bool = False


class Adam:
    """Adaptive-moment optimizer over named parameter groups."""

    def __init__(self, groups: dict[str, dict[str, np.ndarray]], lr: float):
        self.groups = groups
        self.lr = lr
        self.t = 0
        self.m = {g: {n: np.zeros_like(p) for n, p in ps.items()} for g, ps in groups.items()}
        self.v = {g: {n: np.zeros_like(p) for n, p in ps.items()} for g, ps in groups.items()}

    def step(self, grads: dict[str, dict[str, np.ndarray]]) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for group in sorted(self.groups):
            for name in sorted(self.groups[group]):
                g = grads[group][name]
                m = self.m[group][name]
                v = self.v[group][name]
                m *= BETA1
                m += (1.0 - BETA1) * g
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
                self.groups[group][name] -= self.lr * update


@dataclass(frozen=True)
class TrainBatch:
    users: np.ndarray
    inputs: np.ndarray
    mask: np.ndarray
    targets: np.ndarray
    negatives: np.ndarray


def make_training_batch(split, ds, cfg: RunConfig, rng, users) -> TrainBatch:
    """Shift-by-one batch over ``users``: inputs are prefix[:-1], targets prefix[1:].

    Users whose prefix is shorter than 2 are skipped.  Each row keeps its
    most recent ``cfg.max_seq_len`` positions.  Per real position,
    ``negatives_per_positive`` uniform draws from the user's non-history
    items; padded positions carry mask 0.
    """
    if len(split) == 0:
        raise DataError("empty split")
    users = [u for u in users if len(split.entries[u].train_prefix) >= 2]
    if not users:
        raise DataError("no user in the batch has a trainable prefix (length >= 2)")

    prefixes = [split.entries[u].train_prefix for u in users]
    inputs, mask = pad_sequences([prefix[:-1] for prefix in prefixes], cfg.max_seq_len)
    targets, _ = pad_sequences([prefix[1:] for prefix in prefixes], cfg.max_seq_len)
    B, L = inputs.shape
    negatives = np.zeros((B, L, cfg.negatives_per_positive), dtype=np.int64)
    for b, u in enumerate(users):
        n = int(mask[b].sum())
        pool = ds.non_history(u)
        negatives[b, L - n:] = pool[rng.integers(len(pool), size=(n, cfg.negatives_per_positive))]
    return TrainBatch(np.asarray(users, dtype=np.int64), inputs, mask, targets, negatives)


def train_epoch(model: RecModel, split, ds, cfg: RunConfig, state: TrainState,
                adam: Adam, rng, dropout_rng) -> TrainState:
    """One pass over the split in a seeded shuffle order; appends mean loss."""
    trainable = [u for u in split.users if len(split.entries[u].train_prefix) >= 2]
    if not trainable:
        raise DataError("no trainable users (all prefixes shorter than 2)")
    order = rng.permutation(len(trainable))
    total, count = 0.0, 0.0
    for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
        chunk = [trainable[i] for i in order[start : start + cfg.batch_size]]
        batch = make_training_batch(split, ds, cfg, rng, chunk)
        loss, grads, n_pairs = model.loss_and_grads(batch, rng=dropout_rng)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {state.epoch + 1}, batch {bi}")
        adam.step(grads)
        total += loss * n_pairs
        count += n_pairs
    state.epoch += 1
    state.loss_history.append(float(total / count))
    return state


def fit(model: RecModel, split, ds, cfg: RunConfig, seed: int) -> tuple[RecModel, TrainState]:
    """Train until validation NDCG@10 stalls for ``patience`` epochs.

    ``seed`` drives the shuffle, dropout and validation candidates.
    Returns the model restored to its best (checkpoint-precision)
    parameters plus the training state, whose ``loss_history`` and
    ``val_history`` hold one mean loss and one validation NDCG@10 per epoch.
    """
    if len(split) == 0:
        raise DataError("empty validation set: leave-one-out split has no users")
    start = time.perf_counter()
    state = TrainState()
    adam = Adam(model.parameter_groups(), cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    candidates = eval_candidates(split, ds, "valid", cfg.eval_negatives, seed)

    best_snapshot = None
    for _ in range(cfg.max_epochs):
        train_epoch(model, split, ds, cfg, state, adam, shuffle_rng, dropout_rng)

        exact = model.snapshot(precision="f64")
        quantized = model.snapshot(precision="f32")
        model.load_snapshot(quantized)
        report, _ = evaluate(
            model, split, ds, which="valid",
            eval_negatives=cfg.eval_negatives, seed=seed, max_seq_len=cfg.max_seq_len,
            candidates=candidates,
        )
        model.load_snapshot(exact)
        val = report.ndcg[10]
        state.val_history.append(val)

        if val > state.best_val_ndcg10:
            state.best_val_ndcg10 = val
            state.best_epoch = state.epoch
            best_snapshot = quantized
        elif state.epoch - state.best_epoch >= cfg.patience:
            state.stopped_early = True
            break

    if best_snapshot is None:
        raise NumericError("no epoch produced a best validation snapshot")
    model.load_snapshot(best_snapshot)
    state.wall_seconds = time.perf_counter() - start
    return model, state
