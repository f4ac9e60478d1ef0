"""Shared oracles for the test suite.

These stay structurally independent of the implementation paths they
check: the KNN oracle is a per-pair python loop, the DCG oracle builds an
explicit relevance list, the gradient oracle is central finite
differences over every parameter entry, the interaction-log oracle
reads, filters and re-indexes one event at a time, and the candidate
oracle draws one user's row with its own concatenate and search.
"""

import numpy as np

from grasp.dataset import InteractionDataset, sample_negatives
from grasp.errors import DataError, ParseError


def brute_force_topk(values: np.ndarray, row: int, k: int):
    """O(rows^2)-style scan: per-pair cosine on raw rows, (-sim, index) order."""
    sims = []
    q = values[row]
    qn = np.linalg.norm(q)
    for idx in range(values.shape[0]):
        if idx == row:
            continue
        v = values[idx]
        vn = np.linalg.norm(v)
        sim = 0.0 if qn == 0.0 or vn == 0.0 else float(np.dot(q, v) / (qn * vn))
        sims.append((idx, sim))
    sims.sort(key=lambda pair: (-pair[1], pair[0]))
    return sims[:k]


def brute_force_ndcg(rank: int, k: int) -> float:
    """Explicit DCG of a ranked list with one relevant item; ideal DCG is 1."""
    relevance = [1.0 if pos == rank else 0.0 for pos in range(1, k + 1)]
    dcg = sum(rel / np.log2(pos + 1) for pos, rel in enumerate(relevance, start=1))
    return dcg / 1.0


def brute_force_hr(rank: int, k: int) -> float:
    hits = [1.0 if pos == rank else 0.0 for pos in range(1, k + 1)]
    return float(sum(hits))


def finite_diff(fn, param: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar fn() w.r.t. an in-place param."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + step
        f_plus = fn()
        param[idx] = orig - step
        f_minus = fn()
        param[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-relative difference with a floor so exact-zero gradients
    (e.g. softmax-invariant parameters) compare against FD noise sanely."""
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-6)
    return float(np.linalg.norm(a - b) / denom)


def random_baseline_ndcg10(n_candidates: int = 101, k: int = 10) -> float:
    """E[NDCG@k] for a uniformly random target rank among n candidates."""
    total = sum(1.0 / np.log2(r + 1) for r in range(1, k + 1))
    return total / n_candidates


def reference_eval_candidates(ds: InteractionDataset, user: int, target: int,
                              eval_negatives: int, seed: int):
    """One user's evaluation candidates, target + negatives shuffled, and the target's position."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1, user]))
    negs = sample_negatives(ds, user, eval_negatives, rng)
    candidates = np.concatenate([[target], negs])
    order = rng.permutation(len(candidates))
    return candidates[order], int(np.flatnonzero(order == 0)[0])


def run_sequence(model, x) -> np.ndarray:
    """Per-position outputs of a backbone for one unpadded (L, h) sequence."""
    x = np.asarray(x, dtype=np.float64)
    out, _ = model.forward(x[None], np.ones((1, x.shape[0]), dtype=bool))
    return out[0]


def reference_load_interactions(path, min_user_len: int = 3, min_item_freq: int = 3):
    """``load_interactions`` as per-event loops: text-mode line reads,
    dict-counted filter passes and per-user tuple sorts.  Timestamps are
    python ints, so unlike the reader under test it accepts any size."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    path, lineno, f"expected user<TAB>item<TAB>timestamp, got {len(parts)} fields"
                )
            user, item, ts = parts
            if not user or not item:
                raise ParseError(path, lineno, "empty user or item id")
            try:
                ts_val = int(ts)
            except ValueError:
                raise ParseError(path, lineno, f"non-integer timestamp {ts!r}") from None
            events.append((user, item, ts_val))

    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for user, item, _ in events:
            user_counts[user] = user_counts.get(user, 0) + 1
            item_counts[item] = item_counts.get(item, 0) + 1
        kept = [
            ev
            for ev in events
            if user_counts[ev[0]] >= min_user_len and item_counts[ev[1]] >= min_item_freq
        ]
        if len(kept) == len(events):
            break
        events = kept
    if not events:
        raise DataError(f"no interactions left after filtering {path}")

    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    for user, item, _ in events:
        if user not in user_index:
            user_index[user] = len(user_index)
        if item not in item_index:
            item_index[item] = len(item_index)
    # Stable sort on timestamp keeps file order for equal timestamps.
    per_user: dict[int, list[tuple[int, int, int]]] = {u: [] for u in user_index.values()}
    for order, (user, item, ts) in enumerate(events):
        per_user[user_index[user]].append((ts, order, item_index[item]))
    sequences = {
        u: [item for _, _, item in sorted(evs, key=lambda e: (e[0], e[1]))]
        for u, evs in per_user.items()
    }
    n_users, n_items = len(user_index), len(item_index)
    user_freq = np.zeros(n_users, dtype=np.int64)
    item_freq = np.zeros(n_items, dtype=np.int64)
    for u, seq in sequences.items():
        user_freq[u] = len(seq)
        for i in seq:
            item_freq[i] += 1
    return InteractionDataset(
        user_count=n_users,
        item_count=n_items,
        sequences=sequences,
        item_frequency=item_freq,
        user_frequency=user_freq,
        user_raw_ids=list(user_index),
        item_raw_ids=list(item_index),
    )


def assert_same_dataset(got: InteractionDataset, want: InteractionDataset) -> None:
    """Every field equal, dtypes and key order included."""
    assert (got.user_count, got.item_count) == (want.user_count, want.item_count)
    assert list(got.sequences.items()) == list(want.sequences.items())
    assert all(type(i) is int for seq in got.sequences.values() for i in seq)
    for name in ("item_frequency", "user_frequency"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.user_raw_ids == want.user_raw_ids
    assert got.item_raw_ids == want.item_raw_ids
