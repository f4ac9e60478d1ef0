"""Shared oracles for the test suite.

These stay structurally independent of the implementation paths they
check: the KNN oracle is a per-pair python loop, the DCG oracle builds an
explicit relevance list, and the gradient oracle is central finite
differences over every parameter entry.
"""

import numpy as np


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


def run_sequence(model, x) -> np.ndarray:
    """Per-position outputs of a backbone for one unpadded (L, h) sequence."""
    x = np.asarray(x, dtype=np.float64)
    out, _ = model.forward(x[None], np.ones((1, x.shape[0]), dtype=bool))
    return out[0]
