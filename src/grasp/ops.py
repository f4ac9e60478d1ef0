"""Numeric kernels shared by the fusion module, the backbones and the model."""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    """``1 / (1 + exp(-x))`` of array ``x``, computed in ``out`` (which may be ``x``) if given."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Seeded symmetric uniform draws in ``[-1/sqrt(fan_in), 1/sqrt(fan_in))``."""
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w over the last axis as a single 2-D GEMM (fast for (..., K) inputs)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def segment_sum(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Rows of ``values`` (R, h) summed by ``ids`` (R,) into an (n, h) array.

    One flattened ``np.bincount``; it adds in row order, so the result
    equals ``np.add.at`` into zeros bit for bit.
    """
    h = values.shape[1]
    flat = (ids[:, None] * h + np.arange(h)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=n * h).reshape(n, h)


def length_buckets(lengths, max_rows: int) -> list[np.ndarray]:
    """Row indices grouped by power-of-two length class, in chunks of ``max_rows``.

    The classes are 1, 2, 3-4, 5-8, ...; rows are ordered by (class,
    index) and each class is cut into chunks of at most ``max_rows``
    rows, so no row in a chunk is padded to more than twice its length.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if lengths.size and lengths.min() < 1:
        raise ValueError("every length must be >= 1")
    # ceil(log2(n)) for n >= 1: the bit length of n - 1.
    classes = np.array([int(n - 1).bit_length() for n in lengths], dtype=np.int64)
    order = np.argsort(classes, kind="stable")
    bounds = np.flatnonzero(np.diff(classes[order])) + 1
    return [
        group[start : start + max_rows]
        for group in np.split(order, bounds)
        for start in range(0, len(group), max_rows)
    ]
