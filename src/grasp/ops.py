"""Numeric kernels shared by the fusion module, the backbones and the model."""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w over the last axis as a single 2-D GEMM (fast for (..., K) inputs)."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))
