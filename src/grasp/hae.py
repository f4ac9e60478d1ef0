"""Holistic attention enhancement over frozen semantic embeddings.

Every item in a user's sequence is re-represented from four frozen
semantic vectors -- the user embedding ``u``, the pooled similar-user mean
``u_bar``, the item embedding ``i``, and the pooled similar-item mean
``i_bar`` -- through three scalar-gated branches:

* self branch:    ``sigmoid(u . i / sqrt(d)) * i``
* similar branch: ``sigmoid(u_bar . i_bar / sqrt(d)) * i_bar``
* global branch:  ``sigmoid((u||u_bar) . (i||i_bar) / sqrt(2d)) * (i||i_bar)``

The gate is a per-item scalar (no normalization across sequence positions),
so each position keeps an independent weight.  The concatenated branches
(length ``4*d``) pass through a one-hidden-layer rectifier MLP that
projects into the backbone's hidden size ``h``.  The semantic inputs are
constants: gradients exist only for the MLP parameters, and the backward
pass never touches embedding storage.

Ablation switches: ``no_attention`` bypasses the gates (branch = value
vector), ``no_similar`` / ``no_global`` zero out the respective concat
slots, and ``softmax_variant`` replaces the per-item sigmoid with a
softmax over sequence positions (standalone items then see a singleton
softmax, i.e. gate 1); the softmax variant is the one configuration whose
rows are not independent across positions.

Checkpoint format ``GHAE``: magic | version u16 | d_sem u32 | h_hidden u32
| h u32 | tensors w1, b1, w2, b2 as float32 LE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import Writer, read_file
from .config import RunConfig
from .embedstore import EmbeddingMatrix, NeighborCache
from .errors import FormatError
from .ops import mm, sigmoid

GHAE_MAGIC = b"GHAE"
GHAE_VERSION = 1


@dataclass
class HaeParams:
    """Learnable fusion-MLP parameters; tensor order (w1, b1, w2, b2)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


def init_params(cfg: RunConfig, d_sem: int, seed: int) -> HaeParams:
    """Seeded symmetric uniform init, scale 1/sqrt(fan_in) per layer.

    ``cfg.h_hidden`` 0 means a hidden width of ``2 * h``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4AE]))
    din, hh, h = 4 * d_sem, cfg.h_hidden or 2 * cfg.h, cfg.h
    s1 = 1.0 / np.sqrt(din)
    s2 = 1.0 / np.sqrt(hh)
    return HaeParams(
        w1=rng.uniform(-s1, s1, size=(din, hh)),
        b1=rng.uniform(-s1, s1, size=hh),
        w2=rng.uniform(-s2, s2, size=(hh, h)),
        b2=rng.uniform(-s2, s2, size=h),
    )


@dataclass(frozen=True)
class SemanticStore:
    """A raw embedding matrix paired with its neighbor cache."""

    matrix: EmbeddingMatrix
    cache: NeighborCache

    def __post_init__(self):
        if self.cache.rows != self.matrix.rows or self.cache.dim != self.matrix.dim:
            raise ValueError(
                f"cache shape {(self.cache.rows, self.cache.dim)} does not match "
                f"matrix {(self.matrix.rows, self.matrix.dim)}"
            )


# ---------------------------------------------------------------------------
# Batched core


def _gate_preacts(u, ubar, it, itbar, d: int):
    pre_self = (u * it).sum(axis=-1) / np.sqrt(d)
    pre_sim = (ubar * itbar).sum(axis=-1) / np.sqrt(d)
    pre_glob = ((u * it).sum(axis=-1) + (ubar * itbar).sum(axis=-1)) / np.sqrt(2 * d)
    return pre_self, pre_sim, pre_glob


def _masked_softmax(pre: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    # Softmax over the last axis, restricted to mask-valid entries.
    if mask is None:
        mask = np.ones(pre.shape, dtype=bool)
    z = np.where(mask, pre, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.exp(z - zmax) * mask
    total = e.sum(axis=-1, keepdims=True)
    return np.where(total > 0, e / np.where(total == 0, 1.0, total), 0.0)


def _branch_concat(u, ubar, it, itbar, cfg: RunConfig, positions_mask=None,
                   softmax_over_positions=False):
    """Gated branch concatenation, shape (..., 4*d_sem); reads ``cfg``'s ablation switches.

    ``softmax_over_positions`` applies only under ``cfg.softmax_variant``;
    it normalizes the gate pre-activations across the last axis of the
    leading shape (sequence positions), honoring ``positions_mask``.
    """
    d = it.shape[-1]
    pre_self, pre_sim, pre_glob = _gate_preacts(u, ubar, it, itbar, d)
    if cfg.no_attention:
        ones = np.ones_like(pre_self)
        g_self, g_sim, g_glob = ones, ones, ones
    elif cfg.softmax_variant:
        if softmax_over_positions:
            g_self = _masked_softmax(pre_self, positions_mask)
            g_sim = _masked_softmax(pre_sim, positions_mask)
            g_glob = _masked_softmax(pre_glob, positions_mask)
        else:
            ones = np.ones_like(pre_self)
            g_self, g_sim, g_glob = ones, ones, ones
    else:
        g_self = sigmoid(pre_self)
        g_sim = sigmoid(pre_sim)
        g_glob = sigmoid(pre_glob)

    self_b = g_self[..., None] * it
    sim_b = np.zeros_like(itbar) if cfg.no_similar else g_sim[..., None] * itbar
    if cfg.no_global:
        glob_b = np.zeros(it.shape[:-1] + (2 * d,), dtype=np.float64)
    else:
        glob_b = g_glob[..., None] * np.concatenate([it, itbar], axis=-1)
    return np.concatenate([self_b, sim_b, glob_b], axis=-1)


def fuse_forward(concat: np.ndarray, p: HaeParams):
    """MLP forward on (..., 4d) -> (..., h); returns (fused, cache)."""
    a1 = mm(concat, p.w1) + p.b1
    h1 = np.maximum(a1, 0.0)
    fused = mm(h1, p.w2) + p.b2
    return fused, (concat, a1, h1)


def fuse_backward(cache, d_fused: np.ndarray, p: HaeParams) -> dict[str, np.ndarray]:
    """Analytic gradients of the fused output w.r.t. the MLP parameters.

    The semantic inputs are frozen, so no input gradient is produced; the
    caller supplies the upstream gradient of the loss w.r.t. ``fused``.
    """
    concat, a1, h1 = cache
    concat2 = concat.reshape(-1, concat.shape[-1])
    a12 = a1.reshape(-1, a1.shape[-1])
    h12 = h1.reshape(-1, h1.shape[-1])
    d2 = d_fused.reshape(-1, d_fused.shape[-1])

    d_w2 = h12.T @ d2
    d_b2 = d2.sum(axis=0)
    d_a1 = (d2 @ p.w2.T) * (a12 > 0)
    d_w1 = concat2.T @ d_a1
    d_b1 = d_a1.sum(axis=0)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


# ---------------------------------------------------------------------------
# Checkpoints


def _dims(p: HaeParams) -> dict[str, int]:
    """The GHAE header fields, in file order, as ``p``'s shapes imply them."""
    return {"d_sem": p.w1.shape[0] // 4, "h_hidden": p.w1.shape[1], "h": p.w2.shape[1]}


def save_hae_checkpoint(p: HaeParams, path) -> None:
    w = Writer()
    w.magic(GHAE_MAGIC)
    w.u16(GHAE_VERSION)
    for value in _dims(p).values():
        w.u32(value)
    for tensor in p.tensors().values():
        w.f32_array(tensor)
    w.save(path)


def load_hae_checkpoint(p: HaeParams, path) -> None:
    """Overwrite ``p`` from a GHAE file whose header matches its shapes."""
    r = read_file(path)
    r.magic(GHAE_MAGIC)
    version = r.u16()
    if version != GHAE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    for name, want in _dims(p).items():
        r.expect_field(name, r.u32(), want)
    for tensor in p.tensors().values():
        tensor[...] = r.f32_array(tensor.size).reshape(tensor.shape)
    r.expect_eof()
