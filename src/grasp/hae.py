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
pass never touches embedding storage.  The MLP's parameters are one plain
dict ``{"w1", "b1", "w2", "b2"}`` in GHAE record order (``init_params``).

The concat is never built.  Each branch is a scalar gate times a frozen
item row, so the MLP's first layer factors through per-item projections:
``a1 = g_s*(i W1_s) + g_m*(i_bar W1_m) + g_g*((i||i_bar) W1_g) + b1``,
with ``W1_s``, ``W1_m``, ``W1_g`` the row blocks of ``w1``.  A call over
R rows of n distinct items therefore costs n*4d*hh for the projections
plus R*(3*hh + hh*h) for sequence rows, or R*(4*hh) for candidate rows
(training and evaluation alike fold ``w2`` into the readout), against
R*(4d*hh + hh*h) for the concat GEMM.  Rows are formed about ``CHUNK_ROWS``
at a time, so no (R, 4d) or (R, 3, hh) array exists; the readout backward
recomputes ``a1`` per chunk, so candidates keep no (R, hh) or (R, h)
array.  ``_branch_concat`` returns the gates (..., 3); ``fuse_forward``
applies them.

Ablation switches are gate values: ``no_attention`` sets every gate to
1 (branch = value vector), ``no_similar`` / ``no_global`` set the
similar / global gate to 0, and ``softmax_variant`` replaces the per-item
sigmoid with a masked softmax over sequence positions (standalone items,
such as candidates, get gate 1); the softmax variant is the one
configuration whose rows are not independent across positions.

Checkpoint format ``GHAE`` (``GHAE_HEADER``, then one ``_tensor_record``):
magic | version u16 | d_sem u32 | h_hidden u32 | h u32 | tensors w1, b1,
w2, b2 as float32 LE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binio
from .config import RunConfig
from .embedstore import EmbeddingMatrix, NeighborCache, _frozen
from .errors import DataError
from .ops import sigmoid, uniform_init

GHAE_MAGIC = b"GHAE"
GHAE_VERSION = 1
GHAE_HEADER = np.dtype([("magic", "S4"), ("version", "<u2"), ("d_sem", "<u4"),
                        ("h_hidden", "<u4"), ("h", "<u4")])


def init_params(cfg: RunConfig, d_sem: int, seed: int) -> dict[str, np.ndarray]:
    """Seeded symmetric uniform init, scale 1/sqrt(fan_in) per layer.

    ``cfg.h_hidden`` 0 means a hidden width of ``2 * h``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4AE]))
    din, hh, h = 4 * d_sem, cfg.h_hidden or 2 * cfg.h, cfg.h
    return {
        "w1": uniform_init(rng, (din, hh), din),
        "b1": uniform_init(rng, hh, din),
        "w2": uniform_init(rng, (hh, h), hh),
        "b2": uniform_init(rng, h, hh),
    }


@dataclass(frozen=True)
class SemanticStore:
    """A raw embedding matrix, its neighbor cache, and the dense id -> row map.

    ``rows[i]`` is the matrix row of dense id ``i``; ``None`` maps each id
    to its own row.  The rows must be distinct and inside the matrix
    (``pipeline`` checks them for every store it makes, including a ``grasp
    sweep`` k point's).  ``rows`` is frozen like the matrix and the
    cache, and ``lookup`` is its only reader.  A cache whose shape does not
    fit the matrix is a ``DataError``.
    """

    matrix: EmbeddingMatrix
    cache: NeighborCache
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.cache.rows != self.matrix.rows or self.cache.dim != self.matrix.dim:
            raise DataError(
                f"cache shape {(self.cache.rows, self.cache.dim)} does not match "
                f"matrix {(self.matrix.rows, self.matrix.dim)}"
            )
        rows = np.arange(self.matrix.rows) if self.rows is None else self.rows
        object.__setattr__(self, "rows", _frozen(np.asarray(rows, dtype=np.int64)))

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(e, e_bar): the embeddings and pooled neighbor means of dense ``ids``."""
        rows = self.rows[ids]
        return self.matrix.values[rows], self.cache.pooled_means[rows]


# ---------------------------------------------------------------------------
# Batched core

# Rows of the hidden layer formed per step: small enough that a step's
# gathered projections and activations stay a few MB.
CHUNK_ROWS = 2048


def _masked_softmax(pre: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
    # Softmax along ``axis``, restricted to mask-valid entries.
    z = np.where(mask, pre, -np.inf)
    zmax = z.max(axis=axis, keepdims=True)
    zmax = np.where(np.isfinite(zmax), zmax, 0.0)
    e = np.exp(z - zmax) * mask
    total = e.sum(axis=axis, keepdims=True)
    return np.where(total > 0, e / np.where(total == 0, 1.0, total), 0.0)


def _branch_concat(u, ubar, it, itbar, cfg: RunConfig, positions_mask=None):
    """Branch gates (self, similar, global) per row, shape (..., 3).

    The gated concat ``[g_s*i, g_m*i_bar, g_g*(i||i_bar)]`` is never
    materialised: ``fuse_forward`` applies these gates to per-item
    projections.  ``u``/``ubar`` broadcast against ``it``/``itbar``.
    ``cfg``'s ablations become gate values: ``no_attention`` gives ones,
    ``no_similar``/``no_global`` a zero column.  Under
    ``cfg.softmax_variant`` a ``positions_mask`` marks a sequence: each
    branch's pre-activations are normalised across the last axis of the
    leading shape (positions), over the mask's real entries; without a
    mask (standalone items, such as candidates) the variant's gates are
    ones.
    """
    d = it.shape[-1]
    s, m = np.einsum("...d,...d->...", u, it), np.einsum("...d,...d->...", ubar, itbar)
    pre = np.stack([s / np.sqrt(d), m / np.sqrt(d), (s + m) / np.sqrt(2 * d)], axis=-1)
    if cfg.no_attention or (cfg.softmax_variant and positions_mask is None):
        gates = np.ones_like(pre)
    elif cfg.softmax_variant:
        mask = np.broadcast_to(positions_mask[..., None], pre.shape)
        gates = _masked_softmax(pre, mask, axis=-2)
    else:
        gates = sigmoid(pre)
    if cfg.no_similar:
        gates[..., 1] = 0.0
    if cfg.no_global:
        gates[..., 2] = 0.0
    return gates


def _projections(items: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """First-layer projections (n, 3, hh) of item rows ``[i || i_bar]``, one per branch."""
    d = items.shape[1] // 2
    return np.stack([items[:, :d] @ w1[:d], items[:, d:] @ w1[d : 2 * d], items @ w1[2 * d :]],
                    axis=1)


def _hidden(g2, proj, idx, rows, b1, out=None) -> np.ndarray:
    """``relu(a1)`` for ``rows``: three gated projection rows plus ``b1``, formed in place."""
    h1 = np.einsum("rk,rkh->rh", g2[rows], proj[idx[rows]], out=out)
    h1 += b1
    return np.maximum(h1, 0.0, out=h1)


def fuse_forward(gates: np.ndarray, index: np.ndarray, items: np.ndarray,
                 p: dict[str, np.ndarray], readout: np.ndarray | None = None):
    """Fusion MLP on gated branches, factored through per-item projections.

    ``gates`` (..., 3) come from ``_branch_concat``; row ``r`` reads item
    ``items[index[r]]``, where ``items`` (n, 2d) holds ``[i || i_bar]``
    of each distinct item once.  The first layer of the concat row is
    ``a1 = g_s*(i W1_s) + g_m*(i_bar W1_m) + g_g*((i||i_bar) W1_g) + b1``,
    so ``w1`` multiplies the n items only and each row sums three
    gathered projection rows, about ``CHUNK_ROWS`` rows at a time: a
    chunk holds whole lists along the last axis (C items each).

    Returns (fused (..., h), cache).  With ``readout``, one row per
    candidate list (``index.shape[:-1] + (h,)``; flat row ``r`` is in list
    ``r // C``), returns (logits, cache) instead, with ``logits[..., c] =
    readout . fused[..., c]`` computed as ``relu(a1) . (w2 readout) +
    readout . b2``.  The readout cache holds the inputs only.
    """
    w1, b1, w2, b2 = p["w1"], p["b1"], p["w2"], p["b2"]
    lead = gates.shape[:-1]
    g2, idx = gates.reshape(-1, 3), index.reshape(-1)
    proj = _projections(items, w1)
    n, C = len(idx), max(lead[-1], 1)
    step = max(CHUNK_ROWS // C, 1) * C  # whole lists along the last axis per chunk
    if readout is None:
        h1, out = np.empty((n, w1.shape[1])), np.empty((n, w2.shape[1]))
    else:
        ro = readout.reshape(-1, w2.shape[1])
        v = ro @ w2.T
        out = np.empty(n)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        if readout is None:
            out[rows] = _hidden(g2, proj, idx, rows, b1, out=h1[rows]) @ w2
        else:
            hc = _hidden(g2, proj, idx, rows, b1).reshape(-1, C, v.shape[1])
            out[rows] = np.einsum("nch,nh->nc", hc, v[start // C : rows.stop // C]).reshape(-1)
    if readout is None:
        out += b2
        return out.reshape(lead + out.shape[1:]), (gates, index, items, h1, None)
    return out.reshape(lead) + (ro @ b2).reshape(lead[:-1] + (1,)), (gates, index, items, None, readout)


def fuse_backward(cache, d_out: np.ndarray, p: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Analytic gradients of ``fuse_forward``'s output w.r.t. the MLP parameters.

    The semantic inputs are frozen and get no gradient; ``d_out`` is the
    loss gradient w.r.t. the fused rows, or the logits of a readout cache.
    ``d_w1`` is the gated concat's transpose times ``d_a1``, with the
    concat rows rebuilt per chunk (measured faster than per-item segment
    sums of ``g * d_a1``).

    A readout cache also yields ``"readout"``.  With ``v = readout w2^T``,
    ``s[n] = sum_c d_logit[n, c]`` and ``d_v[n] = sum_c d_logit[n, c]
    relu(a1[n, c])``: ``d_w2 = d_v^T readout``, ``d_b2 = s readout``,
    ``d_readout = d_v w2 + s b2`` and ``d_a1 = d_logit v[n] [a1 > 0]``,
    with ``a1`` recomputed per chunk.
    """
    w1, b1, w2, b2 = p["w1"], p["b1"], p["w2"], p["b2"]
    gates, index, items, h1, readout = cache
    g2, idx = gates.reshape(-1, 3), index.reshape(-1)
    d, C = items.shape[1] // 2, max(index.shape[-1], 1)
    step = max(CHUNK_ROWS // C, 1) * C
    if readout is None:
        d2 = d_out.reshape(-1, d_out.shape[-1])
    else:
        ro = readout.reshape(-1, w2.shape[1])
        d_logit = d_out.reshape(len(ro), -1)
        v = ro @ w2.T
        d_v = np.zeros_like(v)
        proj = _projections(items, w1)
    d_w1, d_b1 = np.zeros_like(w1), np.zeros_like(b1)
    for start in range(0, len(idx), step):
        rows = slice(start, min(start + step, len(idx)))
        if readout is None:
            d_a1 = d2[rows] @ w2.T
            d_a1 *= h1[rows] > 0
        else:
            lists = slice(start // C, rows.stop // C)
            hc = _hidden(g2, proj, idx, rows, b1)
            d_v[lists] = np.einsum("nc,nch->nh", d_logit[lists], hc.reshape(-1, C, hc.shape[1]))
            d_a1 = (d_logit[lists, :, None] * v[lists, None, :]).reshape(hc.shape)
            d_a1 *= hc > 0
        d_b1 += d_a1.sum(axis=0)
        vals, g = items[idx[rows]], g2[rows]
        gated = np.empty((len(vals), 4 * d))
        np.multiply(g[:, :1], vals[:, :d], out=gated[:, :d])
        np.multiply(g[:, 1:2], vals[:, d:], out=gated[:, d : 2 * d])
        np.multiply(g[:, 2:], vals, out=gated[:, 2 * d :])
        d_w1 += gated.T @ d_a1
    if readout is None:
        return {"w1": d_w1, "b1": d_b1, "w2": h1.T @ d2, "b2": d2.sum(axis=0)}
    s = d_logit.sum(axis=1)
    return {"w1": d_w1, "b1": d_b1, "w2": d_v.T @ ro, "b2": s @ ro,
            "readout": (d_v @ w2 + s[:, None] * b2).reshape(readout.shape)}


# ---------------------------------------------------------------------------
# Checkpoints


def _dims(p: dict[str, np.ndarray]) -> dict[str, int]:
    """The GHAE header fields, in file order, as ``p``'s shapes imply them."""
    return {"d_sem": p["w1"].shape[0] // 4, "h_hidden": p["w1"].shape[1], "h": p["w2"].shape[1]}


def _tensor_record(p: dict[str, np.ndarray]) -> list:
    return [(name, "<f4", tensor.shape) for name, tensor in p.items()]


def save_hae_checkpoint(p: dict[str, np.ndarray], path) -> None:
    binio.save(path, GHAE_HEADER, (GHAE_MAGIC, GHAE_VERSION, *_dims(p).values()),
               np.array(tuple(p.values()), dtype=_tensor_record(p)))


def load_hae_checkpoint(p: dict[str, np.ndarray], path) -> None:
    """Overwrite ``p`` from a GHAE file whose header matches its shapes.

    The whole file is read and checked first, so on ``FormatError`` ``p`` is unchanged.
    """
    r = binio.read_file(path)
    head = r.header(GHAE_HEADER, GHAE_MAGIC, (GHAE_VERSION,))
    for name, want in _dims(p).items():
        r.expect_field(name, head[name], want)
    record = r.records(_tensor_record(p), 1)[0]
    r.expect_eof()
    for name, tensor in p.items():
        tensor[...] = record[name]
