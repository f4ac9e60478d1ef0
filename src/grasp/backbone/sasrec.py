"""Self-attention sequential encoder with hand-written backward pass.

Pre-layer-norm blocks: ``x += MHA(LN(x))`` with a causal + padding mask,
then ``x += FFN(LN(x))``, with a final layer norm on top.  Learned
positional embeddings are indexed relative to each sequence's first real
position, so outputs at real positions are invariant to the amount of
left padding.  Dropout (only with an ``rng``) sits after the input
embedding and on each sublayer output before its residual add.
"""

from __future__ import annotations

import numpy as np

from ..config import RunConfig
from ..ops import mm, segment_sum, uniform_init
from .common import dropout_mask

LN_EPS = 1e-8
MASKED_SCORE = -1e30


def _ln_forward(x, g, b):
    mean = x.mean(axis=-1, keepdims=True)
    xc = x - mean
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ln_backward(cache, g, dy):
    xhat, inv = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


class SasRec:
    def __init__(self, cfg: RunConfig, seed: int):
        """``cfg.n_layers`` 0 means two blocks."""
        if cfg.backbone != "sasrec":
            raise ValueError(f"config backbone {cfg.backbone!r} is not sasrec")
        self.cfg = cfg
        self.n_layers = cfg.n_layers or 2
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A5]))
        h = cfg.h
        p: dict[str, np.ndarray] = {}
        p["pos_emb"] = uniform_init(rng, (cfg.max_seq_len, h), h)
        for layer in range(self.n_layers):
            p[f"ln1_g{layer}"] = np.ones(h)
            p[f"ln1_b{layer}"] = np.zeros(h)
            for name in ("wq", "wk", "wv", "wo"):
                p[f"{name}{layer}"] = uniform_init(rng, (h, h), h)
                if name != "wk":  # a key bias adds q.bk to all of a query's scores: inert
                    p[f"b{name[1]}{layer}"] = np.zeros(h)
            p[f"ln2_g{layer}"] = np.ones(h)
            p[f"ln2_b{layer}"] = np.zeros(h)
            p[f"wf1{layer}"] = uniform_init(rng, (h, h), h)
            p[f"bf1{layer}"] = np.zeros(h)
            p[f"wf2{layer}"] = uniform_init(rng, (h, h), h)
            p[f"bf2{layer}"] = np.zeros(h)
        p["lnf_g"] = np.ones(h)
        p["lnf_b"] = np.zeros(h)
        self.params = p

    # -- heads ---------------------------------------------------------
    def _split(self, x):
        B, L, h = x.shape
        nh = self.cfg.n_heads
        return x.reshape(B, L, nh, h // nh).transpose(0, 2, 1, 3)

    def _merge(self, x):
        B, nh, L, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(B, L, nh * hd)

    def forward(self, x: np.ndarray, mask: np.ndarray, *, rng=None, last_only: bool = False):
        """Blocks over a left-padded (B, L, h) grid; returns (outputs, cache).

        With ``last_only`` returns (the (B, h) last-position outputs, None):
        the last block computes keys and values for every position but its
        query, attention, output projection, FFN and the final layer norm
        for the last position only.
        """
        B, L, h = x.shape
        cfg = self.cfg
        if h != cfg.h:
            raise ValueError(f"input dim {h} != configured h {cfg.h}")
        if L > cfg.max_seq_len:
            raise ValueError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
        p = cfg.dropout if rng is not None else 0.0
        fmask = mask.astype(np.float64)[:, :, None]

        lengths = mask.sum(axis=1)
        pos_idx = np.arange(L)[None, :] - (L - lengths)[:, None]
        pos_idx = np.clip(pos_idx, 0, None)
        x0 = (x + self.params["pos_emb"][pos_idx]) * fmask
        dm0 = dropout_mask(rng, x0.shape, p) if p > 0.0 else None
        cur = x0 * dm0 if dm0 is not None else x0

        # allowed[b, 0, i, j]: key j visible from query i (causal, real key).
        causal = np.tril(np.ones((L, L), dtype=bool))
        allowed = causal[None, None, :, :] & mask[:, None, None, :]

        layer_caches = []
        rows = slice(None)
        for layer in range(self.n_layers):
            if last_only and layer == self.n_layers - 1:
                rows = slice(L - 1, L)
            x_in = cur
            a, ln1_cache = _ln_forward(x_in, self.params[f"ln1_g{layer}"], self.params[f"ln1_b{layer}"])
            q = mm(a[:, rows], self.params[f"wq{layer}"]) + self.params[f"bq{layer}"]
            k = mm(a, self.params[f"wk{layer}"])
            v = mm(a, self.params[f"wv{layer}"]) + self.params[f"bv{layer}"]
            qh, kh, vh = self._split(q), self._split(k), self._split(v)
            hd = cfg.h // cfg.n_heads
            scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
            scores = np.where(allowed[:, :, rows], scores, MASKED_SCORE)
            smax = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - smax)
            s = e / e.sum(axis=-1, keepdims=True)
            ctx = self._merge(s @ vh)
            attn_out = mm(ctx, self.params[f"wo{layer}"]) + self.params[f"bo{layer}"]
            dm1 = dropout_mask(rng, attn_out.shape, p) if p > 0.0 else None
            x_mid = (x_in[:, rows] + (attn_out * dm1 if dm1 is not None else attn_out)) * fmask[:, rows]

            f, ln2_cache = _ln_forward(x_mid, self.params[f"ln2_g{layer}"], self.params[f"ln2_b{layer}"])
            a1 = mm(f, self.params[f"wf1{layer}"]) + self.params[f"bf1{layer}"]
            h1 = np.maximum(a1, 0.0)
            ff = mm(h1, self.params[f"wf2{layer}"]) + self.params[f"bf2{layer}"]
            dm2 = dropout_mask(rng, ff.shape, p) if p > 0.0 else None
            cur = (x_mid + (ff * dm2 if dm2 is not None else ff)) * fmask[:, rows]

            if not last_only:
                layer_caches.append(
                    (ln1_cache, a, qh, kh, vh, s, ctx, dm1, ln2_cache, f, a1, h1, dm2)
                )

        out, lnf_cache = _ln_forward(cur, self.params["lnf_g"], self.params["lnf_b"])
        out = out * fmask[:, rows]
        if last_only:
            return out[:, -1], None
        cache = (x0, dm0, fmask, pos_idx, mask, layer_caches, lnf_cache)
        return out, cache

    def backward(self, cache, d_out: np.ndarray):
        x0, dm0, fmask, pos_idx, mask, layer_caches, lnf_cache = cache
        cfg = self.cfg
        grads = {name: np.zeros_like(t) for name, t in self.params.items()}

        d = d_out * fmask
        d, dg, db = _ln_backward(lnf_cache, self.params["lnf_g"], d)
        grads["lnf_g"] += dg
        grads["lnf_b"] += db

        for layer in reversed(range(self.n_layers)):
            (ln1_cache, a, qh, kh, vh, s, ctx, dm1, ln2_cache, f, a1, h1, dm2) = layer_caches[layer]
            hd = cfg.h // cfg.n_heads

            d = d * fmask
            d_ff = d * dm2 if dm2 is not None else d
            flat_h1 = h1.reshape(-1, cfg.h)
            flat_dff = d_ff.reshape(-1, cfg.h)
            grads[f"wf2{layer}"] += flat_h1.T @ flat_dff
            grads[f"bf2{layer}"] += flat_dff.sum(axis=0)
            d_a1 = mm(d_ff, self.params[f"wf2{layer}"].T) * (a1 > 0)
            grads[f"wf1{layer}"] += f.reshape(-1, cfg.h).T @ d_a1.reshape(-1, cfg.h)
            grads[f"bf1{layer}"] += d_a1.reshape(-1, cfg.h).sum(axis=0)
            d_f = mm(d_a1, self.params[f"wf1{layer}"].T)
            d_ln2, dg, db = _ln_backward(ln2_cache, self.params[f"ln2_g{layer}"], d_f)
            grads[f"ln2_g{layer}"] += dg
            grads[f"ln2_b{layer}"] += db
            d_xmid = d + d_ln2

            d_xmid = d_xmid * fmask
            d_attn = d_xmid * dm1 if dm1 is not None else d_xmid
            flat_ctx = ctx.reshape(-1, cfg.h)
            flat_dattn = d_attn.reshape(-1, cfg.h)
            grads[f"wo{layer}"] += flat_ctx.T @ flat_dattn
            grads[f"bo{layer}"] += flat_dattn.sum(axis=0)
            d_ctxh = self._split(mm(d_attn, self.params[f"wo{layer}"].T))
            d_s = d_ctxh @ vh.transpose(0, 1, 3, 2)
            d_vh = s.transpose(0, 1, 3, 2) @ d_ctxh
            d_scores = s * (d_s - (d_s * s).sum(axis=-1, keepdims=True))
            d_qh = d_scores @ kh / np.sqrt(hd)
            d_kh = d_scores.transpose(0, 1, 3, 2) @ qh / np.sqrt(hd)
            d_q, d_k, d_v = self._merge(d_qh), self._merge(d_kh), self._merge(d_vh)

            flat_a = a.reshape(-1, cfg.h)
            d_a = np.zeros_like(a)
            for nm, dx in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
                flat_dx = dx.reshape(-1, cfg.h)
                grads[f"{nm}{layer}"] += flat_a.T @ flat_dx
                if nm != "wk":
                    grads[f"b{nm[1]}{layer}"] += flat_dx.sum(axis=0)
                d_a += mm(dx, self.params[f"{nm}{layer}"].T)
            d_ln1, dg, db = _ln_backward(ln1_cache, self.params[f"ln1_g{layer}"], d_a)
            grads[f"ln1_g{layer}"] += dg
            grads[f"ln1_b{layer}"] += db
            d = d_xmid + d_ln1

        if dm0 is not None:
            d = d * dm0
        d = d * fmask
        grads["pos_emb"] = segment_sum(pos_idx[mask], d[mask], len(grads["pos_emb"]))
        return d, grads
