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
from .common import check_table_call, dropout_mask

LN_EPS = 1e-8
MASKED_SCORE = -1e30


def _scale(t, m):
    """``t`` times a dropout mask, or ``t`` itself without one."""
    return t if m is None else t * m


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

    # -- layers: ``w``/``b`` and ``ln``+``layer`` name parameters -------
    def _linear(self, x, w, b=None):
        y = mm(x, self.params[w])
        return y if b is None else y + self.params[b]

    def _linear_grads(self, grads, x, dy, w, b):
        """Accumulate ``_linear``'s weight and bias gradients; return d_x."""
        flat_dy = dy.reshape(-1, dy.shape[-1])
        grads[w] += x.reshape(-1, x.shape[-1]).T @ flat_dy
        if b is not None:
            grads[b] += flat_dy.sum(axis=0)
        return mm(dy, self.params[w].T)

    def _ln(self, x, ln, layer):
        """Layer norm over the last axis; returns (outputs, cache)."""
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS)
        xhat = xc * inv
        return self.params[f"{ln}_g{layer}"] * xhat + self.params[f"{ln}_b{layer}"], (xhat, inv)

    def _ln_grads(self, grads, cache, dy, ln, layer):
        """Accumulate ``_ln``'s gain and bias gradients; return d_x."""
        xhat, inv = cache
        grads[f"{ln}_g{layer}"] += (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
        grads[f"{ln}_b{layer}"] += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
        dxhat = dy * self.params[f"{ln}_g{layer}"]
        return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    def forward(self, x: np.ndarray, mask: np.ndarray, *, rng=None, last_only: bool = False,
                table=None):
        """Blocks over a left-padded (B, L, h) grid; returns (outputs, cache).

        Inputs at padded positions may hold any finite values.  Outputs
        there are zero, and so is ``backward``'s d_x; real positions never
        read them, because a padded key gets exactly zero weight from every
        real query and every other op is row-local.  So padding is masked
        only on the outputs and on the incoming gradient.

        With ``last_only`` returns (the (B, h) last-position outputs, None):
        the last block computes keys and values for every position but its
        query, attention, output projection, FFN and the final layer norm
        for the last position only.  With ``table`` (inference only), ``x``
        is a (B, L) id grid into it, gathered to ``table[x]``.
        """
        check_table_call(table, rng, last_only)
        if table is not None:
            x = table[x]
        B, L, h = x.shape
        cfg = self.cfg
        if h != cfg.h:
            raise ValueError(f"input dim {h} != configured h {cfg.h}")
        if L > cfg.max_seq_len:
            raise ValueError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
        p = cfg.dropout if rng is not None else 0.0

        def drop(t):
            """``t`` after dropout, and its mask (None without dropout)."""
            m = dropout_mask(rng, t.shape, p) if p > 0.0 else None
            return _scale(t, m), m

        lengths = mask.sum(axis=1)
        pos_idx = np.arange(L)[None, :] - (L - lengths)[:, None]
        pos_idx = np.clip(pos_idx, 0, None)
        cur, dm0 = drop(x + self.params["pos_emb"][pos_idx])

        # allowed[b, 0, i, j]: key j visible from query i (causal, real key).
        causal = np.tril(np.ones((L, L), dtype=bool))
        allowed = causal[None, None, :, :] & mask[:, None, None, :]
        hd = cfg.h // cfg.n_heads

        layer_caches = []
        rows = slice(None)
        for layer in range(self.n_layers):
            if last_only and layer == self.n_layers - 1:
                rows = slice(L - 1, L)
            a, ln1_cache = self._ln(cur, "ln1", layer)
            qh = self._split(self._linear(a[:, rows], f"wq{layer}", f"bq{layer}"))
            kh = self._split(self._linear(a, f"wk{layer}"))
            vh = self._split(self._linear(a, f"wv{layer}", f"bv{layer}"))
            scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
            scores = np.where(allowed[:, :, rows], scores, MASKED_SCORE)
            smax = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - smax)
            s = e / e.sum(axis=-1, keepdims=True)
            ctx = self._merge(s @ vh)
            attn_out, dm1 = drop(self._linear(ctx, f"wo{layer}", f"bo{layer}"))
            x_mid = cur[:, rows] + attn_out

            f, ln2_cache = self._ln(x_mid, "ln2", layer)
            a1 = self._linear(f, f"wf1{layer}", f"bf1{layer}")
            h1 = np.maximum(a1, 0.0)
            ff, dm2 = drop(self._linear(h1, f"wf2{layer}", f"bf2{layer}"))
            cur = x_mid + ff

            if not last_only:
                layer_caches.append((ln1_cache, a, qh, kh, vh, s, ctx, dm1, ln2_cache, f, a1, h1, dm2))

        out, lnf_cache = self._ln(cur, "lnf", "")
        out = out * mask[:, rows, None]
        if last_only:
            return out[:, -1], None
        return out, (dm0, pos_idx, mask, layer_caches, lnf_cache)

    def backward(self, cache, d_out: np.ndarray):
        dm0, pos_idx, mask, layer_caches, lnf_cache = cache
        grads = {name: np.zeros_like(t) for name, t in self.params.items()}
        hd = self.cfg.h // self.cfg.n_heads

        d = self._ln_grads(grads, lnf_cache, d_out * mask[:, :, None], "lnf", "")
        for layer in reversed(range(self.n_layers)):
            (ln1_cache, a, qh, kh, vh, s, ctx, dm1, ln2_cache, f, a1, h1, dm2) = layer_caches[layer]

            d_h1 = self._linear_grads(grads, h1, _scale(d, dm2), f"wf2{layer}", f"bf2{layer}")
            d_f = self._linear_grads(grads, f, d_h1 * (a1 > 0), f"wf1{layer}", f"bf1{layer}")
            d_xmid = d + self._ln_grads(grads, ln2_cache, d_f, "ln2", layer)

            d_ctxh = self._split(
                self._linear_grads(grads, ctx, _scale(d_xmid, dm1), f"wo{layer}", f"bo{layer}"))
            d_s = d_ctxh @ vh.transpose(0, 1, 3, 2)
            d_vh = s.transpose(0, 1, 3, 2) @ d_ctxh
            d_scores = s * (d_s - (d_s * s).sum(axis=-1, keepdims=True))
            d_qh = d_scores @ kh / np.sqrt(hd)
            d_kh = d_scores.transpose(0, 1, 3, 2) @ qh / np.sqrt(hd)

            d_a = np.zeros_like(a)
            for w, b, d_xh in (("wq", "bq", d_qh), ("wk", None, d_kh), ("wv", "bv", d_vh)):
                d_a += self._linear_grads(grads, a, self._merge(d_xh), f"{w}{layer}",
                                          b and f"{b}{layer}")
            d = d_xmid + self._ln_grads(grads, ln1_cache, d_a, "ln1", layer)

        d = _scale(d, dm0)
        grads["pos_emb"] = segment_sum(pos_idx[mask], d[mask], len(grads["pos_emb"]))
        return d, grads
