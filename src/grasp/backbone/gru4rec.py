"""GRU-based sequential encoder with hand-written BPTT.

Gate layout inside the packed projections is (reset | update | candidate).
Zero initial state; at masked (padded) positions the state is forced back
to zero, which -- because padding is always a left prefix -- is exactly
equivalent to starting the recurrence at the first real position.

The recurrence runs time-major: each layer's input projection is one
GEMM over the ``(L, B, h)`` transpose of its input, and the caches are
``(L, B, ·)`` arrays, so every step reads and writes contiguous rows.
Per layer the cache holds the input, the states, the sigmoid-activated
``r|z`` gates packed as ``(L, B, 2h)``, the candidate ``n`` and the
recurrent candidate term ``hn_lin``.  The state entering step ``t`` is
``states[t-1]`` (zero at ``t = 0``), so it is not stored twice.  With
``last_only`` no cache is kept: inner layers keep only their states and
the last layer only its running state.
"""

from __future__ import annotations

import numpy as np

from ..config import RunConfig
from ..ops import sigmoid, uniform_init
from .common import dropout_mask


class Gru4Rec:
    def __init__(self, cfg: RunConfig, seed: int):
        """``cfg.n_layers`` 0 means one layer."""
        if cfg.backbone != "gru4rec":
            raise ValueError(f"config backbone {cfg.backbone!r} is not gru4rec")
        self.cfg = cfg
        self.n_layers = cfg.n_layers or 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6B0]))
        h = cfg.h
        self.params: dict[str, np.ndarray] = {}
        for layer in range(self.n_layers):
            self.params[f"w_x{layer}"] = uniform_init(rng, (h, 3 * h), h)
            self.params[f"w_h{layer}"] = uniform_init(rng, (h, 3 * h), h)
            self.params[f"b{layer}"] = np.zeros(3 * h)

    def forward(self, x: np.ndarray, mask: np.ndarray, *, rng=None, last_only: bool = False):
        """Batched recurrence over a left-padded (B, L, h) grid.

        Returns (outputs, cache); outputs at padded positions are zero.
        With ``last_only`` returns (the (B, h) last-position outputs, None).
        """
        B, L, h = x.shape
        if h != self.cfg.h:
            raise ValueError(f"input dim {h} != configured h {self.cfg.h}")
        if L == 0:
            raise ValueError("empty sequence: GRU needs at least one position")
        p = self.cfg.dropout if rng is not None else 0.0
        caches = []
        layer_in = x.transpose(1, 0, 2)
        for layer in range(self.n_layers):
            drop = dropout_mask(rng, (B, L, h), p) if p > 0.0 else None
            if drop is not None:
                layer_in = np.multiply(layer_in, drop.transpose(1, 0, 2), out=np.empty((L, B, h)))
            layer_in = np.ascontiguousarray(layer_in)
            states, cache = self._layer_forward(
                layer, layer_in, mask, keep_cache=not last_only,
                keep_states=not last_only or layer < self.n_layers - 1,
            )
            caches.append((cache, drop))
            layer_in = states
        if last_only:
            return layer_in, None
        return np.ascontiguousarray(layer_in.transpose(1, 0, 2)), (caches, mask)

    def _layer_forward(self, layer: int, x: np.ndarray, mask: np.ndarray, *,
                       keep_cache: bool, keep_states: bool):
        """One layer over a time-major (L, B, h) input.

        Returns (states (L, B, h), cache), or without ``keep_states`` the
        last state (B, h); the cache is None without ``keep_cache``.
        """
        L, B, h = x.shape
        w_h = self.params[f"w_h{layer}"]
        gx = x.reshape(-1, h) @ self.params[f"w_x{layer}"]
        gx += self.params[f"b{layer}"]
        gx = gx.reshape(L, B, 3 * h)

        cached = L if keep_cache else 1
        rz_all = np.empty((cached, B, 2 * h))
        n_all = np.empty((cached, B, h))
        hn_lin_all = np.empty((cached, B, h)) if keep_cache else None
        states = np.empty((L if keep_states else 2, B, h))
        gh = np.empty((B, 3 * h))
        zh = np.empty((B, h))
        h_prev = np.zeros((B, h))
        for t in range(L):
            c = t if keep_cache else 0
            np.matmul(h_prev, w_h, out=gh)
            rz = sigmoid(np.add(gx[t, :, : 2 * h], gh[:, : 2 * h], out=rz_all[c]), out=rz_all[c])
            r, z = rz[:, :h], rz[:, h:]
            hn_lin = gh[:, 2 * h :]
            if keep_cache:
                hn_lin_all[t] = hn_lin
            n = np.multiply(r, hn_lin, out=n_all[c])
            n += gx[t, :, 2 * h :]
            np.tanh(n, out=n)
            # (1 - z) * n + z * h_prev, in this order: n + z * (h_prev - n)
            # is equal algebraically but not bit for bit.
            h_new = np.subtract(1.0, z, out=states[t if keep_states else t % 2])
            h_new *= n
            h_new += np.multiply(z, h_prev, out=zh)
            h_new *= mask[:, t, None]
            h_prev = h_new
        if not keep_cache:
            return (states if keep_states else h_prev), None
        return states, (layer, x, states, rz_all, n_all, hn_lin_all)

    def backward(self, cache, d_out: np.ndarray):
        """BPTT; returns (d_inputs, parameter gradients)."""
        caches, mask = cache
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_layer = d_out
        for layer_cache, drop in reversed(caches):
            d_layer = self._layer_backward(layer_cache, mask, d_layer, grads)
            if drop is not None:
                d_layer = d_layer * drop
        return d_layer, grads

    def _layer_backward(self, cache, mask, d_out, grads):
        """Gate gradients step by step into (B, L, 3h) buffers, then the
        weight GEMMs over (B, L)-ordered rows."""
        layer, x, states, rz_all, n_all, hn_lin_all = cache
        L, B, h = x.shape
        w_x = self.params[f"w_x{layer}"]
        w_h = self.params[f"w_h{layer}"]
        d_gx_all = np.empty((B, L, 3 * h))
        d_gh_all = np.empty((B, L, 3 * h))
        d_h = np.zeros((B, h))
        h_zero = np.zeros((B, h))
        for t in reversed(range(L)):
            dh_total = (d_out[:, t] + d_h) * mask[:, t, None]
            r, z = rz_all[t, :, :h], rz_all[t, :, h:]
            n = n_all[t]
            h_prev = states[t - 1] if t else h_zero
            d_gx, d_gh = d_gx_all[:, t], d_gh_all[:, t]
            da_r, da_z, da_n = d_gx[:, :h], d_gx[:, h : 2 * h], d_gx[:, 2 * h :]
            np.multiply(dh_total, 1.0 - z, out=da_n)
            da_n *= 1.0 - n * n
            np.multiply(da_n, hn_lin_all[t], out=da_r)
            da_r *= r
            da_r *= 1.0 - r
            np.subtract(h_prev, n, out=da_z)
            da_z *= dh_total
            da_z *= z
            da_z *= 1.0 - z
            d_gh[:, : 2 * h] = d_gx[:, : 2 * h]
            np.multiply(da_n, r, out=d_gh[:, 2 * h :])
            d_h = dh_total * z
            d_h += d_gh @ w_h.T
        prev = np.zeros((B, L, h))
        prev[:, 1:] = states[:-1].transpose(1, 0, 2)
        flat_x = x.transpose(1, 0, 2).reshape(-1, h)
        flat_gx = d_gx_all.reshape(-1, 3 * h)
        flat_gh = d_gh_all.reshape(-1, 3 * h)
        grads[f"w_x{layer}"] += flat_x.T @ flat_gx
        grads[f"w_h{layer}"] += prev.reshape(-1, h).T @ flat_gh
        grads[f"b{layer}"] += flat_gx.sum(axis=0)
        return (flat_gx @ w_x.T).reshape(B, L, h)
