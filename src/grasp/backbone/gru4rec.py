"""GRU-based sequential encoder with hand-written BPTT.

Gate layout inside the packed projections is (reset | update | candidate).
Zero initial state; at masked (padded) positions the state is forced back
to zero, which -- because padding is always a left prefix -- is exactly
equivalent to starting the recurrence at the first real position.
"""

from __future__ import annotations

import numpy as np

from ..config import RunConfig
from ..ops import sigmoid
from .common import dropout_mask, uniform_init


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

    def forward(self, x: np.ndarray, mask: np.ndarray, *, training: bool = False, rng=None):
        """Batched recurrence over a left-padded (B, L, h) grid.

        Returns (outputs, cache); outputs at padded positions are zero.
        """
        B, L, h = x.shape
        if h != self.cfg.h:
            raise ValueError(f"input dim {h} != configured h {self.cfg.h}")
        if L == 0:
            raise ValueError("empty sequence: GRU needs at least one position")
        p = self.cfg.dropout if training else 0.0
        caches = []
        layer_in = x
        for layer in range(self.n_layers):
            drop = (
                dropout_mask(rng, layer_in.shape, p)
                if p > 0.0
                else np.ones_like(layer_in)
            )
            xin = layer_in * drop if p > 0.0 else layer_in
            out, cache = self._layer_forward(layer, xin, mask)
            caches.append((cache, drop if p > 0.0 else None))
            layer_in = out
        return layer_in, (caches, mask)

    def _layer_forward(self, layer: int, x: np.ndarray, mask: np.ndarray):
        B, L, h = x.shape
        w_x = self.params[f"w_x{layer}"]
        w_h = self.params[f"w_h{layer}"]
        b = self.params[f"b{layer}"]
        gx_all = (x.reshape(-1, h) @ w_x).reshape(B, L, 3 * h) + b

        h_prev = np.zeros((B, h))
        states = np.empty((B, L, h))
        r_all = np.empty((B, L, h))
        z_all = np.empty((B, L, h))
        n_all = np.empty((B, L, h))
        hn_lin_all = np.empty((B, L, h))
        prev_all = np.empty((B, L, h))
        for t in range(L):
            gh = h_prev @ w_h
            r = sigmoid(gx_all[:, t, :h] + gh[:, :h])
            z = sigmoid(gx_all[:, t, h : 2 * h] + gh[:, h : 2 * h])
            hn_lin = gh[:, 2 * h :]
            n = np.tanh(gx_all[:, t, 2 * h :] + r * hn_lin)
            h_new = (1.0 - z) * n + z * h_prev
            h_new = h_new * mask[:, t, None]
            prev_all[:, t] = h_prev
            r_all[:, t] = r
            z_all[:, t] = z
            n_all[:, t] = n
            hn_lin_all[:, t] = hn_lin
            states[:, t] = h_new
            h_prev = h_new
        cache = (layer, x, prev_all, r_all, z_all, n_all, hn_lin_all)
        return states, cache

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
        layer, x, prev_all, r_all, z_all, n_all, hn_lin_all = cache
        B, L, h = x.shape
        w_x = self.params[f"w_x{layer}"]
        w_h = self.params[f"w_h{layer}"]
        d_gx_all = np.empty((B, L, 3 * h))
        d_gh_all = np.empty((B, L, 3 * h))
        d_h = np.zeros((B, h))
        for t in reversed(range(L)):
            dh_total = (d_out[:, t] + d_h) * mask[:, t, None]
            r, z, n = r_all[:, t], z_all[:, t], n_all[:, t]
            h_prev, hn_lin = prev_all[:, t], hn_lin_all[:, t]
            dn = dh_total * (1.0 - z)
            dz = dh_total * (h_prev - n)
            d_hprev = dh_total * z
            da_n = dn * (1.0 - n * n)
            dr = da_n * hn_lin
            d_hn_lin = da_n * r
            da_r = dr * r * (1.0 - r)
            da_z = dz * z * (1.0 - z)
            d_gx_all[:, t] = np.concatenate([da_r, da_z, da_n], axis=1)
            d_gh = np.concatenate([da_r, da_z, d_hn_lin], axis=1)
            d_gh_all[:, t] = d_gh
            d_h = d_hprev + d_gh @ w_h.T
        flat_x = x.reshape(-1, h)
        flat_prev = prev_all.reshape(-1, h)
        flat_gx = d_gx_all.reshape(-1, 3 * h)
        flat_gh = d_gh_all.reshape(-1, 3 * h)
        grads[f"w_x{layer}"] += flat_x.T @ flat_gx
        grads[f"w_h{layer}"] += flat_prev.T @ flat_gh
        grads[f"b{layer}"] += flat_gx.sum(axis=0)
        return (d_gx_all.reshape(-1, 3 * h) @ w_x.T).reshape(B, L, h)
