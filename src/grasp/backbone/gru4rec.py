"""GRU-based sequential encoder with hand-written BPTT.

Gate layout inside the packed projections is (reset | update | candidate).
Zero initial state; at masked (padded) positions the state is forced back
to zero, which -- because padding is always a left prefix -- is exactly
equivalent to starting the recurrence at the first real position.

The recurrence runs time-major, so every step reads and writes
contiguous ``(B, ·)`` rows of ``(L, B, ·)`` arrays.  Per layer, a
training forward keeps four of them, and the backward consumes them:

* ``x`` ``(L, B, h)``: the layer input, after dropout.  Read only.
* ``states`` ``(L, B, h)``: the layer outputs.  The state entering step
  ``t`` is ``states[t-1]`` (zero at ``t = 0``).  Read only.
* ``act`` ``(L, B, 3h)``: born as the input-projection GEMM plus bias.
  Forward step ``t`` overwrites ``act[t]`` with ``sigmoid(r|z) | tanh(n)``;
  backward step ``t`` reads those gates, then overwrites ``act[t]`` with
  the pre-activation gradients ``da_r | da_z | da_n``.
* ``hn_lin_all`` ``(L, B, h)``: the recurrent candidate term ``h_prev·W_hn``.
  Backward step ``t`` reads it, then overwrites it with ``da_n·r``, the
  gradient of that term.

Backward step ``t`` overwrites only row ``t``, which no earlier step
reads, and the weight gradients and ``d_inputs`` are GEMMs over the
overwritten ``act`` and ``hn_lin_all`` once the loop ends.  So a cache
serves one backward.  With ``last_only`` no cache is kept: the gates go
to contiguous per-step scratch, inner layers keep only their states and
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
        act = x.reshape(-1, h) @ self.params[f"w_x{layer}"]
        act += self.params[f"b{layer}"]
        act = act.reshape(L, B, 3 * h)

        hn_lin_all = np.empty((L, B, h)) if keep_cache else None
        rz_step, n_step = np.empty((B, 2 * h)), np.empty((B, h))  # last_only's gates
        states = np.empty((L if keep_states else 2, B, h))
        gh = np.empty((B, 3 * h))
        zh = np.empty((B, h))
        h_prev = np.zeros((B, h))
        for t in range(L):
            a = act[t]
            rz_out, n_out = (a[:, : 2 * h], a[:, 2 * h :]) if keep_cache else (rz_step, n_step)
            np.matmul(h_prev, w_h, out=gh)
            rz = sigmoid(np.add(a[:, : 2 * h], gh[:, : 2 * h], out=rz_out), out=rz_out)
            r, z = rz[:, :h], rz[:, h:]
            hn_lin = gh[:, 2 * h :]
            if keep_cache:
                hn_lin_all[t] = hn_lin
            n = np.add(a[:, 2 * h :], np.multiply(r, hn_lin, out=zh), out=n_out)
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
        return states, (layer, x, states, act, hn_lin_all)

    def backward(self, cache, d_out: np.ndarray):
        """BPTT; returns (d_inputs, parameter gradients).  Consumes ``cache``."""
        caches, mask = cache
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_layer = d_out.transpose(1, 0, 2)
        for layer_cache, drop in reversed(caches):
            d_layer = self._layer_backward(layer_cache, mask, d_layer, grads)
            if drop is not None:
                d_layer *= drop.transpose(1, 0, 2)
        return np.ascontiguousarray(d_layer.transpose(1, 0, 2)), grads

    def _layer_backward(self, cache, mask, d_out, grads):
        """Gate gradients step by step over the cache from a time-major
        ``d_out``, then the weight GEMMs over its (L, B)-ordered rows;
        returns the (L, B, h) d_inputs."""
        layer, x, states, act, hn_lin_all = cache
        L, B, h = x.shape
        w_x = self.params[f"w_x{layer}"]
        w_h = self.params[f"w_h{layer}"]
        d_gh = np.empty((B, 3 * h))
        da_r, da_z, da_n = d_gh[:, :h], d_gh[:, h : 2 * h], d_gh[:, 2 * h :]
        d_h = np.zeros((B, h))
        h_zero = np.zeros((B, h))
        for t in reversed(range(L)):
            dh_total = (d_out[t] + d_h) * mask[:, t, None]
            a = act[t]
            r, z, n = a[:, :h], a[:, h : 2 * h], a[:, 2 * h :]
            h_prev = states[t - 1] if t else h_zero
            np.multiply(dh_total, 1.0 - z, out=da_n)
            da_n *= 1.0 - n * n
            np.multiply(da_n, hn_lin_all[t], out=da_r)
            da_r *= r
            da_r *= 1.0 - r
            np.subtract(h_prev, n, out=da_z)
            da_z *= dh_total
            da_z *= z
            da_z *= 1.0 - z
            d_h = dh_total * z
            # Every read of row t is above; from here row t holds gradients.
            a[:, 2 * h :] = da_n
            da_n *= r
            a[:, : 2 * h] = d_gh[:, : 2 * h]
            hn_lin_all[t] = da_n
            d_h += d_gh @ w_h.T
        flat_act = act.reshape(-1, 3 * h)
        prev = states[:-1].reshape(-1, h)
        grads[f"w_x{layer}"] += x.reshape(-1, h).T @ flat_act
        grads[f"w_h{layer}"][:, : 2 * h] += prev.T @ act[1:, :, : 2 * h].reshape(-1, 2 * h)
        grads[f"w_h{layer}"][:, 2 * h :] += prev.T @ hn_lin_all[1:].reshape(-1, h)
        grads[f"b{layer}"] += flat_act.sum(axis=0)
        return (flat_act @ w_x.T).reshape(L, B, h)
