"""GRU-based sequential encoder with hand-written BPTT.

Gate layout inside the packed ``(h, 3h)`` weights is (reset | update |
candidate).  Zero initial state; at masked (padded) positions the state
is forced back to zero, which -- because padding is always a left prefix
-- is exactly equivalent to starting the recurrence at the first real
position.

The recurrence runs time-major and gate-major: each call splits the
weights into contiguous ``(3, h, h)`` gate blocks and casts the mask to
float once, so every per-step operand is a contiguous ``(B, h)`` block.
Per layer, a training forward keeps four buffers; the backward consumes
them:

* ``x`` ``(L, B, h)``: the layer input, after dropout.  Read only.
* ``states`` ``(L, B, h)``: the layer outputs; the state entering step
  ``t`` is ``states[t-1]``.  Read only; the forward returns the last
  layer's as a ``(B, L, h)`` view.
* ``act`` ``(3, L, B, h)``: born as one broadcast input-projection GEMM
  over all ``L·B`` rows plus bias.  Forward step ``t`` overwrites
  ``act[:, t]`` with ``sigmoid(r), sigmoid(z), tanh(n)``; backward step
  ``t`` reads them, then writes the gradients ``da_r, da_z, da_n`` there.
* ``hn_lin_all`` ``(L, B, h)``: the recurrent candidate term ``h_prev·W_hn``,
  which backward step ``t`` reads, then overwrites with ``da_n·r``.

Backward step ``t`` overwrites only row ``t``, which no earlier step
reads, and forms ``d_inputs[t]`` from the packed row ``[da_r|da_z|da_n]``;
the weight gradients are per-gate GEMMs over the overwritten rows once
the loop ends.  So a cache serves one backward.  With ``last_only`` the
same step loop projects each input row, read through a transposed view,
into a reused ``(3, B, h)`` scratch; inner layers keep their states and
the last layer two state rows.  With ``table`` as well, the first
layer's inputs are rows of that table: the grid's ``n`` distinct ids
(at most min(table rows, B·L)) are projected once, bias included, into a
gate-major ``(3, n, h)`` table, and each step gathers its rows into the
scratch with no GEMM or bias add.  Inner layers are unchanged.  That
table is smaller than the gathered ``(B, L, h)`` input while n < B·L/3,
and up to three times it when every id in the grid is distinct.

Outputs equal a batch-major reference bit for bit (B = 1, 7 and 128 in
the tests); input gradients and last-only outputs do at B=128, but at
tiny B their per-step ``(B, ·)`` GEMMs take another BLAS kernel than
``L·B`` rows do, so there they agree to rounding.  The same holds for the
``table`` path against the gathered one: bit for bit when B >= 2 and
``n`` >= 2, within about 4e-17 at B = 1, where one side projects a single
row per call.
"""

from __future__ import annotations

import numpy as np

from ..config import RunConfig
from ..ops import sigmoid, uniform_init
from .common import check_table_call, dropout_mask


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

    def forward(self, x: np.ndarray, mask: np.ndarray, *, rng=None, last_only: bool = False,
                table=None):
        """Batched recurrence over a left-padded (B, L, h) grid.

        Returns (outputs, cache); outputs at padded positions are zero.
        With ``last_only`` returns (the (B, h) last-position outputs, None).
        With ``table`` (inference only), ``x`` is a (B, L) id grid into it.
        """
        check_table_call(table, rng, last_only)
        B, L = mask.shape
        h = (x if table is None else table).shape[-1]
        if h != self.cfg.h:
            raise ValueError(f"input dim {h} != configured h {self.cfg.h}")
        if L == 0:
            raise ValueError("empty sequence: GRU needs at least one position")
        p = self.cfg.dropout if rng is not None else 0.0
        keep = np.ascontiguousarray(mask.T, dtype=np.float64)[:, :, None]  # (L, B, 1)
        caches = []
        ids = None
        if table is None:
            layer_in = x.transpose(1, 0, 2)
        else:
            distinct, index = np.unique(x, return_inverse=True)
            layer_in, ids = table[distinct], np.ascontiguousarray(index.reshape(B, L).T)
        for layer in range(self.n_layers):
            drop = dropout_mask(rng, (B, L, h), p) if p > 0.0 else None
            if drop is not None:
                layer_in = np.multiply(layer_in, drop.transpose(1, 0, 2), out=np.empty((L, B, h)))
            elif not last_only:
                layer_in = np.ascontiguousarray(layer_in)
            states, cache = self._layer_forward(
                layer, layer_in, keep, ids=ids if layer == 0 else None,
                keep_cache=not last_only, keep_states=not last_only or layer < self.n_layers - 1,
            )
            caches.append((cache, drop))
            layer_in = states
        if last_only:
            return layer_in, None
        return layer_in.transpose(1, 0, 2), (caches, keep)

    def _layer_forward(self, layer: int, x: np.ndarray, keep: np.ndarray, *, ids=None,
                       keep_cache: bool, keep_states: bool):
        """One layer over a time-major (L, B, h) input, contiguous with ``keep_cache``.

        With ``ids`` (L, B), ``x`` holds distinct input rows and step ``t``
        reads ``x[ids[t]]``: each row is projected once, and each step
        gathers its projected rows.  Returns (states (L, B, h), cache), or
        without ``keep_states`` the last state (B, h); the cache is None
        without ``keep_cache``.
        """
        L, B = keep.shape[:2]
        h = x.shape[-1]
        w_x, w_h = (np.ascontiguousarray(self.params[f"{name}{layer}"].reshape(h, 3, h)
                                         .transpose(1, 0, 2)) for name in ("w_x", "w_h"))
        b = self.params[f"b{layer}"].reshape(3, 1, h)
        if keep_cache:
            act = np.matmul(x.reshape(-1, h), w_x)
            act += b
            act = act.reshape(3, L, B, h)
            hn_lin_all = np.empty((L, B, h))
        else:
            proj, hn_lin = np.empty((3, B, h)), np.empty((B, h))
            if ids is not None:
                rows = np.matmul(x, w_x)  # (3, n, h)
                rows += b
        states = np.empty((L if keep_states else 2, B, h))
        gh, tmp = np.empty((2, B, h)), np.empty((B, h))
        h_prev = np.zeros((B, h))
        for t in range(L):
            if keep_cache:
                a, hn_lin = act[:, t], hn_lin_all[t]
            elif ids is not None:
                # mode="clip" writes straight into ``out``; the default mode buffers it.
                a = np.take(rows, ids[t], axis=1, out=proj, mode="clip")
            else:
                a = np.matmul(x[t], w_x, out=proj)
                a += b
            rz = a[:2]
            rz += np.matmul(h_prev, w_h[:2], out=gh)
            sigmoid(rz, out=rz)
            r, z, n = a
            np.matmul(h_prev, w_h[2], out=hn_lin)
            n += np.multiply(r, hn_lin, out=tmp)
            np.tanh(n, out=n)
            # (1 - z) * n + z * h_prev, in this order: n + z * (h_prev - n)
            # is equal algebraically but not bit for bit.
            h_new = np.subtract(1.0, z, out=states[t if keep_states else t % 2])
            h_new *= n
            h_new += np.multiply(z, h_prev, out=tmp)
            h_new *= keep[t]
            h_prev = h_new
        if not keep_cache:
            return (states if keep_states else h_prev), None
        return states, (layer, x, states, act, hn_lin_all)

    def backward(self, cache, d_out: np.ndarray):
        """BPTT; returns (d_inputs, parameter gradients).  Consumes ``cache``."""
        caches, keep = cache
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_layer = d_out.transpose(1, 0, 2)
        for layer_cache, drop in reversed(caches):
            d_layer = self._layer_backward(layer_cache, keep, d_layer, grads)
            if drop is not None:
                d_layer *= drop.transpose(1, 0, 2)
        return np.ascontiguousarray(d_layer.transpose(1, 0, 2)), grads

    def _layer_backward(self, cache, keep, d_out, grads):
        """Gate gradients and ``d_inputs`` step by step over the cache from a
        time-major ``d_out``, then per-gate weight GEMMs over its (L, B)-ordered
        rows; returns the (L, B, h) d_inputs."""
        layer, x, states, act, hn_lin_all = cache
        L, B, h = x.shape
        w_x_t, w_h_t = self.params[f"w_x{layer}"].T, self.params[f"w_h{layer}"].T
        d_inputs = np.empty((L, B, h))
        d_gates = np.empty((3, B, h))
        da_r, da_z, da_n = d_gates
        d_row = np.empty((B, 3 * h))  # [da_r | da_z | da_n], then [da_r | da_z | da_n·r]
        dh_total, one_minus_z, tmp = np.empty((B, h)), np.empty((B, h)), np.empty((B, h))
        d_h = np.zeros((B, h))
        h_zero = np.zeros((B, h))
        for t in reversed(range(L)):
            np.add(d_out[t], d_h, out=dh_total)
            dh_total *= keep[t]
            r, z, n = act[:, t]
            h_prev = states[t - 1] if t else h_zero
            np.subtract(1.0, z, out=one_minus_z)
            np.multiply(dh_total, one_minus_z, out=da_n)
            da_n *= np.subtract(1.0, np.multiply(n, n, out=tmp), out=tmp)
            np.multiply(da_n, hn_lin_all[t], out=da_r)
            da_r *= r
            da_r *= np.subtract(1.0, r, out=tmp)
            np.subtract(h_prev, n, out=da_z)
            da_z *= dh_total
            da_z *= z
            da_z *= one_minus_z
            np.multiply(dh_total, z, out=d_h)
            d_row.reshape(B, 3, h)[...] = d_gates.transpose(1, 0, 2)
            np.matmul(d_row, w_x_t, out=d_inputs[t])
            np.multiply(da_n, r, out=d_row[:, 2 * h :])
            d_h += np.matmul(d_row, w_h_t, out=tmp)
            # Every read of act[:, t] and hn_lin_all[t] is above; from here they hold gradients.
            act[:, t] = d_gates
            hn_lin_all[t] = d_row[:, 2 * h :]
        rows, prev = x.reshape(-1, h).T, states[:-1].reshape(-1, h).T
        g_x, g_h = grads[f"w_x{layer}"].reshape(h, 3, h), grads[f"w_h{layer}"].reshape(h, 3, h)
        for g in range(3):
            g_x[:, g] += rows @ act[g].reshape(-1, h)
            g_h[:, g] += prev @ (act[g, 1:] if g < 2 else hn_lin_all[1:]).reshape(-1, h)
        grads[f"b{layer}"] += act.reshape(3, -1, h).sum(axis=1).reshape(-1)
        return d_inputs
