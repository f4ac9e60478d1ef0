import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp import embedstore as es
from grasp import hae
from grasp.config import RunConfig
from grasp.errors import DataError, FormatError
from grasp.hae import (
    SemanticStore,
    fuse_backward,
    fuse_forward,
    init_params,
    load_hae_checkpoint,
    save_hae_checkpoint,
)
from grasp.model import SemanticEncoder, build_semantic_model
from helpers import finite_diff, rel_error


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def rows(*vectors):
    """Each vector as a one-row batch."""
    return [np.asarray(v, dtype=np.float64)[None] for v in vectors]


def read_gate(q, v, scale_dim: int) -> float:
    """The scalar gate sigma(q.v / sqrt(scale_dim)), read back from the batched gates.

    With query ``q`` and value ``v`` and zero similar-branch inputs, the
    self gate is ``sigma(q.v/sqrt(d))`` and the global gate
    ``sigma(q.v/sqrt(2d))``; ``scale_dim`` picks which of the two.
    """
    u, it = rows(q, v)
    zeros = np.zeros_like(u)
    gates = hae._branch_concat(u, zeros, it, zeros, RunConfig())[0]
    d = it.shape[-1]
    return float({d: gates[0], 2 * d: gates[2]}[scale_dim])


def gated_concat(gates, it, itbar):
    """The concat the gates stand for: [g_s*i, g_m*i_bar, g_g*(i||i_bar)], shape (..., 4d)."""
    return np.concatenate([gates[..., :1] * it, gates[..., 1:2] * itbar,
                           gates[..., 2:] * np.concatenate([it, itbar], axis=-1)], axis=-1)


def item_branches(u, ubar, item, ibar):
    """(self, similar, global) branch vectors of one item under the batched gates."""
    u, ubar, item, ibar = rows(u, ubar, item, ibar)
    concat = gated_concat(hae._branch_concat(u, ubar, item, ibar, RunConfig()), item, ibar)[0]
    d = u.shape[-1]
    return concat[:d], concat[d : 2 * d], concat[2 * d :]


def fuse_one(gates, item, ibar, p: dict) -> np.ndarray:
    """The fusion MLP applied to one item's gated branches."""
    items = np.concatenate([item, ibar])[None].astype(np.float64)
    fused, _ = fuse_forward(np.asarray(gates, dtype=np.float64)[None], np.zeros(1, dtype=np.int64),
                            items, p)
    return fused[0]


def reference_fuse(concat, p: dict) -> np.ndarray:
    """relu(concat @ w1 + b1) @ w2 + b2 on the materialised concat."""
    return np.maximum(concat @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]


def encoder(stores, h=6, seed=1, **flags) -> SemanticEncoder:
    return SemanticEncoder(stores[0], stores[1], RunConfig(h=h, **flags), seed)


def encode_sequence(enc: SemanticEncoder, user: int, items) -> np.ndarray:
    """Enhanced (L, h) rows for one user's item sequence via the batched encoder."""
    items = np.asarray(items, dtype=np.int64)[None]
    fused, _ = enc.encode_items(np.array([user]), items,
                                positions_mask=np.ones(items.shape, dtype=bool))
    return fused[0]


class TestSigmoidGate:
    def test_zero_dot(self):
        assert read_gate([1.0, 0.0], [0.0, 1.0], 2) == 0.5

    def test_unit_vectors(self):
        got = read_gate([1.0], [1.0], 1)
        assert abs(got - logistic(1.0)) < 1e-12
        assert abs(got - 0.7310586) < 1e-6

    def test_scaled(self):
        got = read_gate([2.0, 0.0], [2.0, 0.0], 4)
        assert abs(got - logistic(2.0)) < 1e-12
        assert abs(got - 0.8807971) < 1e-6

    def test_length_mismatch(self):
        # the batched path reads both vectors from stores, whose widths must agree
        user_m = es.matrix_from_array(np.ones((3, 2)))
        item_m = es.matrix_from_array(np.ones((3, 1)))
        stores = [SemanticStore(m, es.build_neighbor_cache(m, 1)) for m in (user_m, item_m)]
        with pytest.raises(DataError):
            encoder(stores)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, v = rng.standard_normal(4), rng.standard_normal(4)
            g = read_gate(q, v, 4)
            assert 0.0 < g < 1.0

    def test_coordinate_permutation_invariance(self):
        rng = np.random.default_rng(1)
        q, v = rng.standard_normal(6), rng.standard_normal(6)
        perm = rng.permutation(6)
        assert read_gate(q, v, 6) == pytest.approx(read_gate(q[perm], v[perm], 6), abs=1e-15)

    def test_monotone_in_dot(self):
        gates = [read_gate([x], [1.0], 1) for x in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert gates == sorted(gates)


class TestEnhanceItem:
    def test_orthogonal_gives_half_gates(self):
        self_b, sim_b, glob_b = item_branches([1, 0], [0, 1], [0, 2], [3, 0])
        np.testing.assert_allclose(self_b, 0.5 * np.array([0, 2.0]), atol=1e-12)
        np.testing.assert_allclose(sim_b, 0.5 * np.array([3.0, 0]), atol=1e-12)
        np.testing.assert_allclose(glob_b, 0.5 * np.array([0, 2.0, 3.0, 0]), atol=1e-12)

    def test_zero_values_zero_branches(self):
        for branch in item_branches([5, -1], [2, 2], [0, 0], [0, 0]):
            np.testing.assert_array_equal(branch, np.zeros_like(branch))

    def test_one_dim_closed_form(self):
        self_b, sim_b, glob_b = item_branches([1.0], [1.0], [1.0], [1.0])
        assert self_b[0] == pytest.approx(logistic(1.0), abs=1e-12)
        assert sim_b[0] == pytest.approx(logistic(1.0), abs=1e-12)
        np.testing.assert_allclose(glob_b, logistic(2.0 / math.sqrt(2)) * np.ones(2), atol=1e-12)

    def test_dimension_mismatch(self):
        # a neighbor cache of another width than its matrix is refused
        m3 = es.matrix_from_array(np.ones((4, 3)))
        m2 = es.matrix_from_array(np.ones((4, 2)))
        with pytest.raises(DataError):
            SemanticStore(m3, es.build_neighbor_cache(m2, 1))

    def test_branch_recomputability(self):
        rng = np.random.default_rng(2)
        u, ubar, item, ibar = [rng.standard_normal(5) for _ in range(4)]
        self_b, sim_b, glob_b = item_branches(u, ubar, item, ibar)
        ratios = self_b[item != 0] / item[item != 0]
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)
        assert 0.0 < ratios[0] < 1.0


class TestFuse:
    def test_degenerate_weights_return_bias(self):
        d, hh, h = 2, 3, 4
        p = dict(
            w1=np.zeros((4 * d, hh)), b1=np.zeros(hh),
            w2=np.zeros((hh, h)), b2=np.array([1.0, -2.0, 3.5, 0.0]),
        )
        rng = np.random.default_rng(3)
        out = fuse_one(rng.random(3), rng.standard_normal(d), rng.standard_normal(d), p)
        np.testing.assert_array_equal(out, p["b2"])

    def test_identity_slice_recovers_affine_self_branch(self):
        # w1 copies the self branch (first 2 slots, gate 1) into the hidden layer;
        # a large positive b1 keeps the rectifier in its linear region; w2
        # copies back. Output = self_branch + b1_head + b2, computed by hand.
        d = 2
        hh, h = 2, 2
        w1 = np.zeros((4 * d, hh))
        w1[0, 0] = 1.0
        w1[1, 1] = 1.0
        b1 = np.full(hh, 10.0)
        w2 = np.eye(hh)
        b2 = np.array([0.25, -0.75])
        p = dict(w1=w1, b1=b1, w2=w2, b2=b2)
        self_b = np.array([0.3, -0.2])
        out = fuse_one([1.0, 0.0, 0.0], self_b, np.zeros(d), p)
        np.testing.assert_allclose(out, self_b + 10.0 + b2, atol=1e-12)

    def test_all_zero_bundle_zero_biases(self):
        d, hh, h = 2, 3, 2
        p = dict(
            w1=np.ones((4 * d, hh)), b1=np.zeros(hh), w2=np.ones((hh, h)), b2=np.zeros(h)
        )
        out = fuse_one(np.ones(3), np.zeros(d), np.zeros(d), p)
        np.testing.assert_array_equal(out, np.zeros(h))

    def test_shape_mismatch(self):
        p = init_params(RunConfig(h=3), 2, seed=0)
        with pytest.raises(ValueError):
            fuse_one(np.ones(3), np.zeros(3), np.zeros(3), p)


class TestEnhanceSequence:
    def test_empty_sequence(self, small_stores):
        out = encode_sequence(encoder(small_stores), 0, [])
        assert out.shape == (0, 6)

    def test_repeated_item_identical_rows(self, small_stores):
        out = encode_sequence(encoder(small_stores), 2, [7, 3, 7])
        np.testing.assert_array_equal(out[0], out[2])

    def test_single_item_matches_composition(self, small_stores):
        user_store, item_store = small_stores
        enc = encoder(small_stores)
        out = encode_sequence(enc, 4, [11])
        item, ibar = item_store.matrix.values[11], item_store.cache.pooled_means[11]
        gates = hae._branch_concat(
            *rows(user_store.matrix.values[4], user_store.cache.pooled_means[4], item, ibar),
            RunConfig(),
        )[0]
        expected = fuse_one(gates, item, ibar, init_params(RunConfig(h=6), 8, seed=1))
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_no_cross_position_coupling(self, small_stores):
        enc = encoder(small_stores)
        a = encode_sequence(enc, 1, [3, 9, 5])
        b = encode_sequence(enc, 1, [3, 2, 5])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[2], b[2])

    def test_out_of_range_ids(self, small_stores):
        enc = encoder(small_stores)
        with pytest.raises(IndexError):
            encode_sequence(enc, 10_000, [0])
        with pytest.raises(IndexError):
            encode_sequence(enc, 0, [10_000])


class TestBackward:
    def make_case(self, seed=0, n=5, d=3, h=4):
        """Random gates over 3 items, repeated across the n rows."""
        rng = np.random.default_rng(seed)
        cfg = RunConfig(h=h, h_hidden=6)
        p = init_params(cfg, d, seed=seed)
        inputs = (rng.random((n, 3)), rng.integers(3, size=n), rng.standard_normal((3, 2 * d)))
        upstream = rng.standard_normal((n, h))
        return cfg, p, inputs, upstream

    def test_zero_upstream_zero_grads(self):
        _, p, concat, upstream = self.make_case()
        _, cache = fuse_forward(*concat, p)
        grads = fuse_backward(cache, np.zeros_like(upstream), p)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_bias_gradient_is_summed_upstream(self):
        _, p, concat, upstream = self.make_case(seed=4)
        _, cache = fuse_forward(*concat, p)
        grads = fuse_backward(cache, upstream, p)
        np.testing.assert_allclose(grads["b2"], upstream.sum(axis=0), atol=1e-12)

    def test_finite_difference_agreement(self):
        _, p, concat, upstream = self.make_case(seed=7)

        def scalar():
            fused, _ = fuse_forward(*concat, p)
            return float((fused * upstream).sum())

        _, cache = fuse_forward(*concat, p)
        grads = fuse_backward(cache, upstream, p)
        for name, tensor in p.items():
            fd = finite_diff(scalar, tensor, step=1e-5)
            assert rel_error(grads[name], fd) < 1e-4, name

    def test_gradients_through_gated_branches(self, small_stores):
        # end to end: gates feed the concat; params still get exact grads
        user_store, item_store = small_stores
        enc = encoder(small_stores, h=3, seed=2, h_hidden=5)
        cfg, p = enc.cfg, enc.params
        items = np.array([1, 4, 9])
        rng = np.random.default_rng(8)
        upstream = rng.standard_normal((3, 3))

        def scalar():
            out = encode_sequence(enc, 0, items)
            return float((out * upstream).sum())

        out = encode_sequence(enc, 0, items)
        # rebuild the gates and item rows exactly as the encoder does
        u = np.broadcast_to(user_store.matrix.values[0], (3, 8))
        ubar = np.broadcast_to(user_store.cache.pooled_means[0], (3, 8))
        it = item_store.matrix.values[items]
        itbar = item_store.cache.pooled_means[items]
        gates = hae._branch_concat(u, ubar, it, itbar, cfg)
        _, cache = fuse_forward(gates, np.arange(3), np.concatenate([it, itbar], axis=1), p)
        grads = fuse_backward(cache, upstream, p)
        for name, tensor in p.items():
            fd = finite_diff(scalar, tensor, step=1e-5)
            assert rel_error(grads[name], fd) < 1e-4, name

    def test_backward_never_touches_stores(self, small_stores):
        user_store, item_store = small_stores
        before = [arr.copy() for arr in (
            user_store.matrix.values, user_store.cache.pooled_means,
            item_store.matrix.values, item_store.cache.pooled_means,
        )]
        cfg = RunConfig(h=4)
        p = init_params(cfg, 8, seed=3)
        items = np.arange(6)
        u = np.broadcast_to(user_store.matrix.values[1], (6, 8))
        ubar = np.broadcast_to(user_store.cache.pooled_means[1], (6, 8))
        it, itbar = item_store.matrix.values[items], item_store.cache.pooled_means[items]
        gates = hae._branch_concat(u, ubar, it, itbar, cfg)
        _, cache = fuse_forward(gates, np.arange(6), np.concatenate([it, itbar], axis=1), p)
        fuse_backward(cache, np.ones((6, 4)), p)
        after = (
            user_store.matrix.values, user_store.cache.pooled_means,
            item_store.matrix.values, item_store.cache.pooled_means,
        )
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)
            assert not a.flags.writeable


class TestAblations:
    def setup_arrays(self, d=4, n=3, seed=5):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((n, d)) for _ in range(4)]

    def test_no_attention_bypasses_gates(self):
        u, ubar, it, itbar = self.setup_arrays()
        cfg = RunConfig(h=2, no_attention=True)
        concat = gated_concat(hae._branch_concat(u, ubar, it, itbar, cfg), it, itbar)
        np.testing.assert_array_equal(concat[:, :4], it)
        np.testing.assert_array_equal(concat[:, 4:8], itbar)
        np.testing.assert_array_equal(concat[:, 8:], np.concatenate([it, itbar], axis=-1))

    def test_no_similar_zeroes_slot(self):
        u, ubar, it, itbar = self.setup_arrays()
        base_cfg = RunConfig(h=2)
        abl_cfg = RunConfig(h=2, no_similar=True)
        base = gated_concat(hae._branch_concat(u, ubar, it, itbar, base_cfg), it, itbar)
        ablated = gated_concat(hae._branch_concat(u, ubar, it, itbar, abl_cfg), it, itbar)
        np.testing.assert_array_equal(ablated[:, 4:8], np.zeros((3, 4)))
        np.testing.assert_array_equal(ablated[:, :4], base[:, :4])
        np.testing.assert_array_equal(ablated[:, 8:], base[:, 8:])

    def test_no_global_zeroes_slot(self):
        u, ubar, it, itbar = self.setup_arrays()
        gates = hae._branch_concat(u, ubar, it, itbar, RunConfig(h=2, no_global=True))
        ablated = gated_concat(gates, it, itbar)
        np.testing.assert_array_equal(ablated[:, 8:], np.zeros((3, 8)))

    def test_softmax_variant_normalizes_over_positions(self):
        u, ubar, it, itbar = self.setup_arrays()
        cfg = RunConfig(h=2, softmax_variant=True)
        d = 4
        pre = (u * it).sum(-1) / np.sqrt(d)
        weights = np.exp(pre - pre.max()) / np.exp(pre - pre.max()).sum()
        gates = hae._branch_concat(u, ubar, it, itbar, cfg, positions_mask=np.ones(3, dtype=bool))
        concat = gated_concat(gates, it, itbar)
        np.testing.assert_allclose(concat[:, :4], weights[:, None] * it, atol=1e-12)

    def test_softmax_standalone_items_get_unit_gate(self):
        u, ubar, it, itbar = self.setup_arrays()
        cfg = RunConfig(h=2, softmax_variant=True)
        gates = hae._branch_concat(u, ubar, it, itbar, cfg)
        concat = gated_concat(gates, it, itbar)
        np.testing.assert_array_equal(concat[:, :4], it)


def reference_concat(enc: SemanticEncoder, users, items, mask=None):
    """The gated (..., 4d) concat built in full from the branch formulas and ``enc.cfg``.

    A ``mask`` marks a sequence: the softmax variant normalises over its real positions.
    """
    cfg, us, ist = enc.cfg, enc.user_store, enc.item_store
    shape = (len(users),) + (1,) * (items.ndim - 1) + (-1,)
    u, ubar = us.matrix.values[users].reshape(shape), us.cache.pooled_means[users].reshape(shape)
    it, itbar = ist.matrix.values[items], ist.cache.pooled_means[items]
    d = it.shape[-1]
    s, m = (u * it).sum(axis=-1), (ubar * itbar).sum(axis=-1)
    pre = [s / math.sqrt(d), m / math.sqrt(d), (s + m) / math.sqrt(2 * d)]
    if cfg.no_attention or (cfg.softmax_variant and mask is None):
        g = [np.ones_like(s)] * 3
    elif cfg.softmax_variant:
        g = []
        for x in pre:
            e = np.where(mask, np.exp(x - np.where(mask, x, -np.inf).max(axis=-1, keepdims=True)), 0.0)
            g.append(e / e.sum(axis=-1, keepdims=True))
    else:
        g = [1.0 / (1.0 + np.exp(-x)) for x in pre]
    self_b = g[0][..., None] * it
    sim_b = np.zeros_like(itbar) if cfg.no_similar else g[1][..., None] * itbar
    both = np.concatenate([it, itbar], axis=-1)
    glob_b = np.zeros_like(both) if cfg.no_global else g[2][..., None] * both
    return np.concatenate([self_b, sim_b, glob_b], axis=-1)


ABLATIONS = [{}, {"no_attention": True}, {"no_similar": True}, {"no_global": True},
             {"softmax_variant": True}]


def flag_id(flags):
    return next(iter(flags), "default")


class TestFactoredForward:
    @pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "mask"])
    @pytest.mark.parametrize("flags", ABLATIONS, ids=flag_id)
    def test_matches_concat_reference(self, small_stores, flags, masked):
        # "no_mask": every position of the sequence is real; "mask": left padding
        enc = encoder(small_stores, h=6, seed=4, **flags)
        rng = np.random.default_rng(11)
        users = np.array([5, 17, 5, 42])
        items = rng.integers(40, size=(4, 7))
        lengths = np.array([7, 3, 1, 5]) if masked else np.full(4, 7)
        mask = np.arange(7) >= 7 - lengths[:, None]
        got, _ = enc.encode_items(users, items, positions_mask=mask)
        want = reference_fuse(reference_concat(enc, users, items, mask), enc.params)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # candidate grids: gates are never normalised across positions
        cands = rng.integers(40, size=(4, 7, 3))
        got, _ = enc.encode_items(users, cands)
        np.testing.assert_allclose(got, reference_fuse(reference_concat(enc, users, cands), enc.params),
                                   rtol=1e-12, atol=0)

    def test_backward_matches_concat_reference(self, monkeypatch):
        monkeypatch.setattr(hae, "CHUNK_ROWS", 7)  # 15 rows in lists of 3: chunks of 6, 6, 3
        rng = np.random.default_rng(12)
        d, h = 3, 4
        p = init_params(RunConfig(h=h, h_hidden=6), d, seed=2)
        gates = rng.random((5, 3, 3))
        gates[0, :, 1] = 0.0  # an ablated branch
        index = rng.integers(4, size=(5, 3))
        items = rng.standard_normal((4, 2 * d))
        upstream = rng.standard_normal((5, 3, h))

        fused, cache = fuse_forward(gates, index, items, p)
        grads = fuse_backward(cache, upstream, p)
        concat = gated_concat(gates, items[index, :d], items[index, d:]).reshape(-1, 4 * d)
        a1 = concat @ p["w1"] + p["b1"]
        h1 = np.maximum(a1, 0.0)
        np.testing.assert_allclose(fused.reshape(-1, h), h1 @ p["w2"] + p["b2"], rtol=1e-12, atol=0)
        up = upstream.reshape(-1, h)
        d_a1 = (up @ p["w2"].T) * (a1 > 0)
        want = {"w1": concat.T @ d_a1, "b1": d_a1.sum(axis=0), "w2": h1.T @ up, "b2": up.sum(axis=0)}
        for name, g in want.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                                       err_msg=name)

        def scalar():
            out, _ = fuse_forward(gates, index, items, p)
            return float((out * upstream).sum())

        for name, tensor in p.items():
            assert rel_error(grads[name], finite_diff(scalar, tensor, step=1e-5)) < 1e-4, name

    # 18 rows in lists of 3: chunks of 12 and 6 rows, or one list per chunk when C > CHUNK_ROWS
    @pytest.mark.parametrize("chunk", [12, 2], ids=["ragged", "C_over_chunk"])
    @pytest.mark.parametrize("flags", ABLATIONS, ids=flag_id)
    def test_readout_backward_matches_concat_reference(self, small_stores, monkeypatch, flags,
                                                       chunk):
        monkeypatch.setattr(hae, "CHUNK_ROWS", chunk)
        enc = encoder(small_stores, h=4, seed=6, h_hidden=5, **flags)
        p = enc.params
        rng = np.random.default_rng(14)
        users = np.array([5, 17])
        cands = rng.integers(40, size=(2, 3, 3))
        cands[1, 2, 2] = cands[0, 0, 1]  # a repeated item
        o = rng.standard_normal((2, 3, 4))
        d_logit = rng.standard_normal((2, 3, 3))

        logits, cache = enc.encode_items(users, cands, readout=o)
        grads = enc.backward(cache, d_logit)
        concat = reference_concat(enc, users, cands).reshape(-1, p["w1"].shape[0])
        a1 = concat @ p["w1"] + p["b1"]
        h1 = np.maximum(a1, 0.0)
        fused = (h1 @ p["w2"] + p["b2"]).reshape(2, 3, 3, 4)
        np.testing.assert_allclose(logits, np.einsum("blh,blch->blc", o, fused), rtol=1e-12, atol=0)
        up = (d_logit[..., None] * o[:, :, None, :]).reshape(-1, 4)
        d_a1 = (up @ p["w2"].T) * (a1 > 0)
        want = {"w1": concat.T @ d_a1, "b1": d_a1.sum(axis=0), "w2": h1.T @ up,
                "b2": up.sum(axis=0), "readout": np.einsum("blc,blch->blh", d_logit, fused)}
        assert grads.keys() == want.keys()
        for name, g in want.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * np.abs(g).max(),
                                       err_msg=name)

        def scalar():
            out, _ = enc.encode_items(users, cands, readout=o)
            return float((out * d_logit).sum())

        for name, tensor in dict(p, readout=o).items():
            assert rel_error(grads[name], finite_diff(scalar, tensor, step=1e-5)) < 1e-4, name

    @pytest.mark.parametrize("n_cand, chunk", [(9, 4), (2100, None)], ids=["chunk_4", "C_over_chunk"])
    @pytest.mark.parametrize("flags", ABLATIONS, ids=flag_id)
    def test_candidate_scores_match_fused_readout(self, small_stores, monkeypatch, flags, n_cand,
                                                  chunk):
        if chunk is not None:
            monkeypatch.setattr(hae, "CHUNK_ROWS", chunk)
        assert n_cand > hae.CHUNK_ROWS
        model = build_semantic_model(*small_stores, RunConfig(h=6, **flags), seed=5)
        rng = np.random.default_rng(13)
        users = np.array([3, 17, 3])
        cands = rng.integers(40, size=(3, n_cand))
        cands[:, 1] = cands[:, 0]  # a repeated item in every row
        o = rng.standard_normal((3, 6))
        got = model.candidate_scores(users, cands, o)
        assert got.shape == (3, n_cand)
        fused, _ = model.encoder.encode_items(users, cands)
        want = 1.0 / (1.0 + np.exp(-np.einsum("bh,bch->bc", o, fused)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        ref = reference_fuse(reference_concat(model.encoder, users, cands), model.encoder.params)
        want = 1.0 / (1.0 + np.exp(-np.einsum("bh,bch->bc", o, ref)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_enhance_and_fuse_record(small_stores):
    # the encoder's cache keeps the branch record (gates and item row) its fused output came from
    user_store, item_store = small_stores
    enc = encoder(small_stores, h=4, seed=21)
    fused, (gates, index, items, *_) = enc.encode_items(np.array([3]), np.array([[5]]))
    item, ibar = item_store.matrix.values[5], item_store.cache.pooled_means[5]
    branches = item_branches(
        user_store.matrix.values[3], user_store.cache.pooled_means[3], item, ibar,
    )
    row = items[index[0, 0]]
    np.testing.assert_array_equal(gated_concat(gates[0, 0], row[:8], row[8:]),
                                  np.concatenate(branches))
    np.testing.assert_array_equal(fused[0, 0], fuse_one(gates[0, 0], item, ibar, enc.params))
    assert branches[0].shape == (8,)
    assert branches[2].shape == (16,)


def test_checkpoint_round_trip(tmp_path):
    cfg = RunConfig(h=4, h_hidden=5)
    p = init_params(cfg, 3, seed=6)
    path = tmp_path / "fusion.ghae"
    save_hae_checkpoint(p, path)
    loaded = init_params(cfg, 3, seed=7)
    load_hae_checkpoint(loaded, path)
    # the header records (d_sem, h_hidden, h) = (3, 5, 4): other shapes are refused
    for name, other in (("d_sem", init_params(cfg, 2, seed=6)),
                        ("h_hidden", init_params(RunConfig(h=4, h_hidden=6), 3, seed=6)),
                        ("h", init_params(RunConfig(h=5, h_hidden=5), 3, seed=6))):
        with pytest.raises(FormatError, match=name):
            load_hae_checkpoint(other, path)
    for name, tensor in p.items():
        np.testing.assert_array_equal(
            loaded[name], tensor.astype(np.float32).astype(np.float64)
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_generated(tmp_path_factory, d_sem, h_hidden, h, seed):
    cfg = RunConfig(h=h, h_hidden=h_hidden)
    p = init_params(cfg, d_sem, seed=seed)
    path = tmp_path_factory.mktemp("ghae") / "fusion.ghae"
    save_hae_checkpoint(p, path)
    loaded = init_params(cfg, d_sem, seed=seed + 1)
    load_hae_checkpoint(loaded, path)
    for name, tensor in p.items():
        np.testing.assert_array_equal(
            loaded[name], tensor.astype(np.float32).astype(np.float64)
        )
    data = path.read_bytes()
    save_hae_checkpoint(loaded, path)
    assert path.read_bytes() == data


GHAE_HEADER = 18  # magic 4 | version 2 | d_sem, h_hidden, h 4 each


def pack_ghae(p: dict) -> bytes:
    """A GHAE file packed field by field with ``struct``, independent of numpy I/O."""
    out = [b"GHAE", struct.pack("<HIII", 1, p["w1"].shape[0] // 4, p["w1"].shape[1], p["w2"].shape[1])]
    for tensor in (p["w1"], p["b1"], p["w2"], p["b2"]):
        out.append(struct.pack(f"<{tensor.size}f", *tensor.ravel().tolist()))
    return b"".join(out)


def snapshot(p: dict) -> dict:
    return {name: tensor.copy() for name, tensor in p.items()}


def assert_unchanged(p: dict, before: dict) -> None:
    for name, tensor in p.items():
        np.testing.assert_array_equal(tensor, before[name], err_msg=name)


def test_checkpoint_save_matches_struct_packing(tmp_path):
    p = init_params(RunConfig(h=3, h_hidden=5), 2, seed=6)
    path = tmp_path / "fusion.ghae"
    save_hae_checkpoint(p, path)
    assert path.read_bytes() == pack_ghae(p)


def test_checkpoint_truncation_at_every_offset(tmp_path):
    cfg = RunConfig(h=3, h_hidden=4)
    path = tmp_path / "fusion.ghae"
    save_hae_checkpoint(init_params(cfg, 2, seed=6), path)
    data = path.read_bytes()
    target = init_params(cfg, 2, seed=7)
    before = snapshot(target)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="truncated"):
            load_hae_checkpoint(target, path)
        assert_unchanged(target, before)
    path.write_bytes(data + b"\0")
    with pytest.raises(FormatError, match=f"1 trailing bytes at byte {len(data)}"):
        load_hae_checkpoint(target, path)
    assert_unchanged(target, before)


def test_checkpoint_non_finite_tensor_is_refused_at_its_byte(tmp_path):
    cfg = RunConfig(h=3, h_hidden=4)
    p = init_params(cfg, 2, seed=6)
    data = pack_ghae(p)
    target = init_params(cfg, 2, seed=7)
    before = snapshot(target)
    path = tmp_path / "fusion.ghae"
    offset, bads = GHAE_HEADER, []
    for name, tensor in p.items():
        bad = offset + 4 * (tensor.size // 2)
        path.write_bytes(data[:bad] + struct.pack("<f", math.nan) + data[bad + 4 :])
        with pytest.raises(FormatError, match=f"non-finite value at byte {bad}$"):
            load_hae_checkpoint(target, path)
        assert_unchanged(target, before)
        bads.append(bad)
        offset += 4 * tensor.size
    assert offset == len(data)
    # with a NaN in every tensor, the first in file order is the one reported
    spoiled = bytearray(data)
    for bad in bads:
        spoiled[bad : bad + 4] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(spoiled))
    with pytest.raises(FormatError, match=f"non-finite value at byte {bads[0]}$"):
        load_hae_checkpoint(target, path)


def test_init_is_seeded_and_bounded():
    cfg = RunConfig(h=8)
    a = init_params(cfg, 4, seed=42)
    b = init_params(cfg, 4, seed=42)
    c = init_params(cfg, 4, seed=43)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert any(
        not np.array_equal(a[n], c[n]) for n in a
    )
    assert np.abs(a["w1"]).max() <= 1.0 / np.sqrt(16)
