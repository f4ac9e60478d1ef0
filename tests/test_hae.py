import math

import numpy as np
import pytest

from grasp import embedstore as es
from grasp import hae
from grasp.config import RunConfig
from grasp.errors import DataError, FormatError
from grasp.hae import (
    HaeParams,
    SemanticStore,
    fuse_backward,
    fuse_forward,
    init_params,
    load_hae_checkpoint,
    save_hae_checkpoint,
)
from grasp.model import SemanticEncoder
from helpers import finite_diff, rel_error


def logistic(x):
    return 1.0 / (1.0 + math.exp(-x))


def rows(*vectors):
    """Each vector as a one-row batch."""
    return [np.asarray(v, dtype=np.float64)[None] for v in vectors]


def read_gate(q, v, scale_dim: int) -> float:
    """The scalar gate sigma(q.v / sqrt(scale_dim)), read back from the batched concat.

    With query ``q`` and value ``v`` and zero similar-branch inputs, the
    self slot is ``sigma(q.v/sqrt(d)) * v`` and the global slot starts with
    ``sigma(q.v/sqrt(2d)) * v``; ``scale_dim`` picks which of the two.
    """
    u, it = rows(q, v)
    zeros = np.zeros_like(u)
    concat = hae._branch_concat(u, zeros, it, zeros, RunConfig())[0]
    d = it.shape[-1]
    branch = {d: concat[:d], 2 * d: concat[2 * d : 3 * d]}[scale_dim]
    return float(branch @ it[0] / (it[0] @ it[0]))


def item_branches(u, ubar, item, ibar):
    """(self, similar, global) slots of the batched concat for one item."""
    concat = hae._branch_concat(*rows(u, ubar, item, ibar), RunConfig())[0]
    d = len(u)
    return concat[:d], concat[d : 2 * d], concat[2 * d :]


def fuse_one(branches, p: HaeParams) -> np.ndarray:
    """The fusion MLP applied to one item's concatenated branches."""
    fused, _ = fuse_forward(np.concatenate(branches)[None], p)
    return fused[0]


def encoder(stores, h=6, seed=1, **flags) -> SemanticEncoder:
    return SemanticEncoder(stores[0], stores[1], RunConfig(h=h, **flags), seed)


def encode_sequence(enc: SemanticEncoder, user: int, items) -> np.ndarray:
    """Enhanced (L, h) rows for one user's item sequence via the batched encoder."""
    items = np.asarray(items, dtype=np.int64)[None]
    fused, _ = enc.encode_items(
        np.array([user]), items,
        positions_mask=np.ones(items.shape, dtype=bool), softmax_over_positions=True,
    )
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
        with pytest.raises(ValueError):
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
        p = HaeParams(
            w1=np.zeros((4 * d, hh)), b1=np.zeros(hh),
            w2=np.zeros((hh, h)), b2=np.array([1.0, -2.0, 3.5, 0.0]),
        )
        rng = np.random.default_rng(3)
        out = fuse_one((rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(2 * d)), p)
        np.testing.assert_array_equal(out, p.b2)

    def test_identity_slice_recovers_affine_self_branch(self):
        # w1 copies the self branch (first 2 slots) into the hidden layer;
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
        p = HaeParams(w1=w1, b1=b1, w2=w2, b2=b2)
        self_b = np.array([0.3, -0.2])
        out = fuse_one((self_b, np.zeros(d), np.zeros(2 * d)), p)
        np.testing.assert_allclose(out, self_b + 10.0 + b2, atol=1e-12)

    def test_all_zero_bundle_zero_biases(self):
        d, hh, h = 2, 3, 2
        p = HaeParams(
            w1=np.ones((4 * d, hh)), b1=np.zeros(hh), w2=np.ones((hh, h)), b2=np.zeros(h)
        )
        out = fuse_one((np.zeros(d), np.zeros(d), np.zeros(2 * d)), p)
        np.testing.assert_array_equal(out, np.zeros(h))

    def test_shape_mismatch(self):
        p = init_params(RunConfig(h=3), 2, seed=0)
        with pytest.raises(ValueError):
            fuse_one((np.zeros(3), np.zeros(3), np.zeros(6)), p)


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
        branches = item_branches(
            user_store.matrix.values[4], user_store.cache.pooled_means[4],
            item_store.matrix.values[11], item_store.cache.pooled_means[11],
        )
        expected = fuse_one(branches, init_params(RunConfig(h=6), 8, seed=1))
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
        rng = np.random.default_rng(seed)
        cfg = RunConfig(h=h, h_hidden=6)
        p = init_params(cfg, d, seed=seed)
        concat = rng.standard_normal((n, 4 * d))
        upstream = rng.standard_normal((n, h))
        return cfg, p, concat, upstream

    def test_zero_upstream_zero_grads(self):
        _, p, concat, upstream = self.make_case()
        _, cache = fuse_forward(concat, p)
        grads = fuse_backward(cache, np.zeros_like(upstream), p)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_bias_gradient_is_summed_upstream(self):
        _, p, concat, upstream = self.make_case(seed=4)
        _, cache = fuse_forward(concat, p)
        grads = fuse_backward(cache, upstream, p)
        np.testing.assert_allclose(grads["b2"], upstream.sum(axis=0), atol=1e-12)

    def test_finite_difference_agreement(self):
        _, p, concat, upstream = self.make_case(seed=7)

        def scalar():
            fused, _ = fuse_forward(concat, p)
            return float((fused * upstream).sum())

        _, cache = fuse_forward(concat, p)
        grads = fuse_backward(cache, upstream, p)
        for name, tensor in p.tensors().items():
            fd = finite_diff(scalar, tensor, step=1e-5)
            assert rel_error(grads[name], fd) < 1e-4, name

    def test_gradients_through_gated_branches(self, small_stores):
        # end to end: gates feed the concat; params still get exact grads
        user_store, item_store = small_stores
        enc = encoder(small_stores, h=3, seed=2, h_hidden=5)
        cfg, p = enc.cfg, enc.hae
        items = np.array([1, 4, 9])
        rng = np.random.default_rng(8)
        upstream = rng.standard_normal((3, 3))

        def scalar():
            out = encode_sequence(enc, 0, items)
            return float((out * upstream).sum())

        out = encode_sequence(enc, 0, items)
        # rebuild the concat exactly as the encoder does
        u = np.broadcast_to(user_store.matrix.values[0], (3, 8))
        ubar = np.broadcast_to(user_store.cache.pooled_means[0], (3, 8))
        it = item_store.matrix.values[items]
        itbar = item_store.cache.pooled_means[items]
        concat = hae._branch_concat(u, ubar, it, itbar, cfg)
        _, cache = fuse_forward(concat, p)
        grads = fuse_backward(cache, upstream, p)
        for name, tensor in p.tensors().items():
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
        concat = hae._branch_concat(
            u, ubar, item_store.matrix.values[items], item_store.cache.pooled_means[items], cfg
        )
        _, cache = fuse_forward(concat, p)
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
        concat = hae._branch_concat(u, ubar, it, itbar, cfg)
        np.testing.assert_array_equal(concat[:, :4], it)
        np.testing.assert_array_equal(concat[:, 4:8], itbar)
        np.testing.assert_array_equal(concat[:, 8:], np.concatenate([it, itbar], axis=-1))

    def test_no_similar_zeroes_slot(self):
        u, ubar, it, itbar = self.setup_arrays()
        base_cfg = RunConfig(h=2)
        abl_cfg = RunConfig(h=2, no_similar=True)
        base = hae._branch_concat(u, ubar, it, itbar, base_cfg)
        ablated = hae._branch_concat(u, ubar, it, itbar, abl_cfg)
        np.testing.assert_array_equal(ablated[:, 4:8], np.zeros((3, 4)))
        np.testing.assert_array_equal(ablated[:, :4], base[:, :4])
        np.testing.assert_array_equal(ablated[:, 8:], base[:, 8:])

    def test_no_global_zeroes_slot(self):
        u, ubar, it, itbar = self.setup_arrays()
        ablated = hae._branch_concat(u, ubar, it, itbar, RunConfig(h=2, no_global=True))
        np.testing.assert_array_equal(ablated[:, 8:], np.zeros((3, 8)))

    def test_softmax_variant_normalizes_over_positions(self):
        u, ubar, it, itbar = self.setup_arrays()
        cfg = RunConfig(h=2, softmax_variant=True)
        d = 4
        pre = (u * it).sum(-1) / np.sqrt(d)
        weights = np.exp(pre - pre.max()) / np.exp(pre - pre.max()).sum()
        concat = hae._branch_concat(
            u, ubar, it, itbar, cfg,
            positions_mask=np.ones(3, dtype=bool), softmax_over_positions=True,
        )
        np.testing.assert_allclose(concat[:, :4], weights[:, None] * it, atol=1e-12)

    def test_softmax_standalone_items_get_unit_gate(self):
        u, ubar, it, itbar = self.setup_arrays()
        cfg = RunConfig(h=2, softmax_variant=True)
        concat = hae._branch_concat(u, ubar, it, itbar, cfg, softmax_over_positions=False)
        np.testing.assert_array_equal(concat[:, :4], it)


def test_enhance_and_fuse_record(small_stores):
    # the encoder's cache keeps the branch record its fused output came from
    user_store, item_store = small_stores
    enc = encoder(small_stores, h=4, seed=21)
    fused, (concat, _, _) = enc.encode_items(np.array([3]), np.array([[5]]))
    branches = item_branches(
        user_store.matrix.values[3], user_store.cache.pooled_means[3],
        item_store.matrix.values[5], item_store.cache.pooled_means[5],
    )
    np.testing.assert_array_equal(concat[0, 0], np.concatenate(branches))
    np.testing.assert_array_equal(fused[0, 0], fuse_one(branches, enc.hae))
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
    for name, tensor in p.tensors().items():
        np.testing.assert_array_equal(
            loaded.tensors()[name], tensor.astype(np.float32).astype(np.float64)
        )


def test_init_is_seeded_and_bounded():
    cfg = RunConfig(h=8)
    a = init_params(cfg, 4, seed=42)
    b = init_params(cfg, 4, seed=42)
    c = init_params(cfg, 4, seed=43)
    for name in a.tensors():
        np.testing.assert_array_equal(a.tensors()[name], b.tensors()[name])
    assert any(
        not np.array_equal(a.tensors()[n], c.tensors()[n]) for n in a.tensors()
    )
    assert np.abs(a.w1).max() <= 1.0 / np.sqrt(16)
