import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.backbone import (
    Gru4Rec,
    SasRec,
    build_backbone,
    load_backbone_checkpoint,
    save_backbone_checkpoint,
)
from grasp.backbone.common import dropout_mask
from grasp.config import RunConfig
from grasp.errors import FormatError
from grasp.model import IdEncoder, RecModel
from grasp.ops import sigmoid
from helpers import finite_diff, rel_error, run_sequence


def gru(h=4, n_layers=1, seed=0, dropout=0.0, max_seq_len=50):
    return Gru4Rec(
        RunConfig(backbone="gru4rec", h=h, max_seq_len=max_seq_len,
                  n_layers=n_layers, dropout=dropout),
        seed=seed,
    )


def sas(h=4, n_layers=2, n_heads=1, seed=0, dropout=0.0, max_seq_len=50):
    return SasRec(
        RunConfig(backbone="sasrec", h=h, max_seq_len=max_seq_len,
                  n_layers=n_layers, n_heads=n_heads, dropout=dropout),
        seed=seed,
    )


class TestGru4Rec:
    def test_zero_inputs_zero_biases_stay_at_fixed_point(self):
        model = gru(h=3)
        out = run_sequence(model, np.zeros((5, 3)))
        np.testing.assert_array_equal(out, np.zeros((5, 3)))
        np.testing.assert_array_equal(out[-1], np.zeros(3))

    def test_single_position(self):
        model = gru(h=4, seed=1)
        out = run_sequence(model, np.random.default_rng(0).standard_normal((1, 4)))
        assert out.shape == (1, 4)
        np.testing.assert_array_equal(out[0], out[-1])

    def test_empty_sequence_errors(self):
        with pytest.raises(ValueError):
            run_sequence(gru(), np.zeros((0, 4)))

    def test_prefix_property(self):
        model = gru(h=4, n_layers=2, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        base = run_sequence(model, x)
        edited = x.copy()
        edited[4:] = rng.standard_normal((2, 4))
        out = run_sequence(model, edited)
        np.testing.assert_array_equal(base[:4], out[:4])
        assert not np.allclose(base[4:], out[4:])

    def test_left_padding_does_not_leak(self):
        model = gru(h=4, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4))
        plain = run_sequence(model, x)
        padded = np.zeros((1, 5, 4))
        padded[0, 2:] = x
        mask = np.array([[False, False, True, True, True]])
        out, _ = model.forward(padded, mask)
        np.testing.assert_allclose(out[0, 2:], plain, atol=1e-12)
        np.testing.assert_array_equal(out[0, :2], np.zeros((2, 4)))


def batch_major_gru_forward(model, x, mask, drops):
    """Reference GRU recurrence on (B, L, h) slices, one step at a time.

    ``drops`` holds each layer's dropout multiplier or None.  Returns
    (outputs, per-layer caches) for ``batch_major_gru_backward``.
    """
    caches = []
    layer_in = x
    for layer, drop in enumerate(drops):
        xin = layer_in * drop if drop is not None else layer_in
        B, L, h = xin.shape
        w_h = model.params[f"w_h{layer}"]
        gx_all = (xin.reshape(-1, h) @ model.params[f"w_x{layer}"]).reshape(B, L, 3 * h)
        gx_all = gx_all + model.params[f"b{layer}"]
        h_prev = np.zeros((B, h))
        states, prev_all, r_all, z_all, n_all, hn_lin_all = (np.empty((B, L, h)) for _ in range(6))
        for t in range(L):
            gh = h_prev @ w_h
            r = sigmoid(gx_all[:, t, :h] + gh[:, :h])
            z = sigmoid(gx_all[:, t, h : 2 * h] + gh[:, h : 2 * h])
            hn_lin = gh[:, 2 * h :]
            n = np.tanh(gx_all[:, t, 2 * h :] + r * hn_lin)
            h_new = ((1.0 - z) * n + z * h_prev) * mask[:, t, None]
            prev_all[:, t], r_all[:, t], z_all[:, t] = h_prev, r, z
            n_all[:, t], hn_lin_all[:, t], states[:, t] = n, hn_lin, h_new
            h_prev = h_new
        caches.append((layer, xin, prev_all, r_all, z_all, n_all, hn_lin_all))
        layer_in = states
    return layer_in, caches


def batch_major_gru_backward(model, caches, mask, drops, d_out):
    """Reference BPTT for ``batch_major_gru_forward``; returns (d_x, grads)."""
    grads = {name: np.zeros_like(p) for name, p in model.params.items()}
    d_layer = d_out
    for (layer, x, prev_all, r_all, z_all, n_all, hn_lin_all), drop in zip(
        reversed(caches), reversed(drops)
    ):
        B, L, h = x.shape
        d_gx_all, d_gh_all = np.empty((B, L, 3 * h)), np.empty((B, L, 3 * h))
        d_h = np.zeros((B, h))
        for t in reversed(range(L)):
            dh_total = (d_layer[:, t] + d_h) * mask[:, t, None]
            r, z, n = r_all[:, t], z_all[:, t], n_all[:, t]
            dn = dh_total * (1.0 - z)
            dz = dh_total * (prev_all[:, t] - n)
            da_n = dn * (1.0 - n * n)
            da_r = da_n * hn_lin_all[:, t] * r * (1.0 - r)
            da_z = dz * z * (1.0 - z)
            d_gx_all[:, t] = np.concatenate([da_r, da_z, da_n], axis=1)
            d_gh_all[:, t] = np.concatenate([da_r, da_z, da_n * r], axis=1)
            d_h = dh_total * z + d_gh_all[:, t] @ model.params[f"w_h{layer}"].T
        flat_gx = d_gx_all.reshape(-1, 3 * h)
        grads[f"w_x{layer}"] += x.reshape(-1, h).T @ flat_gx
        grads[f"w_h{layer}"] += prev_all.reshape(-1, h).T @ d_gh_all.reshape(-1, 3 * h)
        grads[f"b{layer}"] += flat_gx.sum(axis=0)
        d_layer = (flat_gx @ model.params[f"w_x{layer}"].T).reshape(B, L, h)
        if drop is not None:
            d_layer = d_layer * drop
    return d_layer, grads


def left_padded_grid(rng, B, L, h):
    lengths = rng.integers(1, L + 1, size=B)
    lengths[0] = L
    mask = np.arange(L)[None, :] >= (L - lengths)[:, None]
    return rng.standard_normal((B, L, h)) * mask[..., None], mask


class TestRngContract:
    """Dropout runs exactly when an ``rng`` is passed."""

    @pytest.mark.parametrize("make_model", [
        lambda: gru(h=8, n_layers=2, dropout=0.3),
        lambda: sas(h=8, dropout=0.3),
    ], ids=["gru4rec", "sasrec"])
    def test_dropout_follows_the_rng(self, make_model):
        model = make_model()
        x, mask = left_padded_grid(np.random.default_rng(5), 4, 6, 8)
        plain = [model.forward(x, mask)[0] for _ in range(2)]
        drawn = [model.forward(x, mask, rng=np.random.default_rng(0))[0] for _ in range(2)]
        assert np.array_equal(plain[0], plain[1])
        assert np.array_equal(drawn[0], drawn[1])
        assert not np.array_equal(drawn[0], plain[0])


class TestPaddingContract:
    """Padded inputs may hold any finite values, as the encoders give padded item 0."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["plain", "dropout"])
    @pytest.mark.parametrize("make_model", [
        lambda p: gru(h=8, n_layers=2, seed=50, dropout=p),
        lambda p: sas(h=8, n_layers=2, n_heads=2, seed=51, dropout=p),
    ], ids=["gru4rec", "sasrec"])
    def test_padded_inputs_are_never_read(self, make_model, dropout):
        model = make_model(dropout)
        rng = np.random.default_rng(52)
        x, mask = left_padded_grid(rng, 6, 7, 8)
        assert not mask.all()
        noisy = x + 5.0 * rng.standard_normal(x.shape) * ~mask[..., None]
        d_out = rng.standard_normal(x.shape)  # padded positions too: backward masks them
        runs = []
        for grid in (x, noisy):
            out, cache = model.forward(grid, mask, rng=np.random.default_rng(53))
            runs.append((out, *model.backward(cache, d_out)))
        (out, d_x, grads), (noisy_out, noisy_dx, noisy_grads) = runs
        assert np.array_equal(noisy_out[mask], out[mask])
        assert np.array_equal(noisy_dx[mask], d_x[mask])
        for name, g in grads.items():
            assert np.array_equal(noisy_grads[name], g), name
        for padded in (out, d_x, noisy_out, noisy_dx):
            assert not padded[~mask].any()


class TestGruRecurrence:
    """The time-major recurrence against the batch-major reference.

    Outputs and input gradients match bit for bit.  The weight gradients
    are GEMMs over time-major rows, which sum in another order than the
    reference's batch-major rows, so they match to rounding.
    """

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("B", [1, 7, 128])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_matches_batch_major_reference(self, n_layers, B, dropout):
        h, L = 64, 12
        model = gru(h=h, n_layers=n_layers, seed=B, dropout=dropout)
        rng = np.random.default_rng(B)
        x, mask = left_padded_grid(rng, B, L, h)
        d_out = rng.standard_normal((B, L, h)) * mask[..., None]
        draw = np.random.default_rng(7)
        drops = [dropout_mask(draw, x.shape, dropout) if dropout else None
                 for _ in range(n_layers)]
        ref_out, ref_caches = batch_major_gru_forward(model, x, mask, drops)
        ref_dx, ref_grads = batch_major_gru_backward(model, ref_caches, mask, drops, d_out)

        out, cache = model.forward(x, mask, rng=np.random.default_rng(7))
        d_x, grads = model.backward(cache, d_out)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(d_x, ref_dx)
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-13 * np.abs(g).max(), name


class TestGruMemory:
    """A training step works inside its cache: the forward's gate cache
    becomes the backward's gradient buffer."""

    @pytest.mark.parametrize("n_layers, backward_bound", [(1, 2.5), (2, 3.5)])
    def test_step_allocates_little_beyond_its_cache(self, n_layers, backward_bound):
        B, L, h = 128, 50, 64
        unit = B * L * h * 8  # one (B, L, h) float64 array
        model = gru(h=h, n_layers=n_layers, dropout=0.2, max_seq_len=L)
        rng = np.random.default_rng(60)
        x, mask = left_padded_grid(rng, B, L, h)
        d_out = rng.standard_normal((B, L, h))
        tracemalloc.start()
        try:
            out, cache = model.forward(x, mask, rng=np.random.default_rng(61))
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            model.backward(cache, d_out)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (forward_peak - held) / unit <= 0.5
        assert (backward_peak - held) / unit <= backward_bound


class TestLastOnly:
    @pytest.mark.parametrize("make_model", [
        lambda: gru(h=16, n_layers=1, seed=40),
        lambda: gru(h=16, n_layers=2, seed=41),
        lambda: sas(h=16, n_layers=1, n_heads=2, seed=42),
        lambda: sas(h=16, n_layers=2, n_heads=2, seed=43),
    ], ids=["gru4rec-1", "gru4rec-2", "sasrec-1", "sasrec-2"])
    @pytest.mark.parametrize("B", [1, 7, 128])
    def test_equals_the_last_position_of_the_full_forward(self, make_model, B):
        model = make_model()
        x, mask = left_padded_grid(np.random.default_rng(B), B, 9, 16)
        full, _ = model.forward(x, mask)
        last, cache = model.forward(x, mask, last_only=True)
        assert cache is None
        assert last.shape == (B, 16)
        if isinstance(model, Gru4Rec):
            assert np.array_equal(last, full[:, -1])
        else:
            # One query row takes another BLAS kernel than L rows do.
            np.testing.assert_allclose(last, full[:, -1], rtol=1e-12, atol=0.0)


class TestSasRec:
    def test_causal_mask(self):
        model = sas(seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4))
        base = run_sequence(model, x)
        edited = x.copy()
        edited[3] = rng.standard_normal(4)
        out = run_sequence(model, edited)
        np.testing.assert_array_equal(base[:3], out[:3])
        assert not np.allclose(base[3:], out[3:])

    def test_singleton_attention_weight_is_one(self):
        model = sas(seed=8)
        x = np.random.default_rng(9).standard_normal((1, 1, 4))
        out, cache = model.forward(x, np.ones((1, 1), dtype=bool))
        layer_caches = cache[3]
        attn_weights = layer_caches[0][5]
        np.testing.assert_array_equal(attn_weights, np.ones((1, 1, 1, 1)))

    def test_position_permutation_changes_outputs(self):
        model = sas(seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4))
        swapped = x.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        a = run_sequence(model, x)[-1]
        b = run_sequence(model, swapped)[-1]
        assert not np.allclose(a, b)

    def test_too_long_errors(self):
        model = sas(max_seq_len=3)
        with pytest.raises(ValueError):
            run_sequence(model, np.zeros((4, 4)))

    def test_left_padding_does_not_leak(self):
        model = sas(seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4))
        plain = run_sequence(model, x)
        padded = np.zeros((1, 6, 4))
        padded[0, 3:] = x
        mask = np.array([[False] * 3 + [True] * 3])
        out, _ = model.forward(padded, mask)
        np.testing.assert_allclose(out[0, 3:], plain, atol=1e-10)
        np.testing.assert_array_equal(out[0, :3], np.zeros((3, 4)))

    def test_no_nan_on_random_inputs(self):
        for kind_model in (gru(h=8, n_layers=2, seed=14), sas(h=8, n_layers=2, seed=14)):
            rng = np.random.default_rng(15)
            x = rng.standard_normal((2, 7, 8)) * 5.0
            mask = np.ones((2, 7), dtype=bool)
            mask[1, :3] = False
            out, _ = kind_model.forward(x * mask[..., None], mask)
            assert np.isfinite(out).all()
            assert out.shape == (2, 7, 8)

    def test_multi_head_shapes(self):
        model = sas(h=8, n_heads=2, seed=16)
        out = run_sequence(model, np.random.default_rng(17).standard_normal((5, 8)))
        assert out.shape == (5, 8)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError):
            RunConfig(backbone="sasrec", h=6, n_heads=4)


class TestGradients:
    @pytest.mark.parametrize("make_model", [
        lambda: gru(h=4, n_layers=2, seed=20),
        lambda: gru(h=4, n_layers=2, seed=20, dropout=0.5),
        lambda: sas(h=4, n_layers=2, seed=21, max_seq_len=8),
    ], ids=["gru4rec", "gru4rec-dropout", "sasrec"])
    def test_param_and_input_gradients(self, make_model):
        """Finite differences; with dropout each call redraws the same masks."""
        model = make_model()
        rng = np.random.default_rng(22)
        B, L, h = 2, 3, 4
        x = rng.standard_normal((B, L, h))
        mask = np.ones((B, L), dtype=bool)
        mask[1, 0] = False
        x = x * mask[..., None]
        upstream = rng.standard_normal((B, L, h)) * mask[..., None]

        def forward():
            return model.forward(x, mask, rng=np.random.default_rng(0))

        def scalar():
            return float((forward()[0] * upstream).sum())

        out, cache = forward()
        d_x, grads = model.backward(cache, upstream)

        for name, tensor in model.params.items():
            fd = finite_diff(scalar, tensor, step=1e-5)
            assert rel_error(grads[name], fd) < 1e-3, name

        fd_x = finite_diff(scalar, x, step=1e-5)
        # padded slots receive no gradient by construction
        assert rel_error(d_x, fd_x * mask[..., None]) < 1e-3

    def test_dropout_masks_are_cached_consistently(self):
        model = sas(h=4, n_layers=1, seed=23, dropout=0.5)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 4, 4))
        mask = np.ones((2, 4), dtype=bool)
        out, cache = model.forward(x, mask, rng=np.random.default_rng(0))
        d_x, grads = model.backward(cache, np.ones_like(out))
        assert np.isfinite(d_x).all()
        assert all(np.isfinite(g).all() for g in grads.values())


class TestCausalitySuite:
    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_randomized_suffix_perturbation(self, kind):
        rng = np.random.default_rng(30)
        for trial in range(25):
            h = int(rng.choice([2, 4]))
            L = int(rng.integers(2, 7))
            cfg = RunConfig(backbone=kind, h=h, max_seq_len=16,
                            n_layers=int(rng.integers(1, 3)), dropout=0.0)
            model = build_backbone(cfg, seed=trial)
            x = rng.standard_normal((L, h))
            t = int(rng.integers(1, L))
            edited = x.copy()
            edited[t:] = rng.standard_normal((L - t, h))
            np.testing.assert_array_equal(
                run_sequence(model, x)[:t], run_sequence(model, edited)[:t]
            )


def candidate_score(o, item_repr) -> float:
    """sigma(o . item_repr) as the batched scorer computes it for one candidate."""
    encoder = IdEncoder(1, len(o), seed=0)
    encoder.emb[0] = item_repr
    scores = RecModel(encoder, None).candidate_scores(
        np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.int64),
        np.asarray(o, dtype=np.float64)[None],
    )
    return float(scores[0, 0])


class TestScore:
    def test_orthogonal(self):
        assert candidate_score([1.0, 0.0], [0.0, 1.0]) == 0.5

    def test_closed_form(self):
        assert candidate_score([1.0, 0.0], [3.0, 0.0]) == pytest.approx(0.9525741, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        o, i = rng.standard_normal(5), rng.standard_normal(5)
        assert candidate_score(o, i) == candidate_score(i, o)


GBKB_HEADER = 27  # magic 4 | version 2 | kind 1 | h, max_seq_len, n_layers, n_heads | dropout 4


def pack_gbkb(model, version=2, key_bias=None) -> bytes:
    """A GBKB file packed field by field with ``struct``, independent of numpy I/O.

    ``key_bias`` (h values) follows each ``wk{layer}``, as in a version 1 SASRec file.
    """
    cfg = model.cfg
    kind = {"gru4rec": 1, "sasrec": 2}[cfg.backbone]
    out = [b"GBKB", struct.pack("<HBIIIIf", version, kind, cfg.h, cfg.max_seq_len,
                                model.n_layers, cfg.n_heads, cfg.dropout)]
    for name, tensor in model.params.items():
        out.append(struct.pack(f"<{tensor.size}f", *tensor.ravel().tolist()))
        if key_bias is not None and name.startswith("wk"):
            out.append(struct.pack(f"<{len(key_bias)}f", *key_bias))
    return b"".join(out)


def snapshot(model) -> dict:
    return {name: tensor.copy() for name, tensor in model.params.items()}


def assert_unchanged(model, before: dict) -> None:
    assert list(model.params) == list(before)
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor, before[name], err_msg=name)


class TestDeterminismAndCheckpoints:
    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_seeded_init_is_reproducible(self, kind):
        cfg = RunConfig(backbone=kind, h=8)
        a = build_backbone(cfg, seed=42)
        b = build_backbone(cfg, seed=42)
        c = build_backbone(cfg, seed=43)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)

    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_checkpoint_round_trip(self, kind, tmp_path):
        cfg = RunConfig(backbone=kind, h=4, max_seq_len=12, n_layers=2)
        model = build_backbone(cfg, seed=5)
        path = tmp_path / "bk.gbkb"
        save_backbone_checkpoint(model, path)
        loaded = build_backbone(cfg, seed=6)
        load_backbone_checkpoint(loaded, path)
        # the header records the shape: a model of another shape refuses the file
        for field, value in (("h", 8), ("max_seq_len", 13), ("n_layers", 1)):
            other = build_backbone(RunConfig(**dict(cfg.echo(), **{field: value})), seed=5)
            with pytest.raises(FormatError, match=field):
                load_backbone_checkpoint(other, path)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], tensor.astype(np.float32).astype(np.float64)
            )

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["gru4rec", "sasrec"]), st.integers(1, 3), st.integers(1, 3),
           st.sampled_from([1, 2]), st.integers(1, 6), st.floats(0.0, 0.9),
           st.integers(0, 2**32 - 1))
    def test_checkpoint_round_trip_generated(self, tmp_path_factory, kind, half_h, n_layers,
                                             n_heads, max_seq_len, dropout, seed):
        cfg = RunConfig(backbone=kind, h=2 * half_h, n_layers=n_layers, n_heads=n_heads,
                        max_seq_len=max_seq_len, dropout=dropout)
        model = build_backbone(cfg, seed=seed)
        path = tmp_path_factory.mktemp("gbkb") / "bk.gbkb"
        save_backbone_checkpoint(model, path)
        loaded = build_backbone(cfg, seed=seed + 1)
        load_backbone_checkpoint(loaded, path)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], tensor.astype(np.float32).astype(np.float64)
            )
        data = path.read_bytes()
        save_backbone_checkpoint(loaded, path)
        assert path.read_bytes() == data

    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_save_matches_struct_packing(self, kind, tmp_path):
        model = build_backbone(RunConfig(backbone=kind, h=4, max_seq_len=5, n_layers=2,
                                         n_heads=2, dropout=0.3), seed=5)
        path = tmp_path / "bk.gbkb"
        save_backbone_checkpoint(model, path)
        assert path.read_bytes() == pack_gbkb(model)

    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_truncation_at_every_offset(self, kind, tmp_path):
        cfg = RunConfig(backbone=kind, h=2, max_seq_len=3, n_layers=1)
        path = tmp_path / "bk.gbkb"
        save_backbone_checkpoint(build_backbone(cfg, seed=5), path)
        data = path.read_bytes()
        target = build_backbone(cfg, seed=6)
        before = snapshot(target)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_backbone_checkpoint(target, path)
            assert_unchanged(target, before)
        path.write_bytes(data + b"\0")
        with pytest.raises(FormatError, match=f"1 trailing bytes at byte {len(data)}"):
            load_backbone_checkpoint(target, path)
        assert_unchanged(target, before)

    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_non_finite_tensor_is_refused_at_its_byte(self, kind, tmp_path):
        cfg = RunConfig(backbone=kind, h=2, max_seq_len=3, n_layers=2)
        model = build_backbone(cfg, seed=5)
        data = pack_gbkb(model)
        target = build_backbone(cfg, seed=6)
        before = snapshot(target)
        path = tmp_path / "bk.gbkb"
        offset, bads = GBKB_HEADER, []
        for name, tensor in model.params.items():
            bad = offset + 4 * (tensor.size // 2)
            path.write_bytes(data[:bad] + struct.pack("<f", math.nan) + data[bad + 4 :])
            with pytest.raises(FormatError, match=f"non-finite value at byte {bad}$"):
                load_backbone_checkpoint(target, path)
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
            load_backbone_checkpoint(target, path)

    @pytest.mark.parametrize("kind", ["gru4rec", "sasrec"])
    def test_version_1_file_loads(self, kind, tmp_path):
        # A version 1 SASRec file holds a key bias after each wk{layer}: read and dropped.
        cfg = RunConfig(backbone=kind, h=4, max_seq_len=12, n_layers=2)
        model = build_backbone(cfg, seed=5)
        key_bias = np.random.default_rng(0).standard_normal(cfg.h).tolist()
        path = tmp_path / "v1.gbkb"
        path.write_bytes(pack_gbkb(model, 1, key_bias if kind == "sasrec" else None))
        loaded = build_backbone(cfg, seed=6)
        load_backbone_checkpoint(loaded, path)
        assert not any(name.startswith("bk") for name in loaded.params)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], tensor.astype(np.float32).astype(np.float64)
            )
        path.write_bytes(pack_gbkb(model, 3))
        with pytest.raises(FormatError, match="unsupported version 3"):
            load_backbone_checkpoint(loaded, path)
