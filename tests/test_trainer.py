import numpy as np
import pytest

from grasp.config import RunConfig
from grasp.dataset import split_leave_one_out
from grasp.errors import DataError, NumericError
from grasp.model import IdEncoder, RecModel, build_id_model, build_semantic_model, semantic_checksum
from grasp.trainer import Adam, TrainBatch, fit, make_training_batch, train_epoch, TrainState
from helpers import finite_diff, make_dataset as make_ds, rel_error, sequence


def small_model(small_stores, seed=0, backbone="sasrec", h=8, dropout=0.0, **hae_flags):
    user_store, item_store = small_stores
    return build_semantic_model(
        user_store, item_store,
        RunConfig(backbone=backbone, h=h, max_seq_len=50, dropout=dropout, **hae_flags),
        seed=seed,
    )


class IdentityBackbone:
    """Passes encoded inputs through unchanged, so a test sets each logit directly."""

    params: dict = {}

    def forward(self, x, mask, *, rng=None):
        return x, None

    def backward(self, cache, d_out):
        return d_out, {}


def one_position(logits, real=True):
    """A model and a one-position batch whose candidates score ``logits``.

    ``logits[0]`` is the positive's and the rest are negatives', as in
    every training batch.  The input item embeds as o = [1] and candidate
    ``c`` as its logit, so ``RecModel.loss_and_grads`` sees exactly these.
    """
    n = len(logits)
    encoder = IdEncoder(n + 1, 1, seed=0)
    encoder.emb[0] = 1.0
    encoder.emb[1:, 0] = logits
    batch = TrainBatch(
        users=np.zeros(1, dtype=np.int64), inputs=np.zeros((1, 1), dtype=np.int64),
        mask=np.full((1, 1), real), targets=np.ones((1, 1), dtype=np.int64),
        negatives=np.arange(2, n + 1, dtype=np.int64).reshape(1, 1, n - 1),
    )
    return RecModel(encoder, IdentityBackbone()), batch


def position_loss(probs, real=True) -> float:
    """The training loss of one position whose candidates score ``probs``."""
    probs = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logits = np.clip(np.log(probs) - np.log1p(-probs), -40.0, 40.0)
    model, batch = one_position(logits, real)
    loss, _, _ = model.loss_and_grads(batch)
    return loss


class TestBceLoss:
    def test_fifty_fifty(self):
        assert position_loss([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-9)

    def test_confident_correct(self):
        assert position_loss([0.9, 0.1]) == pytest.approx(0.1053605, abs=1e-6)

    def test_finite_at_perfect_prediction(self):
        loss = position_loss([1.0 - 1e-7])
        assert loss == pytest.approx(1e-7, rel=1e-3)
        assert np.isfinite(position_loss([1.0]))
        assert np.isfinite(position_loss([0.0]))

    @pytest.mark.parametrize("logits, row_grads", [
        ([-40.0, 40.0], [-0.5, 0.5]), ([40.0, -40.0], [0.0, 0.0]),
    ], ids=["wrong", "right"])
    def test_gradient_matches_finite_differences_at_saturated_logits(self, logits, row_grads):
        # Nothing is clamped: a confidently wrong pair keeps its whole loss and gradient.
        model, batch = one_position(logits)
        loss, grads, n_pairs = model.loss_and_grads(batch)
        signs = np.array([-1.0, 1.0])  # log(1 + e^-x) for the positive, log(1 + e^x) for the negative
        assert loss == pytest.approx(np.logaddexp(0.0, signs * logits).sum() / n_pairs, rel=1e-12)
        analytic = grads["id_embedding"]["emb"]
        fd = finite_diff(lambda: model.loss_and_grads(batch)[0], model.encoder.emb, step=1e-4)
        assert rel_error(analytic, fd) < 1e-6
        np.testing.assert_allclose(analytic[1:, 0], row_grads, rtol=1e-12, atol=1e-17)

    def test_empty_pool_errors(self):
        # a batch without a real position has no (position, candidate) pair
        with pytest.raises(ValueError):
            position_loss([0.5], real=False)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert position_loss(rng.random(6)) >= 0.0


class TestAdam:
    def test_first_step_is_signed_lr(self):
        param = np.array([1.0, -1.0, 0.5])
        opt = Adam({"g": {"p": param}}, lr=0.1)
        grads = {"g": {"p": np.array([3.0, -2.0, 0.001])}}
        opt.step(grads)
        # with bias correction the first update is lr * g/(|g| + eps') ~ lr*sign(g)
        np.testing.assert_allclose(param, [0.9, -0.9, 0.4], atol=1e-3)

    def test_zero_lr_freezes_params(self):
        param = np.array([1.0, 2.0])
        opt = Adam({"g": {"p": param}}, lr=0.0)
        opt.step({"g": {"p": np.array([5.0, -5.0])}})
        np.testing.assert_array_equal(param, [1.0, 2.0])


class TestTrainingBatch:
    def test_shift_by_one(self, small_corpus):
        ds = make_ds({0: [10, 11, 12, 13, 14]}, item_count=20)
        split = split_leave_one_out(ds)  # prefix [10, 11, 12]
        cfg = RunConfig(batch_size=4, negatives_per_positive=2)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(0), split.users)
        assert batch.inputs.tolist() == [[10, 11]]
        assert batch.targets.tolist() == [[11, 12]]
        assert batch.mask.all()
        assert batch.negatives.shape == (1, 2, 2)

    def test_negatives_avoid_history(self, small_corpus, small_split):
        ds, _, _ = small_corpus
        cfg = RunConfig(batch_size=16, negatives_per_positive=3)
        split = split_leave_one_out(ds)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(1), split.users[:16])
        for b, user in enumerate(batch.users):
            history = set(sequence(ds, int(user)))
            drawn = batch.negatives[b][batch.mask[b]]
            assert not (set(drawn.flatten().tolist()) & history)

    def test_fixed_rng_reproduces(self, small_corpus):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        cfg = RunConfig(batch_size=8)
        a = make_training_batch(split, ds, cfg, np.random.default_rng(7), split.users[:8])
        b = make_training_batch(split, ds, cfg, np.random.default_rng(7), split.users[:8])
        np.testing.assert_array_equal(a.negatives, b.negatives)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_truncation_keeps_most_recent(self):
        seq = list(range(30))
        ds = make_ds({0: seq}, item_count=40)
        split = split_leave_one_out(ds)
        cfg = RunConfig(batch_size=1, max_seq_len=5)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(0), split.users)
        assert batch.inputs.shape[1] == 5
        assert batch.inputs.tolist() == [[22, 23, 24, 25, 26]]
        assert batch.targets.tolist() == [[23, 24, 25, 26, 27]]

    def test_mixed_lengths_are_left_padded(self, small_corpus):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        batch = make_training_batch(split, ds, RunConfig(batch_size=16, max_seq_len=6),
                                    np.random.default_rng(3), split.users[:16])
        assert len(set(batch.mask.sum(axis=1).tolist())) > 1
        L = batch.inputs.shape[1]
        for b, user in enumerate(batch.users):
            prefix = split.entries[int(user)].train_prefix
            real_in, real_tg = prefix[:-1][-6:], prefix[1:][-6:]
            pad = L - len(real_in)
            assert batch.mask[b].tolist() == [False] * pad + [True] * len(real_in)
            assert batch.inputs[b].tolist() == [0] * pad + list(real_in)
            assert batch.targets[b].tolist() == [0] * pad + list(real_tg)
            assert not batch.negatives[b, :pad].any()


class TestTrainEpoch:
    def test_zero_lr_keeps_params_bit_identical(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=3)
        before = model.snapshot(precision="f64")
        cfg = RunConfig(lr=0.0, batch_size=16, max_seq_len=50)
        adam = Adam(model.parameter_groups(), cfg.lr)
        state = TrainState()
        train_epoch(model, split, ds, cfg, state, adam,
                    np.random.default_rng(0), np.random.default_rng(1))
        for group, tensors in model.parameter_groups().items():
            for name, tensor in tensors.items():
                np.testing.assert_array_equal(tensor, before[group][name])
        assert len(state.loss_history) == 1

    def test_toy_task_loss_decreases(self):
        # one user whose next item is always 0, and only item 2 exists as a
        # negative: a deterministic objective that must fall epoch over epoch
        ds = make_ds({0: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]}, item_count=3)
        split = split_leave_one_out(ds)
        cfg = RunConfig(backbone="gru4rec", h=8, max_seq_len=20, dropout=0.0, lr=0.005, batch_size=4)
        model = build_id_model(3, cfg, 1)
        adam = Adam(model.parameter_groups(), cfg.lr)
        state = TrainState()
        rng = np.random.default_rng(0)
        drng = np.random.default_rng(1)
        for _ in range(5):
            train_epoch(model, split, ds, cfg, state, adam, rng, drng)
        assert len(state.loss_history) == 5
        assert all(a > b for a, b in zip(state.loss_history, state.loss_history[1:]))

    def test_nan_params_raise_numeric_error(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=4)
        model.backbone.params["lnf_g"][:] = np.nan
        cfg = RunConfig(batch_size=16, max_seq_len=50)
        adam = Adam(model.parameter_groups(), cfg.lr)
        with pytest.raises(NumericError, match="epoch 1"):
            train_epoch(model, split, ds, cfg, TrainState(), adam,
                        np.random.default_rng(0), np.random.default_rng(1))


def same_loss_and_grads(a, b) -> bool:
    (loss_a, grads_a, _), (loss_b, grads_b, _) = a, b
    return loss_a == loss_b and all(
        np.array_equal(g, grads_b[group][name])
        for group, tensors in grads_a.items() for name, g in tensors.items()
    )


class TestRngContract:
    """``loss_and_grads`` applies dropout exactly when an ``rng`` is passed."""

    @pytest.mark.parametrize("backbone", ["gru4rec", "sasrec"])
    def test_dropout_follows_the_rng(self, small_corpus, small_stores, backbone):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, backbone=backbone, dropout=0.3)
        batch = make_training_batch(split, ds, RunConfig(batch_size=8), np.random.default_rng(0),
                                    split.users[:8])
        plain = [model.loss_and_grads(batch) for _ in range(2)]
        drawn = [model.loss_and_grads(batch, rng=np.random.default_rng(0)) for _ in range(2)]
        assert same_loss_and_grads(*plain)
        assert same_loss_and_grads(*drawn)
        assert not same_loss_and_grads(plain[0], drawn[0])

    def test_default_config_model_without_rng(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        cfg = RunConfig()
        model = build_semantic_model(*small_stores, cfg, seed=0)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(0), split.users[:8])
        loss, grads, n_pairs = model.loss_and_grads(batch)
        assert np.isfinite(loss) and n_pairs > 0
        assert set(grads) == {"hae", "backbone"}


class TestFullLossGradient:
    def test_matches_finite_differences_semantic(self, small_corpus, small_stores):
        # end-to-end wiring check: BCE through backbone + both encoder uses
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=5, h=4, backbone="sasrec")
        cfg = RunConfig(batch_size=3, negatives_per_positive=2, max_seq_len=6)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(2),
                                    users=split.users[:3])

        def scalar():
            loss, _, _ = model.loss_and_grads(batch)
            return loss

        _, grads, _ = model.loss_and_grads(batch)
        for group, tensors in model.parameter_groups().items():
            for name, tensor in tensors.items():
                fd = finite_diff(scalar, tensor, step=1e-6)
                err = rel_error(grads[group][name], fd)
                assert err < 1e-3, f"{group}.{name}: {err}"

    def test_matches_finite_differences_id(self, small_corpus):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = build_id_model(
            ds.item_count, RunConfig(backbone="gru4rec", h=4, max_seq_len=8, dropout=0.0), 6
        )
        cfg = RunConfig(batch_size=2, negatives_per_positive=1, max_seq_len=5)
        batch = make_training_batch(split, ds, cfg, np.random.default_rng(3),
                                    users=split.users[:2])

        def scalar():
            loss, _, _ = model.loss_and_grads(batch)
            return loss

        _, grads, _ = model.loss_and_grads(batch)
        for group, tensors in model.parameter_groups().items():
            for name, tensor in tensors.items():
                fd = finite_diff(scalar, tensor, step=1e-6)
                err = rel_error(grads[group][name], fd)
                assert err < 1e-3, f"{group}.{name}: {err}"


class TestFit:
    def test_patience_one_frozen_model_stops_after_two(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=7)
        cfg = RunConfig(lr=0.0, patience=1, max_epochs=50, eval_negatives=20, max_seq_len=50)
        _, state = fit(model, split, ds, cfg, 42)
        assert state.epoch == 2
        assert len(state.val_history) == 2
        assert state.stopped_early

    def test_early_stop_validation_count(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=8)
        cfg = RunConfig(lr=0.0, patience=5, max_epochs=100, eval_negatives=20, max_seq_len=50)
        _, state = fit(model, split, ds, cfg, 42)
        assert len(state.val_history) == 6

    def test_best_checkpoint_is_argmax(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=9)
        cfg = RunConfig(max_epochs=4, patience=10, eval_negatives=20, max_seq_len=50)
        _, state = fit(model, split, ds, cfg, 42)
        assert state.best_val_ndcg10 == max(state.val_history)
        assert state.val_history[state.best_epoch - 1] == state.best_val_ndcg10

    def test_reproducible_histories(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        results = []
        for _ in range(2):
            model = small_model(small_stores, seed=10, dropout=0.2)
            cfg = RunConfig(max_epochs=3, patience=10, eval_negatives=20, max_seq_len=50)
            _, state = fit(model, split, ds, cfg, 10)
            results.append((state.loss_history, state.val_history))
        assert results[0] == results[1]

    def test_frozen_store_checksum(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=11)
        before = semantic_checksum(model)
        cfg = RunConfig(max_epochs=3, patience=10, eval_negatives=20, max_seq_len=50)
        model, _ = fit(model, split, ds, cfg, 42)
        assert semantic_checksum(model) == before

    def test_parameter_registry_has_exactly_two_groups(self, small_stores):
        model = small_model(small_stores, seed=12)
        assert set(model.parameter_groups()) == {"hae", "backbone"}

    def test_empty_split_errors(self, small_corpus, small_stores):
        ds, _, _ = small_corpus
        empty = split_leave_one_out(make_ds({0: [1, 2]}, item_count=4))
        model = small_model(small_stores, seed=13)
        with pytest.raises(DataError):
            fit(model, empty, ds, RunConfig(max_seq_len=50), 42)

    def test_no_best_snapshot_is_numeric_error(self, small_corpus, small_stores, monkeypatch):
        # evaluate itself refuses non-finite scores; this guards the fallback
        from grasp import trainer
        from grasp.evaluation import MetricReport

        nan_report = MetricReport(ndcg={10: float("nan")}, hr={}, n_users_evaluated=1)
        monkeypatch.setattr(trainer, "evaluate", lambda *a, **k: (nan_report, []))
        ds, _, _ = small_corpus
        model = small_model(small_stores, seed=15)
        cfg = RunConfig(max_epochs=2, patience=5, eval_negatives=20, max_seq_len=50)
        with pytest.raises(NumericError, match="best validation snapshot"):
            fit(model, split_leave_one_out(ds), ds, cfg, 15)

    def test_logged_values_match_checkpoint_replay(self, small_corpus, small_stores):
        from grasp.evaluation import evaluate

        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = small_model(small_stores, seed=14)
        cfg = RunConfig(max_epochs=3, patience=10, eval_negatives=20, max_seq_len=50)
        model, state = fit(model, split, ds, cfg, 14)
        report, _ = evaluate(model, split, ds, "valid", eval_negatives=20, seed=14, max_seq_len=50)
        assert report.ndcg[10] == state.best_val_ndcg10
