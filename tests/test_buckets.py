"""Length-bucketed training and evaluation agree with the padded batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp import evaluation
from grasp.config import RunConfig
from grasp.dataset import split_leave_one_out
from grasp.evaluation import eval_candidates, evaluate, rank_of_target
from grasp.model import build_id_model, build_semantic_model
from grasp.ops import length_buckets, segment_sum, sigmoid
from grasp.trainer import make_training_batch
from helpers import pad_sequences, reference_eval_candidates


class TestLengthBuckets:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 300), max_size=80), st.integers(1, 40))
    def test_partition_properties(self, lengths, max_rows):
        buckets = length_buckets(lengths, max_rows)
        flat = np.concatenate(buckets) if buckets else np.empty(0, dtype=np.int64)
        assert sorted(flat.tolist()) == list(range(len(lengths)))
        lengths = np.asarray(lengths)
        for rows in buckets:
            assert 1 <= len(rows) <= max_rows
            assert lengths[rows].max() <= 2 * lengths[rows].min()
            assert (np.diff(rows) > 0).all()
        again = length_buckets(lengths, max_rows)
        assert len(again) == len(buckets)
        assert all(np.array_equal(a, b) for a, b in zip(again, buckets))

    def test_classes_are_powers_of_two(self):
        lengths = [1, 2, 3, 4, 5, 8, 9, 16, 17, 1, 4]
        got = [rows.tolist() for rows in length_buckets(lengths, 100)]
        assert got == [[0, 9], [1], [2, 3, 10], [4, 5], [6, 7], [8]]

    def test_class_order_then_chunks(self):
        got = [rows.tolist() for rows in length_buckets([3, 1, 4, 1, 3, 1], 2)]
        assert got == [[1, 3], [5], [0, 2], [4]]

    def test_classes_are_the_bit_length_of_n_minus_1(self):
        rng = np.random.default_rng(20)
        powers = 2 ** np.arange(21)
        lengths = np.concatenate([rng.integers(1, 2**20 + 1, 100_000), powers, powers + 1])
        classes = np.array([int(n - 1).bit_length() for n in lengths.tolist()])
        order = np.argsort(classes, kind="stable")
        want = np.split(order, np.flatnonzero(np.diff(classes[order])) + 1)
        got = length_buckets(lengths, len(lengths))
        assert len(got) == len(want) == 22  # classes 0 (n = 1) to 21 (n = 2**20 + 1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("lengths, max_rows", [([0, 2], 4), ([2], 0)])
    def test_rejects_bad_arguments(self, lengths, max_rows):
        with pytest.raises(ValueError):
            length_buckets(lengths, max_rows)


class TestSigmoid:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(0)
        return np.concatenate([rng.standard_normal(1000) * 20, [1000.0, -1000.0, 0.0, -0.0]])

    def test_is_the_textbook_formula_bit_for_bit(self):
        x = self._inputs()
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-x))
            got = sigmoid(x)
        assert np.array_equal(got, expected)
        assert got is not x and np.array_equal(x, self._inputs())

    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "out-is-x"])
    def test_writes_and_returns_out(self, in_place):
        x = self._inputs()
        out = x if in_place else np.empty_like(x)
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-self._inputs()))
            got = sigmoid(x, out=out)
        assert got is out
        assert np.array_equal(out, expected)


class TestSegmentSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=60), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_equals_add_at_with_repeated_ids(self, ids, h, seed):
        ids = np.asarray(ids, dtype=np.int64)
        values = np.random.default_rng(seed).standard_normal((len(ids), h)) * 10.0 ** np.arange(h)
        want = np.zeros((7, h))
        np.add.at(want, ids, values)
        got = segment_sum(ids, values, 7)
        assert got.shape == (7, h)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_id_encoder_gradient_equals_add_at(self):
        model = build_id_model(9, RunConfig(h=4), 0)
        rng = np.random.default_rng(1)
        ids = rng.integers(9, size=(3, 5, 2))
        d_fused = rng.standard_normal((3, 5, 2, 4))
        _, cache = model.encoder.encode_items(np.arange(3), ids)
        want = np.zeros((9, 4))
        np.add.at(want, ids.reshape(-1), d_fused.reshape(-1, 4))
        assert model.encoder.backward(cache, d_fused)["emb"].tobytes() == want.tobytes()
        # readout form: each candidate column's rows d_logit * readout, added in column order
        readout = rng.standard_normal((3, 5, 4))
        d_logit = rng.standard_normal((3, 5, 2))
        logits, cache = model.encoder.encode_items(np.arange(3), ids, readout=readout)
        rows = model.encoder.emb[ids]
        np.testing.assert_allclose(logits, np.einsum("blh,blch->blc", readout, rows),
                                   rtol=1e-14, atol=0)
        grads = model.encoder.backward(cache, d_logit)
        want = np.zeros((9, 4))
        for c in range(2):
            column = np.zeros((9, 4))
            np.add.at(column, ids[..., c].reshape(-1), (d_logit[..., c, None] * readout).reshape(-1, 4))
            want += column
        assert grads["emb"].tobytes() == want.tobytes()
        np.testing.assert_allclose(grads["readout"], np.einsum("blc,blch->blh", d_logit, rows),
                                   rtol=1e-14, atol=0)


def _model(small_stores, item_count, backbone, encoder, softmax_variant=False):
    cfg = RunConfig(backbone=backbone, encoder=encoder, h=8, max_seq_len=50, dropout=0.0,
                    softmax_variant=softmax_variant)
    if encoder == "id":
        return build_id_model(item_count, cfg, 3)
    return build_semantic_model(*small_stores, cfg, seed=3)


MODELS = [
    ("sasrec", "semantic", False),
    ("sasrec", "semantic", True),
    ("sasrec", "id", False),
    ("gru4rec", "semantic", False),
    ("gru4rec", "semantic", True),
    ("gru4rec", "id", False),
]


@pytest.mark.parametrize("backbone, encoder, softmax_variant", MODELS)
def test_bucketed_loss_equals_padded_batch(small_corpus, small_stores, backbone, encoder,
                                           softmax_variant):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    model = _model(small_stores, ds.item_count, backbone, encoder, softmax_variant)
    cfg = RunConfig(batch_size=32, negatives_per_positive=2, max_seq_len=50)
    batch = make_training_batch(split, ds, cfg, np.random.default_rng(0), users=split.users[:32])
    assert len(length_buckets(batch.mask.sum(axis=1), 32)) > 1

    loss, grads, n_pairs = model.loss_and_grads(batch)
    # The dense core on the whole padded grid is the reference.
    dense_loss, dense = model._pair_loss_and_grads(
        batch.users, batch.inputs, batch.mask, batch.targets, batch.negatives,
        n_pairs, None,
    )
    assert n_pairs == batch.mask.sum() * 3
    assert loss == pytest.approx(dense_loss, rel=1e-12, abs=0)
    for group, tensors in dense.items():
        for name, want in tensors.items():
            np.testing.assert_allclose(grads[group][name], want, rtol=0,
                                       atol=1e-12 * np.abs(want).max(), err_msg=f"{group}.{name}")


def test_each_grid_is_trimmed_to_its_length_class(small_corpus, small_stores):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    model = _model(small_stores, ds.item_count, "gru4rec", "id")
    batch = make_training_batch(split, ds, RunConfig(batch_size=32), np.random.default_rng(0),
                                users=split.users[:32])
    grids = []
    forward = model.backbone.forward

    def recording_forward(x, mask, **kwargs):
        grids.append(mask)
        return forward(x, mask, **kwargs)

    model.backbone.forward = recording_forward
    model.loss_and_grads(batch)
    assert sum(int(m.sum()) for m in grids) == int(batch.mask.sum())
    for mask in grids:
        lengths = mask.sum(axis=1)
        assert mask.shape[1] == lengths.max() <= 2 * lengths.min()


def test_single_class_batch_equals_dense_core_exactly(small_corpus, small_stores):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    model = _model(small_stores, ds.item_count, "sasrec", "semantic")
    users = [u for u, e in split.entries.items() if len(e.train_prefix) - 1 in (3, 4)]
    batch = make_training_batch(split, ds, RunConfig(), np.random.default_rng(1), users=users)
    assert len(length_buckets(batch.mask.sum(axis=1), len(users))) == 1
    loss, grads, n_pairs = model.loss_and_grads(batch)
    dense_loss, dense = model._pair_loss_and_grads(
        batch.users, batch.inputs, batch.mask, batch.targets, batch.negatives,
        n_pairs, None,
    )
    assert loss == dense_loss
    for group, tensors in dense.items():
        for name, want in tensors.items():
            np.testing.assert_array_equal(grads[group][name], want)


@pytest.mark.parametrize("backbone, encoder, softmax_variant", MODELS[::2] + [MODELS[1]])
@pytest.mark.parametrize("which", ["valid", "test"])
def test_evaluate_records_independent_of_batch_size(monkeypatch, small_corpus, small_stores,
                                                    backbone, encoder, softmax_variant, which):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    model = _model(small_stores, ds.item_count, backbone, encoder, softmax_variant)
    results = []
    for bs in (1, 7, 256):
        monkeypatch.setattr(evaluation, "EVAL_BATCH_ROWS", bs)
        results.append(evaluate(model, split, ds, which, eval_negatives=20, seed=5, max_seq_len=50))
    (report, records) = results[0]
    assert np.array_equal(records["user"], split.users)
    entries = split.entries
    for user, target_item, rank in records.tolist():  # each user scored on their own
        entry = entries[user]
        seq = list(entry.train_prefix) + ([entry.valid_target] if which == "test" else [])
        target = entry.valid_target if which == "valid" else entry.test_target
        assert target_item == target
        cands, tpos = reference_eval_candidates(ds, user, target, 20, 5)
        o_final = model.final_representations(np.array([user]), *pad_sequences([seq], 50))
        scores = model.candidate_scores(np.array([user]), cands[None], o_final)
        assert rank == rank_of_target(scores[0], tpos)
    for other_report, other_records in results[1:]:
        assert np.array_equal(other_records, records)
        assert other_report == report


@pytest.mark.parametrize("which", ["valid", "test"])
def test_cached_candidates_equal_per_user_draws(small_corpus, which):
    ds, _, _ = small_corpus
    split = split_leave_one_out(ds)
    cands, target_pos = eval_candidates(split, ds, which, 20, seed=9)
    assert cands.shape == (len(split), 21)
    assert cands.dtype == target_pos.dtype == np.int64
    entries = split.entries
    for row, user in enumerate(split.users.tolist()):
        entry = entries[user]
        target = entry.valid_target if which == "valid" else entry.test_target
        want, want_pos = reference_eval_candidates(ds, user, target, 20, 9)
        np.testing.assert_array_equal(cands[row], want)
        assert target_pos[row] == want_pos
