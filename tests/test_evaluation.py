import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.dataset import partition_head_tail, split_leave_one_out
from grasp.errors import DataError, FormatError, NumericError
from grasp.evaluation import (
    KS,
    RECORD,
    MetricReport,
    emit_report,
    eval_candidates,
    evaluate,
    format_report_table,
    group_report,
    parse_report_tsv,
    rank_of_target,
    report_from_ranks,
)
from helpers import brute_force_hr, brute_force_ndcg, random_baseline_ndcg10, sequence


class TestRank:
    def test_unique_max(self):
        assert rank_of_target([0.1, 0.9, 0.3], 1) == 1

    def test_tie_broken_by_index(self):
        assert rank_of_target([0.9, 0.9, 0.1], 1) == 2
        assert rank_of_target([0.9, 0.9, 0.1], 0) == 1

    def test_unique_min_among_101(self):
        scores = np.linspace(1.0, 2.0, 101)
        assert rank_of_target(scores, 0) == 101

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rank_of_target([0.5], 3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.data())
    def test_matches_brute_force(self, levels, data):
        # Few distinct values, so most draws tie with the target.
        scores = np.array(levels, dtype=np.float64) / 3.0
        target_index = data.draw(st.integers(0, len(scores) - 1))
        target = scores[target_index]
        want = 1 + sum(s > target or (s == target and i < target_index)
                       for i, s in enumerate(scores.tolist()))
        assert rank_of_target(scores, target_index) == want


class TestMetricOracles:
    def test_full_oracle_sweep(self):
        for rank in range(1, 201):
            report = report_from_ranks(np.array([rank]))
            for k in KS:
                assert report.ndcg[k] == pytest.approx(brute_force_ndcg(rank, k), abs=0)
                assert report.hr[k] == brute_force_hr(rank, k)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 1000), min_size=1, max_size=600))
    def test_array_means_equal_oracle_means(self, ranks):
        # bit for bit: the array path sums in the order the per-rank oracle mean does
        report = report_from_ranks(np.array(ranks))
        for k in KS:
            assert report.ndcg[k] == float(np.mean([brute_force_ndcg(r, k) for r in ranks]))
            assert report.hr[k] == float(np.mean([brute_force_hr(r, k) for r in ranks]))

    def test_spot_checks(self):
        assert report_from_ranks([1]).ndcg[10] == 1.0
        assert report_from_ranks([3]).ndcg[10] == pytest.approx(0.5, abs=0)
        assert report_from_ranks([11]).ndcg[10] == 0.0
        assert report_from_ranks([5]).hr[5] == 1.0
        assert report_from_ranks([6]).hr[5] == 0.0

    def test_hr_average(self):
        assert report_from_ranks(np.array([1, 2, 12])).hr[10] == pytest.approx(2 / 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            report_from_ranks(np.array([3, 0, 5]))

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ranks = rng.integers(1, 40, size=15)
            rep = report_from_ranks(ranks)
            ndcgs = [rep.ndcg[k] for k in KS]
            hrs = [rep.hr[k] for k in KS]
            assert ndcgs == sorted(ndcgs)
            assert hrs == sorted(hrs)

    def test_ndcg1_equals_hr1(self):
        rng = np.random.default_rng(1)
        rep = report_from_ranks(rng.integers(1, 30, size=25))
        assert rep.ndcg[1] == rep.hr[1]

    def test_score_order_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random(101)
        target = 17
        base = rank_of_target(scores, target)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: np.tanh(s) * 0.5):
            assert rank_of_target(transform(scores), target) == base


class _EqualScorer:
    """All candidates tie; ranks come purely from the shuffled order."""

    def final_representations(self, users, inputs, mask):
        return np.zeros((len(users), 4))

    def candidate_scores(self, users, cand_ids, o_final):
        return np.full(cand_ids.shape, 0.5)


class _PerfectScorer:
    def __init__(self, targets):
        self.targets = targets

    def final_representations(self, users, inputs, mask):
        self._users = users
        return np.zeros((len(users), 4))

    def candidate_scores(self, users, cand_ids, o_final):
        want = np.array([self.targets[int(u)] for u in users])[:, None]
        return np.where(cand_ids == want, 1.0, 0.0)


class _NanScorer:
    """Scores every candidate of the listed users NaN."""

    def __init__(self, bad_users):
        self.bad_users = set(bad_users)

    def final_representations(self, users, inputs, mask):
        return np.zeros((len(users), 4))

    def candidate_scores(self, users, cand_ids, o_final):
        bad = np.array([int(u) in self.bad_users for u in users])[:, None]
        return np.where(bad, np.nan, 0.5) * np.ones(cand_ids.shape)


@pytest.fixture(scope="module")
def big_corpus():
    from grasp import embedstore as es

    ds, _, _ = es.synth_corpus(n_users=2200, m_items=150, n_clusters=5, dim=8, noise=0.1, seed=13)
    return ds, split_leave_one_out(ds)


class TestEvaluateProtocol:
    def test_equal_scores_land_uniform_ranks(self, big_corpus):
        ds, split = big_corpus
        report, _ = evaluate(_EqualScorer(), split, ds, "test", eval_negatives=100, seed=3,
                             max_seq_len=100)
        n = report.n_users_evaluated
        assert n >= 2000
        for k in KS:
            expect = k / 101
            se = np.sqrt(expect * (1 - expect) / n)
            assert abs(report.hr[k] - expect) <= 3 * se, (k, report.hr[k], expect)

    def test_perfect_scorer_maxes_metrics(self, big_corpus):
        ds, split = big_corpus
        targets = {u: e.test_target for u, e in split.entries.items()}
        report, records = evaluate(_PerfectScorer(targets), split, ds, "test",
                                   eval_negatives=50, seed=4, max_seq_len=100)
        for k in KS:
            assert report.ndcg[k] == 1.0
            assert report.hr[k] == 1.0
        assert records.dtype == RECORD
        assert (records["rank"] == 1).all()

    def test_same_seed_identical(self, big_corpus):
        ds, split = big_corpus
        a, _ = evaluate(_EqualScorer(), split, ds, "test", eval_negatives=30, seed=5, max_seq_len=100)
        b, _ = evaluate(_EqualScorer(), split, ds, "test", eval_negatives=30, seed=5, max_seq_len=100)
        assert a == b

    def test_different_seed_differs(self, big_corpus):
        ds, split = big_corpus
        a, _ = evaluate(_EqualScorer(), split, ds, "test", eval_negatives=30, seed=5, max_seq_len=100)
        b, _ = evaluate(_EqualScorer(), split, ds, "test", eval_negatives=30, seed=6, max_seq_len=100)
        assert a != b

    def test_negatives_exclude_only_history(self, big_corpus):
        # candidates may include other users' targets, never the user's history
        ds, split = big_corpus
        cand_rows, target_pos = eval_candidates(split, ds, "test", 100, seed=7)
        entries = split.entries
        for cands, tpos, user in list(zip(cand_rows, target_pos, split.users.tolist()))[:40]:
            entry = entries[user]
            history = set(sequence(ds, user))
            negs = np.delete(cands, tpos)
            assert not (set(negs.tolist()) & history)
            assert cands[tpos] == entry.test_target

    def test_empty_split_errors(self, big_corpus):
        ds, _ = big_corpus
        from grasp.dataset import LeaveOneOutSplit

        empty = LeaveOneOutSplit(np.empty(0, dtype=np.int64), 3, ds)
        with pytest.raises(DataError):
            evaluate(_EqualScorer(), empty, ds, "test", eval_negatives=100, seed=42, max_seq_len=100)

    def test_bad_which(self, big_corpus):
        ds, split = big_corpus
        with pytest.raises(ValueError):
            evaluate(_EqualScorer(), split, ds, "train", eval_negatives=100, seed=42,
                     max_seq_len=100)

    def test_valid_and_test_use_different_inputs(self, small_corpus, small_stores):
        from grasp.config import RunConfig
        from grasp.model import build_semantic_model

        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = build_semantic_model(
            small_stores[0], small_stores[1],
            RunConfig(backbone="gru4rec", h=8, max_seq_len=50), seed=0,
        )
        va, _ = evaluate(model, split, ds, "valid", eval_negatives=20, seed=8, max_seq_len=100)
        te, _ = evaluate(model, split, ds, "test", eval_negatives=20, seed=8, max_seq_len=100)
        assert va != te

    def test_nan_scores_raise_numeric_error(self, big_corpus):
        # an all-NaN scorer would otherwise rank every target first (NDCG 1.0)
        ds, split = big_corpus
        bad = split.users[::500][1:]
        with pytest.raises(NumericError, match=f"user {bad[0]}$"):
            evaluate(_NanScorer(bad), split, ds, "test", eval_negatives=20, seed=3, max_seq_len=100)
        with pytest.raises(NumericError):
            evaluate(_NanScorer(split.users), split, ds, "valid", eval_negatives=20, seed=3,
                     max_seq_len=100)

    @pytest.mark.parametrize("backbone", ["sasrec", "gru4rec"])
    def test_nan_model_raises_numeric_error(self, small_corpus, small_stores, backbone):
        from grasp.config import RunConfig
        from grasp.model import build_semantic_model

        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        model = build_semantic_model(
            small_stores[0], small_stores[1],
            RunConfig(backbone=backbone, h=8, max_seq_len=50), seed=0,
        )
        for tensor in model.backbone.params.values():
            tensor[...] = np.nan
        with pytest.raises(NumericError, match=f"user {split.users[0]}$"):
            evaluate(model, split, ds, "test", eval_negatives=20, seed=8, max_seq_len=100)

    def test_random_baseline_constant(self):
        # the analytic uniform-rank NDCG@10 constant used by the trend gates
        assert random_baseline_ndcg10() == pytest.approx(0.04499, abs=5e-5)


class TestGroupReport:
    def test_two_user_head_tail(self):
        records = np.array([(0, 0, 1), (1, 1, 11)], dtype=RECORD)
        from grasp.dataset import GroupLabels

        groups = GroupLabels(
            user_is_head=np.array([True, False]),
            item_is_head=np.array([True, False]),
        )
        reports = group_report(records, groups)
        assert list(reports) == ["head_user", "tail_user", "head_item", "tail_item"]
        assert [r.group for r in reports.values()] == list(reports)
        assert reports["head_user"].ndcg[10] == 1.0
        assert reports["tail_user"].ndcg[10] == 0.0
        assert reports["head_item"].ndcg[10] == 1.0
        assert reports["tail_item"].ndcg[10] == 0.0

    def test_empty_group_flagged(self):
        records = np.array([(0, 0, 1)], dtype=RECORD)
        from grasp.dataset import GroupLabels

        groups = GroupLabels(
            user_is_head=np.array([True]), item_is_head=np.array([True]),
        )
        reports = group_report(records, groups)
        assert reports["tail_user"].empty
        assert reports["tail_user"].ndcg[10] == 0.0  # flagged, not NaN

    def test_partition_identity(self, big_corpus):
        ds, split = big_corpus
        report, records = evaluate(_EqualScorer(), split, ds, "test",
                                   eval_negatives=40, seed=9, max_seq_len=100)
        groups = partition_head_tail(ds, 0.2)
        by_group = group_report(records, groups)
        for pair in (("head_user", "tail_user"), ("head_item", "tail_item")):
            n = sum(by_group[g].n_users_evaluated for g in pair)
            assert n == report.n_users_evaluated
            for k in KS:
                weighted = sum(
                    by_group[g].ndcg[k] * by_group[g].n_users_evaluated for g in pair
                ) / n
                assert weighted == pytest.approx(report.ndcg[k], abs=1e-12)


@st.composite
def _reports(draw):
    group = draw(st.text("abcdefghij_", min_size=1, max_size=12))
    ranks = draw(st.lists(st.integers(1, 101), max_size=40))
    report = report_from_ranks(ranks, group=group, n_skipped=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):  # arbitrary finite metric values, not only rank means
        unit = st.floats(0.0, 1.0)
        report = MetricReport(
            ndcg={k: draw(unit) for k in KS}, hr={k: draw(unit) for k in KS},
            n_users_evaluated=report.n_users_evaluated, n_skipped=report.n_skipped,
            group=group, empty=report.empty,
        )
    return report


REPORTS = _reports()


class TestReportFiles:
    def _sample_reports(self):
        rng = np.random.default_rng(10)
        return [
            report_from_ranks(rng.integers(1, 50, size=30).tolist(), group="overall"),
            report_from_ranks(rng.integers(1, 50, size=12).tolist(), group="tail_item"),
            report_from_ranks([], group="head_item"),
        ]

    def test_round_trip_exact(self, tmp_path):
        reports = self._sample_reports()
        path = tmp_path / "metrics.tsv"
        emit_report(reports, path)
        assert parse_report_tsv(path) == reports

    def test_empty_report_list(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        emit_report([], path)
        assert path.read_text().strip() == "group\tk\tndcg\thr"
        assert parse_report_tsv(path) == []

    def test_five_rows_per_report(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        emit_report(self._sample_reports()[:1], path)
        data_rows = [l for l in path.read_text().splitlines()[1:] if l and not l.startswith("#")]
        assert len(data_rows) == 5

    @settings(max_examples=100, deadline=None)
    @given(st.lists(REPORTS, max_size=6, unique_by=lambda r: r.group))
    def test_round_trip_generated(self, tmp_path_factory, reports):
        path = tmp_path_factory.mktemp("tsv") / "metrics.tsv"
        emit_report(reports, path)
        assert parse_report_tsv(path) == reports

    def test_truncation_at_every_offset(self, tmp_path):
        # A cut that ends on a whole group, which the format cannot tell from
        # a shorter report, reads as the groups before it; any other cut is
        # refused as a DataError.
        reports = self._sample_reports()
        path = tmp_path / "metrics.tsv"
        emit_report(reports, path)
        data = path.read_bytes()
        group_ends = {}
        for n in range(len(reports) + 1):
            emit_report(reports[:n], path)
            group_ends[len(path.read_bytes())] = reports[:n]
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            if cut in group_ends:
                assert parse_report_tsv(path) == group_ends[cut]
                continue
            with pytest.raises(DataError) as exc:
                parse_report_tsv(path)
            assert type(exc.value) in (DataError, FormatError)
        assert len(group_ends) == len(reports) + 1

    def test_undecodable_file_names_it(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        emit_report(self._sample_reports(), path)
        path.write_bytes(path.read_bytes().replace(b"overall", b"over\xe9ll", 1))
        with pytest.raises(DataError, match=f"{path}: not valid UTF-8"):
            parse_report_tsv(path)

    def test_table_renders_all_groups(self):
        table = format_report_table(self._sample_reports())
        assert "overall" in table and "tail_item" in table
        assert "-" in table  # empty group renders dashes
