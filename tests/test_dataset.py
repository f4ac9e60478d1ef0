import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasp.dataset import (
    InteractionDataset,
    load_interactions,
    partition_head_tail,
    sample_negatives,
    split_leave_one_out,
    write_id_map,
)
from grasp.errors import DataError, ParseError
from helpers import assert_same_dataset, reference_load_interactions


def write_log(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_ds(sequences, item_count=None):
    n_items = item_count or (max(i for s in sequences.values() for i in s) + 1)
    item_freq = np.zeros(n_items, dtype=np.int64)
    for seq in sequences.values():
        for i in seq:
            item_freq[i] += 1
    return InteractionDataset(
        user_count=len(sequences),
        item_count=n_items,
        sequences=sequences,
        item_frequency=item_freq,
        user_frequency=np.array([len(sequences[u]) for u in sorted(sequences)]),
        user_raw_ids=[str(u) for u in sorted(sequences)],
        item_raw_ids=[str(i) for i in range(n_items)],
    )


class TestLoadInteractions:
    def test_filter_and_reindex(self, tmp_path):
        # u2 has a single event and is dropped; ids re-densify from 0.
        log = write_log(tmp_path / "log.tsv", [
            "u1\ta\t1",
            "u1\tb\t2",
            "u1\tc\t3",
            "u2\ta\t5",
        ])
        ds = load_interactions(log, min_user_len=3, min_item_freq=1)
        assert ds.user_count == 1
        assert ds.item_count == 3
        assert ds.sequences[0] == [0, 1, 2]
        assert ds.user_raw_ids == ["u1"]
        assert ds.item_raw_ids == ["a", "b", "c"]

    def test_empty_file_errors(self, tmp_path):
        log = tmp_path / "log.tsv"
        log.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_interactions(log, 1, 1)

    def test_all_filtered_errors(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", ["u1\ta\t1"])
        with pytest.raises(DataError):
            load_interactions(log, min_user_len=2, min_item_freq=1)

    def test_malformed_line_reports_number(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", ["u1\ta\t1", "garbage line"])
        with pytest.raises(ParseError) as exc:
            load_interactions(log, 1, 1)
        assert exc.value.line == 2
        assert str(exc.value) == f"{log}:2: expected user<TAB>item<TAB>timestamp, got 1 fields"

    def test_bad_timestamp_reports_number(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", ["u1\ta\tnot_a_ts"])
        with pytest.raises(ParseError) as exc:
            load_interactions(log, 1, 1)
        assert exc.value.line == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [
            "# header comment",
            "",
            "u1\ta\t2",
            "u1\tb\t1",
        ])
        ds = load_interactions(log, min_user_len=1, min_item_freq=1)
        # sorted by timestamp: b (t=1) before a (t=2)
        assert ds.sequences[0] == [1, 0]

    def test_equal_timestamps_keep_file_order(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [
            "u1\tx\t7",
            "u1\ty\t7",
            "u1\tz\t7",
        ])
        ds = load_interactions(log, 1, 1)
        assert ds.sequences[0] == [0, 1, 2]

    def test_iterative_filter_cascades(self, tmp_path):
        # Dropping item `rare` shrinks u2 below the length cutoff; dropping
        # u2 then starves item `b`, so the fixpoint keeps only u1's `a`s.
        log = write_log(tmp_path / "log.tsv", [
            "u1\ta\t1", "u1\tb\t2", "u1\ta\t3",
            "u2\trare\t1", "u2\tb\t2",
        ])
        ds = load_interactions(log, min_user_len=2, min_item_freq=2)
        assert ds.user_raw_ids == ["u1"]
        assert ds.item_raw_ids == ["a"]
        assert ds.sequences[0] == [0, 0]

    def test_frequency_sums_match(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for u in range(12):
            for t in range(int(rng.integers(1, 9))):
                lines.append(f"u{u}\ti{rng.integers(6)}\t{t}")
        log = write_log(tmp_path / "log.tsv", lines)
        ds = load_interactions(log, min_user_len=1, min_item_freq=1)
        assert ds.user_frequency.sum() == ds.item_frequency.sum() == ds.interaction_count

    def test_reindex_bijection(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = []
        raw_events = []
        for u in range(10):
            for t in range(4):
                item = f"i{rng.integers(8)}"
                raw_events.append((f"u{u}", item))
                lines.append(f"u{u}\t{item}\t{t}")
        log = write_log(tmp_path / "log.tsv", lines)
        ds = load_interactions(log, min_user_len=1, min_item_freq=1)
        decoded = []
        for u in range(ds.user_count):
            for i in ds.sequences[u]:
                decoded.append((ds.user_raw_ids[u], ds.item_raw_ids[i]))
        assert sorted(decoded) == sorted(raw_events)


# Ids that are easy to mishandle: non-ASCII, inner spaces, characters that
# str.splitlines() (but not a text-mode read) treats as line breaks, and a
# "#" that starts a comment only at the start of a line.
IDS = ["u1", "u2", "i", "caf\u00e9", "\u65e5\u672c", "a b", " lead", "x\x0cy", "p\u2028q",
       "#hash", "7"]


@st.composite
def timestamps(draw):
    """Timestamp text in the forms int() accepts, within int64, many of them equal."""
    value = draw(st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1)))
    digits = str(abs(value))
    form = draw(st.sampled_from(["plain", "plus", "spaces", "underscores", "fullwidth"]))
    if form == "underscores" and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]
    elif form == "fullwidth":
        digits = "".join(chr(0xFF10 + int(d)) for d in digits)
    sign = "-" if value < 0 else ("+" if form == "plus" else "")
    pad = " " if form == "spaces" else ""
    return f"{pad}{sign}{digits}{pad}"


# Mostly three common ids, so that filters of up to 4 often leave something.
ID = st.one_of(st.sampled_from(IDS[:3]), st.sampled_from(IDS[:3]), st.sampled_from(IDS))
EVENT = st.tuples(ID, ID, timestamps()).map("\t".join)
NOISE = st.sampled_from(["", "# a comment", "#\tx\ty\tz"])
BAD = st.sampled_from([
    "one field", "two\tfields", "four\tfields\t1\tx", " ",  # field counts
    "\ta\t1", "u1\t\t1", "\t\t", "u1\t", "\t\t\t",  # empty ids, some with bad counts
    "u1\ta\tx", "u1\ta\t1.5", "u1\ta\t", "u1\ta\t1e3",  # timestamps
])


def join_lines(draw, lines):
    """``lines`` ended by a mix of LF, CRLF and lone CR; the last maybe unended."""
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


@st.composite
def valid_logs(draw):
    lines = draw(st.lists(st.one_of(EVENT, EVENT, EVENT, NOISE), min_size=10, max_size=100))
    return join_lines(draw, lines)


@st.composite
def malformed_logs(draw):
    lines = draw(st.lists(st.one_of(EVENT, NOISE, BAD), max_size=30))
    lines.insert(draw(st.integers(0, len(lines))), draw(BAD))
    return join_lines(draw, lines)


def load_both(path, min_user_len, min_item_freq):
    """(dataset or exception) of the reader under test and of the loop oracle."""
    out = []
    for reader in (load_interactions, reference_load_interactions):
        try:
            out.append(reader(path, min_user_len, min_item_freq))
        except DataError as exc:
            out.append(exc)
    return out


class TestReaderMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(valid_logs(), st.integers(1, 4), st.integers(1, 4))
    @example("", 1, 1)
    @example("# only a comment\r\n\r", 1, 1)
    @example("u\ta\t2\nu\tb\t1\nu\tc\t1\r\nv\ta\t+1\rv\tc\t1_0", 1, 1)
    def test_valid_logs(self, tmp_path_factory, text, min_user_len, min_item_freq):
        path = tmp_path_factory.mktemp("log") / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        got, want = load_both(path, min_user_len, min_item_freq)
        if isinstance(want, DataError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert_same_dataset(got, want)

    @settings(max_examples=300, deadline=None)
    @given(malformed_logs(), st.integers(1, 4), st.integers(1, 4))
    def test_malformed_logs_fail_at_the_same_first_line(self, tmp_path_factory, text,
                                                         min_user_len, min_item_freq):
        path = tmp_path_factory.mktemp("log") / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        got, want = load_both(path, min_user_len, min_item_freq)
        assert type(got) is type(want) is ParseError
        assert got.line == want.line
        assert str(got) == str(want)

    @pytest.mark.parametrize("stamp", [str(2**63), str(-(2**63) - 1), "9" * 40])
    def test_timestamp_outside_int64_is_parse_error(self, tmp_path, stamp):
        # The oracle keeps python ints, so it accepts these; the reader refuses them.
        log = write_log(tmp_path / "log.tsv", ["u1\ta\t1", "# c", f"u1\tb\t{stamp}"])
        assert reference_load_interactions(log, 1, 1).interaction_count == 2
        with pytest.raises(ParseError, match="does not fit int64") as exc:
            load_interactions(log, 1, 1)
        assert exc.value.line == 3

    def test_int64_bounds_are_accepted(self, tmp_path):
        log = write_log(tmp_path / "log.tsv", [f"u\ta\t{2**63 - 1}", f"u\tb\t{-(2**63)}"])
        assert load_interactions(log, 1, 1).sequences == {0: [1, 0]}

    def test_undecodable_log_names_the_file(self, tmp_path):
        log = tmp_path / "log.tsv"
        log.write_bytes(b"u1\ta\t1\nu\xff\tb\t2\n")
        want = f"{log}: not valid UTF-8 (invalid start byte at byte 8)"
        with pytest.raises(DataError, match=re.escape(want)):
            load_interactions(log, 1, 1)

    @pytest.mark.parametrize("seed", [1, 1001])
    @pytest.mark.parametrize("workload", ["trend-sasrec", "long-gru4rec"])
    def test_benchmark_logs(self, tmp_path, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS, make_inputs

        make_inputs(WORKLOADS[workload], seed, str(tmp_path))
        log = tmp_path / "interactions.tsv"
        assert_same_dataset(load_interactions(log, 3, 3), reference_load_interactions(log))


class TestSplit:
    def test_definitional(self):
        ds = make_ds({0: [5, 9, 2, 7]})
        split = split_leave_one_out(ds)
        entry = split.entries[0]
        assert entry.train_prefix == [5, 9]
        assert entry.valid_target == 2
        assert entry.test_target == 7

    def test_minimum_length(self):
        ds = make_ds({0: [5, 9, 2]})
        entry = split_leave_one_out(ds).entries[0]
        assert (entry.train_prefix, entry.valid_target, entry.test_target) == ([5], 9, 2)

    def test_short_users_excluded_and_counted(self):
        ds = make_ds({0: [1, 2], 1: [1, 2, 3], 2: [1, 2, 3, 4]})
        split = split_leave_one_out(ds)
        assert len(split) == 2
        assert split.n_excluded == 1
        assert 0 not in split.entries

    def test_reassembly_identity(self, small_corpus):
        ds, _, _ = small_corpus
        split = split_leave_one_out(ds)
        for user, entry in split.entries.items():
            rebuilt = entry.train_prefix + [entry.valid_target, entry.test_target]
            assert rebuilt == ds.sequences[user]


class TestHeadTail:
    def test_ranked_cut(self):
        freqs = np.array([10, 9, 8, 1, 1, 1, 1, 1, 1, 1])
        ds = InteractionDataset(1, 10, {0: []}, freqs, np.array([0]), ["0"], list("abcdefghij"))
        labels = partition_head_tail(ds, 0.2)
        assert freqs[labels.item_is_head].min() == 9
        assert list(np.flatnonzero(labels.item_is_head)) == [0, 1]

    def test_single_member_population(self):
        ds = InteractionDataset(1, 1, {0: [0]}, np.array([1]), np.array([1]), ["0"], ["a"])
        labels = partition_head_tail(ds, 0.2)
        assert labels.item_is_head.all()

    def test_ties_spill_into_head(self):
        freqs = np.array([5, 5, 5, 1])
        ds = InteractionDataset(1, 4, {0: []}, freqs, np.array([0]), ["0"], list("abcd"))
        labels = partition_head_tail(ds, 0.25)
        assert freqs[labels.item_is_head].min() == 5
        assert labels.item_is_head.sum() == 3

    def test_invalid_ratio(self, small_corpus):
        ds, _, _ = small_corpus
        with pytest.raises(ValueError):
            partition_head_tail(ds, 0.0)

    def test_head_dominates_tail(self, small_corpus):
        import math

        ds, _, _ = small_corpus
        labels = partition_head_tail(ds, 0.2)
        head_freqs = ds.item_frequency[labels.item_is_head]
        tail_freqs = ds.item_frequency[~labels.item_is_head]
        if len(tail_freqs):
            assert tail_freqs.max() < head_freqs.min()
        assert labels.item_is_head.sum() >= math.ceil(0.2 * ds.item_count)


class TestNegativeSampling:
    def test_count_zero(self, small_corpus):
        ds, _, _ = small_corpus
        rng = np.random.default_rng(0)
        assert len(sample_negatives(ds, 0, 0, rng)) == 0

    def test_complement_exhausted(self):
        ds = make_ds({0: [0, 1, 0]}, item_count=5)
        rng = np.random.default_rng(1)
        negs = sample_negatives(ds, 0, 3, rng)
        assert sorted(negs.tolist()) == [2, 3, 4]

    def test_determinism(self, small_corpus):
        ds, _, _ = small_corpus
        a = sample_negatives(ds, 3, 10, np.random.default_rng(11))
        b = sample_negatives(ds, 3, 10, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_infeasible_errors(self):
        ds = make_ds({0: [0, 1]}, item_count=3)
        with pytest.raises(DataError):
            sample_negatives(ds, 0, 2, np.random.default_rng(0))

    def test_never_hits_history(self, small_corpus):
        ds, _, _ = small_corpus
        rng = np.random.default_rng(5)
        for user in range(0, ds.user_count, 7):
            history = set(ds.sequences[user])
            negs = sample_negatives(ds, user, 12, rng)
            assert len(set(negs.tolist()) & history) == 0
            assert len(set(negs.tolist())) == 12


class TestNonHistory:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=60))))
    @example((3, [0, 1, 2, 2, 0]))  # empty complement, repeated items
    @example((4, []))
    def test_equals_setdiff_of_history(self, case):
        item_count, seq = case
        ds = make_ds({0: seq}, item_count=item_count)
        want = np.setdiff1d(np.arange(item_count, dtype=np.int64), np.unique(seq))
        got = ds.non_history(0)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
        # the pool feeds the seeded draws, so equal pools give equal draws
        if len(want):
            np.testing.assert_array_equal(
                np.random.default_rng(1).choice(got, size=len(want), replace=False),
                np.random.default_rng(1).choice(want, size=len(want), replace=False),
            )

    def test_unknown_user_is_data_error(self):
        with pytest.raises(DataError):
            make_ds({0: [0, 1]}).non_history(5)


def test_write_id_map_bytes(tmp_path):
    path = tmp_path / "ids.tsv"
    write_id_map(path, ["alpha", "beta", "42", "caf\u00e9"])
    assert path.read_bytes() == "alpha\t0\nbeta\t1\n42\t2\ncaf\u00e9\t3\n".encode("utf-8")
