"""Interaction-log ingestion, leave-one-out splits, and popularity partitions.

The log is UTF-8 text, one ``user<TAB>item<TAB>timestamp`` event per line
(docs/interaction-log.md).  Raw ids are opaque strings; after filtering
they are densely re-indexed from 0 in order of first appearance, and the
raw<->dense maps are kept on the dataset (and can be persisted as TSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import read_text, write_text_atomic
from .errors import DataError, ParseError


@dataclass(frozen=True)
class InteractionDataset:
    """Per-user chronologically ordered item sequences with dense ids.

    ``sequences[u]`` preserves the timestamp order of the source log
    (stable for equal timestamps).  ``user_frequency[u]`` is the sequence
    length and ``item_frequency[i]`` the interaction count; both describe
    the full corpus, including users later excluded from splits.
    ``user_raw_ids[u]`` and ``item_raw_ids[i]`` are the raw ids of dense ids.
    """

    user_count: int
    item_count: int
    sequences: dict[int, list[int]]
    item_frequency: np.ndarray
    user_frequency: np.ndarray
    user_raw_ids: list[str]
    item_raw_ids: list[str]

    @property
    def interaction_count(self) -> int:
        return int(self.user_frequency.sum())

    def non_history(self, user: int) -> np.ndarray:
        """Item ids outside the user's full sequence, sorted ascending."""
        if user not in self.sequences:
            raise DataError(f"unknown user id {user}")
        outside = np.ones(self.item_count, dtype=bool)
        outside[self.sequences[user]] = False
        return np.flatnonzero(outside)


@dataclass(frozen=True)
class SplitEntry:
    train_prefix: list[int]
    valid_target: int
    test_target: int


@dataclass(frozen=True)
class LeaveOneOutSplit:
    """Per-user (prefix, validation target, test target) triples.

    Only users whose post-filter sequence length is >= 3 appear;
    ``n_excluded`` counts the rest.
    """

    entries: dict[int, SplitEntry]
    n_excluded: int

    @property
    def users(self) -> list[int]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class GroupLabels:
    """Head/tail flags per user and item.

    The head set is the smallest frequency-ranked prefix containing at
    least ``ceil(ratio * population)`` members (ties at the cutoff spill
    into head), so an entity is head iff its frequency is at least that
    prefix's lowest.
    """

    user_is_head: np.ndarray
    item_is_head: np.ndarray


def _raise_first_bad_line(lines: list[str], path) -> None:
    """Raise the ``ParseError`` of the first malformed line of ``lines``, if any."""
    for lineno, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(
                path, lineno, f"expected user<TAB>item<TAB>timestamp, got {len(parts)} fields"
            )
        if not parts[0] or not parts[1]:
            raise ParseError(path, lineno, "empty user or item id")
        try:
            ts = int(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer timestamp {parts[2]!r}") from None
        if not -(2**63) <= ts < 2**63:
            raise ParseError(path, lineno, f"timestamp {parts[2]!r} does not fit int64")


def _codes(ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Each id's number in order of first appearance, and the distinct ids in that order."""
    index = {raw: n for n, raw in enumerate(dict.fromkeys(ids))}
    return np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)), list(index)


def _parse_log(path):
    """User codes, user ids, item codes, item ids and int64 timestamps, in file order."""
    lines = read_text(path).split("\n")
    body = [line for line in lines if line and line[0] != "#"]
    if not body:
        raise DataError(f"no interactions left after filtering {path}")
    # Every line end becomes a "\n" field, which no line can hold: each line
    # has three fields iff those marks are exactly every fourth field.
    fields = "\t\n\t".join(body).split("\t")
    n = len(body)
    try:
        if len(fields) != 4 * n - 1 or fields[3::4].count("\n") != n - 1:
            raise ValueError("a line without three fields")
        users, items = fields[0::4], fields[1::4]
        if "" in users or "" in items:
            raise ValueError("an empty id")
        stamps = np.fromiter(map(int, fields[2::4]), np.int64, n)
    except (ValueError, OverflowError):
        _raise_first_bad_line(lines, path)  # names the line a check above tripped on
        raise
    return (*_codes(users), *_codes(items), stamps)


def _filter_to_fixpoint(user, item, min_user_len, min_item_freq) -> np.ndarray:
    """File positions of the events kept once no user or item is below its minimum."""
    keep = np.arange(len(user))
    while True:
        u, i = user[keep], item[keep]
        ok = (np.bincount(u)[u] >= min_user_len) & (np.bincount(i)[i] >= min_item_freq)
        if ok.all():
            return keep
        keep = keep[ok]


def _dense(codes: np.ndarray, raw_ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """``codes`` renumbered from 0 by first appearance, and the raw ids of the new numbers."""
    distinct, first = np.unique(codes, return_index=True)
    kept = distinct[np.argsort(first)]
    remap = np.empty(len(raw_ids), dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    return remap[codes], [raw_ids[c] for c in kept.tolist()]


def load_interactions(path, min_user_len: int, min_item_freq: int) -> InteractionDataset:
    """Load a log file and build a densely indexed dataset.

    Users with fewer than ``min_user_len`` events and items with fewer than
    ``min_item_freq`` events are dropped iteratively until the filter is
    stable; surviving ids are re-indexed from 0 in order of first
    appearance in the file.  A malformed line is a ``ParseError`` for the
    first such line.
    """
    user, user_ids, item, item_ids, stamps = _parse_log(path)
    keep = _filter_to_fixpoint(user, item, min_user_len, min_item_freq)
    if not len(keep):
        raise DataError(f"no interactions left after filtering {path}")
    user, user_raw = _dense(user[keep], user_ids)
    item, item_raw = _dense(item[keep], item_ids)
    # File position breaks timestamp ties, so equal timestamps keep file order.
    order = np.lexsort((keep, stamps[keep], user))
    user_freq, item_freq = np.bincount(user), np.bincount(item)
    flat, ends = item[order].tolist(), np.cumsum(user_freq).tolist()
    return InteractionDataset(
        user_count=len(user_raw),
        item_count=len(item_raw),
        sequences={u: flat[a:b] for u, (a, b) in enumerate(zip([0, *ends], ends))},
        item_frequency=item_freq,
        user_frequency=user_freq,
        user_raw_ids=user_raw,
        item_raw_ids=item_raw,
    )


def split_leave_one_out(ds: InteractionDataset) -> LeaveOneOutSplit:
    """Reserve each user's last item for test and second-to-last for validation.

    Users with sequences shorter than 3 are excluded (counted, not an
    error); their interactions still contribute to corpus statistics.
    """
    entries = {}
    excluded = 0
    for user in range(ds.user_count):
        seq = ds.sequences[user]
        if len(seq) < 3:
            excluded += 1
            continue
        entries[user] = SplitEntry(
            train_prefix=list(seq[:-2]), valid_target=seq[-2], test_target=seq[-1]
        )
    return LeaveOneOutSplit(entries=entries, n_excluded=excluded)


def _head_flags(freq: np.ndarray, ratio: float) -> np.ndarray:
    n = len(freq)
    if n == 0:
        raise DataError("cannot partition an empty population")
    head_count = math.ceil(ratio * n)
    order = np.argsort(-freq, kind="stable")
    return freq >= freq[order[head_count - 1]]


def partition_head_tail(ds: InteractionDataset, ratio: float) -> GroupLabels:
    """Pareto partition: the frequency-ranked top ``ratio`` of users/items is head."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    return GroupLabels(user_is_head=_head_flags(ds.user_frequency, ratio),
                       item_is_head=_head_flags(ds.item_frequency, ratio))


def sample_negatives(
    ds: InteractionDataset, user: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` distinct items the user never interacted with.

    Uniform without replacement over the complement of the user's full
    history; deterministic for a fixed generator state.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    candidates = ds.non_history(user)
    if count > len(candidates):
        raise DataError(
            f"cannot sample {count} negatives for user {user}: "
            f"only {len(candidates)} items outside their history"
        )
    return rng.choice(candidates, size=count, replace=False)


def write_id_map(path, raw_ids: list[str]) -> None:
    """Persist a dense<->raw id map as ``raw_id<TAB>dense_id`` TSV."""
    write_text_atomic(path, "".join(f"{raw}\t{dense}\n" for dense, raw in enumerate(raw_ids)))
