"""Interaction-log ingestion, leave-one-out splits, and popularity partitions.

The on-disk log format is UTF-8 text, one event per line,
``user<TAB>item<TAB>timestamp`` with an integer timestamp; lines starting
with ``#`` are comments and blank lines are skipped.  Raw ids are opaque
strings; after filtering they are densely re-indexed from 0 in order of
first appearance, and the raw<->dense maps are kept on the dataset (and can
be persisted as two-column TSV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import write_text_atomic
from .errors import DataError, ParseError


@dataclass(frozen=True)
class InteractionDataset:
    """Per-user chronologically ordered item sequences with dense ids.

    ``sequences[u]`` preserves the timestamp order of the source log
    (stable for equal timestamps).  ``user_frequency[u]`` is the sequence
    length and ``item_frequency[i]`` the interaction count; both describe
    the full corpus, including users later excluded from splits.
    """

    user_count: int
    item_count: int
    sequences: dict[int, list[int]]
    item_frequency: np.ndarray
    user_frequency: np.ndarray
    user_raw_ids: list[str] = field(default_factory=list)
    item_raw_ids: list[str] = field(default_factory=list)

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
    """Head/tail flags per user and item plus the frequency cutoffs.

    An entity is head iff its frequency >= the corresponding threshold; the
    head set is the smallest frequency-ranked prefix containing at least
    ``ceil(ratio * population)`` members (ties at the cutoff spill into
    head).
    """

    user_is_head: np.ndarray
    item_is_head: np.ndarray
    user_threshold: int
    item_threshold: int


def _parse_log(path) -> list[tuple[str, str, int]]:
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    f"expected user<TAB>item<TAB>timestamp, got {len(parts)} fields", lineno
                )
            user, item, ts = parts
            if not user or not item:
                raise ParseError("empty user or item id", lineno)
            try:
                ts_val = int(ts)
            except ValueError:
                raise ParseError(f"non-integer timestamp {ts!r}", lineno) from None
            events.append((user, item, ts_val))
    return events


def load_interactions(path, min_user_len: int = 3, min_item_freq: int = 3) -> InteractionDataset:
    """Load a log file and build a densely indexed dataset.

    Users with fewer than ``min_user_len`` events and items with fewer than
    ``min_item_freq`` events are dropped iteratively until the filter is
    stable; surviving ids are re-indexed from 0 in order of first
    appearance in the file.
    """
    events = _parse_log(path)
    events = _filter_to_fixpoint(events, min_user_len, min_item_freq)
    if not events:
        raise DataError(f"no interactions left after filtering {path}")
    return _build_dataset(events)


def _filter_to_fixpoint(events, min_user_len, min_item_freq):
    while True:
        user_counts: dict[str, int] = {}
        item_counts: dict[str, int] = {}
        for user, item, _ in events:
            user_counts[user] = user_counts.get(user, 0) + 1
            item_counts[item] = item_counts.get(item, 0) + 1
        kept = [
            ev
            for ev in events
            if user_counts[ev[0]] >= min_user_len and item_counts[ev[1]] >= min_item_freq
        ]
        if len(kept) == len(events):
            return kept
        events = kept


def _build_dataset(events) -> InteractionDataset:
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    for user, item, _ in events:
        if user not in user_index:
            user_index[user] = len(user_index)
        if item not in item_index:
            item_index[item] = len(item_index)

    # Stable sort on timestamp keeps file order for equal timestamps.
    per_user: dict[int, list[tuple[int, int, int]]] = {u: [] for u in user_index.values()}
    for order, (user, item, ts) in enumerate(events):
        per_user[user_index[user]].append((ts, order, item_index[item]))
    sequences = {
        u: [item for _, _, item in sorted(evs, key=lambda e: (e[0], e[1]))]
        for u, evs in per_user.items()
    }

    n_users, n_items = len(user_index), len(item_index)
    user_freq = np.zeros(n_users, dtype=np.int64)
    item_freq = np.zeros(n_items, dtype=np.int64)
    for u, seq in sequences.items():
        user_freq[u] = len(seq)
        for i in seq:
            item_freq[i] += 1

    user_raw = [""] * n_users
    for raw, dense in user_index.items():
        user_raw[dense] = raw
    item_raw = [""] * n_items
    for raw, dense in item_index.items():
        item_raw[dense] = raw

    return InteractionDataset(
        user_count=n_users,
        item_count=n_items,
        sequences=sequences,
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


def _head_flags(freq: np.ndarray, ratio: float) -> tuple[np.ndarray, int]:
    n = len(freq)
    if n == 0:
        raise DataError("cannot partition an empty population")
    head_count = math.ceil(ratio * n)
    order = np.argsort(-freq, kind="stable")
    threshold = int(freq[order[head_count - 1]])
    return freq >= threshold, threshold


def partition_head_tail(ds: InteractionDataset, ratio: float = 0.2) -> GroupLabels:
    """Pareto partition: the frequency-ranked top ``ratio`` of users/items is head."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    user_head, user_thr = _head_flags(ds.user_frequency, ratio)
    item_head, item_thr = _head_flags(ds.item_frequency, ratio)
    return GroupLabels(
        user_is_head=user_head,
        item_is_head=item_head,
        user_threshold=user_thr,
        item_threshold=item_thr,
    )


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
