"""Ranking metrics and the sampled-negative evaluation protocol.

Each evaluated user ranks their held-out target against ``eval_negatives``
items sampled (once, seeded) from outside their full history.  The
candidate order is shuffled per user so the deterministic index tie-break
is unbiased in expectation: an all-equal scorer lands the target at a
uniform rank.  NDCG uses the single-relevant-item reduction (ideal DCG is
1), so NDCG@k = 1/log2(rank+1) when the rank is within the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import read_text, write_text_atomic
from .dataset import GroupLabels, InteractionDataset, LeaveOneOutSplit, sample_negatives
from .errors import DataError, NumericError
from .ops import length_buckets

KS = (1, 3, 5, 10, 20)

# One evaluated user: the held-out target item and its 1-based rank.
RECORD = np.dtype([("user", "<i8"), ("target_item", "<i8"), ("rank", "<i8")])


# Called once per user: perfbench's tracer wraps it to count evaluated users.
def rank_of_target(scores, target_index: int) -> int:
    """1-based rank: strictly better candidates, then earlier-index ties."""
    scores = np.asarray(scores, dtype=np.float64)
    if not (0 <= target_index < len(scores)):
        raise ValueError(f"target index {target_index} out of range")
    target = scores[target_index]
    greater = int(np.count_nonzero(scores > target))
    tied_before = int(np.count_nonzero(scores[:target_index] == target))
    return 1 + greater + tied_before


@dataclass(frozen=True)
class MetricReport:
    """NDCG@k / HR@k aggregates for one user population."""

    ndcg: dict[int, float]
    hr: dict[int, float]
    n_users_evaluated: int
    n_skipped: int = 0
    group: str = "overall"
    empty: bool = False


def report_from_ranks(ranks, group: str = "overall", n_skipped: int = 0) -> MetricReport:
    """NDCG@k / HR@k means over an int array of 1-based ranks."""
    ranks = np.asarray(ranks, dtype=np.int64)
    if not len(ranks):
        return MetricReport(
            ndcg={k: 0.0 for k in KS}, hr={k: 0.0 for k in KS},
            n_users_evaluated=0, n_skipped=n_skipped, group=group, empty=True,
        )
    if ranks.min() < 1:
        raise ValueError("ranks must be >= 1")
    gain = 1.0 / np.log2(ranks + 1.0)
    # One 1-D mean per k: a (U, len(KS)) mean over axis 0 sums in another order.
    ndcg = {k: float(np.mean(np.where(ranks <= k, gain, 0.0))) for k in KS}
    hr = {k: float(np.mean(ranks <= k)) for k in KS}
    return MetricReport(ndcg=ndcg, hr=hr, n_users_evaluated=len(ranks),
                        n_skipped=n_skipped, group=group)


def _protocol(entry, which: str):
    """(input sequence, target item) of one split entry under ``which``."""
    if which == "valid":
        return entry.train_prefix, entry.valid_target
    return entry.train_prefix + [entry.valid_target], entry.test_target


def eval_candidates(split: LeaveOneOutSplit, ds: InteractionDataset, which: str,
                    eval_negatives: int, seed: int):
    """Every split user's candidates (U, 1 + eval_negatives) and target positions (U,).

    Each row is the user's target and negatives from one generator seeded
    by (seed, user), shuffled by that generator's permutation.  Rows follow
    ascending user id.  The draw depends only on its arguments, so one
    result serves every ``evaluate`` of the same split.
    """
    candidates = np.empty((len(split.users), 1 + eval_negatives), dtype=np.int64)
    target_pos = np.empty(len(split.users), dtype=np.int64)
    for i, user in enumerate(split.users):
        entry = split.entries[user]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1, user]))
        row = candidates[i]
        row[0] = entry.valid_target if which == "valid" else entry.test_target
        row[1:] = sample_negatives(ds, user, eval_negatives, rng)
        order = rng.permutation(len(row))
        row[:] = row[order]
        target_pos[i] = order.argmin()  # where the target, at 0, went
    return candidates, target_pos


# Most users scored per ``evaluate`` batch.
EVAL_BATCH_ROWS = 256


def evaluate(model, split: LeaveOneOutSplit, ds: InteractionDataset, which: str, *,
             eval_negatives: int, seed: int, max_seq_len: int, candidates=None):
    """Rank each user's held-out target among sampled negatives.

    ``which`` selects the validation protocol (input = train prefix,
    target = validation item) or the test protocol (input = prefix +
    validation item, target = test item).  ``candidates`` is a reused
    ``eval_candidates`` result for the same arguments; it is drawn here
    when omitted.  Users are scored in ``length_buckets`` of at most
    ``EVAL_BATCH_ROWS`` rows; a user's rank does not depend on the bucket.
    Returns the overall ``MetricReport`` and a ``RECORD`` array with one
    row per user, in ascending user id order.
    Non-finite scores raise ``NumericError`` naming the first such user.
    """
    if which not in ("valid", "test"):
        raise ValueError(f"which must be 'valid' or 'test', got {which!r}")
    if len(split) == 0:
        raise DataError("cannot evaluate an empty split")
    if candidates is None:
        candidates = eval_candidates(split, ds, which, eval_negatives, seed)
    cand_rows, target_pos = candidates

    users = np.asarray(split.users, dtype=np.int64)
    seqs = [_protocol(split.entries[u], which)[0] for u in split.users]
    records = np.zeros(len(users), dtype=RECORD)
    records["user"] = users
    records["target_item"] = cand_rows[np.arange(len(users)), target_pos]
    finite = np.ones(len(users), dtype=bool)
    for rows in length_buckets([min(len(s), max_seq_len) for s in seqs], EVAL_BATCH_ROWS):
        o_final = model.final_representations(users[rows], [seqs[i] for i in rows], max_seq_len)
        scores = model.candidate_scores(users[rows], cand_rows[rows], o_final)
        finite[rows] = np.isfinite(scores).all(axis=1)
        for i, row_scores in zip(rows, scores):
            records["rank"][i] = rank_of_target(row_scores, target_pos[i])
    if not finite.all():
        bad = int(users[np.argmin(finite)])
        raise NumericError(f"non-finite {which} scores, first for user {bad}")
    report = report_from_ranks(records["rank"], group="overall", n_skipped=split.n_excluded)
    return report, records


def group_report(records, groups: GroupLabels) -> dict[str, MetricReport]:
    """Reports keyed, in order, head_user, tail_user, head_item, tail_item."""
    user_head = groups.user_is_head[records["user"]]
    item_head = groups.item_is_head[records["target_item"]]
    masks = {"head_user": user_head, "tail_user": ~user_head,
             "head_item": item_head, "tail_item": ~item_head}
    return {name: report_from_ranks(records["rank"][mask], group=name)
            for name, mask in masks.items()}


# ---------------------------------------------------------------------------
# Report files

_HEADER = "group\tk\tndcg\thr"


def emit_report(reports, path) -> None:
    """Write the metrics TSV; floats use repr so parsing round-trips exactly.

    Per-report metadata (user counts, empty flags) rides in ``# meta``
    comment lines so the data schema stays plain group/k/ndcg/hr.
    """
    lines = [_HEADER]
    for rep in reports:
        lines.append(f"# meta\t{rep.group}\t{rep.n_users_evaluated}\t{rep.n_skipped}\t{int(rep.empty)}")
        for k in KS:
            lines.append(f"{rep.group}\t{k}\t{rep.ndcg[k]!r}\t{rep.hr[k]!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def parse_report_tsv(path) -> list[MetricReport]:
    """The reports of an ``emit_report`` file; one not ending in a newline is refused as cut.

    A ``# meta`` line's counts must not be negative, and its empty flag
    must be ``1`` for 0 users and ``0`` otherwise.
    """
    reports: list[MetricReport] = []
    meta: dict[str, tuple[int, int, bool]] = {}
    data: dict[str, dict[int, tuple[float, float]]] = {}
    first, *lines = read_text(path).split("\n")
    if first != _HEADER:
        raise DataError(f"{path}: unexpected header {first!r}")
    if lines[-1:] != [""]:
        raise DataError(f"{path}: truncated: the last line has no newline")
    for lineno, line in enumerate(lines, start=2):
        if not line or (line.startswith("#") and not line.startswith("# meta\t")):
            continue
        try:
            if line.startswith("# meta\t"):
                _, group, n_users, n_skipped, empty = line.split("\t")
                if group in meta:
                    raise DataError(f"{path}:{lineno}: repeated # meta line of group {group}")
                n_users, n_skipped = int(n_users), int(n_skipped)
                if min(n_users, n_skipped) < 0:
                    raise DataError(f"{path}:{lineno}: negative count in # meta line")
                if empty != str(int(n_users == 0)):
                    raise DataError(f"{path}:{lineno}: # meta empty flag {empty!r} "
                                    f"contradicts {n_users} users")
                meta[group] = (n_users, n_skipped, empty == "1")
            else:
                group, k, ndcg, hr = line.split("\t")
                if group not in meta:
                    raise DataError(f"{path}:{lineno}: group {group} row before its # meta line")
                data.setdefault(group, {})[int(k)] = (float(ndcg), float(hr))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row {line!r} ({exc})") from None
    for group, (n_users, n_skipped, empty) in meta.items():
        cells = data.get(group, {})
        if set(cells) != set(KS):
            raise DataError(f"{path}: group {group} missing k values")
        reports.append(MetricReport(
            ndcg={k: cells[k][0] for k in KS},
            hr={k: cells[k][1] for k in KS},
            n_users_evaluated=n_users, n_skipped=n_skipped, group=group, empty=empty,
        ))
    return reports


def format_report_table(reports) -> str:
    """Human-readable metric table, one row per group."""
    header = ["group", "users"] + [f"N@{k}" for k in KS] + [f"H@{k}" for k in KS]
    widths = [max(10, len(h)) for h in header]
    rows = [header]
    for rep in reports:
        if rep.empty:
            row = [rep.group, "0"] + ["-"] * (2 * len(KS))
        else:
            row = [rep.group, str(rep.n_users_evaluated)]
            row += [f"{rep.ndcg[k]:.4f}" for k in KS]
            row += [f"{rep.hr[k]:.4f}" for k in KS]
        rows.append(row)
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(out) + "\n"
