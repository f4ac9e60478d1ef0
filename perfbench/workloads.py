"""The three benchmark workloads: seeded input generators and timed cycles.

A workload's inputs are written to a data directory before any timing
starts; the program then sees only those files.  A *cycle* is one pass
through the workload's stages, each a sequence of public calls the CLI
makes.  ``TrainCycle`` drives ``trend-sasrec`` and ``long-gru4rec``
(build-db, load, fit, eval); ``CatalogCycle`` drives ``catalog-8k``
(GEMB load, cache build, GNBC save; repeated GNBC saves; repeated loads).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

K_NEIGHBORS = 10
# Fixed-length fits: patience equals the epoch count, so early stopping can
# never shorten a run and every fit of one seed does the same work.
EPOCHS = 2
# GNBC saves per write stage and loads per read stage in catalog-8k.  One
# save or load of both caches takes only 0.03-0.1 s, and the host's speed
# flips between two levels on that time scale, so write_s and read_s are
# the mean over a whole stage: a median of such short readings jumps
# between the two levels.
CATALOG_REPEATS = 25

USER_EMB, ITEM_EMB = "user_emb.gemb", "item_emb.gemb"
USER_CACHE, ITEM_CACHE = "users.gnbc", "items.gnbc"


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "train" or "catalog"
    config: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "trend-sasrec",
            "train",
            dict(backbone="sasrec", encoder="semantic", h=64, max_seq_len=50,
                 k_neighbors=K_NEIGHBORS, max_epochs=EPOCHS, patience=EPOCHS),
        ),
        Workload(
            "long-gru4rec",
            "train",
            dict(backbone="gru4rec", encoder="id", h=64, max_seq_len=50,
                 k_neighbors=K_NEIGHBORS, max_epochs=EPOCHS, patience=EPOCHS),
        ),
        Workload("catalog-8k", "catalog"),
    )
}


# ---------------------------------------------------------------------------
# Input generators (run before timing; deterministic in the seed)


def make_inputs(workload: Workload, seed: int, data_dir: str) -> None:
    os.makedirs(data_dir, exist_ok=True)
    {"trend-sasrec": _trend_inputs, "long-gru4rec": _long_inputs,
     "catalog-8k": _catalog_inputs}[workload.name](seed, data_dir)


def _trend_inputs(seed, data_dir):
    from grasp import embedstore as es
    from grasp.pipeline import LOG_NAME

    ds, users, items = es.synth_corpus(
        n_users=500, m_items=200, n_clusters=8, dim=32, noise=0.1, seed=seed
    )
    es.write_interaction_log(ds, os.path.join(data_dir, LOG_NAME))
    es.save_embedding_matrix(users, os.path.join(data_dir, USER_EMB))
    es.save_embedding_matrix(items, os.path.join(data_dir, ITEM_EMB))


def _long_inputs(seed, data_dir, n_users=1000, n_items=2000, n_clusters=20):
    """Cluster-structured log: 40-50 events per user, 80% from a home cluster
    with harmonic in-cluster popularity, the rest uniform over the catalog."""
    from grasp.pipeline import LOG_NAME

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10C]))
    clusters = np.arange(n_items) % n_clusters
    members = [np.flatnonzero(clusters == c) for c in range(n_clusters)]
    lines = []
    for user in range(n_users):
        home = members[int(rng.integers(n_clusters))]
        weights = 1.0 / (1.0 + np.arange(len(home)))
        length = int(rng.integers(40, 51))
        in_cluster = rng.random(length) < 0.8
        items = np.where(
            in_cluster,
            rng.choice(home, size=length, p=weights / weights.sum()),
            rng.integers(n_items, size=length),
        )
        lines.extend(f"{user}\t{item}\t{t}\n" for t, item in enumerate(items))
    with open(os.path.join(data_dir, LOG_NAME), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _catalog_matrix(rng, rows, dim, n_clusters, noise=0.35, dup_frac=0.1, zero_rows=4):
    centroids = rng.standard_normal((n_clusters, dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    values = centroids[rng.integers(n_clusters, size=rows)] + noise * rng.standard_normal((rows, dim))
    order = rng.permutation(rows)
    n_dup = int(dup_frac * rows)
    copies, zeros, sources = order[:n_dup], order[n_dup : n_dup + zero_rows], order[n_dup + zero_rows :]
    values[copies] = values[rng.choice(sources, size=n_dup)]
    values[zeros] = 0.0
    return values


def _catalog_inputs(seed, data_dir):
    from grasp import embedstore as es

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA7]))
    for name, rows, n_clusters in ((USER_EMB, 8192, 64), (ITEM_EMB, 2048, 32)):
        values = _catalog_matrix(rng, rows, 64, n_clusters)
        es.save_embedding_matrix(es.matrix_from_array(values), os.path.join(data_dir, name))


# ---------------------------------------------------------------------------
# Cycles


class Checks:
    """Output checks: counts attempts and keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def random_ndcg10(n_candidates: int) -> float:
    """Expected NDCG@10 when the target's rank is uniform over the candidates."""
    return sum(1.0 / np.log2(r + 1.0) for r in range(1, min(10, n_candidates) + 1)) / n_candidates


def _same_reports(a, b) -> bool:
    def key(reports):
        return [(r.group, r.ndcg, r.hr, r.n_users_evaluated, r.n_skipped, r.empty) for r in reports]
    return key(a) == key(b)


class TrainCycle:
    """build-db (semantic only) -> load_data_dir -> build_model | fit | eval."""

    def __init__(self, workload: Workload, seed: int, data_dir: str, work_dir: str):
        from grasp.config import RunConfig

        self.cfg = RunConfig(**workload.config)
        self.semantic = self.cfg.encoder == "semantic"
        self.seed = seed
        self.data_dir = data_dir
        self.ckpt_dir = os.path.join(work_dir, "ckpt")
        self.metrics_path = os.path.join(work_dir, "metrics.tsv")
        self.first = None  # outcome of the first cycle; later cycles must repeat it

    def stages(self):
        return (("setup", self.setup), ("fit", self.fit), ("eval", self.eval))

    def setup(self):
        from grasp import embedstore, pipeline

        if self.semantic:
            for emb, cache in ((USER_EMB, USER_CACHE), (ITEM_EMB, ITEM_CACHE)):
                m = embedstore.load_embedding_matrix(os.path.join(self.data_dir, emb))
                embedstore.save_neighbor_cache(
                    embedstore.build_neighbor_cache(m, self.cfg.k_neighbors),
                    os.path.join(self.data_dir, cache),
                )
        self.data = pipeline.load_data_dir(self.data_dir, self.cfg, need_stores=self.semantic)
        self.model = pipeline.build_model(self.data, self.cfg, self.seed)

    def fit(self):
        from grasp import pipeline

        self.summary = pipeline.train_one_seed(self.data, self.cfg, self.seed, self.ckpt_dir)

    def eval(self):
        from grasp import evaluation, pipeline

        model, _ = pipeline.load_model_dir(self.ckpt_dir, self.data)
        self.reports, _ = pipeline.eval_model(self.data, model, self.cfg, self.seed)
        evaluation.emit_report(self.reports, self.metrics_path)

    def between(self, stage: str, checks: Checks) -> None:
        """Untimed bookkeeping after a stage."""
        from grasp.model import semantic_checksum

        if stage == "setup":
            self.checksum = semantic_checksum(self.model)
        elif stage == "fit" and self.semantic:
            checks.expect(semantic_checksum(self.model) == self.checksum,
                          "semantic_checksum changed across fit")

    def real_positions(self) -> int:
        """Unpadded training positions per epoch (what make_training_batch keeps)."""
        L = self.cfg.max_seq_len
        return sum(
            min(len(e.train_prefix) - 1, L)
            for e in self.data.split.entries.values() if len(e.train_prefix) >= 2
        )

    def measures(self, times: dict) -> dict:
        """The bounded write/read times plus the per-workload rates, for one cycle."""
        return {
            "write_s": times["fit"],
            "read_s": times["eval"],
            "fit_pos_per_s": self.real_positions() * EPOCHS / times["fit"],
            "eval_users_per_s": self.reports[0].n_users_evaluated / times["eval"],
        }

    def after_cycle(self, checks: Checks) -> dict:
        from grasp import evaluation

        s = self.summary
        checks.expect(s["epochs_run"] == EPOCHS and not s["stopped_early"],
                      f"fit ran {s['epochs_run']} epochs (stopped_early={s['stopped_early']}), "
                      f"expected {EPOCHS}")
        test = self.reports[0].ndcg[10]
        baseline = random_ndcg10(self.cfg.eval_negatives + 1)
        checks.expect(test > baseline, f"test NDCG@10 {test!r} <= random baseline {baseline!r}")
        checks.expect(_same_reports(evaluation.parse_report_tsv(self.metrics_path), self.reports),
                      "metrics.tsv does not round-trip through parse_report_tsv")
        with open(os.path.join(self.ckpt_dir, "train_log.tsv"), encoding="utf-8") as fh:
            train_log = fh.read()
        outcome = {
            "best_val_ndcg10": s["best_val_ndcg10"],
            "train_log": train_log,
            "reports": [(r.group, r.ndcg, r.hr) for r in self.reports],
        }
        if self.first is None:
            self.first = outcome
        checks.expect(outcome == self.first, "a repeated fit/eval of the same seed differed")
        tail = next(r for r in self.reports if r.group == "tail_item")
        return {
            "test_ndcg10": test,
            "tail_item_ndcg10": tail.ndcg[10],
            "real_positions_per_epoch": self.real_positions(),
        }

    def final_checks(self, checks: Checks) -> None:
        """The saved checkpoint, re-validated, reproduces the logged best value bit for bit."""
        from grasp import pipeline
        from grasp.evaluation import evaluate

        model, _ = pipeline.load_model_dir(self.ckpt_dir, self.data)
        report, _ = evaluate(
            model, self.data.split, self.data.ds, which="valid",
            eval_negatives=self.cfg.eval_negatives, seed=self.seed,
            max_seq_len=self.cfg.max_seq_len,
        )
        best = self.summary["best_val_ndcg10"]
        checks.expect(report.ndcg[10] == best,
                      f"checkpoint re-validation gave {report.ndcg[10]!r}, log says {best!r}")


class CatalogCycle:
    """GEMB load -> build_neighbor_cache -> save_neighbor_cache | re-saves | loads."""

    def __init__(self, workload: Workload, seed: int, data_dir: str, work_dir: str):
        self.data_dir = data_dir
        self.first_ids = None

    def stages(self):
        return (("setup", self.setup), ("write", self.write), ("read", self.read))

    def _paths(self):
        return {cache: os.path.join(self.data_dir, cache) for cache in (USER_CACHE, ITEM_CACHE)}

    def setup(self):
        from grasp import embedstore

        matrices = {
            cache: embedstore.load_embedding_matrix(os.path.join(self.data_dir, emb))
            for emb, cache in ((USER_EMB, USER_CACHE), (ITEM_EMB, ITEM_CACHE))
        }
        self.built = {cache: embedstore.build_neighbor_cache(m, K_NEIGHBORS)
                      for cache, m in matrices.items()}
        self._save()
        self.rows = sum(m.rows for m in matrices.values())

    def _save(self):
        from grasp import embedstore

        for cache, path in self._paths().items():
            embedstore.save_neighbor_cache(self.built[cache], path)

    def write(self):
        for _ in range(CATALOG_REPEATS):
            self._save()

    def read(self):
        from grasp import embedstore

        for _ in range(CATALOG_REPEATS):
            self.loaded = {cache: embedstore.load_neighbor_cache(path)
                           for cache, path in self._paths().items()}

    def between(self, stage: str, checks: Checks) -> None:
        pass

    def measures(self, times: dict) -> dict:
        return {
            "write_s": times["write"] / CATALOG_REPEATS,
            "read_s": times["read"] / CATALOG_REPEATS,
        }

    def after_cycle(self, checks: Checks) -> dict:
        for cache, built in self.built.items():
            loaded = self.loaded[cache]
            same = (
                loaded.k == built.k
                and np.array_equal(loaded.neighbor_ids, built.neighbor_ids)
                and np.array_equal(
                    loaded.pooled_means, built.pooled_means.astype(np.float32).astype(np.float64)
                )
            )
            checks.expect(same, f"{cache}: loaded GNBC differs from the built cache")
        ids = {c: b.neighbor_ids for c, b in self.built.items()}
        if self.first_ids is None:
            self.first_ids = ids
        checks.expect(all(np.array_equal(ids[c], self.first_ids[c]) for c in ids),
                      "a repeated cache build of the same matrix differed")
        return {"rows": self.rows}

    def final_checks(self, checks: Checks) -> None:
        pass


def make_cycle(workload: Workload, seed: int, data_dir: str, work_dir: str):
    cls = TrainCycle if workload.kind == "train" else CatalogCycle
    return cls(workload, seed, data_dir, work_dir)


# ---------------------------------------------------------------------------
# Brute-force neighbour oracle (catalog-8k), run after the timed worker exits


def oracle_rows(values: np.ndarray, seed: int, n_random: int = 256) -> np.ndarray:
    """Every duplicated row, every zero row and a seeded random sample."""
    _, inverse, counts = np.unique(values, axis=0, return_inverse=True, return_counts=True)
    duplicated = np.flatnonzero(counts[inverse.reshape(-1)] > 1)
    zero = np.flatnonzero(~values.any(axis=1))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0AC]))
    sample = rng.choice(len(values), size=min(n_random, len(values)), replace=False)
    return np.unique(np.concatenate([duplicated, zero, sample]))


def oracle_neighbors(values: np.ndarray, rows: np.ndarray, k: int, block: int = 256) -> np.ndarray:
    """Top-k by (-cosine, index), self excluded; identical rows tie exactly.

    Cosines come from one matrix product, then every row is given the
    similarity of the first row identical to it, so exact duplicates tie
    by construction rather than by floating-point luck.
    """
    _, first, inverse = np.unique(values, axis=0, return_index=True, return_inverse=True)
    representative = first[inverse.reshape(-1)]
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    unit = values / np.where(norms == 0.0, 1.0, norms)
    index = np.arange(len(values))
    out = np.empty((len(rows), k), dtype=np.int64)
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        sims = (unit[chunk] @ unit.T)[:, representative]
        for i, row in enumerate(chunk):
            s = sims[i].copy()
            s[row] = -np.inf
            out[start + i] = np.lexsort((index, -s))[:k]
    return out
