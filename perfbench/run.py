"""grasp-rec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload trend-sasrec --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates the workload's inputs
from ``--seed`` under ``.perfbench/work/``, starts ``worker.py`` in a
fresh interpreter with BLAS threads pinned through ``GRASP_THREADS``,
checks the outputs, and prints one JSON object as its last line of
standard output: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  The full
record (provenance, per-cycle times, counts, check failures and, for
traced runs, calls, inclusive and self seconds per span per traced cycle)
and the raw spans of a traced run are kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
MAX_THREADS = 1
# Never used while a change is written; claims are re-checked on it.
HOLDOUT_SEED = 1001
WORKER_TIMEOUT_S = 170
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.seed == HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "GRASP_THREADS": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "cpu": _cpu_model(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def oracle_checks(data_dir: str, seed: int, checks) -> None:
    """catalog-8k: the saved caches against a brute-force (-sim, index) oracle."""
    from grasp import embedstore
    from workloads import (ITEM_CACHE, ITEM_EMB, K_NEIGHBORS, USER_CACHE, USER_EMB,
                           oracle_neighbors, oracle_rows)

    for emb, cache in ((USER_EMB, USER_CACHE), (ITEM_EMB, ITEM_CACHE)):
        values = embedstore.load_embedding_matrix(os.path.join(data_dir, emb)).values
        ids = embedstore.load_neighbor_cache(os.path.join(data_dir, cache)).neighbor_ids
        rows = oracle_rows(values, seed)
        expected = oracle_neighbors(values, rows, K_NEIGHBORS)
        for row, want in zip(rows, expected):
            checks.expect(bool((ids[row] == want).all()),
                          f"{cache} row {row}: neighbours {ids[row].tolist()} != oracle {want.tolist()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="grasp-rec benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "grasp", "__init__.py")):
        print(f"perfbench: no grasp sources under {ROOT}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, GRASP_THREADS=str(threads), **{v: str(threads) for v in _THREAD_VARS})
    os.environ.update(env)  # before numpy loads, so input generation is pinned too
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Checks, make_inputs

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = os.path.join(STATE, "work", tag)
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    data_dir = os.path.join(work, "data")
    result_path = os.path.join(work, "result.json")
    spans_path = os.path.join(results, f"{tag}-spans.json")
    proc = None
    try:
        make_inputs(workload, args.seed, data_dir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", data_dir, "--work", work, "--result", result_path,
               "--spans", spans_path]
        proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
            return 3
        if code != 0:
            print(f"perfbench: worker exited with code {code}", file=sys.stderr)
            return 3
        # The worker is the only child, so this is its peak resident set (KiB on Linux).
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        with open(result_path, encoding="utf-8") as fh:
            raw = json.load(fh)

        checks = Checks()
        checks.attempted = raw["checks"]["attempted"]
        checks.failures = list(raw["checks"]["failures"])
        if workload.kind == "catalog":
            oracle_checks(data_dir, args.seed, checks)

        if args.trace:
            values, declared = raw["layers"], spec["per_layer"]
        else:
            values, declared = dict(raw["e2e"], peak_rss_mb=peak_rss_mb), spec["end_to_end"]
        if set(values) != {m["name"] for m in declared}:
            print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json",
                  file=sys.stderr)
            return 3
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

        record = {
            "provenance": provenance(args, threads),
            "metrics": metrics,
            "peak_rss_mb": peak_rss_mb,
            "medians": raw["medians"],
            "exact_repeat": raw["exact_repeat"],
            "cycles": raw["cycles"],
            "span_table": raw["span_table"],
            "checks": {"attempted": checks.attempted, "failures": checks.failures},
            "spans_file": os.path.relpath(spans_path, ROOT) if args.trace else None,
        }
        record_path = os.path.join(results, f"{tag}.json")
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        for failure in checks.failures[:20]:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        failed = len(checks.failures)
        print(f"record: {os.path.relpath(record_path, ROOT)}")
        print(_summary(workload, args, raw, peak_rss_mb, failed, checks.attempted))
        print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def _summary(workload, args, raw, peak_rss_mb, failed, attempted) -> str:
    """The per-workload metric names, for the workloads they apply to."""
    medians, quality = raw["medians"], raw["exact_repeat"]
    parts = [f"setup_s={medians['setup_s']:.4f} s"]
    if workload.kind == "train":
        parts += [f"fit_pos_per_s={medians['fit_pos_per_s']:.1f} 1/s",
                  f"eval_users_per_s={medians['eval_users_per_s']:.1f} 1/s",
                  f"test_ndcg10={quality['test_ndcg10']!r}"]
        if workload.config["encoder"] == "semantic":
            parts.append(f"tail_item_ndcg10={quality['tail_item_ndcg10']!r}")
    else:
        parts += [f"cache_load_s={medians['read_s']:.4f} s"]
    parts += [f"peak_rss_mb={peak_rss_mb:.1f} MB",
              f"failed_frac={failed / attempted!r} ({failed}/{attempted})"]
    return f"perfbench {args.workload} seed={args.seed} trace={args.trace}: " + " ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
