"""Steadiness and determinism check over many seeds and repeated sets.

    python3 perfbench/steady.py --seeds 1-10 --sets 2
    python3 perfbench/steady.py --workloads trend-sasrec --seeds 1-5 --sets 1

Runs ``run.py`` once per (set, workload, seed), one run at a time, each in
a fresh interpreter.  For every end-to-end metric it reports the median and
the quartile spread ``(q3 - q1) / median`` of each set and flags a spread
over the metric's bound or, as a warning, over a third of it.  With two or
more sets it flags a later set whose median is worse than the first set's
by more than the bound.  The exact-repeat values (work counts and the NDCG
values) of one seed must be identical in every set: any drift is reported
as a determinism failure, never as noise.  Exit code 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(raw: str) -> list[int]:
    out = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    with open(os.path.join(ROOT, record_path), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record, wall


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    seeds = _seeds(args.seeds)
    runs = []  # one dict per run
    for set_no in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in seeds:
                out, record, wall = _run(workload, seed, args.seconds)
                runs.append({"set": set_no, "workload": workload, "seed": seed, "wall_s": wall,
                             "correct": out["correct"], "failed": out["failed"],
                             "attempted": out["attempted"],
                             "metrics": {k: v["value"] for k, v in out["metrics"].items()},
                             "exact_repeat": record["exact_repeat"]})
                print(f"set {set_no} {workload} seed {seed}: {wall:.1f}s "
                      f"correct={out['correct']} ({out['failed']}/{out['attempted']} failed)",
                      file=sys.stderr, flush=True)

    problems, rows = [], []
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload]
        problems += [f"{workload} seed {r['seed']} set {r['set']}: {r['failed']} checks failed"
                     for r in mine if not r["correct"]]
        for seed in seeds:
            repeats = [r["exact_repeat"] for r in mine if r["seed"] == seed]
            if any(rep != repeats[0] for rep in repeats):
                problems.append(f"DETERMINISM FAILURE {workload} seed {seed}: {repeats}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for set_no in range(args.sets):
                values = [r["metrics"][name] for r in mine if r["set"] == set_no]
                median, q1, q3, spread = _spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
                medians.append(median)
                flag = ""
                if spread > bound:
                    flag = "FAIL spread > bound"
                    problems.append(f"{workload} {name} set {set_no}: spread {spread:.4f} > {bound}")
                elif spread > bound / 3:
                    flag = "warn spread > bound/3"
                rows.append((workload, name, set_no, median, q1, q3, spread, bound, flag))
            for set_no, median in enumerate(medians[1:], start=1):
                worse = (median - medians[0]) / medians[0]
                worse = worse if m["better"] == "lower" else -worse
                if worse > bound:
                    problems.append(f"{workload} {name}: set {set_no} median worse than set 0 "
                                    f"by {worse:.4f} > {bound}")

    print(f"{'workload':14s} {'metric':34s} set {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, name, set_no, median, q1, q3, spread, bound, flag in rows:
        print(f"{workload:14s} {name:34s} {set_no:3d} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound:>6} {flag}")
    for problem in problems:
        print(problem)
    summary = {"args": vars(args), "runs": runs, "problems": problems}
    path = os.path.join(ROOT, ".perfbench", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary: {os.path.relpath(path, ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
