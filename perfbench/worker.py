"""Run one workload in a fresh interpreter and write its raw results as JSON.

Started by ``run.py`` with BLAS threads already pinned in the environment
and the inputs already generated.  The worker runs one traced warm-up
cycle (it records the exact-repeat counts and is never timed), then timed
cycles until ``--seconds`` have passed and at least a minimum number are
done.  With ``--trace 1`` the timed cycles alternate untraced and traced,
so the tracing overhead is measured against untraced cycles of the same
run.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MIN_CYCLES = 3  # untraced run: timed cycles behind each median
MIN_PAIRS = 2  # traced run: untraced/traced pairs behind the overhead ratio
STAGE_SPANS = ("setup", "fit", "eval", "write", "read")
COUNTS = (
    "backbone.cells", "backbone.real_positions", "hae.rows", "trainer.batches",
    "dataset.sample_negatives_calls", "evaluation.users", "embedstore.build_rows",
)


def run_cycle(cycle, tracer, run_id, checks):
    tracer.run_id = run_id
    tracer.counts = defaultdict(int)
    times = {}
    for name, stage in cycle.stages():
        with tracer.span(name):
            start = time.perf_counter()
            stage()
            times[name] = time.perf_counter() - start
        cycle.between(name, checks)
    outcome = cycle.after_cycle(checks)
    return times, outcome, {name: tracer.counts[name] for name in COUNTS}


def layer_metrics(tracer, cycles, counts, quality, layer_names):
    """Per-layer metrics and the per-cycle span table of the traced cycles."""
    from tracer import span_table

    traced = [c for c in cycles if c["traced"]]
    n = len(traced)
    table = {
        name: {key: value / n for key, value in row.items()}
        for name, row in span_table(tracer.spans, {c["run_id"] for c in traced}).items()
    }
    out = {f"{name}_s": table[name]["self_s"] if name in table else 0.0 for name in layer_names}
    out.update(counts)
    cells = counts["backbone.cells"]
    out["backbone.real_frac"] = counts["backbone.real_positions"] / cells if cells else 0.0
    build_s = out["embedstore.build_cache_s"]
    out["embedstore.build_rows_per_s"] = counts["embedstore.build_rows"] / build_s if build_s else 0.0
    out["quality.test_ndcg10"] = quality.get("test_ndcg10", 0.0)
    out["quality.tail_item_ndcg10"] = quality.get("tail_item_ndcg10", 0.0)
    traced_s = statistics.median(sum(c["times"].values()) for c in traced)
    plain_s = statistics.median(sum(c["times"].values()) for c in cycles if not c["traced"])
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    # Stage spans are the roots; their self time is benchmark code between library calls.
    stages = [table[name] for name in STAGE_SPANS if name in table]
    out["trace.unexplained_frac"] = sum(r["self_s"] for r in stages) / sum(r["incl_s"] for r in stages)
    return out, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--data", required=True, help="generated input directory")
    ap.add_argument("--work", required=True, help="working directory for checkpoints")
    ap.add_argument("--result", required=True, help="JSON file for the results")
    ap.add_argument("--spans", required=True, help="JSON file for the spans of a traced run")
    args = ap.parse_args(argv)

    from tracer import Tracer, targets
    from workloads import WORKLOADS, Checks, make_cycle

    workload = WORKLOADS[args.workload]
    target_list = targets()
    tracer = Tracer(target_list)
    layer_names = sorted({name for _, _, name, _ in target_list})
    cycle = make_cycle(workload, args.seed, args.data, args.work)
    checks = Checks()

    tracer.install()
    try:
        _, outcome, counts = run_cycle(cycle, tracer, "warmup", checks)
    finally:
        tracer.uninstall()

    cycles = []
    needed = 2 * MIN_PAIRS if args.trace else MIN_CYCLES
    deadline = time.perf_counter() + args.seconds
    while len(cycles) < needed or time.perf_counter() < deadline:
        run_id = f"c{len(cycles)}"
        traced = bool(args.trace) and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        try:
            times, _, cycle_counts = run_cycle(cycle, tracer, run_id, checks)
        finally:
            tracer.uninstall()
        if traced:
            checks.expect(cycle_counts == counts,
                          f"exact-repeat counts of {run_id} differ from the warm-up cycle")
        cycles.append({"run_id": run_id, "traced": traced, "times": times,
                       "measures": cycle.measures(times)})
    cycle.final_checks(checks)

    plain = [c for c in cycles if not c["traced"]]
    medians = {name: statistics.median(c["measures"][name] for c in plain)
               for name in plain[0]["measures"]}
    medians["setup_s"] = statistics.median(c["times"]["setup"] for c in plain)
    layers, table = (layer_metrics(tracer, cycles, counts, outcome, layer_names)
                     if args.trace else (None, None))
    result = {
        "e2e": {name: medians[name] for name in ("setup_s", "write_s", "read_s")},
        "medians": medians,
        "layers": layers,
        "span_table": table,
        "exact_repeat": dict(counts, **outcome),
        "cycles": cycles,
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
    }
    if args.trace:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
