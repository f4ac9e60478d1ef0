"""Operator command line: synth, build-db, train, eval, sweep, report.

Exit codes: 0 success, 2 usage error, 3 data/format or I/O error, 4
numeric failure.  ``GRASP_THREADS`` caps BLAS worker threads (applied
when the ``grasp`` package is imported).  Each output directory is guarded by a kernel file
lock (``flock``) on ``.grasp.lock``, so a second run into a busy
directory exits 3, and a run refuses to overwrite previous results
without ``--force``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import json
import os
import sys

from .config import (
    CHOICES, FIELD_TYPES, RunConfig, parse_config_file, write_json, write_key_values,
    write_text_atomic,
)
from .errors import DataError, NumericError

@contextlib.contextmanager
def _output_lock(out_dir, outputs, force: bool):
    """Hold an flock on ``out_dir/.grasp.lock``, then refuse existing ``outputs`` unless ``force``.

    The kernel drops the lock when its process ends, so a killed run's
    leftover file blocks nobody.  A failed run removes the empty
    directories it created.
    """
    created = []  # deepest first
    path = os.path.abspath(out_dir)
    while not os.path.isdir(path):
        created.append(path)
        path = os.path.dirname(path)
    os.makedirs(out_dir, exist_ok=True)
    lock = os.path.join(out_dir, ".grasp.lock")
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # A holder that just finished may have unlinked the file we opened.
            held = os.path.samestat(os.fstat(fd), os.stat(lock))
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise DataError(f"output directory {out_dir} is locked by another run ({lock})")
        try:
            for output in outputs:
                if os.path.exists(output) and not force:
                    raise DataError(f"{output} already exists; pass --force to overwrite")
            yield
        finally:
            os.unlink(lock)
    except BaseException:
        for path in created:
            if os.listdir(path):
                break
            os.rmdir(path)
        raise
    finally:
        os.close(fd)


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(v) for v in raw.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {raw!r}") from None
    if not values:
        raise ValueError(f"empty list: {raw!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated value in list: {raw!r}")
    return values


# ---------------------------------------------------------------------------
# Config plumbing

# Settings ``grasp eval`` may change; every other field comes from the checkpoint.
EVAL_OVERRIDES = ("eval_negatives", "head_ratio")


def _add_run_config_flags(sp) -> None:
    sp.add_argument("--config", default=None, help="flat key=value config file")
    for f in dataclasses.fields(RunConfig):
        flag = f"--{f.name.replace('_', '-')}"
        if f.type == "bool":
            sp.add_argument(flag, dest=f.name, action="store_const", const=True, default=None)
        else:
            sp.add_argument(flag, type=FIELD_TYPES[f.name], choices=CHOICES.get(f.name), default=None)


def _given_settings(args) -> dict:
    """Settings named by ``--config`` and explicit flags (flags win); defaults excluded."""
    given = parse_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(RunConfig):
        if getattr(args, f.name) is not None:
            given[f.name] = getattr(args, f.name)
    return given


def _checkpoint_run_config(args):
    """The checkpoint's config with only ``EVAL_OVERRIDES`` open to change."""
    from .pipeline import read_model_config

    cfg = read_model_config(args.checkpoint)
    given = _given_settings(args)
    for name, value in given.items():
        if name not in EVAL_OVERRIDES and value != getattr(cfg, name):
            raise ValueError(
                f"{name}={value!r} disagrees with the checkpoint's {name}={getattr(cfg, name)!r}; "
                f"eval may change only {', '.join(EVAL_OVERRIDES)}"
            )
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if k in EVAL_OVERRIDES})


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    from .embedstore import save_embedding_matrix, synth_corpus, write_interaction_log
    from .pipeline import ITEM_EMB_NAME, LOG_NAME, USER_EMB_NAME

    with _output_lock(args.out, [os.path.join(args.out, "manifest.txt")], args.force):
        ds, users, items = synth_corpus(
            n_users=args.n_users, m_items=args.n_items, n_clusters=args.clusters,
            dim=args.d_sem, noise=args.noise, seed=args.seed,
        )
        write_interaction_log(ds, os.path.join(args.out, LOG_NAME))
        save_embedding_matrix(users, os.path.join(args.out, USER_EMB_NAME))
        save_embedding_matrix(items, os.path.join(args.out, ITEM_EMB_NAME))
        manifest = {
            "n_users": args.n_users,
            "n_items": args.n_items,
            "n_clusters": args.clusters,
            "d_sem": args.d_sem,
            "noise": args.noise,
            "seed": args.seed,
            "exact_cluster_mode": args.noise == 0.0,
        }
        write_key_values(os.path.join(args.out, "manifest.txt"), manifest)
    print(f"synth: wrote {ds.user_count} users / {ds.item_count} items to {args.out}")
    return 0


def _neighbor_report(m, cache, build_s: float) -> dict:
    """Zero rows and mean neighbor cosines of one built cache, as its build ranked them."""
    import numpy as np

    from .embedstore import normalize_rows, pair_cosines

    cos = pair_cosines(normalize_rows(m), np.repeat(np.arange(m.rows), cache.k),
                       cache.neighbor_ids.ravel()).reshape(m.rows, cache.k)
    return {
        "rows": m.rows,
        "zero_rows": int((~m.values.any(axis=1)).sum()),
        "mean_top1_cosine": float(cos[:, 0].mean()),
        "mean_topk_cosine": float(cos.mean()),
        "build_s": build_s,
    }


def cmd_build_db(args) -> int:
    import time

    from .embedstore import build_neighbor_cache, load_embedding_matrix, save_neighbor_cache
    from .pipeline import ITEM_CACHE_NAME, USER_CACHE_NAME

    outputs = {"users": (args.users, os.path.join(args.out_dir, USER_CACHE_NAME)),
               "items": (args.items, os.path.join(args.out_dir, ITEM_CACHE_NAME))}
    report_out = os.path.join(args.out_dir, "build_report.json")
    report = {"k": args.k}
    with _output_lock(args.out_dir, [out for _, out in outputs.values()] + [report_out],
                      args.force):
        matrices = {name: load_embedding_matrix(src) for name, (src, _) in outputs.items()}
        caches = {}
        for name, m in matrices.items():  # both builds succeed before anything is written
            start = time.perf_counter()
            caches[name] = build_neighbor_cache(m, args.k)
            report[name] = _neighbor_report(m, caches[name], time.perf_counter() - start)
        for name, cache in caches.items():
            save_neighbor_cache(cache, outputs[name][1])
        write_json(report_out, report)
    for name, (_, out) in outputs.items():
        r = report[name]
        print(f"build-db: {name}: {r['rows']} rows ({r['zero_rows']} zero), k={args.k}, "
              f"mean cosine top-1 {r['mean_top1_cosine']:.4f} top-k {r['mean_topk_cosine']:.4f}, "
              f"built in {r['build_s']:.2f} s -> {out}")
    return 0


def cmd_train(args) -> int:
    from .dataset import write_id_map
    from .pipeline import fit_points, load_data_dir

    cfg = RunConfig(**_given_settings(args))
    seeds = _parse_int_list(args.seeds)
    if min(seeds) < 0:
        raise ValueError(f"--seeds takes only non-negative seeds, got {args.seeds!r}")
    seed_dirs = [os.path.join(args.out, f"seed{seed}") for seed in seeds]
    # Every output is checked before the first fit.
    with _output_lock(args.out, [os.path.join(d, "summary.json") for d in [args.out, *seed_dirs]],
                      args.force):
        data = load_data_dir(args.data, cfg, need_stores=cfg.encoder == "semantic")
        summaries = []
        for summary, _ in fit_points([(data, cfg, seed, d) for seed, d in zip(seeds, seed_dirs)],
                                     test=False):
            summaries.append(summary)
            print(
                f"train: seed {summary['seed']} best val NDCG@10 {summary['best_val_ndcg10']:.4f} "
                f"(epoch {summary['best_epoch']}/{summary['epochs_run']})"
            )
        combined = {
            "config": cfg.echo(),
            "seeds": seeds,
            "mean_best_val_ndcg10": sum(s["best_val_ndcg10"] for s in summaries) / len(summaries),
            "per_seed": summaries,
        }
        # Written last, so a run that fails (at model build, say) leaves no id maps behind.
        write_id_map(os.path.join(args.out, "user_ids.tsv"), data.ds.user_raw_ids)
        write_id_map(os.path.join(args.out, "item_ids.tsv"), data.ds.item_raw_ids)
        write_json(os.path.join(args.out, "summary.json"), combined)
    print(f"train: mean best val NDCG@10 {combined['mean_best_val_ndcg10']:.4f}")
    return 0


def cmd_eval(args) -> int:
    import hashlib

    from .evaluation import emit_report, format_report_table
    from .pipeline import eval_model, load_data_dir, load_model_dir

    cfg = _checkpoint_run_config(args)
    metrics_path = os.path.join(args.out, "metrics.tsv")
    with _output_lock(args.out, [metrics_path], args.force):
        data = load_data_dir(args.data, cfg, need_stores=cfg.encoder == "semantic")
        model, _ = load_model_dir(args.checkpoint, data)
        reports, _ = eval_model(
            data, model, cfg, seed=args.seed, which=args.split,
            with_groups=args.groups == "on",
        )
        emit_report(reports, metrics_path)
        table = format_report_table(reports)
        write_text_atomic(os.path.join(args.out, "report.txt"), table)
        echo = cfg.echo()
        summary = {
            "config": echo,
            "config_hash": hashlib.sha256(
                json.dumps(echo, sort_keys=True).encode()
            ).hexdigest(),
            "split": args.split,
            "seed": args.seed,
            "dataset": {
                "users": data.ds.user_count,
                "items": data.ds.item_count,
                "interactions": data.ds.interaction_count,
                "split_users": len(data.split),
                "excluded_users": data.split.n_excluded,
            },
            "groups": {r.group: {"ndcg": r.ndcg, "hr": r.hr, "n_users": r.n_users_evaluated}
                       for r in reports},
        }
        write_json(os.path.join(args.out, "eval_summary.json"), summary)
    print(table, end="")
    return 0


def cmd_sweep(args) -> int:
    """Fit and test one seed per point; a k point trains as ``build-db --k`` + ``train`` would."""
    from .pipeline import fit_points, load_data_dir, with_stores

    cfg = RunConfig(**_given_settings(args))
    grid = []
    for param, values in (("k_neighbors", args.sweep_k), ("h", args.sweep_h)):
        if values:
            grid += [(param, v) for v in sorted(_parse_int_list(values))]
    if not grid:
        raise ValueError("empty sweep grid: pass --sweep-k and/or --sweep-h")
    if args.sweep_k and cfg.encoder == "id":
        raise ValueError("--sweep-k needs --encoder semantic: the id encoder reads no neighbors")
    # Every point's config and output are checked before the first one trains.
    points = [(param, value, dataclasses.replace(cfg, **{param: value}),
               os.path.join(args.out, "runs", f"{param}_{value}")) for param, value in grid]
    sweep_tsv = os.path.join(args.out, "sweep.tsv")
    with _output_lock(args.out, [sweep_tsv] + [os.path.join(run_dir, "summary.json")
                                               for *_, run_dir in points], args.force):
        # Only an h point reads the directory's caches; every point's stores exist before a fit.
        base = load_data_dir(args.data, cfg,
                             need_stores=cfg.encoder == "semantic" and bool(args.sweep_h))
        fits = [(with_stores(args.data, base, value) if param == "k_neighbors" else base,
                 point_cfg, args.seed, run_dir) for param, value, point_cfg, run_dir in points]
        lines = ["param\tvalue\tndcg10\thr10\n"]
        for (param, value, *_), (_, reports) in zip(points, fit_points(fits, test=True)):
            ndcg, hr = reports[0].ndcg[10], reports[0].hr[10]
            print(f"sweep: {param}={value} NDCG@10 {ndcg:.4f} HR@10 {hr:.4f}")
            lines.append(f"{param}\t{value}\t{ndcg!r}\t{hr!r}\n")
        write_text_atomic(sweep_tsv, "".join(lines))
    return 0


def cmd_report(args) -> int:
    from .evaluation import format_report_table, parse_report_tsv

    table = format_report_table(parse_report_tsv(args.metrics))
    if args.out:
        write_text_atomic(args.out, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="grasp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic corpus + embeddings")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-users", type=int, default=500)
    sp.add_argument("--n-items", type=int, default=200)
    sp.add_argument("--clusters", type=int, default=8)
    sp.add_argument("--d-sem", type=int, default=32)
    sp.add_argument("--noise", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("build-db", help="build neighbor caches from embedding files")
    sp.add_argument("--users", required=True, help="user GEMB file")
    sp.add_argument("--items", required=True, help="item GEMB file")
    sp.add_argument("--k", type=int, default=RunConfig.k_neighbors, help="default: k_neighbors")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_build_db)

    sp = sub.add_parser("train", help="fit the model per seed")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seeds", default="42", help="comma-separated seed list")
    sp.add_argument("--force", action="store_true")
    _add_run_config_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--data", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", choices=("valid", "test"), default="test")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--groups", choices=("on", "off"), default="on")
    sp.add_argument("--force", action="store_true")
    _add_run_config_flags(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="train/evaluate a grid over k_neighbors and/or h")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--sweep-k", default=None)
    sp.add_argument("--sweep-h", default=None)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--force", action="store_true")
    _add_run_config_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("report", help="render a metrics TSV as a table")
    sp.add_argument("--metrics", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed takes only non-negative seeds, got {args.seed}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
