"""End-to-end wiring: data directories, model construction, checkpoints.

A data directory (produced by ``grasp synth`` + ``grasp build-db``) holds::

    interactions.tsv          # user<TAB>item<TAB>timestamp log
    user_emb.gemb             # semantic user embeddings (rows = raw ids)
    item_emb.gemb             # semantic item embeddings
    users.gnbc / items.gnbc   # neighbor caches built from the matrices

A model checkpoint directory holds ``model.txt`` (the full ``RunConfig``
it was trained with, in ``--config`` format) plus ``backbone.gbkb`` and
either ``hae.ghae`` (semantic encoder) or ``id_embedding.gemb`` (ID-only
baseline).  Embedding rows are addressed by raw id, so datasets filtered
at load time stay aligned with the full semantic databases: each raw id,
parsed with ``int()``, must name a distinct row of its matrix, checked
once at load, before any command writes a file.

Every fit runs through ``fit_points``, each point with its own stores; a
sweep k point builds its caches (``with_stores``), so a k-only grid reads no ``.gnbc``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .backbone import load_backbone_checkpoint, save_backbone_checkpoint
from .config import RunConfig, parse_config_file, write_json, write_key_values, write_text_atomic
from .dataset import InteractionDataset, LeaveOneOutSplit, load_interactions, partition_head_tail, split_leave_one_out
from .embedstore import (
    as_gnbc,
    build_neighbor_cache,
    load_embedding_matrix,
    load_neighbor_cache,
    matrix_from_array,
    save_embedding_matrix,
)
from .errors import DataError
from .evaluation import evaluate, group_report
from .hae import SemanticStore, load_hae_checkpoint, save_hae_checkpoint
from .model import RecModel, SemanticEncoder, build_id_model, build_semantic_model
from .trainer import fit

LOG_NAME = "interactions.tsv"
USER_EMB_NAME = "user_emb.gemb"
ITEM_EMB_NAME = "item_emb.gemb"
USER_CACHE_NAME = "users.gnbc"
ITEM_CACHE_NAME = "items.gnbc"
MODEL_CONFIG_NAME = "model.txt"


@dataclass
class PipelineData:
    ds: InteractionDataset
    split: LeaveOneOutSplit
    user_store: SemanticStore | None
    item_store: SemanticStore | None


def _require(directory, name: str, hint: str) -> str:
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise DataError(f"missing {path} ({hint})")
    return path


def _raw_rows(raw_ids: list[str], label: str, n_rows: int) -> np.ndarray:
    """Each dense id's matrix row: its raw id parsed with ``int()``, naming a distinct row."""
    owner = {}
    for raw in raw_ids:
        try:
            row = int(raw)
        except ValueError:
            raise DataError(f"{label} raw id {raw!r} is not an integer row index; "
                            "cannot align with embeddings") from None
        if not 0 <= row < n_rows:
            raise DataError(f"{label} raw id {raw!r} points outside the embedding matrix "
                            f"({n_rows} rows)")
        if owner.setdefault(row, raw) != raw:
            raise DataError(f"{label} raw ids {owner[row]!r} and {raw!r} both name "
                            f"embedding row {row}")
    return np.fromiter(owner, dtype=np.int64, count=len(owner))


def load_data_dir(data_dir, cfg: RunConfig, need_stores: bool = True) -> PipelineData:
    """The log, its split and, with ``need_stores``, both semantic stores
    on the directory's caches, whose k must equal ``cfg.k_neighbors``."""
    log_path = _require(data_dir, LOG_NAME, "run `grasp synth` or provide a log")
    ds = load_interactions(log_path, cfg.min_user_len, cfg.min_item_freq)
    data = PipelineData(ds, split_leave_one_out(ds), None, None)
    return with_stores(data_dir, data, cfg.k_neighbors, build=False) if need_stores else data


def with_stores(data_dir, data: PipelineData, k: int, build: bool = True) -> PipelineData:
    """``data`` with its own stores on the directory's matrices, their caches at ``k`` built
    as ``grasp build-db --k`` writes them or, without ``build``, read from the directory."""
    stores = []
    for side, raw_ids, gemb, gnbc in (
        ("user", data.ds.user_raw_ids, USER_EMB_NAME, USER_CACHE_NAME),
        ("item", data.ds.item_raw_ids, ITEM_EMB_NAME, ITEM_CACHE_NAME),
    ):
        matrix = load_embedding_matrix(_require(data_dir, gemb, f"{side} embedding matrix"))
        cache_path = os.path.join(data_dir, gnbc)
        if build:
            cache = as_gnbc(build_neighbor_cache(matrix, k))
        else:
            cache = load_neighbor_cache(_require(data_dir, gnbc, "run `grasp build-db` first"))
            if cache.k != k:
                raise DataError(f"{cache_path} was built with k={cache.k} but config asks "
                                f"k_neighbors={k}; rerun `grasp build-db --k {k}`")
        rows = _raw_rows(raw_ids, side, matrix.rows)
        try:
            stores.append(SemanticStore(matrix, cache, rows))
        except DataError as exc:  # a cache that does not fit its matrix
            raise DataError(f"{cache_path}: {exc}") from None
    return PipelineData(data.ds, data.split, *stores)


def build_model(data: PipelineData, cfg: RunConfig, seed: int) -> RecModel:
    if cfg.encoder == "id":
        return build_id_model(data.ds.item_count, cfg, seed)
    if data.user_store is None:
        raise DataError("the semantic encoder needs embedding stores in the data directory")
    return build_semantic_model(data.user_store, data.item_store, cfg, seed)


# ---------------------------------------------------------------------------
# Checkpoint directories


def save_model_dir(model: RecModel, out_dir, cfg: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_key_values(os.path.join(out_dir, MODEL_CONFIG_NAME), cfg.echo())
    save_backbone_checkpoint(model.backbone, os.path.join(out_dir, "backbone.gbkb"))
    if isinstance(model.encoder, SemanticEncoder):
        save_hae_checkpoint(model.encoder.params, os.path.join(out_dir, "hae.ghae"))
    else:
        save_embedding_matrix(
            matrix_from_array(model.encoder.emb), os.path.join(out_dir, "id_embedding.gemb")
        )


def read_model_config(model_dir) -> RunConfig:
    """The full ``RunConfig`` a checkpoint was trained with."""
    path = _require(model_dir, MODEL_CONFIG_NAME, "checkpoint run config")
    values = parse_config_file(path)
    missing = [f.name for f in fields(RunConfig) if f.name not in values]
    if missing:
        raise DataError(f"{path}: not a full run config, missing {', '.join(missing)}")
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_model_dir(model_dir, data: PipelineData) -> tuple[RecModel, RunConfig]:
    """Rebuild a checkpoint's model from its run config, then load its tensors."""
    cfg = read_model_config(model_dir)
    model = build_model(data, cfg, 0)
    load_backbone_checkpoint(model.backbone,
                             _require(model_dir, "backbone.gbkb", "backbone checkpoint"))
    if isinstance(model.encoder, SemanticEncoder):
        load_hae_checkpoint(model.encoder.params,
                            _require(model_dir, "hae.ghae", "fusion checkpoint"))
    else:
        path = _require(model_dir, "id_embedding.gemb", "id embedding table")
        emb = load_embedding_matrix(path)
        if emb.values.shape != model.encoder.emb.shape:
            raise DataError(
                f"{path}: id embedding table is {emb.rows}x{emb.dim} but the dataset and "
                f"config expect {model.encoder.emb.shape[0]}x{model.encoder.emb.shape[1]}"
            )
        model.encoder.emb[...] = emb.values
    return model, cfg


# ---------------------------------------------------------------------------
# Training / evaluation runs


def train_one_seed(data: PipelineData, cfg: RunConfig, seed: int, out_dir) -> dict:
    """Fit one seed, write checkpoint + epoch log, return the summary dict."""
    model = build_model(data, cfg, seed)
    model, state = fit(model, data.split, data.ds, cfg, seed)
    save_model_dir(model, out_dir, cfg)  # only now: a failed fit leaves no empty out_dir
    write_text_atomic(os.path.join(out_dir, "train_log.tsv"), "".join(
        f"{epoch}\t{loss!r}\t{val!r}\n"
        for epoch, (loss, val) in enumerate(zip(state.loss_history, state.val_history), start=1)
    ))
    summary = {
        "config": cfg.echo(),
        "seed": seed,
        "best_epoch": state.best_epoch,
        "best_val_ndcg10": state.best_val_ndcg10,
        "epochs_run": state.epoch,
        "stopped_early": state.stopped_early,
        "wall_clock_seconds": state.wall_seconds,
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def eval_model(data: PipelineData, model: RecModel, cfg: RunConfig, seed: int,
               which: str = "test", with_groups: bool = True):
    """Overall report plus (optionally) the four head/tail group reports, and the records."""
    report, records = evaluate(
        model, data.split, data.ds, which=which,
        eval_negatives=cfg.eval_negatives, seed=seed, max_seq_len=cfg.max_seq_len,
    )
    reports = [report]
    if with_groups:
        reports += group_report(records, partition_head_tail(data.ds, cfg.head_ratio)).values()
    return reports, records


def fit_points(points, test: bool):
    """Fit each ``(data, cfg, seed, out_dir)`` point in order; yield ``(summary, reports)``,
    with ``test`` the test reports of the checkpoint it wrote, read back (else empty)."""
    for data, cfg, seed, out_dir in points:
        summary = train_one_seed(data, cfg, seed, out_dir)
        reports = []
        if test:
            model, _ = load_model_dir(out_dir, data)
            reports, _ = eval_model(data, model, cfg, seed)
        yield summary, reports
