import dataclasses
import fcntl
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import grasp
from grasp.cli import main
from grasp.config import RunConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A small synth corpus + caches shared by the CLI tests."""
    out = tmp_path_factory.mktemp("data")
    assert run("synth", "--out", out, "--n-users", 80, "--n-items", 50,
               "--clusters", 4, "--d-sem", 16, "--seed", 42) == 0
    assert run("build-db", "--users", out / "user_emb.gemb",
               "--items", out / "item_emb.gemb", "--k", 5, "--out-dir", out) == 0
    return out


TRAIN_FLAGS = ("--h", 16, "--max-seq-len", 30, "--max-epochs", 2, "--patience", 5,
               "--eval-negatives", 20, "--k-neighbors", 5, "--n-layers", 1)
NO_K_FLAGS = TRAIN_FLAGS[:10] + TRAIN_FLAGS[12:]  # k_neighbors left at its default, 10


class TestSynth:
    def test_manifest_records_parameters(self, data_dir):
        manifest = dict(
            line.split("=", 1)
            for line in (data_dir / "manifest.txt").read_text().splitlines()
        )
        assert manifest["n_users"] == "80"
        assert manifest["n_items"] == "50"
        assert manifest["n_clusters"] == "4"
        assert manifest["seed"] == "42"
        assert manifest["exact_cluster_mode"] == "0"

    def test_refuses_overwrite_without_force(self, data_dir, capsys):
        assert run("synth", "--out", data_dir) == 3

    def test_zero_clusters_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no_clusters"
        assert run("synth", "--out", out, "--n-users", 10, "--n-items", 8,
                   "--clusters", 0, "--d-sem", 4) == 2
        assert "1 cluster" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_noise_flagged(self, tmp_path):
        out = tmp_path / "exact"
        assert run("synth", "--out", out, "--n-users", 10, "--n-items", 8,
                   "--clusters", 2, "--d-sem", 4, "--noise", 0.0) == 0
        assert "exact_cluster_mode=1" in (out / "manifest.txt").read_text()

    def test_rerun_same_seed_byte_identical(self, data_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run("synth", "--out", out2, "--n-users", 80, "--n-items", 50,
                   "--clusters", 4, "--d-sem", 16, "--seed", 42) == 0
        for name in ("interactions.tsv", "user_emb.gemb", "item_emb.gemb"):
            assert (out2 / name).read_bytes() == (data_dir / name).read_bytes()


class TestBuildDb:
    def test_cache_lists_have_length_k(self, data_dir):
        from grasp.embedstore import load_neighbor_cache

        cache = load_neighbor_cache(data_dir / "items.gnbc")
        assert cache.k == 5
        assert cache.neighbor_ids.shape == (50, 5)

    def test_pooled_means_match_recomputation(self, data_dir):
        from grasp.embedstore import build_neighbor_cache, load_embedding_matrix, load_neighbor_cache

        items = load_embedding_matrix(data_dir / "item_emb.gemb")
        cache = load_neighbor_cache(data_dir / "items.gnbc")
        fresh = build_neighbor_cache(items, 5)
        np.testing.assert_array_equal(cache.neighbor_ids, fresh.neighbor_ids)
        np.testing.assert_allclose(
            cache.pooled_means, fresh.pooled_means.astype(np.float32), atol=0
        )

    def test_corrupt_magic_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.gemb"
        bad.write_bytes(b"\x93NOT-A-MATRIX\x00\x00\x00\x00")
        assert run("build-db", "--users", bad, "--items", bad,
                   "--k", 2, "--out-dir", tmp_path / "db") == 3

    def test_k_too_large_is_usage_error(self, data_dir, tmp_path):
        assert run("build-db", "--users", data_dir / "user_emb.gemb",
                   "--items", data_dir / "item_emb.gemb",
                   "--k", 500, "--out-dir", tmp_path / "db2") == 2

    def test_report_matches_the_caches(self, data_dir):
        from grasp.embedstore import load_embedding_matrix, load_neighbor_cache, normalize_rows

        report = json.loads((data_dir / "build_report.json").read_text())
        assert report["k"] == 5
        for name, emb, cache_name, rows in (("users", "user_emb.gemb", "users.gnbc", 80),
                                             ("items", "item_emb.gemb", "items.gnbc", 50)):
            unit = normalize_rows(load_embedding_matrix(data_dir / emb))
            ids = load_neighbor_cache(data_dir / cache_name).neighbor_ids
            cos = np.einsum("rd,rkd->rk", unit, unit[ids])
            entry = report[name]
            assert entry["rows"] == rows and entry["zero_rows"] == 0
            assert entry["mean_top1_cosine"] == pytest.approx(cos[:, 0].mean(), abs=1e-12)
            assert entry["mean_topk_cosine"] == pytest.approx(cos.mean(), abs=1e-12)
            assert entry["build_s"] >= 0.0

    def test_report_counts_zero_rows(self, tmp_path, capsys):
        from grasp.embedstore import matrix_from_array, save_embedding_matrix

        values = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 2.0]])
        save_embedding_matrix(matrix_from_array(values), tmp_path / "m.gemb")
        assert run("build-db", "--users", tmp_path / "m.gemb", "--items", tmp_path / "m.gemb",
                   "--k", 2, "--out-dir", tmp_path / "db") == 0
        report = json.loads((tmp_path / "db" / "build_report.json").read_text())
        assert report["users"]["zero_rows"] == report["items"]["zero_rows"] == 2
        assert "users: 5 rows (2 zero)" in capsys.readouterr().out

    def test_existing_report_refused_before_any_cache(self, data_dir, tmp_path, capsys):
        db = tmp_path / "db"
        db.mkdir()
        (db / "build_report.json").write_text("{}\n")
        assert run("build-db", "--users", data_dir / "user_emb.gemb",
                   "--items", data_dir / "item_emb.gemb", "--k", 5, "--out-dir", db) == 3
        assert "build_report.json already exists" in capsys.readouterr().err
        assert os.listdir(db) == ["build_report.json"]
        assert run("build-db", "--users", data_dir / "user_emb.gemb",
                   "--items", data_dir / "item_emb.gemb", "--k", 5, "--out-dir", db,
                   "--force") == 0
        assert json.loads((db / "build_report.json").read_text())["k"] == 5


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run("train", "--data", data_dir, "--out", out, "--seeds", "42",
               *TRAIN_FLAGS) == 0
    return out


class TestTrainEval:
    def test_one_seed_one_checkpoint(self, trained):
        assert (trained / "seed42" / "hae.ghae").exists()
        assert (trained / "seed42" / "backbone.gbkb").exists()
        assert (trained / "seed42" / "train_log.tsv").exists()
        assert (trained / "summary.json").exists()

    def test_train_log_shape(self, trained):
        rows = (trained / "seed42" / "train_log.tsv").read_text().splitlines()
        assert len(rows) == 2  # max_epochs=2
        epoch, loss, val = rows[0].split("\t")
        assert epoch == "1"
        float(loss), float(val)

    def test_summary_echoes_config(self, trained):
        summary = json.loads((trained / "summary.json").read_text())
        assert summary["config"]["h"] == 16
        assert summary["config"]["encoder"] == "semantic"
        assert summary["seeds"] == [42]

    def test_eval_writes_reports(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval"
        assert run("eval", "--data", data_dir, "--checkpoint", trained / "seed42",
                   "--out", out, "--seed", 42, *TRAIN_FLAGS) == 0
        assert (out / "metrics.tsv").exists()
        assert (out / "report.txt").exists()
        from grasp.evaluation import parse_report_tsv

        groups = [r.group for r in parse_report_tsv(out / "metrics.tsv")]
        assert groups == ["overall", "head_user", "tail_user", "head_item", "tail_item"]

    def test_eval_groups_off(self, data_dir, trained, tmp_path):
        out = tmp_path / "eval_flat"
        assert run("eval", "--data", data_dir, "--checkpoint", trained / "seed42",
                   "--out", out, "--groups", "off", *TRAIN_FLAGS) == 0
        from grasp.evaluation import parse_report_tsv

        assert [r.group for r in parse_report_tsv(out / "metrics.tsv")] == ["overall"]

    def test_validation_replay_matches_logged_best(self, data_dir, trained, tmp_path):
        summary = json.loads((trained / "summary.json").read_text())
        out = tmp_path / "replay"
        assert run("eval", "--data", data_dir, "--checkpoint", trained / "seed42",
                   "--out", out, "--split", "valid", "--seed", 42, *TRAIN_FLAGS) == 0
        from grasp.evaluation import parse_report_tsv

        overall = parse_report_tsv(out / "metrics.tsv")[0]
        assert overall.ndcg[10] == summary["per_seed"][0]["best_val_ndcg10"]

    def test_missing_cache_names_path(self, data_dir, trained, tmp_path, capsys):
        broken = tmp_path / "broken_data"
        broken.mkdir()
        (broken / "interactions.tsv").write_bytes((data_dir / "interactions.tsv").read_bytes())
        (broken / "user_emb.gemb").write_bytes((data_dir / "user_emb.gemb").read_bytes())
        (broken / "item_emb.gemb").write_bytes((data_dir / "item_emb.gemb").read_bytes())
        code = run("eval", "--data", broken, "--checkpoint", trained / "seed42",
                   "--out", tmp_path / "x", *TRAIN_FLAGS)
        assert code == 3
        assert "users.gnbc" in capsys.readouterr().err

    def test_failed_run_removes_the_out_dir_it_created(self, data_dir, trained, tmp_path):
        broken = tmp_path / "no_caches"
        broken.mkdir()
        (broken / "interactions.tsv").write_bytes((data_dir / "interactions.tsv").read_bytes())
        out = tmp_path / "new" / "eval"
        assert run("eval", "--data", broken, "--checkpoint", trained / "seed42",
                   "--out", out) == 3
        assert not (tmp_path / "new").exists()
        existing = tmp_path / "existing"
        existing.mkdir()
        assert run("eval", "--data", broken, "--checkpoint", trained / "seed42",
                   "--out", existing) == 3
        assert existing.is_dir() and not any(existing.iterdir())

    def test_failed_fit_leaves_no_out_dir(self, tmp_path, capsys):
        # Two events per user: the leave-one-out split keeps nobody, so fit refuses.
        data = tmp_path / "short_data"
        data.mkdir()
        (data / "interactions.tsv").write_text(
            "".join(f"{u}\t{i}\t{t}\n" for u in range(30) for t, i in enumerate((u, u + 1))))
        out = tmp_path / "out"
        assert run("train", "--data", data, "--out", out, "--encoder", "id",
                   "--backbone", "gru4rec", "--min-user-len", 1, "--min-item-freq", 1) == 3
        assert "empty validation set" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_compatibility_error(self, data_dir, trained, tmp_path):
        other = tmp_path / "other_data"
        assert run("synth", "--out", other, "--n-users", 30, "--n-items", 20,
                   "--clusters", 2, "--d-sem", 8, "--seed", 1) == 0
        assert run("build-db", "--users", other / "user_emb.gemb",
                   "--items", other / "item_emb.gemb", "--k", 5, "--out-dir", other) == 0
        code = run("eval", "--data", other, "--checkpoint", trained / "seed42",
                   "--out", tmp_path / "y", *TRAIN_FLAGS)
        assert code == 3

    def test_lr_zero_checkpoint_equals_init(self, data_dir, tmp_path):
        out = tmp_path / "frozen"
        assert run("train", "--data", data_dir, "--out", out, "--seeds", "7",
                   "--lr", 0.0, "--max-epochs", 1, *TRAIN_FLAGS[2:]) == 0
        from grasp.backbone import build_backbone, load_backbone_checkpoint
        from grasp.pipeline import read_model_config

        cfg = read_model_config(out / "seed7")
        loaded = build_backbone(cfg, seed=0)
        load_backbone_checkpoint(loaded, out / "seed7" / "backbone.gbkb")
        fresh = build_backbone(cfg, seed=7)
        for name, tensor in fresh.params.items():
            np.testing.assert_array_equal(
                loaded.params[name], tensor.astype(np.float32).astype(np.float64)
            )

    def test_id_encoder_and_ablation_flags_echo(self, data_dir, tmp_path):
        out = tmp_path / "id_run"
        assert run("train", "--data", data_dir, "--out", out, "--seeds", "42",
                   "--encoder", "id", "--backbone", "gru4rec", *TRAIN_FLAGS) == 0
        assert (out / "seed42" / "id_embedding.gemb").exists()
        out2 = tmp_path / "abl_run"
        assert run("train", "--data", data_dir, "--out", out2, "--seeds", "42",
                   "--no-similar", *TRAIN_FLAGS) == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["config"]["no_similar"] is True
        manifest = (out2 / "seed42" / "model.txt").read_text()
        assert "no_similar=1" in manifest


@pytest.fixture(scope="module")
def short_window(data_dir, tmp_path_factory):
    """A SASRec trained with a non-default window, neighbour count and negatives."""
    out = tmp_path_factory.mktemp("short")
    assert run("train", "--data", data_dir, "--out", out, "--seeds", "42",
               "--h", 16, "--max-seq-len", 10, "--k-neighbors", 5, "--eval-negatives", 20,
               "--max-epochs", 2, "--n-layers", 1) == 0
    return out


class TestEvalFromCheckpoint:
    def test_eval_needs_no_run_config_flags(self, data_dir, short_window, tmp_path):
        out = tmp_path / "replay"
        assert run("eval", "--data", data_dir, "--checkpoint", short_window / "seed42",
                   "--out", out, "--split", "valid", "--seed", 42) == 0
        from grasp.evaluation import parse_report_tsv

        summary = json.loads((short_window / "summary.json").read_text())
        overall = parse_report_tsv(out / "metrics.tsv")[0]
        assert overall.ndcg[10] == summary["per_seed"][0]["best_val_ndcg10"]
        echoed = json.loads((out / "eval_summary.json").read_text())["config"]
        assert echoed == summary["config"]

    def test_disagreeing_flag_is_usage_error(self, data_dir, short_window, tmp_path, capsys):
        assert run("eval", "--data", data_dir, "--checkpoint", short_window / "seed42",
                   "--out", tmp_path / "e", "--h", 32) == 2
        assert "h=32 disagrees" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()
        cfg_file = tmp_path / "eval.cfg"
        cfg_file.write_text("max_seq_len=30\n")
        assert run("eval", "--data", data_dir, "--checkpoint", short_window / "seed42",
                   "--out", tmp_path / "f", "--config", cfg_file) == 2
        assert "max_seq_len=30 disagrees" in capsys.readouterr().err

    def test_eval_knobs_override_checkpoint(self, data_dir, short_window, tmp_path):
        out = tmp_path / "knobs"
        assert run("eval", "--data", data_dir, "--checkpoint", short_window / "seed42",
                   "--out", out, "--eval-negatives", 10, "--head-ratio", 0.3, "--h", 16) == 0
        echoed = json.loads((out / "eval_summary.json").read_text())["config"]
        assert (echoed["eval_negatives"], echoed["head_ratio"], echoed["h"]) == (10, 0.3, 16)

    def test_missing_checkpoint_names_model_txt(self, data_dir, tmp_path, capsys):
        assert run("eval", "--data", data_dir, "--checkpoint", tmp_path / "nowhere",
                   "--out", tmp_path / "e") == 3
        assert "model.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("lr=0.001\nh16\n", ":2:"),
        # the manifest of older checkpoints: partial, plus a seed key
        ("encoder=semantic\nbackbone=sasrec\nseed=42\nk_neighbors=5\n", ":3:"),
    ], ids=["no-equals", "old-manifest"])
    def test_malformed_model_txt_is_data_error(self, data_dir, short_window, tmp_path,
                                               capsys, text, where):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(short_window / "seed42", ckpt)
        (ckpt / "model.txt").write_text(text)
        assert run("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", tmp_path / "e") == 3
        assert f"{ckpt / 'model.txt'}{where}" in capsys.readouterr().err

    def test_model_txt_is_the_full_run_config(self, short_window):
        from grasp.config import parse_config_file

        summary = json.loads((short_window / "summary.json").read_text())
        stored = parse_config_file(short_window / "seed42" / "model.txt")
        assert RunConfig(**stored).echo() == summary["config"]
        assert list(stored) == [f.name for f in dataclasses.fields(RunConfig)]


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, data_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr=0.5\nbatch_size=32\n# comment\nh=16\n")
        out = tmp_path / "prec"
        assert run("train", "--data", data_dir, "--out", out, "--seeds", "42",
                   "--config", cfg_file, "--lr", 0.25,
                   "--max-seq-len", 30, "--max-epochs", 1, "--patience", 5,
                   "--eval-negatives", 10, "--k-neighbors", 5, "--n-layers", 1) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["lr"] == 0.25       # flag wins
        assert summary["config"]["batch_size"] == 32  # file beats default
        assert summary["config"]["patience"] == 5

    @pytest.mark.parametrize("flags", [("--n-heads", 3, "--h", 64), ("--max-epochs", 0),
                                       ("--lr", "nan")],
                             ids=["heads", "epochs", "lr-nan"])
    def test_bad_flag_exits_before_writing(self, data_dir, tmp_path, flags):
        out = tmp_path / "never"
        assert run("train", "--data", data_dir, "--out", out, *TRAIN_FLAGS, *flags) == 2
        assert not out.exists()

    def test_train_flags_are_the_run_config_fields(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        flags -= {"--data", "--out", "--seeds", "--force", "--help"}
        expected = {f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(RunConfig)}
        assert flags == expected | {"--config"}

    def test_unknown_config_key_is_data_error(self, data_dir, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_key=1\n")
        assert run("train", "--data", data_dir, "--out", tmp_path / "z",
                   "--config", cfg_file) == 3

    def test_missing_config_file_is_data_error(self, data_dir, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "never"
        assert run("train", "--data", data_dir, "--out", out, "--config", missing) == 3
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()


class TestSweepAndReport:
    def test_sweep_grid(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-k", "3,2",
                   "--seed", 42, *TRAIN_FLAGS) == 0
        rows = (out / "sweep.tsv").read_text().splitlines()
        assert rows[0] == "param\tvalue\tndcg10\thr10"
        values = [r.split("\t")[:2] for r in rows[1:]]
        assert values == [["k_neighbors", "2"], ["k_neighbors", "3"]]  # sorted

    def test_invalid_point_fails_before_any_run(self, data_dir, tmp_path):
        out = tmp_path / "bad_sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-h", "4,6",
                   "--n-heads", 4, *TRAIN_FLAGS[2:]) == 2
        assert not (out / "runs" / "h_4").exists()

    def test_out_of_range_k_fails_before_any_run(self, data_dir, tmp_path, capsys):
        # 50 item rows: k=60 has no cache, so not even the k=2 point may train
        out = tmp_path / "bad_k_sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-k", "2,60",
                   "--seed", 42, *TRAIN_FLAGS) == 2
        assert "k=60 out of range" in capsys.readouterr().err
        assert not (out / "runs").exists()

    def test_k_only_grid_ignores_the_directory_cache_k(self, data_dir, tmp_path):
        # data_dir's caches have k=5; without --k-neighbors the config asks 10.
        out = tmp_path / "sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-k", 3,
                   "--seed", 42, *NO_K_FLAGS) == 0
        rows = (out / "sweep.tsv").read_text().splitlines()
        assert [r.split("\t")[:2] for r in rows[1:]] == [["k_neighbors", "3"]]

    def test_k_only_grid_reads_no_directory_cache(self, data_dir, tmp_path):
        bare = tmp_path / "data"
        shutil.copytree(data_dir, bare)
        for name in ("users.gnbc", "items.gnbc"):
            (bare / name).unlink()
        tables = []
        for data in (data_dir, bare):
            out = tmp_path / f"sweep_{data.name}"
            assert run("sweep", "--data", data, "--out", out, "--sweep-k", "2,3",
                       "--seed", 42, *TRAIN_FLAGS) == 0
            tables.append((out / "sweep.tsv").read_bytes())
        assert tables[0] == tables[1]

    def test_grid_with_an_h_point_checks_the_directory_cache_k(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-k", 3, "--sweep-h", 8,
                   "--seed", 42, *NO_K_FLAGS[2:]) == 3
        assert ("users.gnbc was built with k=5 but config asks k_neighbors=10"
                in capsys.readouterr().err)
        assert not (out / "runs").exists()

    def test_empty_grid_usage_error(self, data_dir, tmp_path):
        assert run("sweep", "--data", data_dir, "--out", tmp_path / "s2") == 2

    @pytest.mark.parametrize("command, flag, values", [
        ("train", "--seeds", "1,1"), ("sweep", "--sweep-k", "3,3"), ("sweep", "--sweep-h", "16,16"),
    ], ids=["seeds", "sweep-k", "sweep-h"])
    def test_repeated_list_value_is_usage_error(self, data_dir, tmp_path, capsys,
                                                command, flag, values):
        out = tmp_path / "repeated"
        assert run(command, "--data", data_dir, "--out", out, flag, values, *TRAIN_FLAGS) == 2
        assert f"repeated value in list: {values!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--seeds", "2,-1"), ("sweep", "--seed", -1), ("eval", "--seed", -5),
        ("synth", "--seed", -1),
    ], ids=["train", "sweep", "eval", "synth"])
    def test_negative_seed_is_usage_error(self, data_dir, trained, tmp_path, capsys,
                                          command, flag, value):
        inputs = {"train": ("--data", data_dir, *TRAIN_FLAGS),
                  "sweep": ("--data", data_dir, "--sweep-h", 8, *TRAIN_FLAGS[2:]),
                  "eval": ("--data", data_dir, "--checkpoint", trained / "seed42"),
                  "synth": ("--n-users", 60)}[command]
        out = tmp_path / "negative"
        assert run(command, "--out", out, flag, value, *inputs) == 2
        assert f"{flag} takes only non-negative seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_id_encoder_k_sweep_is_usage_error(self, data_dir, tmp_path, capsys):
        # the id encoder reads no neighbors, so every k point would be the same fit
        out = tmp_path / "id_sweep"
        assert run("sweep", "--data", data_dir, "--out", out, "--encoder", "id",
                   "--sweep-k", "2,3", *TRAIN_FLAGS) == 2
        assert "--sweep-k needs --encoder semantic" in capsys.readouterr().err
        assert not (out / "runs").exists()

    def test_report_renders(self, data_dir, tmp_path, capsys):
        from grasp.evaluation import emit_report, report_from_ranks

        metrics = tmp_path / "metrics.tsv"
        emit_report([report_from_ranks([1, 2, 3])], metrics)
        assert run("report", "--metrics", metrics) == 0
        assert "overall" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_row", ["overall\t10\t0.5", "overall\t10\tnan-ish\t0.5"],
                             ids=["short-row", "non-numeric"])
    def test_malformed_metrics_row_is_data_error(self, tmp_path, capsys, bad_row):
        from grasp.evaluation import emit_report, report_from_ranks

        metrics = tmp_path / "metrics.tsv"
        emit_report([report_from_ranks([1, 2, 3])], metrics)
        lines = metrics.read_text().splitlines()
        lines[3] = bad_row
        metrics.write_text("\n".join(lines) + "\n")
        assert run("report", "--metrics", metrics) == 3
        assert f"{metrics}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("counts, message", [
        ("5\t0\t1", "# meta empty flag '1' contradicts 5 users"),
        ("0\t0\t0", "# meta empty flag '0' contradicts 0 users"),
        ("5\t0\t2", "# meta empty flag '2' contradicts 5 users"),
        ("-5\t0\t0", "negative count in # meta line"),
        ("5\t-1\t0", "negative count in # meta line"),
    ], ids=["empty-with-users", "users-zero-not-empty", "flag-2", "negative-users",
            "negative-skipped"])
    def test_contradictory_meta_line_is_data_error(self, tmp_path, capsys, counts, message):
        from grasp.evaluation import emit_report, report_from_ranks

        metrics = tmp_path / "metrics.tsv"
        emit_report([report_from_ranks([1, 2, 3, 4, 5])], metrics)
        lines = metrics.read_text().splitlines()
        lines[1] = f"# meta\toverall\t{counts}"
        metrics.write_text("\n".join(lines) + "\n")
        assert run("report", "--metrics", metrics) == 3
        assert f"{metrics}:2: {message}" in capsys.readouterr().err

    @staticmethod
    def _two_group_metrics(tmp_path):
        from grasp.evaluation import emit_report, report_from_ranks

        metrics = tmp_path / "metrics.tsv"
        emit_report([report_from_ranks([1, 2, 3]), report_from_ranks([4], group="tail_item")],
                    metrics)
        return metrics

    def test_row_before_its_meta_line_is_data_error(self, tmp_path, capsys):
        # Without its # meta lines every data row would be dropped silently.
        metrics = self._two_group_metrics(tmp_path)
        lines = metrics.read_text().splitlines()
        metrics.write_text("".join(f"{l}\n" for l in lines if not l.startswith("# meta")))
        assert run("report", "--metrics", metrics) == 3
        assert f"{metrics}:2: group overall row before its # meta line" in capsys.readouterr().err

    def test_repeated_group_is_data_error(self, tmp_path, capsys):
        metrics = self._two_group_metrics(tmp_path)
        header, body = metrics.read_text().split("\n", 1)
        metrics.write_text(f"{header}\n{body}{body}")
        second_meta = 2 + body.count("\n")
        assert run("report", "--metrics", metrics) == 3
        assert (f"{metrics}:{second_meta}: repeated # meta line of group overall"
                in capsys.readouterr().err)

    def test_missing_metrics_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert run("report", "--metrics", missing) == 3
        assert str(missing) in capsys.readouterr().err


class TestIdempotency:
    def test_train_rerun_with_force_is_byte_identical(self, data_dir, tmp_path):
        out = tmp_path / "rerun"
        argv = ["train", "--data", str(data_dir), "--out", str(out), "--seeds", "42",
                *[str(a) for a in TRAIN_FLAGS]]
        assert main(argv) == 0
        first = {
            name: (out / "seed42" / name).read_bytes()
            for name in ("hae.ghae", "backbone.gbkb", "train_log.tsv")
        }
        assert main(argv + ["--force"]) == 0
        for name, payload in first.items():
            assert (out / "seed42" / name).read_bytes() == payload


class TestOutputsCheckedBeforeFit:
    """An existing output is refused before the first fit writes anything."""

    def test_train_existing_seed_summary(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "seed2").mkdir(parents=True)
        (out / "seed2" / "summary.json").write_text("{}\n")
        assert run("train", "--data", data_dir, "--out", out, "--seeds", "1,2",
                   *TRAIN_FLAGS) == 3
        assert "seed2/summary.json already exists" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["seed2"]

    def test_train_existing_run_summary(self, data_dir, trained, tmp_path, capsys):
        # A second run into the same --out with other seeds would replace
        # the combined summary of the first.
        out = tmp_path / "run"
        shutil.copytree(trained, out)
        before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        assert run("train", "--data", data_dir, "--out", out, "--seeds", "2",
                   *TRAIN_FLAGS) == 3
        assert "run/summary.json already exists" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before

    def test_sweep_existing_point_summary(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        (out / "runs" / "k_neighbors_3").mkdir(parents=True)
        (out / "runs" / "k_neighbors_3" / "summary.json").write_text("{}\n")
        assert run("sweep", "--data", data_dir, "--out", out, "--sweep-k", "2,3",
                   "--seed", 42, *TRAIN_FLAGS) == 3
        assert "k_neighbors_3/summary.json already exists" in capsys.readouterr().err
        assert sorted(os.listdir(out / "runs")) == ["k_neighbors_3"]

    def test_second_sweep_keeps_the_first_ones_table(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        sweep = ("sweep", "--data", data_dir, "--out", out, "--seed", 42, *TRAIN_FLAGS[2:])
        assert run(*sweep, "--sweep-h", 8) == 0
        table = (out / "sweep.tsv").read_bytes()
        assert run(*sweep, "--sweep-h", 16) == 3
        assert "sweep/sweep.tsv already exists" in capsys.readouterr().err
        assert (out / "sweep.tsv").read_bytes() == table
        assert sorted(os.listdir(out / "runs")) == ["h_8"]


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no process now
    return str(child.pid)


# One contender: it says it is ready, waits for the "go" file, then tries the
# guard; inside it, an O_EXCL marker shows whether another process holds it too.
# Prints its outcome: held, overlap or the name of the error it met.
_CONTENDER = """
import os, sys, time
from grasp.cli import _output_lock

out = sys.argv[1]
open(os.path.join(out, "ready" + sys.argv[2]), "w").close()
while not os.path.exists(os.path.join(out, "go")):
    time.sleep(0.0005)
try:
    with _output_lock(out, [], False):
        try:
            os.close(os.open(os.path.join(out, "inside"), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            print("overlap")
        else:
            time.sleep(0.02)
            os.unlink(os.path.join(out, "inside"))
            print("held")
except Exception as exc:
    print(type(exc).__name__)
"""


class TestLocking:
    def _synth(self, out):
        return run("synth", "--out", out, "--n-users", 10, "--n-items", 8,
                   "--clusters", 2, "--d-sem", 4)

    def test_lock_refuses_second_run(self, data_dir, tmp_path, capsys):
        out = tmp_path / "locked"
        out.mkdir()
        with open(out / ".grasp.lock", "w") as holder:  # a second file description
            fcntl.flock(holder, fcntl.LOCK_EX)
            assert run("train", "--data", data_dir, "--out", out, "--seeds", "42",
                       *TRAIN_FLAGS) == 3
        assert "locked by another run" in capsys.readouterr().err
        assert (out / ".grasp.lock").exists()
        assert not (out / "seed42").exists()

    @pytest.mark.parametrize("content", ["", "not a pid\n", "0", "-4000000", "1" * 40, None],
                             ids=["empty", "garbage", "zero", "negative", "overflow", "exited-pid"])
    def test_leftover_lock_does_not_block(self, tmp_path, capsys, content):
        out = tmp_path / "leftover"
        out.mkdir()
        (out / ".grasp.lock").write_text(_dead_pid() if content is None else content)
        assert self._synth(out) == 0
        assert capsys.readouterr().err == ""
        assert (out / "manifest.txt").exists()
        assert not (out / ".grasp.lock").exists()

    def test_lock_of_killed_holder_is_released(self, tmp_path):
        out = tmp_path / "held"
        out.mkdir()
        hold = ("import fcntl, sys, time; f = open(sys.argv[1], 'w'); "
                "fcntl.flock(f, fcntl.LOCK_EX); print('held', flush=True); time.sleep(60)")
        with subprocess.Popen([sys.executable, "-c", hold, str(out / ".grasp.lock")],
                              stdout=subprocess.PIPE, text=True) as holder:
            assert holder.stdout.readline() == "held\n"
            assert self._synth(out) == 3
            holder.kill()
        assert self._synth(out) == 0
        assert not (out / ".grasp.lock").exists()

    def test_concurrent_runs_over_a_leftover_lock_never_share_it(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(grasp.__file__).parent.parent)}
        pid = _dead_pid()
        for r in range(8):
            out = tmp_path / f"round{r}"
            out.mkdir()
            (out / ".grasp.lock").write_text(pid)
            procs = [subprocess.Popen([sys.executable, "-c", _CONTENDER, str(out), str(i)],
                                      stdout=subprocess.PIPE, text=True, env=env)
                     for i in range(6)]
            deadline = time.monotonic() + 10
            while len(list(out.glob("ready*"))) < len(procs) and time.monotonic() < deadline:
                time.sleep(0.001)
            (out / "go").touch()
            outcomes = [proc.communicate(timeout=30)[0].strip() for proc in procs]
            # A late contender may hold the guard after the first one left it, never with it.
            assert set(outcomes) <= {"held", "DataError"} and "held" in outcomes, (r, outcomes)


class TestUndecodableInputs:
    """Bytes that are not UTF-8 are a data problem (exit 3) naming the file."""

    def _assert_refused(self, capsys, path, *argv):
        assert run(*argv) == 3
        assert f"error: {path}: not valid UTF-8" in capsys.readouterr().err

    def test_interaction_log(self, data_dir, tmp_path, capsys):
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        log = broken / "interactions.tsv"
        log.write_bytes(log.read_bytes() + b"u\xff\t1\t1\n")
        self._assert_refused(capsys, log, "train", "--data", broken, "--out", tmp_path / "o",
                             *TRAIN_FLAGS)

    def test_config_file(self, data_dir, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"# caf\xe9\nh=16\n")
        self._assert_refused(capsys, cfg_file, "train", "--data", data_dir,
                             "--out", tmp_path / "o", "--config", cfg_file)

    def test_checkpoint_model_txt(self, data_dir, short_window, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(short_window / "seed42", ckpt)
        model_txt = ckpt / "model.txt"
        model_txt.write_bytes(model_txt.read_bytes() + b"\x80\n")
        self._assert_refused(capsys, model_txt, "eval", "--data", data_dir,
                             "--checkpoint", ckpt, "--out", tmp_path / "e")

    def test_embedding_matrix(self, tmp_path, capsys):
        users = tmp_path / "users.tsv"  # neither GEMB nor UTF-8
        users.write_bytes(b"0\t1.0 0.0\n1\t0.0 \xff1.0\n")
        self._assert_refused(capsys, users, "build-db", "--users", users, "--items", users,
                             "--out-dir", tmp_path / "db")

    def test_metrics_tsv(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.tsv"
        metrics.write_bytes(b"group\tk\tndcg\thr\n\xc3\n")
        self._assert_refused(capsys, metrics, "report", "--metrics", metrics)


def test_log_parse_error_names_the_file_and_line(data_dir, tmp_path, capsys):
    broken = tmp_path / "data"
    shutil.copytree(data_dir, broken)
    log = broken / "interactions.tsv"
    lines = log.read_text().splitlines()
    lines[4] = "u1\ti1\tyesterday"
    log.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", broken, "--out", tmp_path / "o", *TRAIN_FLAGS) == 3
    assert f"error: {log}:5: non-integer timestamp 'yesterday'" in capsys.readouterr().err


def _renamed_copy(data_dir, dest, field, old, new, every=1):
    """``data_dir`` copied to ``dest`` with every ``every``-th event's ``old`` user/item id renamed."""
    shutil.copytree(data_dir, dest)
    log = dest / "interactions.tsv"
    lines, seen = [], 0
    for line in log.read_text().splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and parts[field] == old:
            seen += 1
            if seen % every == 0:
                parts[field] = new
        lines.append("\t".join(parts))
    assert seen >= 2 * every
    log.write_text("\n".join(lines) + "\n")
    return dest


class TestRawIdRows:
    """Each raw id names a distinct embedding row, checked before any command writes a file."""

    @staticmethod
    def _inputs(command, trained):
        return {"train": TRAIN_FLAGS,
                "sweep": ("--sweep-h", 8, *TRAIN_FLAGS[2:]),
                "eval": ("--checkpoint", trained / "seed42")}[command]

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    @pytest.mark.parametrize("field, old, new", [
        (0, "5", "u5"), (0, "5", "-5"), (1, "0", "999"),
    ], ids=["non-integer", "negative", "out-of-range"])
    def test_bad_raw_id_writes_nothing(self, data_dir, trained, tmp_path, capsys,
                                       command, field, old, new):
        broken = _renamed_copy(data_dir, tmp_path / "data", field, old, new)
        out = tmp_path / "out"
        assert run(command, "--data", broken, "--out", out, *self._inputs(command, trained)) == 3
        assert not out.exists()
        assert f"error: {('user', 'item')[field]} raw id {new!r}" in capsys.readouterr().err

    def test_two_raw_ids_of_one_row_are_refused(self, data_dir, tmp_path, capsys):
        broken = _renamed_copy(data_dir, tmp_path / "data", 1, "7", "07", every=2)
        out = tmp_path / "out"
        assert run("train", "--data", broken, "--out", out, *TRAIN_FLAGS) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "both name embedding row 7" in err and "'7'" in err and "'07'" in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_store_dims_disagreeing_with_config_write_nothing(self, data_dir, trained, tmp_path,
                                                              capsys, command):
        out = tmp_path / "out"
        assert run(command, "--data", data_dir, "--out", out, "--d-sem", 8,
                   *self._inputs(command, trained)) == 3
        assert not out.exists()
        assert "do not match each other or configured d_sem 8" in capsys.readouterr().err

    def test_encoder_reads_the_row_of_each_raw_id(self, data_dir, tmp_path):
        from grasp import embedstore as es
        from grasp import hae
        from grasp.pipeline import build_model, load_data_dir

        # Reversed lines number users and items in another order than their rows.
        shifted = tmp_path / "data"
        shutil.copytree(data_dir, shifted)
        log = shifted / "interactions.tsv"
        log.write_text("".join(reversed(log.read_text().splitlines(keepends=True))))
        cfg = RunConfig(h=16, k_neighbors=5, n_layers=1)
        data = load_data_dir(shifted, cfg)
        model = build_model(data, cfg, 3)
        urows = np.array([int(r) for r in data.ds.user_raw_ids])
        irows = np.array([int(r) for r in data.ds.item_raw_ids])
        assert (urows != np.arange(len(urows))).any() and (irows != np.arange(len(irows))).any()

        users = np.arange(data.ds.user_count)
        items = np.random.default_rng(0).integers(0, data.ds.item_count, (len(users), 6))
        fused, _ = model.encoder.encode_items(users, items)
        um, im = (es.load_embedding_matrix(shifted / f"{s}_emb.gemb") for s in ("user", "item"))
        uc, ic = (es.load_neighbor_cache(shifted / f"{s}s.gnbc") for s in ("user", "item"))
        u, i = urows[users][:, None], irows[items]
        gates = hae._branch_concat(um.values[u], uc.pooled_means[u], im.values[i],
                                   ic.pooled_means[i], cfg)
        per_row = np.concatenate([im.values[i], ic.pooled_means[i]], axis=-1)
        reference, _ = hae.fuse_forward(gates, np.arange(items.size).reshape(items.shape),
                                        per_row.reshape(items.size, -1), model.encoder.params)
        np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_sweep_k_point_matches_a_train_on_its_caches(self, data_dir, tmp_path):
        sweep = tmp_path / "sweep"
        assert run("sweep", "--data", data_dir, "--out", sweep, "--sweep-k", 3,
                   "--seed", 42, *TRAIN_FLAGS) == 0
        k3 = tmp_path / "data_k3"
        shutil.copytree(data_dir, k3)
        assert run("build-db", "--users", k3 / "user_emb.gemb", "--items", k3 / "item_emb.gemb",
                   "--k", 3, "--out-dir", k3, "--force") == 0
        train = tmp_path / "train"
        assert run("train", "--data", k3, "--out", train, "--seeds", 42, *TRAIN_FLAGS,
                   "--k-neighbors", 3) == 0
        for name in ("train_log.tsv", "backbone.gbkb", "hae.ghae"):
            swept = (sweep / "runs" / "k_neighbors_3" / name).read_bytes()
            assert swept == (train / "seed42" / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_misfit_cache_writes_nothing(self, data_dir, trained, tmp_path, capsys, command):
        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        shutil.copyfile(broken / "users.gnbc", broken / "items.gnbc")  # 80 rows, 50 items
        out = tmp_path / "out"
        assert run(command, "--data", broken, "--out", out, *self._inputs(command, trained)) == 3
        assert not out.exists()
        assert (f"{broken / 'items.gnbc'}: cache shape (80, 16) does not match matrix (50, 16)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_k_mismatch_names_the_cache_and_both_ks(self, data_dir, tmp_path, capsys, side):
        from grasp import embedstore as es

        broken = tmp_path / "data"
        shutil.copytree(data_dir, broken)
        matrix = es.load_embedding_matrix(broken / f"{side}_emb.gemb")
        es.save_neighbor_cache(es.build_neighbor_cache(matrix, 3), broken / f"{side}s.gnbc")
        out = tmp_path / "out"
        assert run("train", "--data", broken, "--out", out, *TRAIN_FLAGS) == 3
        assert not out.exists()
        assert (f"{broken / f'{side}s.gnbc'} was built with k=3 but config asks k_neighbors=5"
                in capsys.readouterr().err)


class TestThreadCap:
    """``GRASP_THREADS`` takes effect when the package is imported, before numpy loads."""

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")],
                             ids=["capped", "preset-kept"])
    def test_import_sets_the_blas_thread_count(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(GRASP_THREADS="1", PYTHONPATH=str(Path(grasp.__file__).parents[1]))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = "import os, sys, grasp; print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.split() == [want, "False"]
