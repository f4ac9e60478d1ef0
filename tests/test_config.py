import os
import re

import pytest

from grasp.config import (
    RunConfig, parse_config_file, read_text, write_key_values, write_text_atomic,
)
from grasp.errors import DataError
from grasp.evaluation import emit_report, report_from_ranks
from grasp.hae import init_params, save_hae_checkpoint


@pytest.mark.parametrize("bad", [
    dict(max_epochs=0),
    dict(batch_size=0),
    dict(patience=0),
    dict(negatives_per_positive=0),
    dict(eval_negatives=0),
    dict(lr=-0.001),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(backbone="lstm"),
    dict(encoder="bert"),
    dict(h=0),
    dict(max_seq_len=0),
    dict(n_heads=0),
    dict(h=64, n_heads=3),
    dict(n_layers=-1),
    dict(d_sem=-1),
    dict(h_hidden=-1),
    dict(dropout=1.0),
    dict(dropout=-0.1),
    dict(k_neighbors=0),
    dict(head_ratio=1.0),
    dict(head_ratio=2.0),
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_rejects_invalid_settings(bad):
    with pytest.raises(ValueError) as err:
        RunConfig(**bad)
    for value in bad.values():  # the message names the bad value
        assert str(value) in str(err.value)


def test_heads_need_not_divide_h_for_gru4rec():
    assert RunConfig(backbone="gru4rec", h=64, n_heads=3).n_heads == 3


def test_key_value_file_round_trips(tmp_path):
    cfg = RunConfig(lr=0.0125, backbone="gru4rec", h=24, dropout=0.35, head_ratio=0.3,
                    encoder="id", no_similar=True, softmax_variant=True)
    path = tmp_path / "model.txt"
    write_key_values(path, cfg.echo())
    assert "no_similar=1\n" in path.read_text()
    assert RunConfig(**parse_config_file(path)) == cfg


class TestReadText:
    def test_newlines_translated_like_text_mode(self, tmp_path):
        # Only LF, CRLF and a lone CR end lines; form feed and U+2028 do not.
        raw = "a\r\nb\rc\n\x0cd\u2028e\r\r\n".encode("utf-8")
        path = tmp_path / "t.txt"
        path.write_bytes(raw)
        assert read_text(path) == "a\nb\nc\n\x0cd\u2028e\n\n"
        with open(path, encoding="utf-8") as fh:
            assert read_text(path) == fh.read()

    def test_undecodable_bytes_are_data_error_with_offset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"h=16\nlr=0.1\xff\n")
        want = f"{path}: not valid UTF-8 (invalid start byte at byte 11)"
        with pytest.raises(DataError, match=re.escape(want)):
            parse_config_file(path)

    def test_config_line_numbers_count_lone_cr(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"h=16\rlr=0.1\r\nbogus\n")
        with pytest.raises(DataError, match=f"{path}:3: expected key=value"):
            parse_config_file(path)


class TestAtomicTextWrites:
    OLD = "previous\tcontents\n"

    def _existing(self, tmp_path, name="out.txt"):
        path = tmp_path / name
        path.write_text(self.OLD, encoding="utf-8")
        return path

    def test_replaces_the_file_and_leaves_no_temporary(self, tmp_path):
        path = self._existing(tmp_path)
        write_text_atomic(path, "new\u00e9\n")
        assert path.read_bytes() == "new\u00e9\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failing_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = self._existing(tmp_path)

        def fail(src, dst):
            raise OSError("disk full")

        checkpoint = tmp_path / "fusion.ghae"
        save_hae_checkpoint(init_params(RunConfig(h=4), 3, seed=1), checkpoint)
        old_bytes = checkpoint.read_bytes()
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(path, "new\n")
        with pytest.raises(OSError, match="disk full"):
            save_hae_checkpoint(init_params(RunConfig(h=4), 3, seed=2), checkpoint)
        assert path.read_text(encoding="utf-8") == self.OLD
        assert checkpoint.read_bytes() == old_bytes
        assert sorted(os.listdir(tmp_path)) == ["fusion.ghae", "out.txt"]

    @pytest.mark.parametrize("writer", ["model.txt", "metrics.tsv"])
    def test_failing_serializer_keeps_the_old_file(self, tmp_path, writer):
        class Unprintable:
            def __format__(self, spec):
                raise RuntimeError("cannot format")

            def __repr__(self):
                raise RuntimeError("cannot format")

        path = self._existing(tmp_path, writer)
        with pytest.raises(RuntimeError, match="cannot format"):
            if writer == "model.txt":
                write_key_values(path, {"h": 8, "lr": Unprintable()})
            else:
                report = report_from_ranks([1, 2, 3])
                report.ndcg[10] = Unprintable()
                emit_report([report], path)
        assert path.read_text(encoding="utf-8") == self.OLD
        assert os.listdir(tmp_path) == [writer]
