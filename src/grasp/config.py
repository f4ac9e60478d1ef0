"""Run configuration: built-in defaults < config file < command-line flags.

``RunConfig`` is the one settings type: the CLI generates its flags from
the fields, every layer reads its settings from it, and a checkpoint's
``model.txt`` stores it in full.  The config file is flat ``key=value``
text mirroring flag names (dashes or underscores both accepted); ``#``
starts a comment.  Every command echoes its effective configuration into
its summary output.  ``write_text_atomic``, the one writer of every output
file, text or binary, and ``read_text``/``decode_text``, which the
line-based parsers share, live here because this module loads without
numpy.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, asdict, fields

from .errors import DataError


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# The string fields' allowed values, shared by validation and the CLI choices.
CHOICES = {"backbone": ("gru4rec", "sasrec"), "encoder": ("semantic", "id")}


@dataclass
class RunConfig:
    # training
    lr: float = 0.001
    batch_size: int = 128
    patience: int = 20
    max_epochs: int = 200
    negatives_per_positive: int = 1
    eval_negatives: int = 100
    # backbone
    backbone: str = "sasrec"
    h: int = 64
    max_seq_len: int = 100
    n_layers: int = 0  # 0 -> backbone default
    n_heads: int = 1
    dropout: float = 0.2
    # retrieval / fusion
    k_neighbors: int = 10
    d_sem: int = 0  # 0 -> taken from the embedding files
    h_hidden: int = 0  # 0 -> 2*h
    head_ratio: float = 0.2
    # preprocessing
    min_user_len: int = 3
    min_item_freq: int = 3
    # encoder & ablations
    encoder: str = "semantic"
    no_attention: bool = False
    no_similar: bool = False
    no_global: bool = False
    softmax_variant: bool = False

    def __post_init__(self):
        for name in ("batch_size", "patience", "max_epochs", "negatives_per_positive",
                     "eval_negatives", "h", "max_seq_len", "n_heads", "k_neighbors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("n_layers", "d_sem", "h_hidden"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (0 picks the default), got {getattr(self, name)}")
        if not 0.0 <= self.lr < float("inf"):  # false for NaN too
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if self.backbone == "sasrec" and self.h % self.n_heads != 0:
            raise ValueError(f"h={self.h} not divisible by n_heads={self.n_heads}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (0.0 < self.head_ratio < 1.0):
            raise ValueError("head_ratio must be in (0, 1)")

    def echo(self) -> dict:
        return asdict(self)


# Field name -> parser for its text form; the one type table for files and flags.
FIELD_TYPES = {
    f.name: {"bool": _parse_bool, "int": int, "float": float, "str": str}[f.type]
    for f in fields(RunConfig)
}


def parse_config_file(path) -> dict:
    """Read flat key=value pairs, coercing to the RunConfig field types."""
    values: dict = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in FIELD_TYPES:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = FIELD_TYPES[key](value.strip())
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return values


def write_key_values(path, entries: dict) -> None:
    """Flat ``key=value`` lines, bools as 0/1, readable by ``parse_config_file``."""
    write_text_atomic(path, "".join(
        f"{key}={int(value) if isinstance(value, bool) else value}\n"
        for key, value in entries.items()
    ))


def write_json(path, obj) -> None:
    """``obj`` as two-space indented JSON with sorted keys and a final newline."""
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def decode_text(data: bytes, path) -> str:
    """``data`` read from ``path`` as UTF-8 text, with ``\r\n`` and a lone ``\r`` as ``\n``.

    Bytes that are not UTF-8 are a ``DataError`` naming the file and the
    offset, not a ``UnicodeDecodeError`` (a ``ValueError``).
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None
    # Two replace scans that find nothing took 0.7 ms per 0.5 MB on a Xeon, the test 5 us.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path) -> str:
    """The file at ``path``, decoded by ``decode_text``."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), path)


def write_text_atomic(path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` in one step: each a str, written as UTF-8, or bytes-like.

    The chunks go to a temporary file in the same directory, which
    ``os.replace`` then moves over ``path``: a reader, or a crash, sees the
    old file or the new one, never a part.  On any error the old file is
    left as it was and the temporary file is removed.  (Durable against a
    crash of the process, not of the machine: nothing is fsynced.)
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
