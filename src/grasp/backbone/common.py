"""Dropout masks, the ``table=`` guard and checkpoint IO for the backbones.

Checkpoint format ``GBKB`` (``GBKB_HEADER``, then one ``_tensor_record``):
magic | version u16 | kind u8 (1 = gru4rec, 2 = sasrec) | h u32 |
max_seq_len u32 | n_layers u32 | n_heads u32 | dropout f32 | parameter
tensors in construction order, float32 LE.  Version 1 SASRec files also
hold an inert key bias after each ``wk{layer}``; loading reads and drops it.
"""

from __future__ import annotations

import numpy as np

from .. import binio

GBKB_MAGIC = b"GBKB"
GBKB_VERSION = 2
KIND_CODES = {"gru4rec": 1, "sasrec": 2}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
GBKB_HEADER = np.dtype([("magic", "S4"), ("version", "<u2"), ("kind", "u1"), ("h", "<u4"),
                        ("max_seq_len", "<u4"), ("n_layers", "<u4"), ("n_heads", "<u4"),
                        ("dropout", "<f4")])


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """Inverted-dropout multiplier; identity when p == 0."""
    return (rng.random(shape) >= p) / (1.0 - p)


def check_table_call(table, rng, last_only: bool) -> None:
    """Refuse ``forward(table=...)`` outside inference: it needs ``last_only`` and no ``rng``."""
    if table is not None and (rng is not None or not last_only):
        raise ValueError("forward(table=...) is inference-only: pass last_only=True and no rng")


def _header_fields(model) -> dict:
    """The GBKB header fields after the version, in file order, as ``model`` implies them."""
    cfg = model.cfg
    return {"kind": KIND_CODES[cfg.backbone], "h": cfg.h, "max_seq_len": cfg.max_seq_len,
            "n_layers": model.n_layers, "n_heads": cfg.n_heads,
            "dropout": float(np.float32(cfg.dropout))}


def _tensor_record(model, version: int) -> list:
    fields = []
    for name, tensor in model.params.items():
        fields.append((name, "<f4", tensor.shape))
        if version == 1 and name.startswith("wk"):
            fields.append(("b" + name[1:], "<f4", (model.cfg.h,)))
    return fields


def save_backbone_checkpoint(model, path) -> None:
    binio.save(path, GBKB_HEADER, (GBKB_MAGIC, GBKB_VERSION, *_header_fields(model).values()),
               np.array(tuple(model.params.values()), dtype=_tensor_record(model, GBKB_VERSION)))


def load_backbone_checkpoint(model, path) -> None:
    """Overwrite ``model``'s parameters from a GBKB file whose header matches it.

    The whole file is read and checked first, so on ``FormatError`` the model is unchanged.
    """
    r = binio.read_file(path)
    head = r.header(GBKB_HEADER, GBKB_MAGIC, (1, GBKB_VERSION))
    for name, want in _header_fields(model).items():
        if name == "kind":
            r.expect_field("backbone", KIND_NAMES.get(head[name], head[name]), KIND_NAMES[want])
        else:
            r.expect_field(name, head[name], want)
    record = r.records(_tensor_record(model, head["version"]), 1)[0]
    r.expect_eof()
    for name, tensor in model.params.items():
        tensor[...] = record[name]
