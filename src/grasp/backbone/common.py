"""Dropout masks and checkpoint IO for the backbones.

Checkpoint format ``GBKB``: magic | version u16 | kind u8 (1 = gru4rec,
2 = sasrec) | h u32 | max_seq_len u32 | n_layers u32 | n_heads u32 |
dropout f32 | parameter tensors in construction order, float32 LE.
Version 1 SASRec files also hold an inert key bias after each ``wk{layer}``;
loading reads and drops it.
"""

from __future__ import annotations

import numpy as np

from ..binio import Writer, read_file
from ..errors import FormatError

GBKB_MAGIC = b"GBKB"
GBKB_VERSION = 2
KIND_CODES = {"gru4rec": 1, "sasrec": 2}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    """Inverted-dropout multiplier; identity when p == 0."""
    return (rng.random(shape) >= p) / (1.0 - p)


def save_backbone_checkpoint(model, path) -> None:
    cfg = model.cfg
    w = Writer()
    w.magic(GBKB_MAGIC)
    w.u16(GBKB_VERSION)
    w.u8(KIND_CODES[cfg.backbone])
    w.u32(cfg.h)
    w.u32(cfg.max_seq_len)
    w.u32(model.n_layers)
    w.u32(cfg.n_heads)
    w.f32(cfg.dropout)
    for tensor in model.params.values():
        w.f32_array(tensor)
    w.save(path)


def load_backbone_checkpoint(model, path) -> None:
    """Overwrite ``model``'s parameters from a GBKB file whose header matches it."""
    r = read_file(path)
    r.magic(GBKB_MAGIC)
    version = r.u16()
    if version not in (1, GBKB_VERSION):
        raise FormatError(f"{path}: unsupported version {version}")
    cfg = model.cfg
    kind_code = r.u8()
    r.expect_field("backbone", KIND_NAMES.get(kind_code, kind_code), cfg.backbone)
    r.expect_field("h", r.u32(), cfg.h)
    r.expect_field("max_seq_len", r.u32(), cfg.max_seq_len)
    r.expect_field("n_layers", r.u32(), model.n_layers)
    r.expect_field("n_heads", r.u32(), cfg.n_heads)
    r.expect_field("dropout", r.f32(), float(np.float32(cfg.dropout)))
    for name, tensor in model.params.items():
        tensor[...] = r.f32_array(tensor.size).reshape(tensor.shape)
        if version == 1 and cfg.backbone == "sasrec" and name.startswith("wk"):
            r.f32_array(cfg.h)
    r.expect_eof()
