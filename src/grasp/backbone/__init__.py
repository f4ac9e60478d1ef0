"""Sequential encoders consuming enhanced item matrices.

Both backbones map an ``L x h`` input matrix to per-position user
representations ``o_t`` with strict causality: ``o_t`` depends only on
positions ``<= t``.  Batched forward/backward cores operate on left-padded
``(B, L, h)`` grids with a boolean mask; padding never leaks into real
positions.
"""

from ..config import RunConfig
from .common import load_backbone_checkpoint, save_backbone_checkpoint
from .gru4rec import Gru4Rec
from .sasrec import SasRec

KINDS = {"gru4rec": Gru4Rec, "sasrec": SasRec}


def build_backbone(cfg: RunConfig, seed: int):
    """The seeded ``cfg.backbone`` encoder."""
    return KINDS[cfg.backbone](cfg, seed)


__all__ = [
    "Gru4Rec",
    "SasRec",
    "build_backbone",
    "save_backbone_checkpoint",
    "load_backbone_checkpoint",
]
