"""Sequential encoders consuming enhanced item matrices.

Both backbones map an ``L x h`` input matrix to per-position user
representations ``o_t`` with strict causality: ``o_t`` depends only on
positions ``<= t``.  Batched forward/backward cores operate on left-padded
``(B, L, h)`` grids with a boolean mask; padding never leaks into real
positions.  Inputs at padded positions may hold any finite values (the
encoders give padded item 0 a real representation); outputs and
``backward``'s input gradients there are zero.

Each backbone has one ``forward(x, mask, *, rng=None, last_only=False,
table=None)``.  It returns ``(outputs (B, L, h), cache)`` for
``backward``.  Dropout runs exactly when an ``rng`` is passed, as training
does; without one the pass is deterministic.  With ``last_only`` it
returns ``(outputs (B, h), None)``: the last position's outputs only, from
work that keeps no cache and skips what only earlier positions' outputs
need.  GRU4Rec's last-only outputs equal ``forward(...)[0][:, -1]`` bit
for bit except at tiny B, where its per-step input projection takes
another BLAS kernel; SASRec's agree to rounding (its single-query
attention does likewise).

With ``table`` (the ID encoder's embedding table), ``x`` is a ``(B, L)``
id grid into it and the result is ``forward(table[x], mask,
last_only=True)``'s; it needs ``last_only`` and no ``rng``.  SASRec
gathers the rows; GRU4Rec projects each distinct row once (see its
module for where that agrees bit for bit).
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
