"""GRASP: retrieval-augmented embedding enhancement for sequential recommenders.

The package wires together five stages:

* ``dataset``    -- interaction-log ingestion, leave-one-out splits,
  head/tail popularity partitions, negative sampling.
* ``embedstore`` -- frozen semantic embedding matrices, exact top-k cosine
  retrieval with self-exclusion, pooled neighbor caches, and a synthetic
  cluster-structured corpus generator for desk-scale experiments.
* ``hae``        -- holistic attention enhancement: sigmoid-gated self /
  similar / global branches over the frozen embeddings plus a learnable
  fusion MLP, with hand-written analytic gradients.
* ``backbone``   -- trainable sequential encoders (GRU4Rec, SASRec).
* ``trainer`` / ``evaluation`` -- BCE training with Adam and early stopping,
  and the 100-negative NDCG/HR evaluation protocol with group reporting.

The ``grasp`` CLI (see ``grasp.cli``) exposes the full pipeline:
``synth -> build-db -> train -> eval -> report`` plus ablation and
hyper-parameter sweeps.
"""

import os

__version__ = "0.1.0"

# BLAS reads its thread count once, when numpy loads, and every submodule
# imports numpy, so the cap is applied here; a count already set wins.
_cap = os.environ.get("GRASP_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)
