"""Evaluation substrate: metrics, sparsity diagnostics, experiment harness.

* :mod:`repro.eval.metrics` — P@k against the exact ranking and retrieval
  precision against ground-truth labels, the paper's two accuracy measures
  (§5.2.1), plus rank-correlation diagnostics.
* :mod:`repro.eval.sparsity` — text rasters and block statistics of factor
  sparsity patterns (Figure 6).
* :mod:`repro.eval.harness` — timing loops and aligned result tables used
  by every ``repro.experiments`` module and benchmark.
"""

from repro.eval.harness import ExperimentTable, sample_queries, time_queries
from repro.eval.metrics import (
    average_precision_at_k,
    ndcg_at_k,
    p_at_k,
    rank_correlation,
    reciprocal_rank,
    retrieval_precision,
)
from repro.eval.sparsity import block_structure_stats, sparsity_raster

__all__ = [
    "ExperimentTable",
    "average_precision_at_k",
    "block_structure_stats",
    "ndcg_at_k",
    "p_at_k",
    "rank_correlation",
    "reciprocal_rank",
    "retrieval_precision",
    "sample_queries",
    "sparsity_raster",
    "time_queries",
]
