"""Mogul — the paper's contribution: O(n) top-k Manifold Ranking.

Pipeline (all precomputable before any query, §4.2.2):

1. :func:`build_permutation` — Algorithm 1: cluster the k-NN graph by
   modularity, pull every node with a cross-cluster edge into the border
   cluster :math:`C_N`, order nodes within clusters by ascending
   within-cluster degree, emit the permutation matrix ``P``.
2. :class:`MogulIndex` — factorize the permuted system matrix
   :math:`W' = I - \\alpha (C')^{-1/2} A' (C')^{-1/2}` with Incomplete
   Cholesky (Mogul) or Modified Cholesky (MogulE), and precompute the
   query-independent parts of the upper-bound estimations (Def. 1-2).
3. :func:`top_k_search` — Algorithm 2: restricted forward/back substitution
   over :math:`C_Q \\cup C_N` (Lemmas 4-5), then bound-driven pruning of
   every other cluster (Lemma 7).

:class:`MogulRanker` wraps the pipeline in the common
:class:`repro.ranking.Ranker` interface; ``MogulRanker(exact=True)`` is
MogulE (§4.6.1); :meth:`MogulRanker.top_k_out_of_sample` implements §4.6.2.
"""

from repro.core.batch import BatchQuery, BatchStats, top_k_batch_search
from repro.core.bounds import BoundsTable, ClusterBoundData, precompute_cluster_bounds
from repro.core.diagnostics import IndexReport, diagnose_index, expected_prune_rate
from repro.core.engine import Engine, engine_from_index
from repro.core.index import MogulIndex, MogulRanker
from repro.core.live import (
    EngineEpoch,
    LiveEngine,
    LiveSnapshot,
    LiveState,
    RebuildTicket,
)
from repro.core.permutation import Permutation, build_permutation
from repro.core.profile import BuildProfile
from repro.core.search import (
    SearchStats,
    TopKAccumulator,
    top_k_rerank,
    top_k_search,
)
from repro.core.serialize import (
    live_state_path,
    load_any_index,
    load_index,
    load_live_state,
    load_sharded_index,
    save_index,
    save_live_state,
    save_sharded_index,
)
from repro.core.sharded import (
    ShardedMogulIndex,
    ShardedMogulRanker,
    ShardLayout,
    plan_shards,
    scatter_gather_rerank,
    scatter_gather_search,
)
from repro.core.solver import ClusterSolver
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import (
    ACCURACY_PRESETS,
    DEFAULT_ACCURACY,
    TieredEngine,
    preset_candidates,
)

__all__ = [
    "ACCURACY_PRESETS",
    "BatchQuery",
    "BatchStats",
    "BoundsTable",
    "BuildProfile",
    "ClusterBoundData",
    "ClusterSolver",
    "DEFAULT_ACCURACY",
    "Engine",
    "EngineEpoch",
    "IndexReport",
    "LiveEngine",
    "LiveSnapshot",
    "LiveState",
    "MogulIndex",
    "MogulRanker",
    "Permutation",
    "RebuildTicket",
    "SearchStats",
    "ShardLayout",
    "ShardedMogulIndex",
    "ShardedMogulRanker",
    "SpectralEngine",
    "SpectralIndex",
    "TieredEngine",
    "TopKAccumulator",
    "build_permutation",
    "diagnose_index",
    "engine_from_index",
    "expected_prune_rate",
    "live_state_path",
    "load_any_index",
    "load_index",
    "load_live_state",
    "load_sharded_index",
    "plan_shards",
    "precompute_cluster_bounds",
    "preset_candidates",
    "save_index",
    "save_live_state",
    "save_sharded_index",
    "scatter_gather_rerank",
    "scatter_gather_search",
    "top_k_batch_search",
    "top_k_rerank",
    "top_k_search",
]
