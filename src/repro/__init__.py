"""repro — a complete implementation of Mogul, scalable Manifold Ranking.

Reproduction of "Scaling Manifold Ranking Based Image Retrieval"
(Fujiwara, Irie, Kuroyama, Onizuka; PVLDB 8(4), 2014).

Quickstart::

    import numpy as np
    from repro import build_knn_graph, MogulRanker

    features = np.random.default_rng(0).normal(size=(1000, 32))
    graph = build_knn_graph(features, k=5)
    ranker = MogulRanker(graph)          # precomputes the Mogul index
    result = ranker.top_k(query=0, k=10) # Algorithm 2
    print(result.indices, result.scores)

Main entry points
-----------------
* :func:`build_knn_graph` — build the k-NN graph the paper models data with.
* :class:`MogulRanker` — the paper's contribution (``exact=True`` = MogulE).
* :class:`ExactRanker`, :class:`IterativeRanker`, :class:`EMRRanker`,
  :class:`FMRRanker` — every baseline of the evaluation section.
* :mod:`repro.datasets` — synthetic substitutes for COIL-100 / PubFig /
  NUS-WIDE / INRIA (see DESIGN.md §3 for the substitution rationale).
* :mod:`repro.experiments` — regenerate each figure/table:
  ``python -m repro.experiments fig1``.
"""

from repro.baselines import EMRRanker, FMRRanker
from repro.core import (
    BatchStats,
    Engine,
    LiveEngine,
    MogulIndex,
    MogulRanker,
    ShardedMogulIndex,
    ShardedMogulRanker,
    build_permutation,
    engine_from_index,
    top_k_batch_search,
    top_k_search,
)
from repro.graph import KnnGraph, build_knn_graph
from repro.ranking import (
    ExactRanker,
    IterativeRanker,
    Ranker,
    TopKResult,
    cost_function,
)

__version__ = "1.0.0"

__all__ = [
    "BatchStats",
    "EMRRanker",
    "Engine",
    "ExactRanker",
    "FMRRanker",
    "IterativeRanker",
    "KnnGraph",
    "LiveEngine",
    "MogulIndex",
    "MogulRanker",
    "Ranker",
    "ShardedMogulIndex",
    "ShardedMogulRanker",
    "TopKResult",
    "build_knn_graph",
    "build_permutation",
    "cost_function",
    "engine_from_index",
    "top_k_batch_search",
    "top_k_search",
    "__version__",
]
