"""Shared configuration and caching for the experiment modules.

Experiments at one scale share datasets and graphs; building an 8k-node
k-NN graph costs seconds, so this module memoises both per process.
:class:`ExperimentConfig` gathers every knob the CLI exposes, with the
paper's values as defaults (k-NN k=5, alpha=0.99, top-k in {5,10,15,20}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.base import Dataset
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.graph.adjacency import KnnGraph

_DATASET_CACHE: dict[tuple, Dataset] = {}
_GRAPH_CACHE: dict[tuple, KnnGraph] = {}


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment module.

    Attributes
    ----------
    scale:
        Dataset size multiplier (see :mod:`repro.datasets.registry`).
    n_queries:
        Queries averaged per timing/accuracy cell.
    k:
        Answer-list length for accuracy experiments (paper: top 5).
    knn_k:
        k-NN graph degree (paper: 5).
    alpha:
        Manifold Ranking damping (paper: 0.99).
    seed:
        Master seed for datasets and query sampling.
    datasets:
        Dataset names to run (default: all four, paper order).
    inverse_cap:
        Largest n for which the O(n^3)-per-query Inverse baseline is
        attempted — mirroring the paper, which could not run it on its
        larger datasets.
    emr_anchors:
        EMR anchor count for the headline comparison (paper Fig. 1: 10).
    jobs:
        Worker threads for the k-NN search of every graph the experiments
        build; results are identical for any value.
    n_shards:
        Shard count for the Mogul engine the experiment drivers build
        through :func:`build_engine` (1 = the single-index engine;
        answers are identical for any value).
    """

    scale: float = 1.0
    n_queries: int = 10
    k: int = 5
    knn_k: int = 5
    alpha: float = 0.99
    seed: int = 0
    datasets: tuple[str, ...] = DATASET_NAMES
    inverse_cap: int = 3_000
    emr_anchors: int = 10
    mogul_k_values: tuple[int, ...] = (5, 10, 15, 20)
    jobs: int = 1
    n_shards: int = 1
    extra: dict = field(default_factory=dict)


def build_engine(graph: KnnGraph, config: ExperimentConfig, **kwargs):
    """Build the Mogul :class:`repro.core.engine.Engine` a config asks for.

    Returns a :class:`repro.core.MogulRanker` (``n_shards == 1``) or a
    :class:`repro.core.ShardedMogulRanker`; callers program against the
    engine interface and never branch on the concrete type.  ``kwargs``
    (``exact=``, ``alpha=`` overrides, ...) pass through to the
    constructor.
    """
    kwargs.setdefault("alpha", config.alpha)
    if config.n_shards > 1:
        from repro.core.sharded import ShardedMogulRanker

        return ShardedMogulRanker(graph, config.n_shards, **kwargs)
    from repro.core.index import MogulRanker

    return MogulRanker(graph, **kwargs)


def get_dataset(name: str, config: ExperimentConfig) -> Dataset:
    """Load (and memoise) a dataset at the config's scale."""
    key = (name, config.scale, config.seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_dataset(name, scale=config.scale, seed=config.seed)
    return _DATASET_CACHE[key]


def get_graph(name: str, config: ExperimentConfig) -> KnnGraph:
    """Build (and memoise) the paper-standard graph for a dataset."""
    key = (name, config.scale, config.seed, config.knn_k)
    if key not in _GRAPH_CACHE:
        dataset = get_dataset(name, config)
        _GRAPH_CACHE[key] = dataset.build_graph(k=config.knn_k, jobs=config.jobs)
    return _GRAPH_CACHE[key]


def clear_caches() -> None:
    """Drop memoised datasets/graphs (tests use this to bound memory)."""
    _DATASET_CACHE.clear()
    _GRAPH_CACHE.clear()
