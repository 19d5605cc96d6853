"""Shared fixtures for the benchmark suite.

Every figure/table benchmark pulls its datasets, graphs and prebuilt
rankers from the session-scoped caches here so that pytest-benchmark
timings cover *only* the per-query work — precomputation is measured
explicitly by the Figure 8 benchmarks and nowhere else.

``REPRO_BENCH_SCALE`` (default 1.0) rescales all datasets: raise it to
approach paper-sized inputs, lower it for a quick smoke run.  The four
datasets keep their size ordering at any scale.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines.emr import EMRRanker
from repro.baselines.fmr import FMRRanker
from repro.core.index import MogulRanker
from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.eval.harness import sample_queries
from repro.graph.adjacency import KnnGraph
from repro.ranking.exact import ExactRanker
from repro.ranking.iterative import IterativeRanker

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_SEED = 0
ALPHA = 0.99
#: Largest n for which the O(n^2)-memory Inverse baseline is attempted.
INVERSE_CAP = 3_000

_datasets: dict[str, Dataset] = {}
_graphs: dict[str, KnnGraph] = {}
_rankers: dict[tuple, object] = {}


def get_dataset(name: str) -> Dataset:
    if name not in _datasets:
        _datasets[name] = load_dataset(name, scale=BENCH_SCALE, seed=BENCH_SEED)
    return _datasets[name]


def get_graph(name: str) -> KnnGraph:
    if name not in _graphs:
        _graphs[name] = get_dataset(name).build_graph(k=5)
    return _graphs[name]


def get_ranker(name: str, method: str, **kwargs):
    """Build (and cache) a ranker; key includes the kwargs."""
    key = (name, method, tuple(sorted(kwargs.items())))
    if key not in _rankers:
        graph = get_graph(name)
        factories = {
            "mogul": lambda: MogulRanker(graph, alpha=ALPHA, **kwargs),
            "mogul_e": lambda: MogulRanker(graph, alpha=ALPHA, exact=True, **kwargs),
            "emr": lambda: EMRRanker(graph, alpha=ALPHA, **kwargs),
            "fmr": lambda: FMRRanker(graph, alpha=ALPHA, **kwargs),
            "iterative": lambda: IterativeRanker(graph, alpha=ALPHA, **kwargs),
            "inverse": lambda: ExactRanker(graph, alpha=ALPHA, method="inverse", **kwargs),
            "inverse_per_query": lambda: ExactRanker(
                graph, alpha=ALPHA, method="per_query_inverse", **kwargs
            ),
        }
        _rankers[key] = factories[method]()
    return _rankers[key]


def bench_queries(name: str, count: int = 5) -> np.ndarray:
    return sample_queries(get_graph(name).n_nodes, count, seed=BENCH_SEED)

