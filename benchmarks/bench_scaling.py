"""Scaling benchmark — growth-rate assertions for the complexity claims.

The paper's Theorems 2/3 say O(n) for Mogul's query and precompute.  The
assertions here check growth *ratios* across a 4x size sweep, which is
robust to machine constants:

* Mogul's query time must grow strictly slower than the Iterative
  baseline's (whose per-query mat-vec is genuinely linear in n);
* Mogul's precompute must stay near-linear (a 4x size increase must not
  cost more than ~10x, allowing constant-factor noise).
"""

from __future__ import annotations

import time

import pytest

from repro.core.index import MogulRanker
from repro.datasets.registry import load_dataset
from repro.eval.harness import sample_queries, time_queries
from repro.ranking.iterative import IterativeRanker

FACTORS = (1.0, 4.0)
DATASET = "nuswide"
ALPHA = 0.99

_built: dict[float, tuple] = {}


def built(factor: float):
    if factor not in _built:
        dataset = load_dataset(DATASET, scale=factor, seed=0)
        graph = dataset.build_graph(k=5)
        started = time.perf_counter()
        ranker = MogulRanker(graph, alpha=ALPHA)
        build_seconds = time.perf_counter() - started
        _built[factor] = (graph, ranker, build_seconds)
    return _built[factor]


@pytest.mark.parametrize("factor", FACTORS)
def test_query_time_at_scale(benchmark, factor):
    graph, ranker, _ = built(factor)
    queries = sample_queries(graph.n_nodes, 8, seed=0)
    state = {"i": 0}

    def query():
        q = int(queries[state["i"] % len(queries)])
        state["i"] += 1
        return ranker.top_k(q, 5)

    benchmark.group = "scaling:query"
    benchmark.name = f"Mogul (n={graph.n_nodes})"
    result = benchmark(query)
    assert len(result) == 5


def test_shape_mogul_scales_better_than_iterative(benchmark):
    """Across a 4x size sweep Mogul's query-time growth must stay below
    Iterative's (the genuinely-linear baseline)."""
    growth = {}
    for method in ("mogul", "iterative"):
        times = []
        for factor in FACTORS:
            graph, mogul, _ = built(factor)
            ranker = (
                mogul
                if method == "mogul"
                else IterativeRanker(graph, alpha=ALPHA)
            )
            queries = sample_queries(graph.n_nodes, 8, seed=0)
            times.append(
                time_queries(lambda q: ranker.top_k(int(q), 5), queries)
            )
        growth[method] = times[-1] / times[0]

    def report():
        return growth

    benchmark.group = "scaling:shape"
    benchmark.name = "growth-ratio Mogul vs Iterative"
    result = benchmark.pedantic(report, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {key: round(value, 2) for key, value in result.items()}
    )
    assert result["mogul"] < result["iterative"]


def test_shape_precompute_near_linear(benchmark):
    """4x more data must cost at most ~10x the precompute (linear with
    generous constant-factor headroom; cubic would be 64x)."""
    _, _, small_build = built(FACTORS[0])
    _, _, big_build = built(FACTORS[-1])

    def report():
        return big_build / small_build

    benchmark.group = "scaling:shape"
    benchmark.name = "precompute growth over 4x data"
    ratio = benchmark.pedantic(report, rounds=1, iterations=1)
    benchmark.extra_info["ratio"] = round(ratio, 2)
    assert ratio < 10.0
