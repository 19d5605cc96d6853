"""Table 2 benchmark — breakdown of Mogul's out-of-sample search.

The paper itemises the out-of-sample wall clock into the
nearest-neighbour stage (cluster routing + in-cluster k-NN) and the top-k
search stage.  Each stage is benchmarked separately so the pytest-benchmark
table reproduces Table 2's rows directly.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_fig7_out_of_sample import oos_setup
from repro.core.out_of_sample import build_query_seeds
from repro.core.search import top_k_search

DATASETS = ("coil", "pubfig", "nuswide", "inria")
K = 5


@pytest.mark.parametrize("dataset", DATASETS)
def test_nearest_neighbor_stage(benchmark, dataset):
    held, mogul, _ = oos_setup(dataset)
    index = mogul.index
    graph = mogul.graph
    state = {"i": 0}

    def stage():
        feature = held[state["i"] % len(held)]
        state["i"] += 1
        return build_query_seeds(
            feature,
            index.cluster_means,
            index.cluster_members,
            graph.features,
            n_neighbors=graph.k,
            sigma=graph.sigma,
        )

    benchmark.group = f"table2:{dataset}"
    benchmark.name = "nearest-neighbor"
    seeds = benchmark(stage)
    assert seeds.nodes.size > 0


@pytest.mark.parametrize("dataset", DATASETS)
def test_top_k_stage(benchmark, dataset):
    held, mogul, _ = oos_setup(dataset)
    index = mogul.index
    graph = mogul.graph
    # fixed seeds so the stage is isolated from the NN stage
    seeds = build_query_seeds(
        held[0],
        index.cluster_means,
        index.cluster_members,
        graph.features,
        n_neighbors=graph.k,
        sigma=graph.sigma,
    )
    positions = index.permutation.inverse[seeds.nodes]
    weights = (1.0 - mogul.alpha) * seeds.weights

    def stage():
        answers, _ = top_k_search(
            index.factors,
            index.permutation,
            index.bounds,
            seed_positions=positions,
            seed_weights=weights,
            k=K,
            solver=index.solver,
            bounds_table=index.bounds_table,
        )
        return answers

    benchmark.group = f"table2:{dataset}"
    benchmark.name = "top-k-search"
    answers = benchmark(stage)
    assert len(answers) >= 1


@pytest.mark.parametrize("dataset", DATASETS)
def test_overall_breakdown_consistent(benchmark, dataset):
    """The ranker's own recorded breakdown sums to its overall time."""
    held, mogul, _ = oos_setup(dataset)

    def run():
        mogul.top_k_out_of_sample(held[0], K)
        return mogul.last_breakdown

    benchmark.group = f"table2:{dataset}"
    benchmark.name = "overall"
    breakdown = benchmark(run)
    assert breakdown["overall"] == pytest.approx(
        breakdown["nearest_neighbor"] + breakdown["top_k"], rel=1e-6
    )
