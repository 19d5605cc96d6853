"""Precompute pipeline scaling — reference vs CSR factor backend.

The paper's Figure 8 / Table 2 argument is that Mogul's index
construction is cheap; this benchmark measures what the compiled
precompute pipeline buys end to end on the synthetic 10k-node graph (the
INRIA substitute at scale 1.25):

* **graph stage** — the ``"blas"`` prefilter k-NN engine at ``jobs`` in
  {1, 2, 4} against the ``"brute"`` reference, neighbour lists asserted
  identical;
* **index stage** — :meth:`MogulIndex.build` under the reference
  pipeline (``factor_backend="reference"``, reference Louvain sweep)
  against the CSR-native backend with the fast Louvain sweep.  The
  index build runs in one thread either way.

Equivalence is attested, not assumed, on every run: the two backends
must produce factors with the identical sparsity pattern and allclose
values, and the sampled top-k answers must agree exactly in their
indices (scores to float tolerance).

Two entry points:

* ``python benchmarks/bench_precompute_scaling.py`` — the full 10k-node
  run: prints per-stage tables, asserts the headline speedup
  (>= 3x index build, new backend vs. reference)
  and emits ``BENCH_precompute.json``.
* ``pytest benchmarks/bench_precompute_scaling.py`` — the same
  equivalence attestations at ``REPRO_BENCH_SCALE`` (CI smoke runs them
  on a tiny graph; no speedup assertion, small inputs are all overhead).

``jobs > 1`` only buys k-NN wall-clock on multi-core hosts (the BLAS
panels run in threads); neighbour lists are identical everywhere.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.louvain import louvain_reference
from repro.core.index import MogulIndex, MogulRanker
from repro.datasets.registry import load_dataset
from repro.eval.harness import sample_queries
from repro.graph.build import build_knn_graph

#: INRIA substitute at this scale = the synthetic 10k-node graph.
FULL_RUN_SCALE = 1.25
FULL_RUN_QUERIES = 64
FULL_RUN_K = 10
JOBS_VALUES = (1, 2, 4)
#: Acceptance floor: reference index build over the csr-backend build.
TARGET_SPEEDUP = 3.0
#: Timing passes per configuration (best-of, to shed scheduler noise).
PASSES = 3


def _best_of(fn, passes: int = PASSES) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(passes):
        started = time.perf_counter()
        candidate = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            result = candidate
    return best, result


def _assert_graphs_identical(reference, fast) -> None:
    adj_ref, adj_fast = reference.adjacency, fast.adjacency
    if not np.array_equal(adj_ref.indptr, adj_fast.indptr) or not np.array_equal(
        adj_ref.indices, adj_fast.indices
    ):
        raise AssertionError("blas k-NN engine selected different neighbours")
    if not np.allclose(adj_ref.data, adj_fast.data, rtol=1e-9, atol=1e-12):
        raise AssertionError("blas k-NN engine produced different edge weights")


def _assert_factors_equivalent(reference, csr) -> None:
    ref_lower, csr_lower = reference.factors.lower, csr.factors.lower
    if not np.array_equal(ref_lower.indptr, csr_lower.indptr) or not np.array_equal(
        ref_lower.indices, csr_lower.indices
    ):
        raise AssertionError("factor sparsity patterns differ across backends")
    if not np.allclose(ref_lower.data, csr_lower.data, rtol=1e-9, atol=1e-13):
        raise AssertionError("factor values differ across backends")
    if not np.allclose(reference.factors.diag, csr.factors.diag, rtol=1e-9):
        raise AssertionError("factor diagonals differ across backends")


def _answers(graph, index, queries, k):
    ranker = MogulRanker.from_index(graph, index)
    return [ranker.top_k(int(q), k) for q in queries]


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    n_queries: int = FULL_RUN_QUERIES,
    k: int = FULL_RUN_K,
    seed: int = 0,
    jobs_values: tuple[int, ...] = JOBS_VALUES,
) -> dict:
    """Run the sweep and return the trajectory record."""
    dataset = load_dataset("inria", scale=scale, seed=seed)
    features = dataset.features

    # -- graph stage: brute reference vs blas prefilter (+jobs) ----------
    t_graph_ref, graph_ref = _best_of(
        lambda: build_knn_graph(features, k=5, method="brute")
    )
    graph_stage = []
    graph = None
    t_graph_fast = float("inf")
    for jobs in jobs_values:
        elapsed, candidate = _best_of(
            lambda jobs=jobs: build_knn_graph(
                features, k=5, method="blas", jobs=jobs
            )
        )
        _assert_graphs_identical(graph_ref, candidate)
        graph_stage.append({"jobs": jobs, "seconds": elapsed})
        if elapsed < t_graph_fast:
            t_graph_fast = elapsed
            graph = candidate

    queries = sample_queries(graph.n_nodes, n_queries, seed=seed)

    # -- index stage: reference pipeline vs csr backend -----------------
    t_ref, index_ref = _best_of(
        lambda: MogulIndex.build(
            graph, factor_backend="reference", clusterer=louvain_reference
        )
    )
    t_csr, index = _best_of(lambda: MogulIndex.build(graph))
    _assert_factors_equivalent(index_ref, index)
    for ref_answer, answer in zip(
        _answers(graph, index_ref, queries, k), _answers(graph, index, queries, k)
    ):
        if not np.array_equal(ref_answer.indices, answer.indices):
            raise AssertionError("top-k indices differ across backends")
        if not np.allclose(ref_answer.scores, answer.scores, rtol=1e-9):
            raise AssertionError("top-k scores differ across backends")

    speedup = t_ref / t_csr
    end_to_end_ref = t_graph_ref + t_ref
    end_to_end_fast = t_graph_fast + t_csr
    return {
        "benchmark": "precompute_scaling",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_clusters": index_ref.n_clusters,
        },
        "k": k,
        "n_queries": n_queries,
        "graph_stage": {
            "reference_brute_seconds": t_graph_ref,
            "blas_by_jobs": graph_stage,
            "speedup": t_graph_ref / t_graph_fast,
            "neighbours_identical": True,
        },
        "index_stage": {
            "reference": {
                "factor_backend": "reference",
                "seconds": t_ref,
                "stages": {
                    name: float(t)
                    for name, t in index_ref.profile.stages.items()
                },
            },
            "csr": {
                "factor_backend": "csr",
                "seconds": t_csr,
                "stages": {
                    name: float(t) for name, t in index.profile.stages.items()
                },
            },
            "speedup_vs_reference": speedup,
            "factors_equivalent": True,
            "answers_identical_indices": True,
        },
        "end_to_end": {
            "reference_seconds": end_to_end_ref,
            "fast_seconds": end_to_end_fast,
            "speedup": end_to_end_ref / end_to_end_fast,
        },
        "target_speedup": TARGET_SPEEDUP,
    }


def main(out_path: str = "BENCH_precompute.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    print(
        f"precompute scaling on {dataset['n_nodes']} nodes "
        f"({dataset['n_edges']} edges, {dataset['n_clusters']} clusters)"
    )
    graph_stage = record["graph_stage"]
    print(
        f"graph: brute {graph_stage['reference_brute_seconds']:.2f}s vs blas "
        + " ".join(
            f"j{entry['jobs']}={entry['seconds']:.2f}s"
            for entry in graph_stage["blas_by_jobs"]
        )
        + f"  ({graph_stage['speedup']:.2f}x, neighbours identical)"
    )
    index_stage = record["index_stage"]
    speedup = index_stage["speedup_vs_reference"]
    print(f"{'config':24s} {'seconds':>9s} {'speedup':>8s}")
    print(f"{'reference':24s} {index_stage['reference']['seconds']:9.3f} {1.0:7.2f}x")
    print(f"{'csr':24s} {index_stage['csr']['seconds']:9.3f} {speedup:7.2f}x")
    print(
        "end to end (graph + index): "
        f"{record['end_to_end']['reference_seconds']:.2f}s -> "
        f"{record['end_to_end']['fast_seconds']:.2f}s "
        f"({record['end_to_end']['speedup']:.2f}x)"
    )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"trajectory written to {out_path}")

    if speedup < TARGET_SPEEDUP:
        print(
            f"FAIL: index build speedup {speedup:.2f}x < {TARGET_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"OK: index build speedup {speedup:.2f}x >= {TARGET_SPEEDUP}x")
    return 0


# -- pytest entry points (equivalence attestations at any scale) ----------


@pytest.fixture(scope="module")
def small_graph():
    from benchmarks.conftest import get_graph

    return get_graph("coil")


def test_blas_graph_matches_brute():
    from benchmarks.conftest import get_dataset

    features = get_dataset("coil").features
    reference = build_knn_graph(features, k=5, method="brute")
    fast = build_knn_graph(features, k=5, method="blas", jobs=2)
    _assert_graphs_identical(reference, fast)


def test_backends_equivalent(small_graph):
    index_ref = MogulIndex.build(
        small_graph, factor_backend="reference", clusterer=louvain_reference
    )
    index_csr = MogulIndex.build(small_graph)
    _assert_factors_equivalent(index_ref, index_csr)
    queries = sample_queries(small_graph.n_nodes, 16, seed=0)
    for ref_answer, answer in zip(
        _answers(small_graph, index_ref, queries, 10),
        _answers(small_graph, index_csr, queries, 10),
    ):
        assert np.array_equal(ref_answer.indices, answer.indices)
        assert np.allclose(ref_answer.scores, answer.scores, rtol=1e-9)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
