"""Sharded index scaling — shard-count sweep: build cost, QPS, memory.

The sharded index's contract is *exactness first*: for any shard count
the factorization is the same global :math:`LDL^T` and the scatter-gather
engine returns bitwise-identical answers to the unsharded engine.  This
benchmark attests that on every run, then measures what sharding buys on
the synthetic 10k-node graph (the INRIA substitute at scale 1.25):

* **Build** — per-shard build costs are instrumented individually, so
  two numbers are reported per shard count: the measured wall-clock of
  the build (which factors its shards one after another in one thread),
  and the **critical path** (shared stages + slowest shard) — the
  wall-clock a build would pay with one worker per shard (process, core
  or machine).  The acceptance floor is on the critical path: at S=4 it
  must be <= 0.6x the single-shard build.  All builds share one
  precomputed clustering: the clustering is
  identical input to every shard count (sharding partitions its output)
  and is reported separately.
* **Serving** — queries/sec through each engine at batch sizes 1 and 16
  (the same measured region as ``bench_batch_throughput``).
* **Memory** — bytes of query-time state per shard: the per-machine
  footprint under scatter-gather placement is the *largest shard* plus
  the shared border block, not the whole index.

Two entry points:

* ``python benchmarks/bench_sharded_scaling.py`` — the full 10k-node
  run; prints tables, asserts identity + the build-scaling floor, writes
  ``BENCH_sharded.json``.
* ``pytest benchmarks/bench_sharded_scaling.py`` — the identity
  attestations at ``REPRO_BENCH_SCALE`` (CI smoke; no perf assertions,
  tiny inputs are all overhead).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.louvain import louvain
from repro.core.index import MogulIndex, MogulRanker
from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker
from repro.datasets.registry import load_dataset
from repro.eval.harness import sample_queries, time_engine_queries
from repro.graph.build import build_knn_graph

#: INRIA substitute at this scale = the synthetic 10k-node graph.
FULL_RUN_SCALE = 1.25
FULL_RUN_QUERIES = 64
FULL_RUN_K = 10
SHARD_COUNTS = (1, 2, 4)
#: Acceptance floor: critical-path build at S=4 over the S=1 build.
TARGET_BUILD_RATIO = 0.6
#: Timing passes per configuration (best-of, to shed scheduler noise).
PASSES = 3


def _best_build(graph, labels, n_shards: int):
    """Best-of-PASSES build; returns (seconds, index of the best pass)."""
    best = float("inf")
    index = None
    for _ in range(PASSES):
        started = time.perf_counter()
        candidate = ShardedMogulIndex.build(
            graph, n_shards, cluster_labels=labels
        )
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            index = candidate
    return best, index


def _state_bytes(state) -> int:
    """Query-time bytes of one shard's state (factor rows + packed solvers)."""
    total = 0
    for csr in [state.rows, state.bounds_table.matrix, *state.couplings]:
        total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    return total + sum(block.nbytes for block in state.blocks)


def _shared_bytes(index: ShardedMogulIndex) -> int:
    """Bytes of the shared top-level state (border block + router tables)."""
    total = index.diag.nbytes + index.permutation.order.nbytes
    for csr in (index.border_rows, index.border_left):
        total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    return total


def assert_identical_answers(base: MogulRanker, sharded, queries, k: int):
    """Bitwise answer identity across the engine entry points."""
    for query in queries:
        a = base.top_k(int(query), k)
        b = sharded.top_k(int(query), k)
        if not np.array_equal(a.indices, b.indices):
            raise AssertionError(f"top-k indices diverge for query {query}")
        if not np.array_equal(a.scores, b.scores):
            raise AssertionError(f"top-k scores diverge for query {query}")
    for a, b in zip(
        base.top_k_batch(queries, k), sharded.top_k_batch(queries, k)
    ):
        if not (
            np.array_equal(a.indices, b.indices)
            and np.array_equal(a.scores, b.scores)
        ):
            raise AssertionError("batched answers diverge")
    features = base.graph.features[np.asarray(queries[:8], dtype=np.int64)]
    for a, b in zip(
        base.top_k_out_of_sample_batch(features + 0.01, k),
        sharded.top_k_out_of_sample_batch(features + 0.01, k),
    ):
        if not (
            np.array_equal(a.indices, b.indices)
            and np.array_equal(a.scores, b.scores)
        ):
            raise AssertionError("out-of-sample answers diverge")


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    n_queries: int = FULL_RUN_QUERIES,
    k: int = FULL_RUN_K,
    seed: int = 0,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
) -> dict:
    """Run the sweep and return the trajectory record."""
    dataset = load_dataset("inria", scale=scale, seed=seed)
    graph = build_knn_graph(dataset.features, k=5, jobs=2)
    started = time.perf_counter()
    labels = louvain(graph.adjacency)
    clustering_seconds = time.perf_counter() - started
    queries = sample_queries(graph.n_nodes, n_queries, seed=seed)

    # Unsharded reference: the identity target and the QPS baseline.
    started = time.perf_counter()
    base_index = MogulIndex.build(graph, cluster_labels=labels)
    unsharded_build = time.perf_counter() - started
    base = MogulRanker.from_index(graph, base_index)
    base_qps_1 = 1.0 / time_engine_queries(base, queries, k, batch_size=1)
    base_qps_16 = 1.0 / time_engine_queries(base, queries, k, batch_size=16)

    single_shard_seconds = None
    trajectory = []
    for n_shards in shard_counts:
        # Instrumented build: accurate per-shard costs -> the critical
        # path (what a one-worker-per-shard build would pay).
        wall_serial, index = _best_build(graph, labels, n_shards)
        profile = index.profile
        critical_path = profile.critical_path_seconds
        if n_shards == 1:
            single_shard_seconds = wall_serial
        ranker = ShardedMogulRanker.from_index(graph, index)
        assert_identical_answers(base, ranker, queries, k)
        qps_1 = 1.0 / time_engine_queries(ranker, queries, k, batch_size=1)
        qps_16 = 1.0 / time_engine_queries(ranker, queries, k, batch_size=16)
        shard_bytes = [
            _state_bytes(index.shard_state(s)) for s in range(index.n_shards)
        ]
        trajectory.append(
            {
                "n_shards": index.n_shards,
                "build": {
                    "wall_serial_seconds": wall_serial,
                    "critical_path_seconds": critical_path,
                    "shard_seconds": list(profile.shard_seconds),
                    "ratio_critical_path_vs_single_shard": (
                        critical_path / single_shard_seconds
                    ),
                },
                "serving": {
                    "qps_batch1": qps_1,
                    "qps_batch16": qps_16,
                },
                "memory": {
                    "shard_bytes": shard_bytes,
                    "max_shard_bytes": max(shard_bytes),
                    "shared_bytes": _shared_bytes(index),
                    "max_machine_fraction": (
                        (max(shard_bytes) + _shared_bytes(index))
                        / (sum(shard_bytes) + _shared_bytes(index))
                    ),
                },
                "answers_identical": True,
            }
        )

    final = trajectory[-1]
    return {
        "benchmark": "sharded_scaling",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_clusters": base_index.n_clusters,
            "border_size": base_index.profile.border_size,
        },
        "k": k,
        "n_queries": n_queries,
        "cpu_count": os.cpu_count(),
        "clustering_seconds": clustering_seconds,
        "unsharded": {
            "build_seconds": unsharded_build,
            "qps_batch1": base_qps_1,
            "qps_batch16": base_qps_16,
        },
        "single_shard_build_seconds": single_shard_seconds,
        "trajectory": trajectory,
        "critical_path_build_ratio": final["build"][
            "ratio_critical_path_vs_single_shard"
        ],
        "target_build_ratio": TARGET_BUILD_RATIO,
        "notes": (
            "Builds share one precomputed clustering (identical input to "
            "every shard count). critical_path_seconds = shared stages + "
            "slowest shard: the wall-clock with one worker per shard. "
            "wall_serial_seconds is the measured one-thread build."
        ),
    }


def main(out_path: str = "BENCH_sharded.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    print(
        f"sharded scaling on {dataset['n_nodes']} nodes "
        f"({dataset['n_clusters']} clusters, border {dataset['border_size']}, "
        f"cpu_count={record['cpu_count']})"
    )
    print(
        f"clustering (shared input): {record['clustering_seconds']:.2f}s; "
        f"unsharded build {record['unsharded']['build_seconds']:.3f}s, "
        f"{record['unsharded']['qps_batch1']:.0f} q/s (b=1), "
        f"{record['unsharded']['qps_batch16']:.0f} q/s (b=16)"
    )
    header = (
        f"{'shards':>6s} {'wall(s)':>9s} {'critpath':>9s} {'ratio':>7s} "
        f"{'q/s b=1':>9s} {'q/s b=16':>9s} {'maxshardMB':>11s}"
    )
    print(header)
    for entry in record["trajectory"]:
        build = entry["build"]
        print(
            f"{entry['n_shards']:6d} {build['wall_serial_seconds']:9.3f} "
            f"{build['critical_path_seconds']:9.3f} "
            f"{build['ratio_critical_path_vs_single_shard']:6.2f}x "
            f"{entry['serving']['qps_batch1']:9.0f} "
            f"{entry['serving']['qps_batch16']:9.0f} "
            f"{entry['memory']['max_shard_bytes'] / 1e6:11.2f}"
        )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"trajectory written to {out_path}")

    ratio = record["critical_path_build_ratio"]
    if ratio > TARGET_BUILD_RATIO:
        print(
            f"FAIL: S=4 critical-path build ratio {ratio:.2f}x > "
            f"{TARGET_BUILD_RATIO}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: S=4 critical-path build is {ratio:.2f}x the "
        f"single-shard build (target <= {TARGET_BUILD_RATIO}x); answers "
        "identical at every shard count"
    )
    return 0


# -- pytest entry points (identity attestations at any scale) --------------


@pytest.fixture(scope="module")
def small_setup():
    from benchmarks.conftest import get_graph

    graph = get_graph("coil")
    labels = louvain(graph.adjacency)
    base = MogulRanker.from_index(
        graph, MogulIndex.build(graph, cluster_labels=labels)
    )
    return graph, labels, base


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_answers_identical(small_setup, n_shards):
    graph, labels, base = small_setup
    index = ShardedMogulIndex.build(graph, n_shards, cluster_labels=labels)
    ranker = ShardedMogulRanker.from_index(graph, index)
    queries = sample_queries(graph.n_nodes, 16, seed=0)
    assert_identical_answers(base, ranker, queries, 10)


def test_sharded_build_instrumented(small_setup):
    graph, labels, _ = small_setup
    index = ShardedMogulIndex.build(graph, 2, cluster_labels=labels)
    profile = index.profile
    assert len(profile.shard_seconds) == index.n_shards
    assert 0 < profile.critical_path_seconds <= profile.total_seconds


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
