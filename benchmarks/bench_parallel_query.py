"""Parallel query execution — worker-count sweep at concurrency 32.

The scheduler used to solve every dispatched batch on **one** engine
worker thread: concurrent batches queued behind the solve in progress
(the serialization stall the scheduler now instruments as
``engine_wait_seconds``).  With reentrant engines the pool can grow
(``--query-workers W``) and numpy releases the GIL inside the heavy
kernels, so on a multi-core host solves genuinely overlap.  The
contract is unchanged at any pool size: **every served answer is
bitwise identical to a direct ``top_k`` call** — parallelism is an
execution strategy, never a semantic.

This benchmark drives a served flat engine with 32 closed-loop clients
at worker counts 1/2/4 and reports, per worker count:

* **q/s** — measured load-test throughput (cache disabled; every
  request is a real engine solve, verified against a local reference
  engine — the identity gate is *enforced during the load itself* at
  every worker count).
* **engine_wait_seconds** — the cumulative time dispatched batches
  spent waiting for a free engine worker, scraped from ``/metrics``:
  the serialization stall, expected to collapse once the pool grows
  past one worker (batches start instantly and contend for CPU inside
  the solve instead).

Acceptance is keyed on the recorded ``cpu_count`` — single-core honesty
first (most CI runners; a worker pool cannot mint cores):

* ``cpu_count >= 4``: q/s at W=4 must be >= 1.8x the W=1 baseline, and
  the W=4 serialization stall must be below the W=1 stall.
* ``cpu_count`` 2..3: a proportionally modest floor, q/s(W=4) >= 1.2x.
* single core: no speedup is possible or claimed — the gate is the
  identity check plus **no regression** (q/s(W=4) >= 0.9x q/s(W=1):
  the pool must not cost throughput when it cannot buy any), with the
  measured stall recorded but not asserted on.

Two entry points:

* ``python benchmarks/bench_parallel_query.py`` — the full run on the
  synthetic 10k-node graph; prints the table, enforces the gates,
  writes ``BENCH_parallel.json``.
* ``pytest benchmarks/bench_parallel_query.py`` — identity attestation
  at ``REPRO_BENCH_SCALE`` (CI smoke; no perf assertions).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.clustering.louvain import louvain
from repro.core.index import MogulIndex, MogulRanker
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from repro.service.client import RetrievalClient, run_load_test
from repro.service.server import BackgroundServer

FULL_RUN_SCALE = 1.25
FULL_RUN_REQUESTS = 512
FULL_RUN_K = 10
CONCURRENCY = 32
WORKER_COUNTS = (1, 2, 4)
#: Multi-core (>= 4 cores) throughput floor: q/s at W=4 over W=1.
TARGET_MULTI_CORE_SPEEDUP = 1.8
#: 2-3 cores: proportionally modest floor.
TARGET_FEW_CORE_SPEEDUP = 1.2
#: Single core: the pool cannot buy throughput but must not cost it.
TARGET_SINGLE_CORE_FLOOR = 0.9
#: Small batches keep several dispatches in flight at concurrency 32 —
#: a max-sized batch would swallow the whole offered load into one
#: dispatch and leave nothing for the extra workers to overlap.
MAX_BATCH_SIZE = 8


def _measure_worker_count(
    ranker, query_workers: int, n_requests: int, k: int
) -> dict:
    """One sweep point: serve, load at concurrency 32, scrape the gauges.

    The cache is disabled (every request is a real solve) and every
    response is verified against the local reference engine — a single
    mismatched answer fails the run, which is the identity gate.
    """
    with BackgroundServer(
        ranker,
        port=0,
        max_batch_size=MAX_BATCH_SIZE,
        cache_capacity=0,
        query_workers=query_workers,
    ) as server:
        # Warm-up pass (JIT-free Python, but the first solves fault in
        # caches and thread stacks); not measured.
        run_load_test(
            port=server.port,
            concurrency=CONCURRENCY,
            total_requests=4 * CONCURRENCY,
            k=k,
        )
        report = run_load_test(
            port=server.port,
            concurrency=CONCURRENCY,
            total_requests=n_requests,
            k=k,
            check_against=ranker.top_k,
        )
        with RetrievalClient(port=server.port) as client:
            metrics = client.metrics()
    if not report.ok:
        raise AssertionError(
            f"identity/load gate failed at query_workers={query_workers}: "
            f"{report.n_errors} errors (mismatches count as errors), "
            f"{report.n_empty} empty"
        )
    assert metrics["query_workers"] == query_workers
    return {
        "query_workers": query_workers,
        "qps": report.throughput_rps,
        "latency_ms": report.latency.summary(),
        "engine_wait_seconds": metrics["engine_wait_seconds"],
        "n_requests": report.n_requests,
        "answers_identical": True,
    }


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    n_requests: int = FULL_RUN_REQUESTS,
    k: int = FULL_RUN_K,
    seed: int = 0,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
) -> dict:
    """Run the sweep and return the trajectory record."""
    dataset = load_dataset("inria", scale=scale, seed=seed)
    graph = build_knn_graph(dataset.features, k=5, jobs=2)
    labels = louvain(graph.adjacency)
    index = MogulIndex.build(graph, cluster_labels=labels)
    ranker = MogulRanker.from_index(graph, index)

    trajectory = [
        _measure_worker_count(ranker, workers, n_requests, k)
        for workers in worker_counts
    ]

    by_workers = {entry["query_workers"]: entry for entry in trajectory}
    baseline = by_workers[worker_counts[0]]
    widest = by_workers[worker_counts[-1]]
    speedup = widest["qps"] / baseline["qps"]
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        target = TARGET_MULTI_CORE_SPEEDUP
        regime = "multi-core"
    elif cpu_count >= 2:
        target = TARGET_FEW_CORE_SPEEDUP
        regime = "few-core"
    else:
        target = TARGET_SINGLE_CORE_FLOOR
        regime = "single-core"
    return {
        "benchmark": "parallel_query",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_clusters": index.n_clusters,
        },
        "k": k,
        "concurrency": CONCURRENCY,
        "max_batch_size": MAX_BATCH_SIZE,
        "n_requests": n_requests,
        "cpu_count": cpu_count,
        "regime": regime,
        "trajectory": trajectory,
        "speedup_w_max_vs_w1": speedup,
        "target_speedup": target,
        "serialization_stall": {
            "w1_seconds": baseline["engine_wait_seconds"],
            "w_max_seconds": widest["engine_wait_seconds"],
        },
        "notes": (
            "Identity is enforced during the load itself: every response "
            "at every worker count is checked bitwise against a local "
            "reference engine (mismatches fail the run). The speedup "
            "gate is keyed on cpu_count — a worker pool cannot mint "
            "cores, so a single-core host asserts only no-regression "
            "(>= 0.9x) and records the measured serialization stall "
            "without claiming a reduction it could not have bought "
            "throughput with. engine_wait_seconds is the cumulative "
            "dispatch-to-solve-start wait; with several workers batches "
            "start instantly, so on any host it collapses toward zero "
            "and the contention moves into the solve (visible on one "
            "core as flat q/s, on many cores as the speedup)."
        ),
    }


def main(out_path: str = "BENCH_parallel.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    print(
        f"parallel query serving on {dataset['n_nodes']} nodes "
        f"({dataset['n_clusters']} clusters), concurrency "
        f"{record['concurrency']}, cpu_count={record['cpu_count']} "
        f"({record['regime']})"
    )
    header = (
        f"{'workers':>7s} {'q/s':>9s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'stall(s)':>9s} {'identical':>9s}"
    )
    print(header)
    for entry in record["trajectory"]:
        latency = entry["latency_ms"]
        print(
            f"{entry['query_workers']:7d} {entry['qps']:9.1f} "
            f"{latency['p50_ms']:8.2f} {latency['p99_ms']:8.2f} "
            f"{entry['engine_wait_seconds']:9.3f} "
            f"{'yes':>9s}"
        )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"trajectory written to {out_path}")

    speedup = record["speedup_w_max_vs_w1"]
    target = record["target_speedup"]
    if speedup < target:
        print(
            f"FAIL: q/s at W={WORKER_COUNTS[-1]} is {speedup:.2f}x the W=1 "
            f"baseline; the {record['regime']} floor is {target}x",
            file=sys.stderr,
        )
        return 1
    stall = record["serialization_stall"]
    if record["cpu_count"] >= 4 and stall["w1_seconds"] > 0.05:
        if stall["w_max_seconds"] >= stall["w1_seconds"]:
            print(
                f"FAIL: serialization stall did not shrink "
                f"({stall['w1_seconds']:.3f}s -> "
                f"{stall['w_max_seconds']:.3f}s)",
                file=sys.stderr,
            )
            return 1
    print(
        f"OK ({record['regime']}): q/s at W={WORKER_COUNTS[-1]} is "
        f"{speedup:.2f}x the single-worker baseline (floor {target}x); "
        f"serialization stall {stall['w1_seconds']:.3f}s -> "
        f"{stall['w_max_seconds']:.3f}s; answers identical at every "
        "worker count"
    )
    return 0


# -- pytest entry points (identity attestation at any scale) ----------------


@pytest.fixture(scope="module")
def small_ranker():
    from benchmarks.conftest import get_graph

    graph = get_graph("coil")
    labels = louvain(graph.adjacency)
    return MogulRanker.from_index(
        graph, MogulIndex.build(graph, cluster_labels=labels)
    )


@pytest.mark.parametrize("query_workers", WORKER_COUNTS)
def test_served_answers_identical_at_any_pool_size(small_ranker, query_workers):
    entry = _measure_worker_count(small_ranker, query_workers, 64, 10)
    assert entry["answers_identical"]
    assert entry["engine_wait_seconds"] >= 0.0


def test_record_shape():
    record_keys = {
        "benchmark",
        "trajectory",
        "cpu_count",
        "speedup_w_max_vs_w1",
        "target_speedup",
        "serialization_stall",
    }
    # A tiny run through the same code path the full run uses.
    record = run_benchmark(
        scale=0.2, n_requests=32, worker_counts=(1, 2)
    )
    assert record_keys <= set(record)
    assert all(entry["answers_identical"] for entry in record["trajectory"])


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
