"""Memory-budgeted serving — LRU shard residency under a byte cap.

A sharded index larger than RAM used to be unservable: every shard,
once faulted in, stayed resident forever.  With a residency budget
(``--memory-budget-mb``) the engine keeps only what fits, evicts the
least-recently-used shard state back to its mmap loader, and re-faults
it on demand — with **answers bitwise identical to the fully-resident
engine**, because eviction changes where bytes live, never what is
computed.  Compact bound tables (``--bounds-dtype float32|int8``) shrink
the always-resident pruning surface the same way: certified [lo, hi]
bands decide the easy clusters, and anything within quantization error
of the threshold falls back to the exact float64 table.

This benchmark serves the same sharded artifact twice — fully resident,
then under a budget of **at most half** its evictable bytes — drives
both with closed-loop load whose every response is verified bitwise
against a local fully-resident reference engine, and reports:

* **resident cap honored** — the budgeted run's evictable resident
  bytes never need more than the budget plus one in-flight shard (pins
  are never evicted mid-scan, so the overshoot bound is the largest
  pinned shard, not unbounded growth).
* **eviction actually happened** — eviction + fault counters from
  ``/stats`` must be positive, otherwise the run proved nothing.
* **q/s degradation** — the measured cost of re-faulting shards from
  disk, reported as ``budgeted q/s / resident q/s`` (recorded, and
  gated only against collapse: the budgeted engine must keep at least
  ``MIN_THROUGHPUT_RETENTION`` of the fully-resident throughput on this
  mmap-backed artifact).
* **identity under active eviction** — the load test's bitwise check is
  enforced *while* shards are being evicted and re-faulted under it.

Two entry points:

* ``python benchmarks/bench_memory_budget.py`` — the full run on the
  synthetic inria graph (8 shards); prints the table, enforces the
  gates, writes ``BENCH_memory.json``.
* ``pytest benchmarks/bench_memory_budget.py`` — identity attestation
  at ``REPRO_BENCH_SCALE`` (CI smoke; no perf assertions).
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core.engine import engine_from_index
from repro.core.serialize import load_sharded_index, save_sharded_index
from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from repro.service.client import RetrievalClient, run_load_test
from repro.service.server import BackgroundServer

FULL_RUN_SCALE = 1.0
FULL_RUN_SHARDS = 8
FULL_RUN_REQUESTS = 384
FULL_RUN_K = 10
CONCURRENCY = 16
MAX_BATCH_SIZE = 8
#: The budget is this fraction of the measured evictable bytes — at most
#: half, so the cap provably cannot hold the whole index and eviction
#: must happen under load.
BUDGET_FRACTION = 0.4
#: Collapse floor for the recorded q/s degradation.  The load test's
#: queries are uniform-random and scatter-gather visits every shard, so
#: a budget holding B of S shards re-faults ~(S - B) shards per query —
#: the worst possible locality.  Substantial degradation is therefore
#: expected and *recorded*; the floor only catches a pathological
#: eviction storm (thrashing without forward progress).
MIN_THROUGHPUT_RETENTION = 0.10


def _measured_evictable_bytes(path) -> int:
    """Materialise every shard once and read back the accounted bytes."""
    index = load_sharded_index(path)
    manager = index.configure_memory_budget(None)  # accounting only
    for shard_id in range(index.n_shards):
        index.shard_state(shard_id)
    return int(manager.resident_bytes)


def _serve_and_load(
    graph, path, reference, n_requests: int, k: int, **engine_kwargs
) -> dict:
    """One serving pass: load the artifact, serve it, verify under load."""
    index = load_sharded_index(path)
    ranker = engine_from_index(graph, index, **engine_kwargs)
    with BackgroundServer(
        ranker,
        port=0,
        max_batch_size=MAX_BATCH_SIZE,
        cache_capacity=0,
    ) as server:
        run_load_test(  # warm-up: fault shards, spin the engine thread
            port=server.port,
            concurrency=CONCURRENCY,
            total_requests=2 * CONCURRENCY,
            k=k,
        )
        report = run_load_test(
            port=server.port,
            concurrency=CONCURRENCY,
            total_requests=n_requests,
            k=k,
            check_against=reference.top_k,
        )
        with RetrievalClient(port=server.port) as client:
            residency = client.stats()["index"]["residency"]
            exposition = client.prometheus_metrics()
    if not report.ok:
        raise AssertionError(
            f"identity/load gate failed ({engine_kwargs or 'resident'}): "
            f"{report.n_errors} errors (mismatches count as errors), "
            f"{report.n_empty} empty"
        )
    assert "repro_resident_bytes" in exposition
    return {
        "qps": report.throughput_rps,
        "latency_ms": report.latency.summary(),
        "n_requests": report.n_requests,
        "answers_identical": True,
        "residency": residency,
    }


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    n_shards: int = FULL_RUN_SHARDS,
    n_requests: int = FULL_RUN_REQUESTS,
    k: int = FULL_RUN_K,
    seed: int = 0,
    bounds_dtype: str = "int8",
    workdir: str | None = None,
) -> dict:
    """Serve resident, then budgeted; return the comparison record."""
    dataset = load_dataset("inria", scale=scale, seed=seed)
    graph = build_knn_graph(dataset.features, k=5, jobs=2)
    index = ShardedMogulIndex.build(graph, n_shards)
    workdir = workdir or tempfile.mkdtemp(prefix="bench_memory_")
    path = Path(workdir) / "idx.shards"
    save_sharded_index(index, path)
    del index

    reference = ShardedMogulRanker.from_index(graph, load_sharded_index(path))
    evictable_bytes = _measured_evictable_bytes(path)
    budget_bytes = int(evictable_bytes * BUDGET_FRACTION)
    budget_mb = budget_bytes / (1 << 20)

    resident = _serve_and_load(graph, path, reference, n_requests, k)
    budgeted = _serve_and_load(
        graph,
        path,
        reference,
        n_requests,
        k,
        memory_budget_mb=budget_mb,
        bounds_dtype=bounds_dtype,
    )

    residency = budgeted["residency"]
    shard_bytes = [shard["bytes"] for shard in residency["shards"]]
    throughput_retention = budgeted["qps"] / resident["qps"]
    return {
        "benchmark": "memory_budget",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_shards": n_shards,
        },
        "k": k,
        "concurrency": CONCURRENCY,
        "max_batch_size": MAX_BATCH_SIZE,
        "n_requests": n_requests,
        "bounds_dtype": bounds_dtype,
        "evictable_bytes_full": evictable_bytes,
        "budget_bytes": budget_bytes,
        "budget_fraction": budget_bytes / evictable_bytes,
        "resident": {key: resident[key] for key in ("qps", "latency_ms")},
        "budgeted": {key: budgeted[key] for key in ("qps", "latency_ms")},
        "throughput_retention": throughput_retention,
        "min_throughput_retention": MIN_THROUGHPUT_RETENTION,
        "eviction": {
            "evictions_total": residency["evictions_total"],
            "faults_total": residency["faults_total"],
            "evicted_bytes_total": residency["evicted_bytes_total"],
            "bound_fallbacks_total": residency["bound_fallbacks_total"],
            "peak_resident_bytes": residency["peak_resident_bytes"],
            "largest_shard_bytes": max(shard_bytes, default=0),
            "bounds_bytes": residency["bounds_bytes"],
        },
        "rss_max_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "answers_identical": (
            resident["answers_identical"] and budgeted["answers_identical"]
        ),
        "notes": (
            "Identity is enforced during the load itself: every budgeted "
            "response is checked bitwise against a local fully-resident "
            "reference engine while shards are being evicted and "
            "re-faulted under it. The budget is at most half the "
            "measured evictable bytes, so the cap cannot hold the whole "
            "index and the eviction counters must be positive for the "
            "run to pass. peak_resident_bytes may exceed the budget by "
            "up to the pinned in-flight shards (a mid-scan shard is "
            "never evicted); it must stay below budget plus "
            "n_query_slots * largest_shard_bytes. Throughput retention "
            "is the recorded q/s degradation of serving from mmap under "
            "the cap."
        ),
    }


def main(out_path: str = "BENCH_memory.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    eviction = record["eviction"]
    print(
        f"memory-budgeted serving on {dataset['n_nodes']} nodes, "
        f"{dataset['n_shards']} shards, bounds_dtype="
        f"{record['bounds_dtype']}"
    )
    print(
        f"evictable bytes {record['evictable_bytes_full']} -> budget "
        f"{record['budget_bytes']} ({100 * record['budget_fraction']:.0f}%)"
    )
    header = (
        f"{'mode':>9s} {'q/s':>9s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'identical':>9s}"
    )
    print(header)
    for mode in ("resident", "budgeted"):
        entry = record[mode]
        latency = entry["latency_ms"]
        print(
            f"{mode:>9s} {entry['qps']:9.1f} {latency['p50_ms']:8.2f} "
            f"{latency['p99_ms']:8.2f} {'yes':>9s}"
        )
    print(
        f"evictions={eviction['evictions_total']} "
        f"faults={eviction['faults_total']} "
        f"bound_fallbacks={eviction['bound_fallbacks_total']} "
        f"peak_resident={eviction['peak_resident_bytes']} "
        f"rss_max_kb={record['rss_max_kb']}"
    )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {out_path}")

    if record["budget_fraction"] > 0.5:
        print(
            f"FAIL: budget is {100 * record['budget_fraction']:.0f}% of the "
            "evictable bytes; the run must cap below half",
            file=sys.stderr,
        )
        return 1
    if eviction["evictions_total"] <= 0 or eviction["faults_total"] <= 0:
        print(
            "FAIL: no evictions/faults occurred — the budget never bound",
            file=sys.stderr,
        )
        return 1
    overshoot_cap = record["budget_bytes"] + (
        CONCURRENCY * eviction["largest_shard_bytes"]
    )
    if eviction["peak_resident_bytes"] > overshoot_cap:
        print(
            f"FAIL: peak resident {eviction['peak_resident_bytes']} exceeds "
            f"budget + pinned-shard allowance {overshoot_cap}",
            file=sys.stderr,
        )
        return 1
    retention = record["throughput_retention"]
    if retention < record["min_throughput_retention"]:
        print(
            f"FAIL: budgeted throughput collapsed to {retention:.2f}x the "
            f"fully-resident baseline "
            f"(floor {record['min_throughput_retention']}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: answers identical under active eviction "
        f"({eviction['evictions_total']} evictions, "
        f"{eviction['faults_total']} faults); q/s retention "
        f"{retention:.2f}x under a {100 * record['budget_fraction']:.0f}% "
        "budget"
    )
    return 0


# -- pytest entry points (identity attestation at any scale) ----------------


@pytest.fixture(scope="module")
def sharded_artifact(tmp_path_factory):
    from benchmarks.conftest import get_graph

    graph = get_graph("coil")
    index = ShardedMogulIndex.build(graph, 4)
    path = tmp_path_factory.mktemp("bench_memory") / "idx.shards"
    save_sharded_index(index, path)
    return graph, path


@pytest.mark.parametrize("bounds_dtype", ("float64", "int8"))
def test_served_answers_identical_under_eviction(
    sharded_artifact, bounds_dtype
):
    graph, path = sharded_artifact
    reference = ShardedMogulRanker.from_index(
        graph, load_sharded_index(path)
    )
    entry = _serve_and_load(
        graph,
        path,
        reference,
        64,
        10,
        memory_budget_mb=0.005,
        bounds_dtype=bounds_dtype,
    )
    assert entry["answers_identical"]
    assert entry["residency"]["evictions_total"] > 0
    assert entry["residency"]["faults_total"] > 0


def test_record_shape(tmp_path):
    record = run_benchmark(
        scale=0.2,
        n_shards=2,
        n_requests=32,
        workdir=str(tmp_path),
    )
    assert record["answers_identical"]
    assert record["budget_fraction"] <= 0.5
    assert record["eviction"]["evictions_total"] > 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
