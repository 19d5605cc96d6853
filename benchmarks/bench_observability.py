"""Observability overhead: tracing must be close to free on the hot path.

The tracing subsystem instruments every layer of the serving stack
(request → scheduler wait → engine dispatch → solve stages), and its
design contract is that the instrumentation is cheap enough to leave on
in production.  This benchmark certifies that contract end to end over
real HTTP:

* **Enforced gate** — with tracing **on** (every request builds a span
  tree, feeds the per-stage histograms and is offered to the flight
  recorder), closed-loop throughput at concurrency
  ``FULL_RUN_CONCURRENCY`` must stay within ``TARGET_OVERHEAD`` (5%) of
  the same server with tracing **off**.  Both servers are identical
  builds on the same index; passes alternate on/off and each side keeps
  its best pass, so machine noise cannot manufacture a miss.
* **Asserted shape** — a traced ``/search?debug=trace`` must return a
  span tree containing the scheduler wait, the engine dispatch and the
  seed forward solve with non-negative durations.  This is the "does
  the trace actually explain the request" check, and it is asserted,
  not merely measured.
* **Recorded, not enforced** — the tracing-off throughput next to the
  scheduler-layer numbers of ``BENCH_serving.json`` (the PR-6 era
  baseline).  Those sweeps exclude HTTP transport, so the comparison is
  informational only.

Two entry points:

* ``python benchmarks/bench_observability.py`` — full 10k-node run;
  prints the on/off sweep, writes ``BENCH_obs.json``, exits non-zero
  when the overhead gate or a span-tree assertion fails.
* ``pytest benchmarks/bench_observability.py`` — span-tree shape and
  record-shape checks on the small conftest graph (CI smoke; no perf
  assertions — tiny inputs are all overhead).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.clustering.louvain import louvain
from repro.core.index import MogulIndex, MogulRanker
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from repro.service.client import RetrievalClient, run_load_test
from repro.service.server import BackgroundServer

#: INRIA substitute at this scale = the synthetic 10k-node graph.
FULL_RUN_SCALE = 1.25
FULL_RUN_CONCURRENCY = 32
FULL_RUN_REQUESTS = 2048
FULL_RUN_K = 10
#: Enforced ceiling: fractional q/s loss with tracing on vs off.
TARGET_OVERHEAD = 0.05
#: Interleaved timing passes per side (best-of, to shed noise).
PASSES = 3


def collect_trace(port: int, query: int, k: int) -> dict:
    """One traced request; returns the rendered span tree document."""
    with RetrievalClient(port=port) as client:
        status, headers, text = client._raw(
            "POST", "/search?debug=trace", {"query": int(query), "k": int(k)}
        )
    if status != 200:
        raise AssertionError(f"traced search failed: {status} {text}")
    payload = json.loads(text)
    if headers.get("X-Repro-Trace-Id") != payload["trace_id"]:
        raise AssertionError("trace id header does not match the payload")
    return payload["trace"]


def _index_spans(tree: dict, into: dict | None = None) -> dict:
    into = {} if into is None else into
    into.setdefault(tree["name"], []).append(tree)
    for child in tree.get("children", ()):
        _index_spans(child, into)
    return into


def assert_span_tree(trace: dict, required: dict[str, bool]) -> dict:
    """Check stage presence; ``required[name]`` True demands duration > 0.

    Returns ``{name: duration_ms}`` for the required stages (the record
    written to ``BENCH_obs.json`` as evidence).
    """
    spans = _index_spans(trace["root"])
    durations: dict[str, float] = {}
    for name, nonzero in required.items():
        if name not in spans:
            raise AssertionError(
                f"span {name!r} missing from trace (got {sorted(spans)})"
            )
        duration = max(node["duration_ms"] for node in spans[name])
        if nonzero and not duration > 0:
            raise AssertionError(f"span {name!r} has zero duration")
        if duration < 0:
            raise AssertionError(f"span {name!r} has negative duration")
        durations[name] = duration
    return durations


def measure_side(ranker, tracing: bool, concurrency: int, n_requests: int) -> dict:
    """One server side (tracing on or off): start, warm, return a prober.

    Returns the live :class:`BackgroundServer`; timing passes are driven
    from outside so the on/off sides can be interleaved.
    """
    server = BackgroundServer(
        ranker,
        port=0,
        max_batch_size=64,
        tracing=tracing,
    )
    # Warm: JIT-free Python, but first requests pay cache/page effects.
    run_load_test(
        port=server.port,
        concurrency=concurrency,
        total_requests=max(64, n_requests // 8),
        k=FULL_RUN_K,
        seed=1,
    )
    return server


def one_pass(server, concurrency: int, n_requests: int, seed: int) -> dict:
    report = run_load_test(
        port=server.port,
        concurrency=concurrency,
        total_requests=n_requests,
        k=FULL_RUN_K,
        seed=seed,
    )
    if not report.ok:
        raise AssertionError(
            f"load test unhealthy: {report.n_errors} errors, "
            f"{report.n_empty} empty answers"
        )
    return report.to_dict()


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    concurrency: int = FULL_RUN_CONCURRENCY,
    n_requests: int = FULL_RUN_REQUESTS,
    passes: int = PASSES,
    seed: int = 0,
) -> dict:
    """The full certification record (dataset build through gates)."""
    dataset = load_dataset("inria", scale=scale, seed=seed)
    graph = build_knn_graph(dataset.features, k=5, jobs=2)
    labels = louvain(graph.adjacency)
    index = MogulIndex.build(graph, cluster_labels=labels)
    ranker = MogulRanker.from_index(graph, index)

    # -- span-shape assertions -------------------------------------------
    flat_server = measure_side(ranker, True, concurrency=4, n_requests=64)
    try:
        flat_trace = collect_trace(flat_server.port, graph.n_nodes - 1, FULL_RUN_K)
        flat_durations = assert_span_tree(
            flat_trace,
            {
                "scheduler.wait": False,  # sub-ms wait may round to ~0
                "engine.dispatch": True,
                "solve.seed_forward": False,
            },
        )
    finally:
        flat_server.stop()

    # -- the enforced overhead gate -------------------------------------
    on_server = measure_side(ranker, True, concurrency, n_requests)
    off_server = measure_side(ranker, False, concurrency, n_requests)
    on_passes, off_passes = [], []
    try:
        for i in range(passes):  # interleave so drift hits both sides
            on_passes.append(one_pass(on_server, concurrency, n_requests, 10 + i))
            off_passes.append(one_pass(off_server, concurrency, n_requests, 10 + i))
        traced_metrics = on_server.server.metrics.snapshot()
        with RetrievalClient(port=on_server.port) as client:
            slow = client.slowlog()
            prometheus_ok = "repro_requests_total" in client.prometheus_metrics()
    finally:
        on_server.stop()
        off_server.stop()

    best_on = max(entry["throughput_rps"] for entry in on_passes)
    best_off = max(entry["throughput_rps"] for entry in off_passes)
    overhead = max(0.0, 1.0 - best_on / best_off)
    overhead_met = best_on >= (1.0 - TARGET_OVERHEAD) * best_off

    return {
        "benchmark": "observability_overhead",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "n_clusters": index.n_clusters,
        },
        "k": FULL_RUN_K,
        "concurrency": concurrency,
        "n_requests": n_requests,
        "passes": passes,
        "cpu_count": os.cpu_count(),
        "throughput": {
            "tracing_on_qps": best_on,
            "tracing_off_qps": best_off,
            "overhead_fraction": overhead,
            "on_passes_qps": [entry["throughput_rps"] for entry in on_passes],
            "off_passes_qps": [entry["throughput_rps"] for entry in off_passes],
        },
        "latency": {
            "tracing_on": on_passes[-1]["latency"],
            "tracing_off": off_passes[-1]["latency"],
        },
        "trace_evidence": {
            "flat_stage_durations_ms": flat_durations,
            "stage_histograms_fed": sorted(traced_metrics["stages"]),
            "slowlog_retained": slow["slowlog"]["retained"],
            "prometheus_scrape_ok": bool(prometheus_ok),
        },
        "targets": {
            "tracing_overhead_fraction": {
                "goal": TARGET_OVERHEAD,
                "measured": overhead,
                "met": bool(overhead_met),
                "enforced": True,
            },
            "span_tree_explains_request": {
                "goal": True,
                "measured": True,  # asserted above; a miss raises
                "met": True,
                "enforced": True,
            },
            "tracing_off_vs_scheduler_baseline": {
                "goal": None,
                "measured": best_off,
                "met": None,
                "enforced": False,
            },
        },
        "notes": (
            "Throughput is closed-loop over real HTTP (run_load_test), so "
            "the off-side number is not comparable to the transport-free "
            "scheduler sweeps in BENCH_serving.json — that row is recorded "
            "for context only. The enforced gate is the on/off ratio on "
            "identical servers with interleaved best-of passes."
        ),
    }


def main(out_path: str = "BENCH_obs.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    throughput = record["throughput"]
    print(
        f"observability overhead on {dataset['n_nodes']} nodes "
        f"({dataset['n_clusters']} clusters, concurrency "
        f"{record['concurrency']}, cpu_count={record['cpu_count']})"
    )
    print(
        f"tracing on:  {throughput['tracing_on_qps']:8.1f} q/s  "
        f"(passes: "
        + ", ".join(f"{qps:.1f}" for qps in throughput["on_passes_qps"])
        + ")"
    )
    print(
        f"tracing off: {throughput['tracing_off_qps']:8.1f} q/s  "
        f"(passes: "
        + ", ".join(f"{qps:.1f}" for qps in throughput["off_passes_qps"])
        + ")"
    )
    evidence = record["trace_evidence"]
    print(
        "traced stages (flat): "
        + ", ".join(
            f"{name} {ms:.3f}ms"
            for name, ms in evidence["flat_stage_durations_ms"].items()
        )
    )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"certification written to {out_path}")

    gate = record["targets"]["tracing_overhead_fraction"]
    if not gate["met"]:
        print(
            f"FAIL: tracing overhead {100 * gate['measured']:.2f}% > "
            f"{100 * gate['goal']:.0f}% of q/s at concurrency "
            f"{record['concurrency']}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: tracing overhead {100 * gate['measured']:.2f}% <= "
        f"{100 * gate['goal']:.0f}%; span trees explain the request"
    )
    return 0


# -- pytest entry points (shape attestations at any scale) ------------------


@pytest.fixture(scope="module")
def small_ranker():
    from benchmarks.conftest import get_graph

    graph = get_graph("coil")
    labels = louvain(graph.adjacency)
    return graph, MogulRanker.from_index(
        graph, MogulIndex.build(graph, cluster_labels=labels)
    )


def test_flat_span_tree_explains_request(small_ranker):
    graph, ranker = small_ranker
    with BackgroundServer(ranker, port=0) as server:
        trace = assert_span_tree(
            collect_trace(server.port, 0, 5),
            {
                "scheduler.wait": False,
                "engine.dispatch": True,
                "solve.seed_forward": False,
            },
        )
    assert set(trace) == {"scheduler.wait", "engine.dispatch", "solve.seed_forward"}


def test_overhead_record_shape(small_ranker):
    """The measurement loop produces a well-formed record (no perf gate)."""
    graph, ranker = small_ranker
    server = measure_side(ranker, True, concurrency=4, n_requests=32)
    try:
        entry = one_pass(server, concurrency=4, n_requests=32, seed=3)
    finally:
        server.stop()
    assert entry["n_requests"] == 32
    assert entry["throughput_rps"] > 0
    assert entry["latency"]["count"] >= 32


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
