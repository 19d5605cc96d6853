"""Query availability during index rebuilds: background vs. stop-the-world.

ISSUE 5's acceptance story: the paper's precomputation is cheap enough
to re-run as the database changes — but only if re-running it does not
take the serving path down.  This benchmark measures exactly that, at
the engine layer (no HTTP noise): a closed-loop query thread runs while
the index is rebuilt two ways on the same mutated database:

* ``stop_the_world`` — :func:`_rebuild_holding_lock`, the baseline
  without a background worker: the whole graph + factorization happens
  while holding the mutation lock, so a concurrent query stalls for the
  whole build;
* ``background`` — :meth:`LiveEngine.rebuild_async`: the build runs on a
  worker thread and only the atomic epoch swap takes the lock.

**What is asserted.**  On a single-CPU host a background rebuild
*time-shares* with queries, so wall-clock latency overlap is not the
honest metric (both modes slow down while the build burns CPU).  The
critical-path metric is the **lock-wait on the query path**
(:attr:`LiveEngine.snapshot_stall_seconds` — the only place a query can
block): stop-the-world stalls a query for ~the full rebuild, background
for ~the swap (microseconds).  The run asserts

* the worst background query stall is a small fraction of the worst
  stop-the-world stall (default <= 5%), and
* both modes produce **bitwise identical** answers afterwards (the
  rebuild-equivalence property, attested per run).

Two entry points:

* ``python benchmarks/bench_live_mutation.py`` — the full run (INRIA
  substitute, 10k nodes), prints the table, asserts the headline and
  writes ``BENCH_live.json``.
* ``pytest benchmarks/bench_live_mutation.py`` — a reduced-scale pass
  of the same harness (respects ``REPRO_BENCH_SCALE``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.live import LiveEngine, RebuildTicket
from repro.datasets.registry import load_dataset
from repro.service.metrics import LatencyHistogram

FULL_RUN_SCALE = 1.25
FULL_RUN_INSERTS = 48
FULL_RUN_K = 10
#: Acceptance ceiling: worst background stall over worst blocking stall.
TARGET_STALL_FRACTION = 0.05


def _mutated_engine(
    features: np.ndarray, n_inserts: int, seed: int
) -> LiveEngine:
    """A LiveEngine over ``features`` with a deterministic write buffer."""
    engine = LiveEngine(features, auto_rebuild_fraction=None)
    rng = np.random.default_rng(seed)
    for _ in range(n_inserts):
        base = features[int(rng.integers(features.shape[0]))]
        engine.add(base + rng.normal(scale=0.05, size=features.shape[1]))
    return engine


def _rebuild_holding_lock(engine: LiveEngine) -> None:
    """Build while *holding* the mutation lock, then swap.

    The same build and swap a background rebuild runs, minus the
    worker thread: every concurrent query stalls for the whole build.
    """
    with engine._lock:
        snapshot_ids = engine._live_ids()
        epoch = engine._build_epoch(snapshot_ids, number=-1)
        engine._install_epoch(epoch, snapshot_ids, RebuildTicket())


def _query_load(
    engine: LiveEngine,
    k: int,
    stop: threading.Event,
    records: list,
    seed: int,
) -> None:
    """Closed-loop queries against stable (initial) ids, with stall deltas.

    One query thread -> the engine-wide stall counter's delta around a
    call is exactly that call's lock-wait.
    """
    rng = np.random.default_rng(seed)
    n = engine.graph.features.shape[0]
    while not stop.is_set():
        query = int(rng.integers(n))
        stall_before = engine.snapshot_stall_seconds
        started = time.perf_counter()
        engine.top_k(query, k)
        finished = time.perf_counter()
        records.append(
            (
                started,
                finished,
                finished - started,
                engine.snapshot_stall_seconds - stall_before,
            )
        )


def _measure_mode(
    features: np.ndarray,
    mode: str,
    n_inserts: int,
    k: int,
    seed: int,
) -> tuple[dict, LiveEngine]:
    """Run one rebuild mode under query load; returns (record, engine)."""
    engine = _mutated_engine(features, n_inserts, seed)
    engine.top_k(0, k)  # warm allocation paths, untimed
    records: list = []
    stop = threading.Event()
    thread = threading.Thread(
        target=_query_load,
        args=(engine, k, stop, records, seed + 1),
        daemon=True,
    )
    thread.start()
    time.sleep(0.1)  # let the load reach steady state

    rebuild_started = time.perf_counter()
    swap_seconds = None
    if mode == "stop_the_world":
        _rebuild_holding_lock(engine)
    else:
        ticket = engine.rebuild_async()
        assert ticket.wait(600), "background rebuild never finished"
        if ticket.error is not None:
            raise ticket.error
        swap_seconds = ticket.swap_seconds
    rebuild_finished = time.perf_counter()

    time.sleep(0.05)
    stop.set()
    thread.join(timeout=600)
    assert not thread.is_alive()

    # Queries whose lifetime overlaps the rebuild window are the ones
    # the rebuild could have stalled.
    window = [
        (latency, stall)
        for started, finished, latency, stall in records
        if finished >= rebuild_started and started <= rebuild_finished
    ]
    latencies = LatencyHistogram()
    stalls = [stall for _, stall in window]
    for latency, _ in window:
        latencies.observe(latency)
    record = {
        "mode": mode,
        "rebuild_seconds": rebuild_finished - rebuild_started,
        "swap_seconds": swap_seconds,
        "queries_total": len(records),
        "queries_during_rebuild": len(window),
        "max_stall_seconds": max(stalls, default=0.0),
        "total_stall_seconds": float(sum(stalls)),
        "latency_during_rebuild": latencies.summary(),
        "epoch_after": engine.epoch,
        "n_pending_after": engine.n_pending,
    }
    return record, engine


def _attest_identity(a: LiveEngine, b: LiveEngine, k: int, seed: int) -> int:
    """Both modes must serve bitwise identical answers after rebuilding."""
    rng = np.random.default_rng(seed)
    n = min(a.n_total, b.n_total)
    queries = rng.integers(n, size=16)
    checked = 0
    for query in queries:
        ra = a.top_k(int(query), k)
        rb = b.top_k(int(query), k)
        assert np.array_equal(ra.indices, rb.indices), int(query)
        assert np.array_equal(ra.scores, rb.scores), int(query)
        checked += 1
    return checked


def run_benchmark(
    scale: float = FULL_RUN_SCALE,
    n_inserts: int = FULL_RUN_INSERTS,
    k: int = FULL_RUN_K,
    seed: int = 0,
) -> dict:
    dataset = load_dataset("inria", scale=scale, seed=seed)
    features = dataset.features

    blocking, blocking_engine = _measure_mode(
        features, "stop_the_world", n_inserts, k, seed
    )
    background, background_engine = _measure_mode(
        features, "background", n_inserts, k, seed
    )
    identity_checked = _attest_identity(
        blocking_engine, background_engine, k, seed
    )
    blocking_engine.close()
    background_engine.close()

    stall_fraction = (
        background["max_stall_seconds"] / blocking["max_stall_seconds"]
        if blocking["max_stall_seconds"] > 0
        else 0.0
    )
    return {
        "benchmark": "live_mutation",
        "dataset": {
            "name": "inria",
            "scale": scale,
            "n_nodes": int(features.shape[0]),
            "n_dims": int(features.shape[1]),
        },
        "n_inserts": n_inserts,
        "k": k,
        # Single-CPU honesty: a background rebuild time-shares with
        # queries, so the asserted metric is critical-path lock-wait
        # (snapshot stall), not wall-clock latency overlap.
        "cpu_count": os.cpu_count(),
        "modes": [blocking, background],
        "headline": {
            "blocking_max_stall_seconds": blocking["max_stall_seconds"],
            "background_max_stall_seconds": background["max_stall_seconds"],
            "background_swap_seconds": background["swap_seconds"],
            "stall_fraction": stall_fraction,
            "target_stall_fraction": TARGET_STALL_FRACTION,
            "identity_queries_checked": identity_checked,
        },
    }


def main(out_path: str = "BENCH_live.json") -> int:
    record = run_benchmark()
    dataset = record["dataset"]
    print(
        f"live mutation on {dataset['n_nodes']} nodes "
        f"({record['n_inserts']} buffered inserts, k={record['k']}, "
        f"{record['cpu_count']} CPUs)"
    )
    header = (
        f"{'mode':>16s} {'rebuild_s':>10s} {'swap_s':>10s} "
        f"{'max_stall_s':>12s} {'q_during':>9s} {'p95_ms':>8s}"
    )
    print(header)
    for mode in record["modes"]:
        swap = mode["swap_seconds"]
        print(
            f"{mode['mode']:>16s} {mode['rebuild_seconds']:10.3f} "
            f"{(f'{swap:.6f}' if swap is not None else '-'):>10s} "
            f"{mode['max_stall_seconds']:12.6f} "
            f"{mode['queries_during_rebuild']:9d} "
            f"{mode['latency_during_rebuild']['p95_ms']:8.2f}"
        )
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"trajectory written to {out_path}")

    headline = record["headline"]
    print(
        f"worst query stall: stop-the-world "
        f"{headline['blocking_max_stall_seconds']:.3f}s vs background "
        f"{headline['background_max_stall_seconds'] * 1e3:.3f}ms "
        f"(swap {headline['background_swap_seconds'] * 1e3:.3f}ms) = "
        f"{100 * headline['stall_fraction']:.2f}% of blocking"
    )
    if headline["stall_fraction"] > TARGET_STALL_FRACTION:
        print(
            f"FAIL: background stall fraction "
            f"{headline['stall_fraction']:.4f} > {TARGET_STALL_FRACTION}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: background rebuild stalls queries <= "
        f"{100 * TARGET_STALL_FRACTION:.0f}% of stop-the-world "
        f"(answers attested bitwise identical on "
        f"{headline['identity_queries_checked']} queries)"
    )
    return 0


# -- pytest entry points (reduced scale) -----------------------------------

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def test_background_rebuild_stalls_less_than_blocking():
    """The harness itself, at smoke scale: ordering + identity hold."""
    record = run_benchmark(
        scale=0.25 * BENCH_SCALE, n_inserts=12, k=5, seed=3
    )
    headline = record["headline"]
    blocking, background = record["modes"]
    assert blocking["epoch_after"] == 1
    assert background["epoch_after"] == 1
    assert background["n_pending_after"] == 0
    # The stop-the-world rebuild must actually have stalled someone for
    # a macroscopic fraction of the build; the background one must not.
    assert blocking["max_stall_seconds"] > 0
    assert (
        headline["background_max_stall_seconds"]
        <= headline["blocking_max_stall_seconds"]
    )
    assert headline["identity_queries_checked"] == 16


def test_stall_accounting_is_consistent():
    record = run_benchmark(scale=0.2 * BENCH_SCALE, n_inserts=6, k=5, seed=5)
    for mode in record["modes"]:
        assert mode["queries_during_rebuild"] <= mode["queries_total"]
        # max over the window can never exceed the sum over the window.
        assert mode["max_stall_seconds"] <= mode["total_stall_seconds"] + 1e-12
        assert mode["rebuild_seconds"] > 0


if __name__ == "__main__":
    sys.exit(main())
