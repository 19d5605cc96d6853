"""The per-layer probe battery of a traced run.

One function, identical for every workload, run on the workload's own
corpus (features, graph, clustering, index, saved artifact) after its
traffic has finished.  Every layer is measured **from outside**: public
functions are timed directly, nested paths are differenced, and the
server is observed through ``/proc/<pid>`` and the documents it already
publishes (``/metrics``).  Metrics marked *P* in the README come from
those documents and are void for a change that moves the counter.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
from harness import cpu_seconds, percentile_ms
from workloads import K, KNN, N_SHARDS, PROBE_IN_SAMPLE, ServerProcess

from repro.core.bounds import precompute_cluster_bounds
from repro.core.engine import engine_from_index
from repro.core.index import MogulRanker
from repro.core.live import LiveEngine
from repro.core.out_of_sample import build_query_seeds
from repro.core.permutation import build_permutation
from repro.core.serialize import load_any_index
from repro.core.sharded import ShardedMogulIndex
from repro.core.solver import ClusterSolver
from repro.linalg.ldl import incomplete_ldl
from repro.ranking.normalize import ranking_matrix
from repro.service.admission import AdmissionController
from repro.service.cache import ResultCache
from repro.service.scheduler import MicroBatchScheduler

BUDGET_FRACTION = 0.4  # of the sharded index's evictable bytes
PENDING = 128  # pending-buffer size of the live-engine cost probe


def _each_us(fn, argument_sets) -> list[float]:
    """Wall time of every ``fn(*args)`` call, in microseconds."""
    out = []
    for args in argument_sets:
        started = time.perf_counter()
        fn(*args)
        out.append(1e6 * (time.perf_counter() - started))
    return out


def _block_us(fn, args, blocks: int = 7, per_block: int = 1000) -> list[float]:
    """Per-call microseconds of a sub-microsecond call, block-timed."""
    out = []
    for _ in range(blocks):
        started = time.perf_counter()
        for _ in range(per_block):
            fn(*args)
        out.append(1e6 * (time.perf_counter() - started) / per_block)
    return out


def _thrice(fn, *args) -> tuple[object, list[float]]:
    """``fn(*args)`` three times: last result and the three wall times."""
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - started)
    return result, seconds


def run_battery(w, rec) -> None:
    """Measure every layer on workload ``w``'s corpus into recorder ``rec``."""
    reps = 30 if w.cfg.smoke else 200
    nodes = [int(v) for v in w.pool[:reps]]
    batches = [w.pool[i : i + 32] for i in range(0, 32 * max(reps // 10, 3), 32)]
    oos = w.oos[: max(reps // 2, 8)]

    _build_side(w, rec)
    flat = engine_from_index(w.graph, w.index)
    _engine(w, rec, flat, nodes, batches, oos)
    sharded_path = _sharded(w, rec, nodes, batches, oos)
    _budgeted(w, rec, sharded_path, nodes[: max(reps // 2, 8)])
    _scheduler(w, rec, flat, nodes)
    _cache_admission(rec)
    _live(w, rec, nodes[: max(reps // 2, 8)])
    _http(w, rec, nodes, oos)


def _build_side(w, rec) -> None:
    """`MogulIndex.build`'s stages, called directly on the same inputs."""
    adjacency = w.graph.adjacency
    permutation, seconds = _thrice(
        lambda: build_permutation(adjacency, cluster_labels=w.labels)
    )
    rec.layer("core.permutation.build_s", "s", seconds)
    permuted = permutation.permute_matrix(ranking_matrix(adjacency, w.index.alpha))
    factors, seconds = _thrice(
        lambda: incomplete_ldl(permuted, blocks=permutation.cluster_slices)
    )
    rec.layer("linalg.ldl.factor_s", "s", seconds)
    _, seconds = _thrice(precompute_cluster_bounds, factors, permutation)
    rec.layer("core.bounds.precompute_s", "s", seconds)
    _, seconds = _thrice(ClusterSolver, factors, permutation)
    rec.layer("core.solver.pack_s", "s", seconds)
    border = permutation.border_slice
    rec.layer("core.index.n_clusters", "count", permutation.n_clusters)
    rec.layer("core.index.border_size", "count", border.stop - border.start)
    rec.layer("linalg.ldl.factor_nnz", "count", int(factors.nnz))
    _, seconds = _thrice(load_any_index, w.flat_path)
    rec.layer("core.serialize.load_s", "s", seconds)


def _engine(w, rec, flat, nodes, batches, oos) -> None:
    """The flat engine's entry points and the kernels under them."""
    rec.layer("core.index.top_k_us", "us", _each_us(flat.top_k, [(q, K) for q in nodes]))
    rec.layer(
        "core.batch.top_k_batch32_us_per_query", "us",
        [t / 32 for t in _each_us(flat.top_k_batch, [(b, K) for b in batches])],
    )  # fmt: skip
    rec.layer(
        "core.out_of_sample.top_k_us", "us",
        _each_us(flat.top_k_out_of_sample, [(f, K) for f in oos]),
    )  # fmt: skip
    index = w.index
    rhs = []
    for q in nodes[: len(oos)]:
        q_vec = np.zeros(index.n_nodes)
        q_vec[index.permutation.inverse[q]] = 1.0 - index.alpha
        rhs.append((q_vec,))
    rec.layer("core.solver.solve_us", "us", _each_us(index.solver.solve, rhs))
    border = index.permutation.border_slice
    magnitudes = np.abs(w.rng.normal(size=(len(nodes), border.stop - border.start)))
    rec.layer(
        "core.bounds.estimate_all_us", "us",
        _each_us(index.bounds_table.estimate_all, [(row,) for row in magnitudes]),
    )  # fmt: skip
    graph = w.graph
    seeds_args = [
        (f, index.cluster_means, index.cluster_members, graph.features, graph.k, graph.sigma)
        for f in oos
    ]  # fmt: skip
    rec.layer(
        "core.out_of_sample.build_seeds_us", "us", _each_us(build_query_seeds, seeds_args)
    )
    # Exact pruning counters over the fixed probe set (they repeat run to run).
    stats = [flat.top_k_with_stats(int(q), K)[1] for q in w.pool[:PROBE_IN_SAMPLE]]
    for metric, unit, field in (
        ("core.search.prune_fraction", "ratio", "prune_fraction"),
        ("core.search.nodes_scored_per_query", "count", "nodes_scored"),
        ("core.search.bound_evaluations_per_query", "count", "bound_evaluations"),
    ):
        rec.layer(metric, unit, np.mean([getattr(s, field) for s in stats]))


def _sharded(w, rec, nodes, batches, oos):
    """Sharded S=4 build and the same three entry points; returns its path."""
    started = time.perf_counter()
    index = ShardedMogulIndex.build(w.graph, N_SHARDS, cluster_labels=w.labels)
    rec.layer("core.sharded.build_s", "s", time.perf_counter() - started)
    path = w.tmp / "probe-sharded"
    index.save(path)
    engine = engine_from_index(w.graph, load_any_index(path))
    rec.layer("core.sharded.top_k_us", "us", _each_us(engine.top_k, [(q, K) for q in nodes]))
    rec.layer(
        "core.sharded.top_k_batch32_us_per_query", "us",
        [t / 32 for t in _each_us(engine.top_k_batch, [(b, K) for b in batches])],
    )  # fmt: skip
    rec.layer(
        "core.sharded.oos_top_k_us", "us",
        _each_us(engine.top_k_out_of_sample, [(f, K) for f in oos]),
    )  # fmt: skip
    return path


def _budgeted(w, rec, sharded_path, nodes) -> None:
    """40 % residency budget with int8 bound tables: latency and churn."""
    sizing = load_any_index(sharded_path)
    manager = sizing.configure_memory_budget(None)  # accounting only
    for shard_id in range(sizing.n_shards):
        sizing.shard_state(shard_id)
    budget_mb = BUDGET_FRACTION * manager.resident_bytes / (1 << 20)
    index = load_any_index(sharded_path)
    engine = engine_from_index(
        w.graph, index, memory_budget_mb=budget_mb, bounds_dtype="int8"
    )
    before = index.residency_snapshot()
    rec.layer(
        "core.sharded.budgeted_top_k_us", "us", _each_us(engine.top_k, [(q, K) for q in nodes])
    )
    after = index.residency_snapshot()
    for metric, counter in (("faults", "faults_total"), ("evictions", "evictions_total")):
        rec.layer(
            f"core.sharded.{metric}_per_query", "count",
            (after[counter] - before[counter]) / len(nodes),
        )  # fmt: skip


def _scheduler(w, rec, engine, nodes) -> None:
    """One lone coroutine (the coalescing deadline) and a 32-wide burst."""

    async def probe():
        async with MicroBatchScheduler(engine) as scheduler:
            lone = []
            for q in nodes:
                started = time.perf_counter()
                await scheduler.search(q, K)
                lone.append(1e6 * (time.perf_counter() - started))
            queries, dispatches = scheduler.queries_dispatched, scheduler.batches_dispatched
            waited = scheduler.engine_wait_seconds

            async def lane(offset: int) -> None:
                for q in nodes[offset::2][:16]:
                    await scheduler.search(q, K)

            await asyncio.gather(*(lane(c % 2) for c in range(32)))
            queries = scheduler.queries_dispatched - queries
            dispatches = scheduler.batches_dispatched - dispatches
            waited = scheduler.engine_wait_seconds - waited
        return lone, queries / dispatches, 1e3 * waited / queries

    lone, mean_batch, wait_per_1000 = asyncio.run(probe())
    roundtrip = rec.layer("service.scheduler.roundtrip_us", "us", lone).value
    rec.layer(
        "service.scheduler.overhead_us", "us", roundtrip - rec.value("core.index.top_k_us")
    )
    rec.layer("service.scheduler.mean_batch_size", "count", mean_batch)
    rec.layer("service.scheduler.engine_wait_s", "s", wait_per_1000)


def _cache_admission(rec) -> None:
    cache = ResultCache(1024)
    keys = [ResultCache.node_key(node, K, exclude=True) for node in range(1024)]
    for key in keys:
        cache.put(key, key)
    rec.layer("service.cache.get_us", "us", _block_us(cache.get, (keys[512],)))
    rec.layer("service.cache.put_us", "us", _block_us(cache.put, (keys[512], None)))
    admission = AdmissionController(max_queue_depth=1024)
    rec.layer("service.admission.decide_us", "us", _block_us(admission.decide, (8, False)))


def _live(w, rec, nodes) -> None:
    """The pending-buffer cost curve of the live engine, in process."""
    live = LiveEngine.from_engine(
        MogulRanker.from_index(w.graph, w.index), k=KNN, auto_rebuild_fraction=None
    )
    try:
        queries = [(q, K) for q in nodes]
        rec.layer("core.live.top_k_us_pending0", "us", _each_us(live.top_k, queries))
        rec.layer("core.live.add_us", "us", _each_us(live.add, [(f,) for f in w.oos[:PENDING]]))
        rec.layer(f"core.live.top_k_us_pending{PENDING}", "us", _each_us(live.top_k, queries))
        started = time.perf_counter()
        live.rebuild()
        rec.layer("core.live.rebuild_s", "s", time.perf_counter() - started)
    finally:
        live.close()


def _http(w, rec, nodes, oos) -> None:
    """A static probe server: shell floor, per-request CPU, stage p50s (P),
    and the cost of the shipped request tracing against ``--no-tracing``."""
    features_path = w.tmp / "probe-features.npy"
    np.save(features_path, w.features)
    args = ("--cache-capacity", "0")
    default = ServerProcess(w.root, w.tmp, w.flat_path, features_path, args)
    untraced = ServerProcess(
        w.root, w.tmp, w.flat_path, features_path, (*args, "--no-tracing")
    )
    try:
        started = time.perf_counter()
        client = default.start()
        rec.layer("service.server.start_s", "s", time.perf_counter() - started)
        quiet = untraced.start()
        healthz = _each_us(client.healthz, [()] * len(nodes))
        rec.layer("service.server.healthz_ms", "ms", [t / 1e3 for t in healthz])

        server_cpu, client_cpu = cpu_seconds(default.pid), time.process_time()
        search = _each_us(client.search, [(q, K) for q in nodes])
        search_oos = _each_us(client.search_out_of_sample, [(f, K) for f in oos])
        requests = len(search) + len(search_oos)
        rec.layer(
            "service.server.cpu_ms_per_request", "ms",
            1e3 * (cpu_seconds(default.pid) - server_cpu) / requests,
        )  # fmt: skip
        rec.layer(
            "service.client.cpu_ms_per_request", "ms",
            1e3 * (time.process_time() - client_cpu) / requests,
        )  # fmt: skip
        p50 = rec.layer("service.server.search_p50_ms", "ms", [t / 1e3 for t in search]).value
        rec.layer("service.server.search_oos_p50_ms", "ms", [t / 1e3 for t in search_oos])
        rec.layer(
            "service.client.latency_p99_ms", "ms",
            percentile_ms([t / 1e6 for t in search + search_oos], 99),
        )  # fmt: skip
        rec.layer(
            "service.server.shell_ms", "ms",
            p50 - rec.value("service.scheduler.roundtrip_us") / 1e3,
        )  # fmt: skip
        stages = client.metrics()["stages"]
        for metric, stage in (
            ("scheduler_wait", "scheduler.wait"),
            ("engine_dispatch", "engine.dispatch"),
            ("scan_clusters", "scan.clusters"),
        ):
            rec.layer(f"obs.stage.{metric}_ms", "ms", stages[stage]["p50_ms"])

        # Interleaved windows on the two servers; medians, never best-of.
        window_s, rounds = (0.25, 2) if w.cfg.smoke else (1.0, 3)
        rates: dict[bool, list[float]] = {True: [], False: []}
        cursor = 0
        for _ in range(rounds):
            for traced, target in ((True, client), (False, quiet)):
                done, started = 0, time.perf_counter()
                while time.perf_counter() - started < window_s:
                    target.search(nodes[cursor % len(nodes)], K)
                    cursor += 1
                    done += 1
                rates[traced].append(done / (time.perf_counter() - started))
        rec.layer(
            "obs.trace.overhead_share", "ratio",
            1.0 - float(np.median(rates[True])) / float(np.median(rates[False])),
        )  # fmt: skip
        client.close()
        quiet.close()
    finally:
        default.stop()
        untraced.stop()
