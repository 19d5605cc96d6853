"""Tests for memory-budgeted serving (LRU shard residency + compact bounds).

The contract is exacting on purpose: under ANY memory budget and ANY
bound-table representation, the sharded engine's answers — indices,
scores, tie-breaks — and its per-query :class:`SearchStats` are bitwise
identical to the unbudgeted float64 engine.  Eviction and quantization
may change *when* bytes are resident and *how* bounds are evaluated,
never *what* is answered.  Alongside the identity property this module
regression-tests the three bugfixes that rode along: the lazy-load race
(per-shard once locks), the mmap fd leak (loaders own a close path,
exercised across 100 evict/reload cycles), and the cold-server
``Retry-After`` divide-by-zero (the delay estimate clamps before the
first batch completes).
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.bounds as bounds_module
from repro.core.bounds import (
    BOUND_TABLE_DTYPES,
    BoundsTable,
    CompactBoundsTable,
)
from repro.core.engine import engine_from_index
from repro.core.index import MogulIndex
from repro.core.serialize import (
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.core.sharded import (
    ShardedMogulIndex,
    ShardedMogulRanker,
    ShardResidencyManager,
)
from repro.core.spectral import SpectralIndex
from repro.graph.build import build_knn_graph
from tests.conftest import three_cluster_features

QUERY_SET = (0, 7, 45, 90, 131, 170)
TOP_K = 10


@pytest.fixture(scope="module")
def graph():
    features, _ = three_cluster_features(per_cluster=60, dim=8)
    return build_knn_graph(features, k=5)


@pytest.fixture(scope="module")
def saved_index(graph, tmp_path_factory):
    index = ShardedMogulIndex.build(graph, 4)
    path = tmp_path_factory.mktemp("budget") / "idx.shards"
    save_sharded_index(index, path)
    return path


@pytest.fixture(scope="module")
def reference(graph, saved_index):
    """Unbudgeted float64 answers + stats for the whole query set."""
    ranker = ShardedMogulRanker.from_index(
        graph, load_sharded_index(saved_index)
    )
    answers = {}
    for query in QUERY_SET:
        result = ranker.top_k(query, TOP_K)
        answers[query] = (result, ranker.last_stats)
    return answers


def _random_table(rng, n_clusters=12, n_border=30, density=0.3, scale=1.0):
    mask = rng.random((n_clusters, n_border)) < density
    values = rng.random((n_clusters, n_border)) * scale * mask
    matrix = sp.csr_matrix(values)
    growth = 1.0 + rng.random(n_clusters) * 3.0
    growth[rng.random(n_clusters) < 0.1] = np.inf  # saturated rows
    return BoundsTable(matrix=matrix, growth=growth)


class TestCompactBoundsTable:
    """The quantized tables must *certify* the exact float64 bound."""

    @pytest.mark.parametrize("dtype", ("float32", "int8"))
    def test_bands_bracket_exact_bound(self, dtype):
        rng = np.random.default_rng(11)
        for trial in range(60):
            table = _random_table(rng, scale=10.0 ** rng.integers(-3, 4))
            compact = CompactBoundsTable.from_table(table, dtype)
            x = rng.random(table.matrix.shape[1]) * 2.0
            exact = table.estimate_all(x)
            lo, hi = compact.estimate_bands(x)
            assert np.all(lo <= exact), (dtype, trial)
            assert np.all(exact <= hi), (dtype, trial)

    @pytest.mark.parametrize("dtype", ("float32", "int8"))
    def test_bands_bracket_batched_queries(self, dtype):
        rng = np.random.default_rng(5)
        table = _random_table(rng)
        compact = CompactBoundsTable.from_table(table, dtype)
        x = rng.random((table.matrix.shape[1], 7))
        exact = table.estimate_all(x)
        lo, hi = compact.estimate_bands(x)
        assert lo.shape == hi.shape == exact.shape
        assert np.all(lo <= exact)
        assert np.all(exact <= hi)

    def test_zero_base_is_exactly_zero(self):
        # estimate_all clamps base <= 0 rows to a hard 0.0; the compact
        # band must reproduce that exactly (0.0 * inf growth is the case
        # where "approximately zero" would poison the bound with NaN).
        matrix = sp.csr_matrix(np.array([[0.0, 0.0], [0.5, 0.0]]))
        table = BoundsTable(matrix=matrix, growth=np.array([np.inf, 2.0]))
        for dtype in ("float32", "int8"):
            lo, hi = CompactBoundsTable.from_table(
                table, dtype
            ).estimate_bands(np.array([0.0, 1.0]))
            assert lo[0] == 0.0 and hi[0] == 0.0

    def test_float32_underflow_row_is_always_ambiguous(self):
        # An entry too small for float32 cannot be widened multiplicatively;
        # the whole row must degrade to the (0, inf) never-certain band.
        tiny = float(np.finfo(np.float64).tiny)
        matrix = sp.csr_matrix(np.array([[tiny, 0.0], [0.5, 0.25]]))
        table = BoundsTable(matrix=matrix, growth=np.array([2.0, 2.0]))
        compact = CompactBoundsTable.from_table(table, "float32")
        lo, hi = compact.estimate_bands(np.array([1.0, 1.0]))
        assert lo[0] == 0.0 and hi[0] == np.inf
        exact = table.estimate_all(np.array([1.0, 1.0]))
        assert lo[1] <= exact[1] <= hi[1] < np.inf

    def test_compact_tables_are_smaller(self):
        table = _random_table(np.random.default_rng(2), n_clusters=40)
        exact_bytes = (
            table.matrix.data.nbytes
            + table.matrix.indices.nbytes
            + table.matrix.indptr.nbytes
            + table.growth.nbytes
        )
        f32 = CompactBoundsTable.from_table(table, "float32").nbytes
        i8 = CompactBoundsTable.from_table(table, "int8").nbytes
        assert i8 < f32 < exact_bytes

    def test_unknown_dtype_rejected(self):
        table = _random_table(np.random.default_rng(0))
        with pytest.raises(ValueError, match="dtype"):
            CompactBoundsTable.from_table(table, "int4")
        assert "float64" in BOUND_TABLE_DTYPES


class TestShardResidencyManager:
    def test_accounting_and_lru_victim(self):
        mgr = ShardResidencyManager(budget_bytes=250, n_shards=3)
        mgr.on_materialize(0, 100)
        mgr.on_materialize(1, 100)
        assert mgr.resident_bytes == 200
        assert mgr.pick_victim() is None  # under budget
        mgr.on_materialize(2, 100)
        mgr.touch(0)  # 1 is now least recently used
        assert mgr.pick_victim() == 1
        assert mgr.begin_evict(1)
        assert mgr.resident_bytes == 200
        assert mgr.evictions_total == 1

    def test_pins_block_eviction(self):
        mgr = ShardResidencyManager(budget_bytes=50, n_shards=2)
        mgr.on_materialize(0, 100)
        mgr.pin(0)
        assert mgr.pick_victim() is None
        assert not mgr.begin_evict(0)
        mgr.unpin(0)
        assert mgr.pick_victim() == 0
        mgr.unpin(0)  # over-unpin clamps, never goes negative
        assert mgr.snapshot()["shards"][0]["pins"] == 0

    def test_refault_counts_as_fault(self):
        mgr = ShardResidencyManager(budget_bytes=None, n_shards=1)
        mgr.on_materialize(0, 10)
        mgr.on_materialize(0, 10)  # idempotent while resident
        assert mgr.loads_total == 1 and mgr.faults_total == 0
        assert mgr.begin_evict(0)
        mgr.on_materialize(0, 10)
        assert mgr.loads_total == 2 and mgr.faults_total == 1

    def test_unbudgeted_never_picks_a_victim(self):
        mgr = ShardResidencyManager(budget_bytes=None, n_shards=2)
        mgr.on_materialize(0, 1 << 30)
        mgr.on_materialize(1, 1 << 30)
        assert mgr.pick_victim() is None

    def test_snapshot_surface(self):
        mgr = ShardResidencyManager(budget_bytes=100, n_shards=2)
        mgr.on_materialize(0, 60)
        mgr.pin(0)
        snap = mgr.snapshot()
        for key in (
            "budget_bytes",
            "resident_bytes",
            "pinned_bytes",
            "shards_resident",
            "loads_total",
            "faults_total",
            "evictions_total",
            "evicted_bytes_total",
            "bound_fallbacks_total",
            "peak_resident_bytes",
            "shards",
        ):
            assert key in snap, key
        assert snap["pinned_bytes"] == 60
        assert snap["shards"][0]["resident"] is True
        assert snap["shards"][1]["resident"] is False


class TestBudgetedIdentity:
    """The tentpole property: budget/dtype never change an answer."""

    @pytest.mark.parametrize("bounds_dtype", BOUND_TABLE_DTYPES)
    @pytest.mark.parametrize("query_jobs", (1, 4))
    def test_sharded_bitwise_identity_under_eviction(
        self, graph, saved_index, reference, bounds_dtype, query_jobs
    ):
        index = load_sharded_index(saved_index)
        # A budget this small cannot hold even one shard: every scan
        # faults its shard back in and evictions happen mid-stream.
        mgr = index.configure_memory_budget(
            0.005, bounds_dtype=bounds_dtype
        )
        ranker = ShardedMogulRanker.from_index(
            graph, index, query_jobs=query_jobs
        )
        for query in QUERY_SET:
            expected, expected_stats = reference[query]
            result = ranker.top_k(query, TOP_K)
            assert np.array_equal(result.indices, expected.indices)
            assert np.array_equal(result.scores, expected.scores)
            assert ranker.last_stats == expected_stats
        assert mgr.evictions_total > 0
        assert mgr.faults_total > 0

    def test_flags_are_noops_on_flat_and_spectral(self, graph, tmp_path):
        flat_path = tmp_path / "flat.npz"
        save_index(MogulIndex.build(graph), flat_path)
        from repro.core.serialize import load_any_index

        flat = load_any_index(flat_path)
        plain = engine_from_index(graph, load_any_index(flat_path))
        budgeted = engine_from_index(
            graph, flat, memory_budget_mb=0.001, bounds_dtype="int8"
        )
        for query in QUERY_SET[:3]:
            a = plain.top_k(query, TOP_K)
            b = budgeted.top_k(query, TOP_K)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores, b.scores)

    def test_tiered_base_accepts_budget(self, graph, saved_index):
        spectral = SpectralIndex.build(graph, rank=8)
        plain = engine_from_index(
            graph, load_sharded_index(saved_index), spectral=spectral
        )
        budgeted = engine_from_index(
            graph,
            load_sharded_index(saved_index),
            spectral=spectral,
            memory_budget_mb=0.005,
            bounds_dtype="float32",
        )
        for query in QUERY_SET[:3]:
            a = plain.top_k(query, TOP_K)
            b = budgeted.top_k(query, TOP_K)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.scores, b.scores)

    def test_budget_validation(self, saved_index):
        index = load_sharded_index(saved_index)
        with pytest.raises(ValueError, match="positive"):
            index.configure_memory_budget(0.0)
        with pytest.raises(ValueError, match="bounds_dtype"):
            index.configure_memory_budget(1.0, bounds_dtype="int4")


class TestQuantizedFallback:
    @pytest.mark.parametrize("dtype", ("float32", "int8"))
    def test_ambiguous_band_falls_back_to_exact(
        self, graph, saved_index, reference, monkeypatch, dtype
    ):
        # Blow the certification band wide open (lo deeply negative, hi
        # effectively infinite): every cluster with a nonzero compact
        # estimate becomes ambiguous, so the scan MUST exercise the
        # exact-fallback path — and still answer bitwise identically,
        # because a wider *sound* band changes only the cost, never the
        # decision (the fallback re-derives it from the float64 table).
        monkeypatch.setattr(
            bounds_module, "COMPACT_RELATIVE_SLACK", 1e30
        )
        index = load_sharded_index(saved_index)
        mgr = index.configure_memory_budget(None, bounds_dtype=dtype)
        ranker = ShardedMogulRanker.from_index(graph, index)
        for query in QUERY_SET:
            expected, expected_stats = reference[query]
            result = ranker.top_k(query, TOP_K)
            assert np.array_equal(result.indices, expected.indices)
            assert np.array_equal(result.scores, expected.scores)
            assert ranker.last_stats == expected_stats
        assert mgr.bound_fallbacks_total > 0

    def test_fallback_counter_reaches_the_snapshot(
        self, graph, saved_index, monkeypatch
    ):
        monkeypatch.setattr(
            bounds_module, "COMPACT_RELATIVE_SLACK", 1e30
        )
        index = load_sharded_index(saved_index)
        index.configure_memory_budget(None, bounds_dtype="int8")
        ranker = ShardedMogulRanker.from_index(graph, index)
        for query in QUERY_SET:
            ranker.top_k(query, TOP_K)
        snap = index.residency_snapshot()
        assert snap["bounds_dtype"] == "int8"
        assert snap["bound_fallbacks_total"] > 0


class TestLazyLoadRace:
    def test_cold_engine_hammered_from_four_threads(
        self, graph, saved_index, reference
    ):
        # Regression: two threads used to race load_rows() on the same
        # cold shard, one winning and one crashing (or double-loading).
        # The per-shard once lock makes materialization exactly-once.
        for _ in range(5):  # several cold starts to give the race air
            index = load_sharded_index(saved_index)
            mgr = index.configure_memory_budget(None)  # accounting only
            ranker = ShardedMogulRanker.from_index(graph, index)
            barrier = threading.Barrier(4)

            def hammer(worker):
                barrier.wait()
                out = []
                for query in QUERY_SET:
                    out.append(ranker.top_k(query, TOP_K))
                return out

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                all_answers = list(pool.map(hammer, range(4)))
            # Exactly one materialization per shard despite 4 threads
            # arriving cold at once.
            assert mgr.loads_total == index.n_shards
            assert mgr.faults_total == 0
            for answers in all_answers:
                for query, result in zip(QUERY_SET, answers):
                    expected, _ = reference[query]
                    assert np.array_equal(result.indices, expected.indices)
                    assert np.array_equal(result.scores, expected.scores)

    def test_parallel_scans_race_eviction(self, graph, saved_index, reference):
        # query_jobs workers pin shards mid-scan while a tiny budget
        # forces the engine to evict between (never during) scans.
        index = load_sharded_index(saved_index)
        index.configure_memory_budget(0.005, bounds_dtype="float32")
        ranker = ShardedMogulRanker.from_index(graph, index, query_jobs=4)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            results = list(
                pool.map(
                    lambda q: ranker.top_k(q, TOP_K), QUERY_SET * 3
                )
            )
        for query, result in zip(QUERY_SET * 3, results):
            expected, _ = reference[query]
            assert np.array_equal(result.indices, expected.indices)
            assert np.array_equal(result.scores, expected.scores)


class TestFdStability:
    def test_fd_count_stable_across_100_evict_reload_cycles(
        self, graph, saved_index
    ):
        # Regression: evicted shards left their np.memmap fds open, so a
        # budgeted server leaked one fd per fault until EMFILE.
        index = load_sharded_index(saved_index)
        index.configure_memory_budget(0.005)
        ranker = ShardedMogulRanker.from_index(graph, index)
        ranker.top_k(QUERY_SET[0], TOP_K)  # settle lazy imports etc.
        before = len(os.listdir("/proc/self/fd"))
        for cycle in range(100):
            ranker.top_k(QUERY_SET[cycle % len(QUERY_SET)], TOP_K)
        after = len(os.listdir("/proc/self/fd"))
        assert index.residency.evictions_total >= 100
        # Allow a tiny wobble (the listing itself opens a dirfd) but
        # nothing remotely like one fd per eviction.
        assert abs(after - before) <= 3

    def test_loader_close_is_idempotent(self, saved_index):
        index = load_sharded_index(saved_index)
        loader = index._sources[0]
        loader()  # map the shard
        loader.close()
        loader.close()  # second close is a no-op, not an error
        loader()  # and the loader still works after closing
        loader.close()


class TestColdServerRetryAfter:
    def test_delay_estimate_clamps_on_zero_mean(self):
        from repro.service.admission import AdmissionController

        class _Hist:
            count = 4
            mean_seconds = 0.0

        class _Metrics:
            mean_batch_size = 0.0

            def stage_histograms(self):
                return {"engine.dispatch": _Hist()}

        controller = AdmissionController(
            max_queue_depth=4, metrics=_Metrics()
        )
        # Regression: count > 0 with a zero mean (or zero batch size)
        # used to divide by zero inside the estimate.
        assert controller.estimated_queue_delay_seconds(10) is None
        assert controller.retry_after_seconds(10) == 1.0

    def test_delay_estimate_clamps_on_nan_mean(self):
        from repro.service.admission import AdmissionController

        class _Hist:
            count = 1
            mean_seconds = float("nan")

        class _Metrics:
            mean_batch_size = 2.0

            def stage_histograms(self):
                return {"engine.dispatch": _Hist()}

        controller = AdmissionController(
            max_queue_depth=4, metrics=_Metrics()
        )
        assert controller.estimated_queue_delay_seconds(5) is None
        assert controller.retry_after_seconds(5) == 1.0

    @pytest.mark.timeout(60)
    def test_cold_server_429_has_integral_retry_after(self, graph):
        # A 429 on the very first requests — before any batch completes —
        # must carry Retry-After: 1, not crash computing the estimate.
        from repro.core.index import MogulRanker
        from repro.service.client import RetrievalClient
        from repro.service.faults import FaultInjector
        from repro.service.server import BackgroundServer

        ranker = MogulRanker(graph)
        with BackgroundServer(
            ranker,
            port=0,
            max_batch_size=1,
            cache_capacity=0,
            max_queue_depth=1,
            overload_policy="shed",
            # Slow solves, so the concurrent arrivals really queue.
            faults=FaultInjector.parse("engine.solve:latency:20"),
        ) as server:

            def one_search(worker):
                with RetrievalClient(port=server.port) as client:
                    return client._raw(
                        "POST", "/search", {"query": worker, "k": 5}
                    )

            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                responses = list(pool.map(one_search, range(16)))
            statuses = {status for status, _, _ in responses}
            assert 500 not in statuses
            sheds = [r for r in responses if r[0] == 429]
            assert sheds
            for _, headers, _ in sheds:
                retry_after = {
                    k.lower(): v for k, v in headers.items()
                }["retry-after"]
                assert int(retry_after) >= 1


class TestServerResidencySurface:
    @pytest.fixture(scope="class")
    def budget_server(self, graph, saved_index):
        from repro.service.server import BackgroundServer

        index = load_sharded_index(saved_index)
        ranker = engine_from_index(
            graph,
            index,
            memory_budget_mb=0.005,
            bounds_dtype="int8",
            query_jobs=2,
        )
        with BackgroundServer(
            ranker,
            port=0,
            max_batch_size=4,
            cache_capacity=0,
            query_workers=2,
        ) as server:
            from repro.service.client import RetrievalClient

            with RetrievalClient(port=server.port) as client:
                for query in QUERY_SET:
                    client.search(query, k=5)
                yield client

    @pytest.mark.timeout(60)
    def test_stats_expose_residency(self, budget_server):
        residency = budget_server.stats()["index"]["residency"]
        assert residency["enabled"] is True
        assert residency["bounds_dtype"] == "int8"
        assert residency["evictions_total"] > 0
        assert residency["faults_total"] > 0
        assert residency["budget_bytes"] == int(0.005 * (1 << 20))
        assert len(residency["shards"]) == residency["n_shards"]
        for shard in residency["shards"]:
            assert {"shard_id", "resident", "bytes", "pins", "lru_age"} <= set(
                shard
            )

    @pytest.mark.timeout(60)
    def test_metrics_json_expose_residency(self, budget_server):
        metrics = budget_server.metrics()
        assert metrics["residency"]["evictions_total"] > 0

    @pytest.mark.timeout(60)
    def test_prometheus_residency_families(self, budget_server):
        exposition = budget_server.prometheus_metrics()
        for family in (
            "repro_resident_bytes",
            "repro_memory_budget_bytes",
            "repro_pinned_bytes",
            "repro_shards_resident",
            "repro_bounds_bytes",
            "repro_shard_loads_total",
            "repro_shard_faults_total",
            "repro_shard_evictions_total",
            "repro_shard_evicted_bytes_total",
            "repro_bound_fallbacks_total",
        ):
            assert f"\n{family} " in exposition, family
        line = next(
            l
            for l in exposition.splitlines()
            if l.startswith("repro_shard_evictions_total ")
        )
        assert float(line.split()[1]) > 0

    @pytest.mark.timeout(60)
    def test_unbudgeted_sharded_server_still_accounts(
        self, graph, saved_index
    ):
        from repro.service.client import RetrievalClient
        from repro.service.server import BackgroundServer

        ranker = engine_from_index(graph, load_sharded_index(saved_index))
        with BackgroundServer(
            ranker, port=0, cache_capacity=0
        ) as server:
            with RetrievalClient(port=server.port) as client:
                client.search(0, k=5)
                residency = client.stats()["index"]["residency"]
                assert residency["enabled"] is False
                assert residency["bounds_bytes"] >= 0
                exposition = client.prometheus_metrics()
                assert "\nrepro_resident_bytes " in exposition
