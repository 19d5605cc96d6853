"""Tests for the sharded index subsystem (repro.core.sharded).

The contract under test is strong by design: for any shard count, the
sharded index is the *same* factorization as the unsharded one (bitwise,
and equal to the dict-of-rows oracle up to summation order), and the
scatter-gather engine returns answers — indices, scores, tie-breaks,
lengths — identical to the single-index engine on every entry point.  Persistence round-trips through the directory layout
with lazy shard materialisation.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.bounds as bounds_module
import repro.core.sharded as sharded_module
from repro.core.bounds import BoundsTable, precompute_cluster_bounds
from repro.core.engine import Engine, engine_from_index
from repro.core.index import MogulIndex, MogulRanker
from repro.core.search import TopKAccumulator
from repro.core.serialize import (
    load_any_index,
    load_sharded_index,
    save_index,
    save_sharded_index,
)
from repro.core.sharded import (
    ShardedMogulIndex,
    ShardedMogulRanker,
    plan_shards,
)
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from tests import oracles
from tests.conftest import graph_from_adjacency, three_cluster_features

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def graph():
    features, _ = three_cluster_features(per_cluster=60, dim=8)
    return build_knn_graph(features, k=5)


@pytest.fixture(scope="module")
def base_ranker(graph):
    return MogulRanker(graph)


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def sharded(request, graph):
    index = ShardedMogulIndex.build(graph, request.param)
    return ShardedMogulRanker.from_index(graph, index)


def _assert_results_equal(a, b):
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)


class TestPlanShards:
    def test_partitions_interior_clusters(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        layout = plan_shards(slices, 3)
        covered = []
        for lo, hi in layout.cluster_ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(len(slices) - 1))
        assert layout.spans[0][0] == 0
        assert layout.spans[-1][1] == slices[-1].start
        for (_, stop), (start, _) in zip(layout.spans, layout.spans[1:]):
            assert stop == start

    def test_clamped_to_interior_count(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        layout = plan_shards(slices, 10_000)
        assert layout.n_shards == len(slices) - 1

    def test_single_shard(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        layout = plan_shards(slices, 1)
        assert layout.n_shards == 1
        assert layout.spans == ((0, slices[-1].start),)

    def test_deterministic(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        assert plan_shards(slices, 3) == plan_shards(slices, 3)

    def test_balance_not_degenerate(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        layout = plan_shards(slices, 2)
        sizes = [stop - start for start, stop in layout.spans]
        assert min(sizes) > 0
        # Contiguous balanced cuts: no shard should dwarf the other by
        # more than the largest single cluster.
        largest = max(sl.stop - sl.start for sl in slices[:-1])
        assert abs(sizes[0] - sizes[1]) <= largest

    def test_rejects_bad_counts(self, base_ranker):
        slices = base_ranker.index.permutation.cluster_slices
        with pytest.raises(ValueError):
            plan_shards(slices, 0)


class TestFactorIdentity:
    def test_factors_bitwise_identical(self, graph, base_ranker, sharded):
        factors = sharded.index.assemble_factors()
        reference = base_ranker.index.factors
        assert np.array_equal(
            factors.lower.indptr, reference.lower.indptr
        )
        assert np.array_equal(
            factors.lower.indices, reference.lower.indices
        )
        assert np.array_equal(factors.lower.data, reference.lower.data)
        assert np.array_equal(factors.diag, reference.diag)
        assert factors.pivot_perturbations == reference.pivot_perturbations

    def test_reference_backend_matches_unsharded_reference(self, graph):
        # The span-wise factors against the dict-of-rows oracle run on
        # the same permuted W (the oracle Louvain gives the same labels).
        with oracles.reference_kernels():
            base = MogulIndex.build(graph)
        factors = ShardedMogulIndex.build(graph, 2).assemble_factors()
        assert np.array_equal(factors.lower.indptr, base.factors.lower.indptr)
        assert np.array_equal(factors.lower.indices, base.factors.lower.indices)
        np.testing.assert_allclose(
            factors.lower.data, base.factors.lower.data, rtol=1e-9, atol=1e-13
        )
        np.testing.assert_allclose(factors.diag, base.factors.diag, rtol=1e-9)

    def test_complete_factorization_supported(self, graph):
        base = MogulIndex.build(graph, factorization="complete")
        shard = ShardedMogulIndex.build(graph, 2, factorization="complete")
        assert np.array_equal(
            shard.assemble_factors().lower.data, base.factors.lower.data
        )

    def test_factor_nnz_matches(self, base_ranker, sharded):
        assert sharded.index.factor_nnz == base_ranker.index.factor_nnz


def _blob_graph(seed: int, n_blobs: int, per_blob: int):
    """Gaussian blobs close enough that k-NN edges cross between them."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(n_blobs, 4))
    features = np.vstack(
        [c + rng.normal(size=(per_blob, 4)) for c in centers]
    )
    labels = np.repeat(np.arange(n_blobs, dtype=np.int64), per_blob)
    return build_knn_graph(features, k=4), labels


def _csr_bytes(matrix):
    return (
        matrix.shape,
        matrix.data.tobytes(),
        matrix.indices.tobytes(),
        matrix.indptr.tobytes(),
    )


def _carve_bytes(blocks, couplings, bounds):
    """Every array of a carve, as bytes (dtype changes show as well)."""
    return (
        [(b.n, b._buffer.tobytes() if b.n > 1 else b"") for b in blocks],
        [_csr_bytes(c) for c in couplings],
        [
            (
                b.border_cols.tobytes(),
                b.border_maxima.tobytes(),
                b.internal_max,
                b.size,
            )
            for b in bounds
        ],
    )


class TestOneCarve:
    """Every shard count carves the flat solver's blocks, couplings and bounds.

    The shard states, concatenated in shard order, hold byte for byte
    the flat :class:`ClusterSolver`'s per-cluster blocks and couplings and
    :func:`precompute_cluster_bounds`' data, and the stacked bound table
    is the flat one; the sharded answers rest on this.
    """

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_blobs=st.integers(min_value=3, max_value=6),
        per_blob=st.integers(min_value=6, max_value=14),
    )
    @pytest.mark.parametrize(
        "variant", ("fill0", "fill2", "complete", "loaded")
    )
    def test_shard_states_concatenate_to_flat(
        self, variant, seed, n_blobs, per_blob
    ):
        graph, labels = _blob_graph(seed, n_blobs, per_blob)
        options = {
            "fill0": {},
            "fill2": {"fill_level": 2},
            "complete": {"factorization": "complete"},
            "loaded": {},
        }[variant]
        flat = MogulIndex.build(graph, cluster_labels=labels, **options)
        assume(flat.n_clusters > 1)  # a shard needs an interior cluster
        expected = _carve_bytes(
            flat.solver.blocks,
            flat.solver.couplings,
            precompute_cluster_bounds(flat.factors, flat.permutation),
        )
        for n_shards in (1, 2, 3, 4):
            index = ShardedMogulIndex.build(
                graph, n_shards, cluster_labels=labels, **options
            )
            with tempfile.TemporaryDirectory() as tmp:
                if variant == "loaded":
                    index.save(os.path.join(tmp, "idx"))
                    index = load_sharded_index(os.path.join(tmp, "idx"))
                states = [index.shard_state(s) for s in range(index.n_shards)]
                got = _carve_bytes(
                    [b for state in states for b in state.blocks],
                    [c for state in states for c in state.couplings],
                    [b for state in states for b in state.bounds],
                )
                assert got == expected, (variant, n_shards)
                stacked = index.bounds_table()
                assert _csr_bytes(stacked.matrix) == _csr_bytes(
                    flat.bounds_table.matrix
                )
                assert stacked.growth.tobytes() == flat.bounds_table.growth.tobytes()


class TestAnswerIdentity:
    def test_top_k(self, graph, base_ranker, sharded):
        rng = np.random.default_rng(0)
        for query in rng.choice(graph.n_nodes, size=32, replace=False):
            _assert_results_equal(
                base_ranker.top_k(int(query), 10), sharded.top_k(int(query), 10)
            )

    def test_top_k_include_query(self, base_ranker, sharded):
        _assert_results_equal(
            base_ranker.top_k(3, 7, exclude_query=False),
            sharded.top_k(3, 7, exclude_query=False),
        )

    def test_top_k_batch(self, graph, base_ranker, sharded):
        rng = np.random.default_rng(1)
        queries = rng.choice(graph.n_nodes, size=24, replace=False)
        for a, b in zip(
            base_ranker.top_k_batch(queries, 8),
            sharded.top_k_batch(queries, 8),
        ):
            _assert_results_equal(a, b)

    def test_top_k_multi(self, base_ranker, sharded):
        queries = np.asarray([2, 61, 130])  # seeds across clusters/shards
        _assert_results_equal(
            base_ranker.top_k_multi(queries, 12),
            sharded.top_k_multi(queries, 12),
        )

    def test_out_of_sample(self, graph, base_ranker, sharded):
        rng = np.random.default_rng(2)
        for row in rng.choice(graph.n_nodes, size=8, replace=False):
            feature = graph.features[row] + 0.01
            _assert_results_equal(
                base_ranker.top_k_out_of_sample(feature, 10),
                sharded.top_k_out_of_sample(feature, 10),
            )
        assert sharded.last_breakdown is not None
        assert set(sharded.last_breakdown) == {
            "nearest_neighbor", "top_k", "overall",
        }

    def test_out_of_sample_batch(self, graph, base_ranker, sharded):
        features = graph.features[:6] + 0.02
        for a, b in zip(
            base_ranker.top_k_out_of_sample_batch(features, 9),
            sharded.top_k_out_of_sample_batch(features, 9),
        ):
            _assert_results_equal(a, b)

    def test_multi_probe_out_of_sample(self, graph, base_ranker, sharded):
        feature = graph.features[10] + 0.5
        _assert_results_equal(
            base_ranker.top_k_out_of_sample(feature, 10, n_probe=3),
            sharded.top_k_out_of_sample(feature, 10, n_probe=3),
        )

    def test_scores(self, graph, base_ranker, sharded):
        assert np.array_equal(base_ranker.scores(5), sharded.scores(5))
        q = np.zeros(graph.n_nodes)
        q[[3, 70]] = [0.5, 0.5]
        assert np.array_equal(
            base_ranker.scores_for_vector(q), sharded.scores_for_vector(q)
        )

    def test_k_exceeding_candidates(self, graph, base_ranker, sharded):
        _assert_results_equal(
            base_ranker.top_k(0, graph.n_nodes + 5),
            sharded.top_k(0, graph.n_nodes + 5),
        )

    def test_no_pruning_ablation(self, graph, base_ranker):
        index = ShardedMogulIndex.build(graph, 3)
        plain = ShardedMogulRanker.from_index(graph, index, use_pruning=False)
        for query in (0, 65, 150):
            _assert_results_equal(
                base_ranker.top_k(query, 10), plain.top_k(query, 10)
            )

    def test_bound_desc_order(self, graph, base_ranker):
        index = ShardedMogulIndex.build(graph, 3)
        ranker = ShardedMogulRanker.from_index(
            graph, index, cluster_order="bound_desc"
        )
        for query in (1, 64, 140):
            _assert_results_equal(
                base_ranker.top_k(query, 10), ranker.top_k(query, 10)
            )

    def test_empty_border_graph(self):
        # Two disconnected blocks: no cross-cluster edges, empty border.
        rng = np.random.default_rng(5)
        block = rng.random((20, 20))
        block = np.triu(block, k=1)
        idx = np.arange(19)
        block[idx, idx + 1] = 1.0
        adjacency = sp.block_diag(
            [sp.csr_matrix(block + block.T)] * 2, format="csr"
        )
        graph = graph_from_adjacency(adjacency)
        base = MogulRanker(graph)
        shard = ShardedMogulRanker(graph, 2)
        for query in (0, 21, 39):
            _assert_results_equal(base.top_k(query, 6), shard.top_k(query, 6))


class TestStats:
    def test_per_query_and_shard_stats(self, graph, sharded):
        sharded.top_k(4, 10)
        stats = sharded.last_stats
        assert stats is not None
        assert stats.clusters_total == sharded.index.n_clusters
        assert stats.extra["n_shards"] == sharded.index.n_shards
        shard_stats = sharded.last_shard_stats
        assert len(shard_stats) == sharded.index.n_shards
        # Every cluster is accounted for exactly once: the router scores
        # the seed clusters + border, the shards prune or score the rest.
        assert (
            stats.clusters_pruned + stats.clusters_scored
            == sharded.index.n_clusters
        )
        shard_total = sum(
            s.clusters_pruned + s.clusters_scored for s in shard_stats
        )
        seed_and_border = stats.clusters_scored - sum(
            s.clusters_scored for s in shard_stats
        )
        assert shard_total + seed_and_border == sharded.index.n_clusters
        # Each shard's counters are the query's counters restricted to
        # the shard's cluster range: the shards partition everything the
        # router did not score itself (the seed cluster and the border).
        index = sharded.index
        perm = index.permutation
        seed = int(perm.cluster_of_position[perm.inverse[4]])
        border = perm.border_slice
        router_nodes = border.stop - border.start
        if seed != perm.border_cluster:
            router_nodes += index.cluster_sizes[seed]
        for shard, (lo, hi) in zip(shard_stats, index.layout.cluster_ranges):
            owned = [cid for cid in range(lo, hi) if cid != seed]
            assert shard.clusters_total == hi - lo
            assert shard.clusters_pruned + shard.clusters_scored == len(owned)
            assert shard.bound_evaluations == len(owned)
            assert shard.pruned_nodes + shard.nodes_scored == int(
                index.cluster_sizes[owned].sum()
            )
        for name in ("clusters_pruned", "pruned_nodes", "bound_evaluations"):
            assert sum(getattr(s, name) for s in shard_stats) == getattr(
                stats, name
            )
        assert seed_and_border == len({seed, perm.border_cluster})
        assert (
            sum(s.nodes_scored for s in shard_stats) + router_nodes
            == stats.nodes_scored
        )

    def test_batch_stats_shape(self, graph, sharded):
        results = sharded.top_k_batch([0, 33, 66], 5)
        assert len(results) == 3
        assert len(sharded.last_batch_stats.per_query) == 3

    def test_engine_protocol(self, sharded, base_ranker):
        assert isinstance(sharded, Engine)
        assert isinstance(base_ranker, Engine)

    def test_shard_of_node(self, graph, sharded):
        index = sharded.index
        seen = set()
        for node in range(graph.n_nodes):
            shard = index.shard_of_node(node)
            assert -1 <= shard < index.n_shards
            seen.add(shard)
        assert len(seen) >= index.n_shards  # every shard owns some node


COUNTERS = (
    "clusters_total",
    "clusters_pruned",
    "clusters_scored",
    "nodes_scored",
    "bound_evaluations",
    "pruned_nodes",
)


def _counters(stats):
    return tuple(getattr(stats, name) for name in COUNTERS)


@pytest.fixture(scope="module")
def coil_graph():
    """432 nodes in 13 clusters: several clusters per shard, so the
    threshold a shard's scan starts from shapes its pruning."""
    return build_knn_graph(load_dataset("coil", scale=0.3).features, k=5)


@pytest.fixture(scope="module")
def flat_index(coil_graph):
    return MogulIndex.build(coil_graph)


@pytest.fixture(scope="module")
def sharded_indexes(coil_graph):
    return {s: ShardedMogulIndex.build(coil_graph, s) for s in (1, 2, 3, 4)}


def _past_the_cliff(index):
    """Twice the largest seed cluster plus border: where pruning stops."""
    perm = index.permutation
    border = perm.border_slice
    largest = max(sl.stop - sl.start for sl in perm.cluster_slices[:-1])
    return 2 * (largest + border.stop - border.start)


def _assert_same_as_flat(graph, flat, sharded):
    """Answers bitwise and every query's six counters equal the flat engine's."""
    # Spread over the clusters, and mostly queries whose counters depend
    # on one frontier carrying its threshold from shard to shard.
    queries = [5, 88, 139, 170, 212, 236, 266, 285, 346, 356, 401]
    features = graph.features[queries[:3]] + 0.01
    for k in (1, 10, _past_the_cliff(flat.index)):
        for query in queries:
            _assert_results_equal(flat.top_k(query, k), sharded.top_k(query, k))
            assert _counters(sharded.last_stats) == _counters(flat.last_stats)
        seeds = np.asarray(queries[:3])
        _assert_results_equal(
            flat.top_k_multi(seeds, k), sharded.top_k_multi(seeds, k)
        )
        assert _counters(sharded.last_stats) == _counters(flat.last_stats)
        for feature in features:
            _assert_results_equal(
                flat.top_k_out_of_sample(feature, k),
                sharded.top_k_out_of_sample(feature, k),
            )
            assert _counters(sharded.last_stats) == _counters(flat.last_stats)
        for run in (
            lambda engine: engine.top_k_batch(queries, k),
            lambda engine: engine.top_k_out_of_sample_batch(features, k),
        ):
            for a, b in zip(run(flat), run(sharded), strict=True):
                _assert_results_equal(a, b)
            assert [_counters(s) for s in sharded.last_batch_stats.per_query] == [
                _counters(s) for s in flat.last_batch_stats.per_query
            ]


class TestFlatStatsIdentity:
    """One pass under one frontier: sharded stats *are* the flat stats."""

    @pytest.mark.parametrize("cluster_order", ("index", "bound_desc"))
    @pytest.mark.parametrize("use_pruning", (True, False))
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4))
    def test_stats_equal_flat(
        self, coil_graph, flat_index, sharded_indexes, n_shards, use_pruning,
        cluster_order,
    ):
        options = dict(use_pruning=use_pruning, cluster_order=cluster_order)
        _assert_same_as_flat(
            coil_graph,
            MogulRanker.from_index(coil_graph, flat_index, **options),
            ShardedMogulRanker.from_index(
                coil_graph, sharded_indexes[n_shards], **options
            ),
        )

    @pytest.mark.parametrize("cluster_order", ("index", "bound_desc"))
    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4))
    def test_stats_equal_flat_budgeted_int8_fallback(
        self, coil_graph, flat_index, sharded_indexes, n_shards, cluster_order,
        tmp_path, monkeypatch,
    ):
        # A band this wide certifies nothing: every decision with a
        # nonzero bound goes through the exact fallback, under a budget
        # that holds no shard.
        monkeypatch.setattr(bounds_module, "COMPACT_RELATIVE_SLACK", 1e30)
        save_sharded_index(sharded_indexes[n_shards], tmp_path / "idx")
        index = load_sharded_index(tmp_path / "idx")
        mgr = index.configure_memory_budget(0.005, bounds_dtype="int8")
        _assert_same_as_flat(
            coil_graph,
            MogulRanker.from_index(
                coil_graph, flat_index, cluster_order=cluster_order
            ),
            ShardedMogulRanker.from_index(
                coil_graph, index, cluster_order=cluster_order
            ),
        )
        assert mgr.bound_fallbacks_total > 0
        assert mgr.evictions_total > 0


class TestOnePassWork:
    """The work of a pass, counted rather than timed."""

    @pytest.mark.parametrize("n_shards", (1, 2, 3, 4))
    def test_one_frontier_per_query_and_one_bound_spmv_per_pass(
        self, coil_graph, sharded_indexes, n_shards, monkeypatch
    ):
        built = []
        spmvs = []

        class CountingAccumulator(sharded_module.TopKAccumulator):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        exact_estimate = BoundsTable.estimate_all

        def counting_estimate(table, x_border_abs):
            spmvs.append(1)
            return exact_estimate(table, x_border_abs)

        monkeypatch.setattr(sharded_module, "TopKAccumulator", CountingAccumulator)
        monkeypatch.setattr(BoundsTable, "estimate_all", counting_estimate)
        ranker = ShardedMogulRanker.from_index(coil_graph, sharded_indexes[n_shards])
        for query in (0, 65, 150):
            built.clear()
            spmvs.clear()
            ranker.top_k(query, 10)
            assert (len(built), len(spmvs)) == (1, 1)
        built.clear()
        spmvs.clear()
        ranker.top_k_batch([0, 33, 66, 99, 132], 10)
        assert (len(built), len(spmvs)) == (5, 1)


class TestAccumulatorThreshold:
    def test_initial_threshold_prunes_below(self):
        acc = TopKAccumulator(2, 10, initial_threshold=0.5)
        x = np.asarray([0.4, 0.6, 0.7, 0.1])
        acc.offer_block(x, 0, 4)
        answers = acc.collect()
        assert [pos for pos, _ in answers] == [2, 1]

    def test_initial_threshold_keeps_ties(self):
        acc = TopKAccumulator(2, 10, initial_threshold=0.5)
        x = np.asarray([0.5, 0.2])
        acc.offer_block(x, 0, 2)
        assert acc.collect() == [(0, 0.5)]

    def test_default_matches_legacy(self):
        a = TopKAccumulator(3, 10)
        b = TopKAccumulator(3, 10, initial_threshold=0.0)
        x = np.asarray([0.1, 0.0, 0.3])
        a.offer_block(x, 0, 3)
        b.offer_block(x, 0, 3)
        assert a.collect() == b.collect()


class TestPersistence:
    @pytest.fixture()
    def saved(self, graph, tmp_path):
        index = ShardedMogulIndex.build(graph, 3)
        path = tmp_path / "idx.shards"
        save_sharded_index(index, path)
        return index, path

    def test_roundtrip_answers_identical(self, graph, saved):
        index, path = saved
        loaded = load_sharded_index(path)
        a = ShardedMogulRanker.from_index(graph, index)
        b = ShardedMogulRanker.from_index(graph, loaded)
        for query in (0, 50, 100, 170):
            _assert_results_equal(a.top_k(query, 10), b.top_k(query, 10))

    def test_lazy_materialisation(self, saved):
        _, path = saved
        loaded = load_sharded_index(path)
        assert loaded.shards_loaded == 0
        assert loaded.factor_nnz > 0  # nnz served from the manifest
        loaded.shard_state(0)
        assert loaded.shards_loaded == 1

    def test_eager_load(self, saved):
        _, path = saved
        loaded = load_sharded_index(path, lazy=False)
        assert loaded.shards_loaded == loaded.n_shards
        assert loaded.profile.load_seconds is not None

    def test_load_any_index_dispatch(self, graph, saved, tmp_path):
        index, path = saved
        loaded = load_any_index(path)
        assert isinstance(loaded, ShardedMogulIndex)
        flat_path = tmp_path / "flat.npz"
        save_index(MogulIndex.build(graph), flat_path)
        flat = load_any_index(flat_path)
        assert isinstance(flat, MogulIndex)
        engine = engine_from_index(graph, loaded)
        assert isinstance(engine, ShardedMogulRanker)
        assert isinstance(engine_from_index(graph, flat), MogulRanker)

    def test_missing_manifest_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="manifest"):
            load_any_index(empty)

    def test_corrupt_manifest_rejected(self, saved):
        _, path = saved
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="manifest"):
            load_sharded_index(path)

    def test_corrupt_shard_rejected(self, graph, saved):
        index, path = saved
        shard_file = path / "shard_0001.npz"
        blob = shard_file.read_bytes()
        shard_file.write_bytes(blob[: len(blob) // 2])
        loaded = load_sharded_index(path)
        with pytest.raises((ValueError, Exception)):
            loaded.shard_state(1)

    def test_save_after_load_roundtrips(self, graph, saved, tmp_path):
        _, path = saved
        loaded = load_sharded_index(path, lazy=False)
        second = tmp_path / "again.shards"
        save_sharded_index(loaded, second)
        again = load_sharded_index(second, lazy=False)
        a = ShardedMogulRanker.from_index(graph, loaded)
        b = ShardedMogulRanker.from_index(graph, again)
        _assert_results_equal(a.top_k(7, 10), b.top_k(7, 10))

    def test_profile_survives(self, saved):
        index, path = saved
        loaded = load_sharded_index(path)
        assert loaded.profile.n_shards == index.n_shards
        assert "factorization" in loaded.profile.stages


class TestValidation:
    def test_from_index_shape_mismatch(self, graph):
        index = ShardedMogulIndex.build(graph, 2)
        other = build_knn_graph(
            np.random.default_rng(0).normal(size=(30, 8)), k=4
        )
        with pytest.raises(ValueError, match="nodes"):
            ShardedMogulRanker.from_index(other, index)

    def test_bad_factorization(self, graph):
        with pytest.raises(ValueError, match="factorization"):
            ShardedMogulIndex.build(graph, 2, factorization="lu")
