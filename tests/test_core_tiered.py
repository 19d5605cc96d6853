"""Tests for the tiered engine (repro.core.tiered) and its factory wiring.

The properties under test mirror the serving contract: ``m = n`` and
``accuracy="exact"`` answers are bitwise the exact engine's on every
entry point (flat *and* sharded base, multiple graph seeds), the dial
canonicalises and rejects malformed requests, per-tier counters account
for every query, and :func:`repro.core.engine.engine_from_index` raises
a clear error naming the artifact kind it cannot serve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Engine, engine_from_index
from repro.core.index import MogulIndex, MogulRanker
from repro.core.sharded import ShardedMogulIndex, ShardedMogulRanker
from repro.core.spectral import SpectralEngine, SpectralIndex
from repro.core.tiered import (
    ACCURACY_PRESETS,
    TieredEngine,
    preset_candidates,
)
from repro.graph.build import build_knn_graph
from tests.conftest import three_cluster_features

GRAPH_SEEDS = (0, 3)
RANK = 48


def _build_graph(seed: int):
    features, _ = three_cluster_features(per_cluster=50, dim=8, seed=seed)
    return build_knn_graph(features, k=5)


@pytest.fixture(scope="module", params=GRAPH_SEEDS)
def setup(request):
    from repro.clustering.louvain import louvain

    graph = _build_graph(request.param)
    labels = louvain(graph.adjacency)
    base = MogulRanker.from_index(
        graph, MogulIndex.build(graph, cluster_labels=labels)
    )
    spectral = SpectralEngine.from_index(
        graph, SpectralIndex.build(graph, rank=RANK, cluster_labels=labels)
    )
    return graph, base, spectral, labels


@pytest.fixture(scope="module")
def tiered(setup):
    _, base, spectral, _ = setup
    return TieredEngine(base, spectral)


@pytest.fixture(scope="module")
def sharded_tiered(setup):
    graph, _, spectral, labels = setup
    index = ShardedMogulIndex.build(graph, 2, cluster_labels=labels)
    return TieredEngine(ShardedMogulRanker.from_index(graph, index), spectral)


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.scores, b.scores)


class TestResolveAccuracy:
    def test_presets_canonicalise(self, tiered):
        for label in ACCURACY_PRESETS:
            resolved, kwargs = tiered.resolve_accuracy(accuracy=label)
            assert resolved == label
            assert kwargs == {"accuracy": label}

    def test_default_when_unspecified(self, tiered):
        label, _ = tiered.resolve_accuracy()
        assert label == tiered.default_accuracy == "balanced"

    def test_explicit_m_labels(self, tiered):
        label, kwargs = tiered.resolve_accuracy(m=64)
        assert label == "m=64"
        assert kwargs == {"m": 64}

    def test_rejects_both(self, tiered):
        with pytest.raises(ValueError, match="not both"):
            tiered.resolve_accuracy(accuracy="fast", m=10)

    def test_rejects_unknown_level(self, tiered):
        with pytest.raises(ValueError, match="unknown accuracy level"):
            tiered.resolve_accuracy(accuracy="turbo")

    def test_rejects_bad_m(self, tiered):
        with pytest.raises(ValueError, match="m must be"):
            tiered.resolve_accuracy(m=0)

    def test_preset_budgets(self):
        assert preset_candidates("fast", 10) == 40
        assert preset_candidates("fast", 2) == 32
        assert preset_candidates("balanced", 10) == 160
        assert preset_candidates("balanced", 4) == 128
        with pytest.raises(ValueError, match="no candidate budget"):
            preset_candidates("exact", 10)

    def test_constructor_rejects_unknown_default(self, setup):
        _, base, spectral, _ = setup
        with pytest.raises(ValueError, match="unknown accuracy level"):
            TieredEngine(base, spectral, default_accuracy="warp")


class TestExactness:
    """Satellite property: the top of the dial is bitwise exact."""

    @pytest.mark.parametrize("engine_fixture", ["tiered", "sharded_tiered"])
    def test_m_equals_n_identical(self, engine_fixture, request, setup):
        engine = request.getfixturevalue(engine_fixture)
        _, base, _, _ = setup
        n = engine.n_nodes
        for query in (0, 37, 101, n - 1):
            _assert_bitwise(
                engine.top_k(query, 8, m=n), base.top_k(query, 8)
            )

    @pytest.mark.parametrize("engine_fixture", ["tiered", "sharded_tiered"])
    def test_exact_dial_identical(self, engine_fixture, request, setup):
        engine = request.getfixturevalue(engine_fixture)
        _, base, _, _ = setup
        for query in (5, 77):
            _assert_bitwise(
                engine.top_k(query, 6, accuracy="exact"), base.top_k(query, 6)
            )

    @pytest.mark.parametrize("engine_fixture", ["tiered", "sharded_tiered"])
    def test_batch_m_equals_n_identical(self, engine_fixture, request, setup):
        engine = request.getfixturevalue(engine_fixture)
        _, base, _, _ = setup
        queries = [1, 40, 90, 120]
        for dialed, exact in zip(
            engine.top_k_batch(queries, 7, m=engine.n_nodes),
            base.top_k_batch(queries, 7),
        ):
            _assert_bitwise(dialed, exact)

    @pytest.mark.parametrize("engine_fixture", ["tiered", "sharded_tiered"])
    def test_out_of_sample_exactness(self, engine_fixture, request, setup):
        engine = request.getfixturevalue(engine_fixture)
        graph, base, _, _ = setup
        features = graph.features[[12, 60]] + 0.03
        for kwargs in ({"accuracy": "exact"}, {"m": engine.n_nodes}):
            for dialed, exact in zip(
                engine.top_k_out_of_sample_batch(features, 5, **kwargs),
                base.top_k_out_of_sample_batch(features, 5),
            ):
                _assert_bitwise(dialed, exact)
            _assert_bitwise(
                engine.top_k_out_of_sample(features[0], 5, **kwargs),
                base.top_k_out_of_sample(features[0], 5),
            )

    def test_include_query_respected(self, tiered, setup):
        _, base, _, _ = setup
        _assert_bitwise(
            tiered.top_k(9, 5, exclude_query=False, m=tiered.n_nodes),
            base.top_k(9, 5, exclude_query=False),
        )
        assert tiered.top_k(9, 5, exclude_query=False, m=50).indices[0] == 9


class TestDialBehaviour:
    def test_answer_scores_are_exact_scores(self, tiered, setup):
        """Approximation can omit answers, never change their scores."""
        _, base, _, _ = setup
        full = base.scores(21)
        answer = tiered.top_k(21, 6, accuracy="fast")
        np.testing.assert_allclose(
            answer.scores, full[answer.indices], rtol=0, atol=1e-12
        )

    def test_budget_clamped_to_k(self, tiered):
        tiered.top_k(2, 5, m=1)
        assert tiered.last_tier_breakdown["candidates"] == 5

    def test_breakdown_shape(self, tiered):
        tiered.top_k(3, 4)
        breakdown = tiered.last_tier_breakdown
        assert breakdown["accuracy"] == "balanced"
        assert breakdown["queries"] == 1
        assert breakdown["spectral_seconds"] >= 0
        assert breakdown["rerank_seconds"] >= 0
        assert breakdown["candidates"] >= 4

    def test_counters_accumulate(self, setup):
        _, base, spectral, _ = setup
        engine = TieredEngine(base, spectral)
        engine.top_k(1, 4)
        engine.top_k(2, 4, accuracy="fast")
        engine.top_k_batch([3, 4], 4, accuracy="fast")
        engine.top_k(5, 4, accuracy="exact")
        counters = engine.tier_counters()
        assert counters["balanced"]["queries"] == 1
        assert counters["fast"]["queries"] == 3
        assert counters["exact"]["queries"] == 1
        assert counters["exact"]["recall_sum"] == 1.0
        assert counters["exact"]["candidates"] == 0
        for entry in counters.values():
            assert 0.0 <= entry["recall_sum"] <= entry["queries"]

    def test_multi_seed_stays_exact(self, tiered, setup):
        _, base, _, _ = setup
        _assert_bitwise(
            tiered.top_k_multi([4, 8], 6), base.top_k_multi([4, 8], 6)
        )

    def test_implements_engine_protocol(self, tiered):
        assert isinstance(tiered, Engine)

    def test_rejects_mismatched_tiers(self, setup):
        graph, base, _, _ = setup
        other = _build_graph(11)
        foreign = SpectralEngine.from_index(
            other, SpectralIndex.build(other, rank=8)
        )
        if foreign.n_nodes == base.n_nodes:
            pytest.skip("graphs coincide in size")
        with pytest.raises(ValueError, match="nodes"):
            TieredEngine(base, foreign)

    def test_rejects_base_without_rerank(self, setup):
        _, _, spectral, _ = setup
        with pytest.raises(ValueError, match="top_k_rerank"):
            TieredEngine(spectral, spectral)


class TestEngineFactory:
    """Clear errors naming the artifact kind."""

    def test_unknown_artifact_named(self, setup):
        graph, _, spectral, _ = setup
        with pytest.raises(ValueError, match="unsupported artifact of type dict"):
            engine_from_index(graph, {"not": "an index"})
        with pytest.raises(
            ValueError, match="unsupported artifact of type SpectralIndex"
        ):
            engine_from_index(graph, spectral.index)
