"""Cross-feature integration tests: the extension features composed.

Each extension (serialization, fill levels, multi-seed, multi-probe,
exact variant, dynamic layer) is tested in isolation elsewhere; this
module guards the *combinations* a real deployment would hit — e.g.
"save a fill-level index, load it, run a multi-seed query on it".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import MogulIndex, MogulRanker
from repro.core.live import LiveEngine
from repro.graph.build import build_knn_graph
from tests.conftest import three_cluster_features


@pytest.fixture(scope="module")
def graph():
    features, _ = three_cluster_features(per_cluster=40)
    return build_knn_graph(features, k=5)


class TestSerializationCompositions:
    def test_fill_level_index_round_trips(self, graph, tmp_path):
        original = MogulRanker(graph, alpha=0.95, fill_level=2)
        path = tmp_path / "filled.idx.npz"
        original.index.save(path)
        restored = MogulRanker.from_index(graph, MogulIndex.load(path))
        assert restored.index.factors.nnz == original.index.factors.nnz
        for query in (0, 60, 110):
            a = original.top_k(query, 6)
            b = restored.top_k(query, 6)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.scores, b.scores, atol=0)

    def test_loaded_index_serves_multi_seed(self, graph, tmp_path):
        original = MogulRanker(graph, alpha=0.95)
        path = tmp_path / "index.npz"
        original.index.save(path)
        restored = MogulRanker.from_index(graph, MogulIndex.load(path))
        seeds = np.asarray([2, 45, 100])
        a = original.top_k_multi(seeds, 5)
        b = restored.top_k_multi(seeds, 5)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_loaded_index_serves_multi_probe_oos(self, graph, tmp_path):
        original = MogulRanker(graph, alpha=0.95)
        path = tmp_path / "index.npz"
        original.index.save(path)
        restored = MogulRanker.from_index(graph, MogulIndex.load(path))
        feature = graph.features.mean(axis=0)
        a = original.top_k_out_of_sample(feature, 5, n_probe=2)
        b = restored.top_k_out_of_sample(feature, 5, n_probe=2)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_diagnostics_on_loaded_index(self, graph, tmp_path):
        from repro.core.diagnostics import diagnose_index

        original = MogulRanker(graph, alpha=0.95)
        path = tmp_path / "index.npz"
        original.index.save(path)
        loaded_report = diagnose_index(MogulIndex.load(path))
        fresh_report = diagnose_index(original.index)
        assert loaded_report.factor_nnz == fresh_report.factor_nnz
        assert loaded_report.saturated_bounds == fresh_report.saturated_bounds


class TestExactCompositions:
    def test_exact_multi_seed_matches_exact_ranker(self, graph):
        from repro.ranking.exact import ExactRanker

        mogul_e = MogulRanker(graph, alpha=0.95, exact=True)
        oracle = ExactRanker(graph, alpha=0.95)
        seeds = np.asarray([7, 77])
        a = mogul_e.top_k_multi(seeds, 6)
        b = oracle.top_k_multi(seeds, 6)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-9)

    def test_exact_out_of_sample_multi_probe(self, graph):
        mogul_e = MogulRanker(graph, alpha=0.95, exact=True)
        feature = graph.features[10] + 0.02
        result = mogul_e.top_k_out_of_sample(feature, 5, n_probe=3)
        assert len(result) == 5

    def test_fill_level_bounded_by_exact(self, graph):
        """nnz ordering: ICF <= ICF(p) <= complete."""
        plain = MogulRanker(graph, alpha=0.95)
        filled = MogulRanker(graph, alpha=0.95, fill_level=3)
        exact = MogulRanker(graph, alpha=0.95, exact=True)
        assert (
            plain.index.factors.nnz
            <= filled.index.factors.nnz
            <= exact.index.factors.nnz
        )


class TestDynamicCompositions:
    def test_dynamic_with_exact_base(self):
        features, labels = three_cluster_features(per_cluster=25)
        database = LiveEngine(
            features, alpha=0.95, exact=True, auto_rebuild_fraction=None
        )
        new_id = database.add(features[labels == 1].mean(axis=0))
        result = database.top_k(30, 10)
        assert new_id in result.indices.tolist() or len(result) == 10

    def test_dynamic_rebuild_then_remove_then_query(self):
        features, _ = three_cluster_features(per_cluster=25)
        database = LiveEngine(features, alpha=0.95, auto_rebuild_fraction=None)
        added = [database.add(features[i] + 0.01) for i in range(6)]
        database.rebuild()
        database.remove(added[0])
        database.remove(3)
        result = database.top_k(added[1], 15)
        answers = set(result.indices.tolist())
        assert added[0] not in answers
        assert 3 not in answers

    def test_dynamic_out_of_sample_with_pending(self):
        features, labels = three_cluster_features(per_cluster=25)
        database = LiveEngine(features, alpha=0.95, auto_rebuild_fraction=None)
        center = features[labels == 0].mean(axis=0)
        new_id = database.add(center + 0.01)
        result = database.top_k_out_of_sample(center, 10)
        assert new_id in result.indices.tolist()


class TestSearchSwitchCompositions:
    @pytest.mark.parametrize("fill_level", [0, 2])
    @pytest.mark.parametrize("cluster_order", ["index", "bound_desc"])
    def test_all_switch_combinations_agree(self, graph, fill_level, cluster_order):
        baseline = MogulRanker(graph, alpha=0.95, fill_level=fill_level)
        variant = MogulRanker(
            graph,
            alpha=0.95,
            fill_level=fill_level,
            cluster_order=cluster_order,
            use_pruning=False,
        )
        for query in (5, 55):
            a = baseline.top_k(query, 5)
            b = variant.top_k(query, 5)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)
