"""Tests for the EMR and FMR approximation baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import EMRRanker, FMRRanker
from repro.baselines.emr import epanechnikov, _anchor_weights
from repro.clustering.kmeans import kmeans
from repro.eval.metrics import p_at_k, rank_correlation
from repro.ranking import ExactRanker
from tests.conftest import graph_from_adjacency, random_symmetric_adjacency


class TestEpanechnikov:
    def test_shape_and_support(self):
        t = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
        k = epanechnikov(t)
        assert k[0] == 0.0 and k[-1] == 0.0
        assert k[2] == pytest.approx(0.75)
        assert k[3] == pytest.approx(0.75 * (1 - 0.25))
        assert np.all(k >= 0)

    def test_symmetry(self):
        t = np.linspace(-1, 1, 21)
        np.testing.assert_allclose(epanechnikov(t), epanechnikov(-t))


class TestAnchorWeights:
    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 5))
        anchors = kmeans(features, 8, seed=1).centroids
        z = _anchor_weights(features, anchors, s=3)
        assert z.shape == (8, 40)
        np.testing.assert_allclose(np.asarray(z.sum(axis=0)).ravel(), 1.0, atol=1e-12)

    def test_sparsity(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(30, 4))
        anchors = kmeans(features, 10, seed=2).centroids
        z = _anchor_weights(features, anchors, s=3)
        per_column = np.diff(z.tocsc().indptr)
        assert np.all(per_column <= 3)

    def test_point_on_anchor(self):
        """A point coinciding with an anchor weights that anchor most."""
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        z = _anchor_weights(anchors[:1], anchors, s=2).toarray()
        assert z[0, 0] == np.max(z[:, 0])

    def test_weights_nonnegative(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(25, 3))
        anchors = kmeans(features, 5, seed=3).centroids
        z = _anchor_weights(features, anchors, s=2)
        assert np.all(z.data >= 0)


class TestEMRRanker:
    def test_many_anchors_approach_exact_ranking(self, clustered_graph):
        """With anchors ~ data points the anchor graph gets expressive and
        EMR's ranking correlates strongly with the exact one — the rising
        curve of Figure 2."""
        exact = ExactRanker(clustered_graph)
        few = EMRRanker(clustered_graph, n_anchors=5, seed=0)
        many = EMRRanker(clustered_graph, n_anchors=60, seed=0)
        q = 3
        ref = exact.top_k(q, 10).indices
        p_few = p_at_k(few.top_k(q, 10).indices, ref)
        p_many = p_at_k(many.top_k(q, 10).indices, ref)
        corr_many = rank_correlation(many.scores(q), exact.scores(q))
        assert p_many >= p_few
        assert corr_many > 0.5

    def test_scores_shape_and_query_peak(self, clustered_graph):
        emr = EMRRanker(clustered_graph, n_anchors=20, seed=0)
        scores = emr.scores(7)
        assert scores.shape == (clustered_graph.n_nodes,)
        assert np.argmax(scores) == 7

    def test_same_cluster_scores_dominate(self, clustered_graph, clustered_labels):
        emr = EMRRanker(clustered_graph, n_anchors=30, seed=0)
        result = emr.top_k(0, 10)
        same = clustered_labels[result.indices] == clustered_labels[0]
        assert same.mean() >= 0.8

    def test_validation(self, clustered_graph):
        with pytest.raises(ValueError, match="n_anchors"):
            EMRRanker(clustered_graph, n_anchors=clustered_graph.n_nodes + 1)

    def test_out_of_sample_close_to_in_sample(self, clustered_graph):
        """Querying with the feature vector of a database point must give
        nearly the answer set of the in-sample query."""
        emr = EMRRanker(clustered_graph, n_anchors=30, seed=0)
        node = 11
        in_sample = emr.top_k(node, 8).indices
        oos = emr.top_k_out_of_sample(clustered_graph.features[node], 8).indices
        overlap = p_at_k(np.setdiff1d(oos, [node]), in_sample)
        assert overlap >= 0.6

    def test_out_of_sample_validation(self, clustered_graph):
        emr = EMRRanker(clustered_graph, n_anchors=10, seed=0)
        with pytest.raises(ValueError, match="feature"):
            emr.top_k_out_of_sample(np.zeros(3), 5)

    def test_deterministic_under_seed(self, clustered_graph):
        a = EMRRanker(clustered_graph, n_anchors=15, seed=5)
        b = EMRRanker(clustered_graph, n_anchors=15, seed=5)
        np.testing.assert_allclose(a.scores(2), b.scores(2), atol=1e-12)


class TestFMRRanker:
    def test_block_solve_correct_without_residual(self):
        """On a graph with no cross-partition edges FMR is exact."""
        from tests.conftest import three_cluster_features
        from repro.graph import build_knn_graph

        features, _ = three_cluster_features(per_cluster=20, separation=50.0)
        graph = build_knn_graph(features, k=4)
        fmr = FMRRanker(graph, n_partitions=3, seed=0)
        exact = ExactRanker(graph)
        np.testing.assert_allclose(fmr.scores(5), exact.scores(5), atol=1e-8)

    def test_close_to_exact_on_clustered_graph(self, clustered_graph):
        fmr = FMRRanker(clustered_graph, n_partitions=3, rank=30, seed=0)
        exact = ExactRanker(clustered_graph)
        q = 2
        corr = rank_correlation(fmr.scores(q), exact.scores(q))
        assert corr > 0.9

    def test_rank_zero_residual_handled(self):
        graph = graph_from_adjacency(random_symmetric_adjacency(20, seed=1))
        fmr = FMRRanker(graph, n_partitions=1, seed=0)
        exact = ExactRanker(graph)
        # one partition = no residual = exact
        np.testing.assert_allclose(fmr.scores(3), exact.scores(3), atol=1e-8)

    def test_validation(self, clustered_graph):
        with pytest.raises(ValueError, match="n_partitions"):
            FMRRanker(clustered_graph, n_partitions=clustered_graph.n_nodes + 1)

    def test_higher_rank_not_worse(self, clustered_graph):
        exact = ExactRanker(clustered_graph)
        q = 9
        ref = exact.scores(q)
        low = FMRRanker(clustered_graph, n_partitions=5, rank=2, seed=0)
        high = FMRRanker(clustered_graph, n_partitions=5, rank=40, seed=0)
        err_low = np.linalg.norm(low.scores(q) - ref)
        err_high = np.linalg.norm(high.scores(q) - ref)
        assert err_high <= err_low + 1e-9

    def test_default_rank_heuristic(self):
        from repro.baselines.fmr import default_rank

        assert default_rank(10_000) == 250
        assert default_rank(100) == 12
        assert default_rank(8) == 2


class TestBatchedBaselines:
    """Batched top_k must equal the sequential loop for EMR and FMR."""

    @pytest.fixture(scope="class")
    def emr(self, clustered_graph):
        return EMRRanker(clustered_graph, n_anchors=12, seed=3)

    @pytest.fixture(scope="class")
    def fmr(self, clustered_graph):
        return FMRRanker(clustered_graph, n_partitions=4, seed=3)

    @pytest.mark.parametrize("name", ["emr", "fmr"])
    def test_batch_matches_sequential(self, name, request):
        ranker = request.getfixturevalue(name)
        queries = np.asarray([0, 17, 45, 83, 110])
        batched = ranker.top_k_batch(queries, 6)
        for query, result in zip(queries, batched):
            reference = ranker.top_k(int(query), 6)
            np.testing.assert_array_equal(result.indices, reference.indices)
            np.testing.assert_allclose(result.scores, reference.scores, atol=1e-10)

    @pytest.mark.parametrize("name", ["emr", "fmr"])
    def test_batch_include_query(self, name, request):
        ranker = request.getfixturevalue(name)
        queries = np.asarray([5, 9])
        batched = ranker.top_k_batch(queries, 4, exclude_query=False)
        for query, result in zip(queries, batched):
            reference = ranker.top_k(int(query), 4, exclude_query=False)
            np.testing.assert_array_equal(result.indices, reference.indices)

    @pytest.mark.parametrize("name", ["emr", "fmr"])
    def test_batch_validation(self, name, request):
        ranker = request.getfixturevalue(name)
        assert ranker.top_k_batch(np.asarray([], dtype=np.int64), 3) == []
        with pytest.raises(ValueError, match="out of range"):
            ranker.top_k_batch(np.asarray([ranker.n_nodes]), 3)
