"""Tests for the buffered-write behaviour of :class:`LiveEngine`.

Key guarantees:

* ids are stable across rebuilds; deleted ids never reappear;
* queries against a fresh database with zero pending points behave
  exactly like a plain MogulRanker;
* pending points are findable immediately after insertion and their
  buffered estimates approach the post-rebuild scores;
* tombstoned points never appear in answers, as query or answer;
* the automatic rebuild policy fires at the configured buffer fraction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import MogulRanker
from repro.core.live import LiveEngine, _take_live
from repro.core.topk import dedupe_ranked
from repro.graph.build import build_knn_graph
from tests import oracles
from tests.conftest import three_cluster_features


@pytest.fixture()
def db():
    features, labels = three_cluster_features(per_cluster=40)
    return (
        LiveEngine(features, alpha=0.95, auto_rebuild_fraction=None),
        features,
        labels,
    )


class TestStaticEquivalence:
    def test_matches_plain_ranker_when_no_writes(self, db):
        dynamic, features, _ = db
        plain = MogulRanker(build_knn_graph(features, k=5), alpha=0.95)
        for query in (0, 17, 80):
            a = dynamic.top_k(query, 6)
            b = plain.top_k(query, 6)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_out_of_sample_matches_plain(self, db):
        dynamic, features, _ = db
        plain = MogulRanker(build_knn_graph(features, k=5), alpha=0.95)
        feature = features[3] + 0.01
        a = dynamic.top_k_out_of_sample(feature, 5)
        b = plain.top_k_out_of_sample(feature, 5)
        np.testing.assert_array_equal(a.indices, b.indices)


class TestInsertion:
    def test_new_point_is_findable_immediately(self, db):
        dynamic, features, labels = db
        # A point in the middle of cluster 1 (nodes 40-79).
        new_feature = features[labels == 1].mean(axis=0)
        new_id = dynamic.add(new_feature)
        assert new_id == features.shape[0]
        assert dynamic.n_pending == 1
        result = dynamic.top_k(45, 10)
        assert new_id in result.indices.tolist()

    def test_pending_query_works(self, db):
        dynamic, features, labels = db
        new_id = dynamic.add(features[labels == 2].mean(axis=0))
        result = dynamic.top_k(new_id, 8)
        assert new_id not in result.indices  # excluded as the query
        answer_labels = labels[result.indices[result.indices < len(labels)]]
        assert np.mean(answer_labels == 2) >= 0.75

    def test_top_k_returns_k_whatever_the_buffer(self, db):
        dynamic, features, _ = db
        rng = np.random.default_rng(3)
        for pending in (0, 10, 100):
            while dynamic.n_pending < pending:
                base = features[int(rng.integers(features.shape[0]))]
                dynamic.add(base + rng.normal(scale=0.02, size=base.shape))
            for query in (0, 61, 119):
                assert dynamic.top_k(query, 10).indices.shape[0] == 10

    def test_estimate_approaches_rebuilt_score(self, db):
        dynamic, features, labels = db
        anchor = int(np.flatnonzero(labels == 0)[5])
        new_id = dynamic.add(features[labels == 0].mean(axis=0))
        before = dynamic.top_k(anchor, 15)
        position_before = before.indices.tolist().index(new_id)
        dynamic.rebuild()
        after = dynamic.top_k(anchor, 15)
        assert new_id in after.indices.tolist()
        position_after = after.indices.tolist().index(new_id)
        # The buffered estimate put the point in roughly the right region
        # of the ranking (within a handful of positions of its true rank).
        assert abs(position_before - position_after) <= 8

    def test_ids_stable_across_rebuilds(self, db):
        dynamic, features, _ = db
        ids = [dynamic.add(features[i] + 0.01) for i in range(5)]
        dynamic.rebuild()
        more = [dynamic.add(features[i] - 0.01) for i in range(3)]
        assert ids == list(range(120, 125))
        assert more == list(range(125, 128))
        assert dynamic.n_indexed == 125
        assert dynamic.n_pending == 3

    def test_wrong_dimension_rejected(self, db):
        dynamic, _, _ = db
        with pytest.raises(ValueError, match="shape"):
            dynamic.add(np.zeros(3))


class TestDeletion:
    def test_removed_point_never_answers(self, db):
        dynamic, features, _ = db
        victim = int(dynamic.top_k(0, 1).indices[0])
        dynamic.remove(victim)
        result = dynamic.top_k(0, 20)
        assert victim not in result.indices.tolist()

    def test_removed_point_cannot_query(self, db):
        dynamic, _, _ = db
        dynamic.remove(7)
        with pytest.raises(ValueError, match="removed"):
            dynamic.top_k(7, 5)

    def test_double_remove_rejected(self, db):
        dynamic, _, _ = db
        dynamic.remove(7)
        with pytest.raises(ValueError, match="already"):
            dynamic.remove(7)

    def test_removed_leaves_graph_at_rebuild(self, db):
        dynamic, _, _ = db
        dynamic.remove(7)
        assert dynamic.n_indexed == 120  # still in the graph
        dynamic.rebuild()
        assert dynamic.n_indexed == 119  # gone after rebuild
        result = dynamic.top_k(0, 20)
        assert 7 not in result.indices.tolist()

    def test_pending_point_can_be_removed(self, db):
        dynamic, features, _ = db
        new_id = dynamic.add(features[0] + 0.005)
        dynamic.remove(new_id)
        result = dynamic.top_k(0, 20)
        assert new_id not in result.indices.tolist()

    def test_live_count(self, db):
        dynamic, features, _ = db
        assert dynamic.n_live == 120
        dynamic.add(features[0] + 0.01)
        assert dynamic.n_live == 121
        dynamic.remove(0)
        assert dynamic.n_live == 120


class TestRebuildPolicy:
    def test_auto_rebuild_fires(self):
        features, _ = three_cluster_features(per_cluster=20)
        dynamic = LiveEngine(
            features, alpha=0.95, auto_rebuild_fraction=0.1
        )
        rng = np.random.default_rng(0)
        for _ in range(7):  # 10% of 60 = 6 pending triggers at the 7th
            dynamic.add(features[0] + rng.normal(scale=0.01, size=features.shape[1]))
        dynamic.close()  # join the background rebuild
        assert dynamic.rebuild_count >= 1
        assert dynamic.n_pending < 7

    def test_manual_only_when_disabled(self, db):
        dynamic, features, _ = db
        for i in range(30):
            dynamic.add(features[i % 120] + 0.01)
        assert dynamic.rebuild_count == 0
        assert dynamic.n_pending == 30
        dynamic.rebuild()
        assert dynamic.rebuild_count == 1
        assert dynamic.n_pending == 0

    def test_validation(self):
        features, _ = three_cluster_features(per_cluster=10)
        with pytest.raises(ValueError, match="auto_rebuild_fraction"):
            LiveEngine(features, auto_rebuild_fraction=0.0)
        with pytest.raises(ValueError, match="2 rows"):
            LiveEngine(features[:1])


class TestPairRanking:
    def test_orders_and_dedups(self):
        result = dedupe_ranked(
            np.asarray([5, 3, 5, 9]), np.asarray([0.1, 0.5, 0.4, 0.4])
        )
        np.testing.assert_array_equal(result.indices, [3, 5, 9])
        np.testing.assert_allclose(result.scores, [0.5, 0.4, 0.4])

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # few ids: duplicates
                st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, -0.1]),  # ties
            ),
            max_size=40,
        ),
        tombstones=st.frozensets(st.integers(min_value=0, max_value=12)),
        k=st.integers(min_value=1, max_value=15),
        skip=st.integers(min_value=-1, max_value=12),
    )
    def test_take_live_matches_the_first_loops(self, pairs, tombstones, k, skip):
        ids = np.asarray([gid for gid, _ in pairs], dtype=np.int64)
        scores = np.asarray([score for _, score in pairs], dtype=np.float64)
        got = _take_live(ids, scores, tombstones, k, skip)
        want = oracles.take_live(ids, scores, tombstones, k, skip)
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.indices.dtype == want.indices.dtype
        full = dedupe_ranked(ids, scores)
        assert full.indices.tobytes() == oracles.dedupe_ranked(ids, scores).indices.tobytes()


class TestBatchedInterleaved:
    """Batched answers must match sequential after any mutation burst.

    Property-style sweep: random interleavings of inserts, deletes and
    rebuilds, then `top_k_batch` over a mixed (indexed + pending) query
    set, compared per-query against sequential `top_k` — on both the
    single-index and the sharded base engine.
    """

    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_sequential_after_mutations(self, n_shards, seed):
        rng = np.random.default_rng(seed)
        features, _ = three_cluster_features(per_cluster=30)
        dynamic = LiveEngine(
            features,
            alpha=0.95,
            auto_rebuild_fraction=None,
            n_shards=n_shards,
        )
        live = set(range(dynamic.n_total))
        for _ in range(25):
            action = rng.random()
            if action < 0.55:
                base = features[int(rng.integers(0, features.shape[0]))]
                new_id = dynamic.add(base + rng.normal(scale=0.05, size=8))
                live.add(new_id)
            elif action < 0.8 and len(live) > 10:
                victim = int(rng.choice(sorted(live)))
                dynamic.remove(victim)
                live.discard(victim)
            else:
                dynamic.rebuild()
        queries = rng.choice(sorted(live), size=12, replace=False)
        batched = dynamic.top_k_batch(queries, 7)
        for query, batch_answer in zip(queries, batched):
            sequential = dynamic.top_k(int(query), 7)
            np.testing.assert_array_equal(
                batch_answer.indices, sequential.indices
            )
            np.testing.assert_array_equal(
                batch_answer.scores, sequential.scores
            )

    def test_batch_rejects_tombstoned_query(self):
        features, _ = three_cluster_features(per_cluster=20)
        dynamic = LiveEngine(features, auto_rebuild_fraction=None)
        dynamic.remove(3)
        with pytest.raises(ValueError, match="removed"):
            dynamic.top_k_batch([0, 3], 5)

    def test_sharded_engine_exposed(self):
        features, _ = three_cluster_features(per_cluster=20)
        dynamic = LiveEngine(
            features, auto_rebuild_fraction=None, n_shards=2
        )
        assert dynamic.engine.index.n_shards == 2
        assert dynamic.top_k(0, 5).indices.shape[0] == 5
