"""Tests for the LRU result cache (repro.service.cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.live import LiveEngine
from repro.service.cache import ResultCache


class TestLruSemantics:
    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=4)
        key = ResultCache.node_key(7, 10)
        assert cache.get(key) is None
        cache.put(key, "answer")
        assert cache.get(key) == "answer"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1

    def test_distinct_keys_do_not_collide(self):
        # Same node, different k / params / kind -> different entries.
        keys = [
            ResultCache.node_key(7, 10),
            ResultCache.node_key(7, 5),
            ResultCache.node_key(7, 10, exclude=False),
            ResultCache.feature_key(np.arange(4.0), 10),
        ]
        assert len(set(keys)) == 4

    def test_feature_key_is_content_addressed(self):
        a = np.array([1.0, 2.0, 3.0])
        assert ResultCache.feature_key(a, 5) == ResultCache.feature_key(a.copy(), 5)
        assert ResultCache.feature_key(a, 5) != ResultCache.feature_key(a + 1e-12, 5)

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ResultCache(capacity=-1)

    def test_stale_generation_put_is_dropped(self):
        """An answer computed before an invalidation must not be cached."""
        cache = ResultCache(capacity=8)
        generation = cache.generation
        cache.invalidate()  # index mutated while the solve was running
        cache.put("a", "stale-answer", generation=generation)
        assert cache.get("a") is None
        cache.put("a", "fresh", generation=cache.generation)
        assert cache.get("a") == "fresh"

    def test_invalidate_clears_and_counts(self):
        cache = ResultCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats()["invalidations"] == 1


class TestDynamicInvalidation:
    @pytest.fixture()
    def dynamic(self):
        features, _ = _two_blob_features()
        return LiveEngine(features, k=4, auto_rebuild_fraction=None)

    def test_insert_invalidates(self, dynamic):
        cache = ResultCache(capacity=8)
        cache.attach(dynamic)
        key = ResultCache.node_key(0, 5)
        cache.put(key, dynamic.top_k(0, 5))
        assert cache.get(key) is not None
        dynamic.add(dynamic._features[0] + 0.05)
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

    def test_delete_invalidates(self, dynamic):
        cache = ResultCache(capacity=8)
        cache.attach(dynamic)
        cache.put(ResultCache.node_key(1, 5), "stale")
        dynamic.remove(3)
        assert len(cache) == 0

    def test_rebuild_invalidates(self, dynamic):
        cache = ResultCache(capacity=8)
        cache.attach(dynamic)
        dynamic.add(dynamic._features[1] + 0.05)  # invalidation #1
        cache.put(ResultCache.node_key(2, 5), "stale")
        dynamic.rebuild()  # invalidation #2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2

    def test_cached_answer_would_be_stale_without_invalidation(self, dynamic):
        """The scenario invalidation exists for: answers change on insert."""
        cache = ResultCache(capacity=8)
        cache.attach(dynamic)
        key = ResultCache.node_key(0, 5)
        before = dynamic.top_k(0, 5)
        cache.put(key, before)
        # Insert a near-duplicate of node 0: it should enter 0's top-k.
        new_id = dynamic.add(dynamic._features[0] + 1e-3)
        assert cache.get(key) is None  # stale entry already dropped
        after = dynamic.top_k(0, 5)
        assert new_id in after.indices
        assert not np.array_equal(before.indices, after.indices)


def _two_blob_features(per_blob: int = 30, dim: int = 5, seed: int = 11):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.5, size=(per_blob, dim))
    b = rng.normal(scale=0.5, size=(per_blob, dim)) + 3.0
    features = np.vstack([a, b])
    labels = np.repeat([0, 1], per_blob)
    return features, labels
