"""BuildProfile: per-stage accounting, persistence, and surfacing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.index import MogulIndex, MogulRanker
from repro.core.profile import BuildProfile
from repro.core.serialize import load_index, save_index

EXPECTED_STAGES = (
    "clustering",
    "permutation",
    "ranking_matrix",
    "factorization",
    "bounds",
    "solver",
    "cluster_means",
)


@pytest.fixture(scope="module")
def built(bridged_graph):
    return MogulIndex.build(bridged_graph)


class TestBuildRecordsProfile:
    def test_all_stages_recorded(self, built):
        profile = built.profile
        assert profile is not None
        assert tuple(profile.stages) == EXPECTED_STAGES
        assert all(seconds >= 0.0 for seconds in profile.stages.values())
        assert profile.total_seconds == pytest.approx(
            sum(profile.stages.values())
        )

    def test_statistics_match_index(self, built):
        profile = built.profile
        assert profile.n_nodes == built.n_nodes
        assert profile.n_clusters == built.n_clusters
        border = built.permutation.border_slice
        assert profile.border_size == border.stop - border.start
        assert profile.factor_nnz == built.factors.nnz
        assert profile.factor_backend == "csr"
        # The paper's ICF keeps exactly W's strict-lower pattern.
        assert profile.fill_ratio == pytest.approx(1.0)
        assert profile.load_seconds is None

    def test_precomputed_labels_skip_clustering_stage(self, bridged_graph):
        labels = np.zeros(bridged_graph.n_nodes, dtype=np.int64)
        labels[bridged_graph.n_nodes // 2 :] = 1
        index = MogulIndex.build(bridged_graph, cluster_labels=labels)
        assert "clustering" not in index.profile.stages
        assert "factorization" in index.profile.stages

    def test_complete_factorization_reports_fill(self, bridged_graph):
        index = MogulIndex.build(bridged_graph, factorization="complete")
        assert index.profile.fill_ratio >= 1.0
        assert index.profile.factor_nnz == index.factors.nnz


class TestProfileRoundtrip:
    def test_json_roundtrip(self, built):
        restored = BuildProfile.from_json(built.profile.to_json())
        assert restored.stages == built.profile.stages
        assert restored.factor_backend == built.profile.factor_backend
        assert restored.factor_nnz == built.profile.factor_nnz

    def test_to_text_lists_stages(self, built):
        text = built.profile.to_text()
        for stage in EXPECTED_STAGES:
            assert stage in text
        assert "backend=csr" in text

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            BuildProfile.from_json("[1, 2, 3]")


class TestPersistence:
    def test_saved_and_loaded_with_load_seconds(self, built, tmp_path):
        path = tmp_path / "profiled.idx.npz"
        save_index(built, path)
        loaded = load_index(path)
        assert loaded.profile is not None
        assert loaded.profile.stages == built.profile.stages
        assert loaded.profile.load_seconds is not None
        assert loaded.profile.load_seconds > 0.0

    def test_compressed_roundtrip_keeps_profile(self, built, tmp_path):
        path = tmp_path / "compressed.idx.npz"
        save_index(built, path, compressed=True)
        loaded = load_index(path)
        assert loaded.profile.stages == built.profile.stages

    def test_profileless_file_still_loads(self, built, tmp_path):
        # Simulate an index written before profiles existed.
        path = tmp_path / "legacy.idx.npz"
        bare = MogulIndex(
            permutation=built.permutation,
            factors=built.factors,
            bounds=built.bounds,
            cluster_means=built.cluster_means,
            cluster_members=built.cluster_members,
            alpha=built.alpha,
            factorization=built.factorization,
            solver=built.solver,
            bounds_table=built.bounds_table,
            graph=built.graph,
        )
        save_index(bare, path)
        loaded = load_index(path)
        assert loaded.profile is not None  # synthesised at load time
        assert loaded.profile.load_seconds is not None
        assert loaded.profile.stages == {}

    def test_loaded_index_answers_match(self, built, bridged_graph, tmp_path):
        path = tmp_path / "answers.idx.npz"
        save_index(built, path)
        loaded = load_index(path)
        ranker = MogulRanker.from_index(bridged_graph, built)
        loaded_ranker = MogulRanker.from_index(bridged_graph, loaded)
        for query in (0, 40, 80):
            expected = ranker.top_k(query, 10)
            actual = loaded_ranker.top_k(query, 10)
            assert np.array_equal(expected.indices, actual.indices)
            assert np.array_equal(expected.scores, actual.scores)


class TestCriticalPath:
    def test_serial_decomposition(self):
        from repro.core.profile import BuildProfile

        profile = BuildProfile(
            stages={"shared": 1.0, "factorization": 4.0},
            shard_seconds=[1.0, 1.0, 1.0, 1.0],
        )
        assert profile.critical_path_seconds == pytest.approx(2.0)

    def test_sharded_build_times_each_shard(self, bridged_graph):
        from repro.core.sharded import ShardedMogulIndex

        index = ShardedMogulIndex.build(bridged_graph, 2)
        profile = index.profile
        assert len(profile.shard_seconds) == index.n_shards
        assert 0 < profile.critical_path_seconds <= profile.total_seconds

    def test_unsharded_equals_total(self):
        from repro.core.profile import BuildProfile

        profile = BuildProfile(stages={"a": 1.0, "b": 2.0})
        assert profile.critical_path_seconds == pytest.approx(3.0)
