"""End-to-end tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.index import MogulRanker
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from tests import oracles


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDatasets:
    def test_lists_all_four(self, capsys):
        code, out, _ = run_cli(capsys, "datasets", "--scale", "0.2")
        assert code == 0
        for name in ("coil", "pubfig", "nuswide", "inria"):
            assert name in out


class TestBuildInfoSearch:
    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "coil.idx.npz"
        code = main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(path)]
        )
        assert code == 0
        return path

    def test_build_writes_file(self, index_path):
        assert index_path.exists()

    def test_info(self, index_path, capsys):
        code, out, _ = run_cli(capsys, "info", str(index_path))
        assert code == 0
        assert "nodes:" in out
        assert "incomplete" in out

    def test_search_single(self, index_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "-k", "4",
        )
        assert code == 0
        assert out.count("node") >= 4

    def test_search_multi_seed(self, index_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "--query", "4", "-k", "4",
        )
        assert code == 0
        assert "[3, 4]" in out

    def test_search_from_npy_features(self, index_path, capsys, tmp_path):
        from repro.datasets.registry import load_dataset

        features = load_dataset("coil", scale=0.2, seed=0).features
        npy = tmp_path / "features.npy"
        np.save(npy, features)
        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--features", str(npy),
            "--query", "3", "-k", "2",
        )
        assert code == 0


class TestErrors:
    def test_bad_index_path_is_reported(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "search", str(tmp_path / "missing.npz"),
            "--dataset", "coil", "--query", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_mismatched_features_rejected(self, capsys, tmp_path):
        index = tmp_path / "tiny.idx.npz"
        assert main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(index)]
        ) == 0
        code, _, err = run_cli(
            capsys,
            "search", str(index),
            "--dataset", "coil", "--scale", "0.3",  # different size
            "--query", "0",
        )
        assert code == 2
        assert "error:" in err

    def test_build_fill_level(self, capsys, tmp_path):
        plain = tmp_path / "plain.idx.npz"
        filled = tmp_path / "filled.idx.npz"
        assert main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(plain)]
        ) == 0
        assert main(
            [
                "build", "--dataset", "coil", "--scale", "0.2",
                "--fill-level", "2", "--out", str(filled),
            ]
        ) == 0
        from repro.core.index import MogulIndex

        assert (
            MogulIndex.load(filled).factors.nnz
            >= MogulIndex.load(plain).factors.nnz
        )

    def test_info_verbose(self, capsys, tmp_path):
        index = tmp_path / "v.idx.npz"
        assert main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(index)]
        ) == 0
        code, out, _ = run_cli(capsys, "info", str(index), "--verbose")
        assert code == 0
        assert "saturated bounds" in out
        assert "border" in out

    def test_build_exact_flag(self, capsys, tmp_path):
        index = tmp_path / "exact.idx.npz"
        code = main(
            [
                "build", "--dataset", "coil", "--scale", "0.2",
                "--exact", "--out", str(index),
            ]
        )
        assert code == 0
        _, out, _ = run_cli(capsys, "info", str(index))
        assert "complete" in out


class TestBatchSearch:
    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-batch") / "coil.idx.npz"
        assert main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(path)]
        ) == 0
        return path

    def test_batch_prints_answers_and_stats(self, index_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--batch", "--query", "3", "--query", "9", "--query", "21", "-k", "4",
        )
        assert code == 0
        assert "batch of 3 queries" in out
        # Per-query pruning lines plus the aggregate totals line.
        assert out.count("pruned") == 4
        assert "batch totals:" in out
        assert out.count("node") >= 12

    def test_batch_answers_match_single_queries(self, index_path, capsys):
        code, batch_out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--batch", "--query", "7", "-k", "3",
        )
        assert code == 0
        code, single_out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "7", "-k", "3",
        )
        assert code == 0
        batch_nodes = [
            line.split()[2] for line in batch_out.splitlines() if " score " in line
        ]
        single_nodes = [
            line.split()[2] for line in single_out.splitlines() if " score " in line
        ]
        assert batch_nodes and batch_nodes == single_nodes

    def test_batch_keeps_duplicate_queries(self, index_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--batch", "--query", "7", "--query", "7", "-k", "2",
        )
        assert code == 0
        assert "batch of 2 queries" in out


class TestJsonOutput:
    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-json") / "coil.idx.npz"
        assert main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(path)]
        ) == 0
        return path

    def test_single_query_json(self, index_path, capsys):
        import json

        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "-k", "4", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["query"] == 3
        assert document["k"] == 4
        assert len(document["indices"]) == 4
        assert len(document["scores"]) == 4
        assert document["stats"]["clusters_total"] > 0
        assert document["latency_ms"] > 0

    def test_json_matches_text_answers(self, index_path, capsys):
        import json

        code, json_out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "7", "-k", "3", "--json",
        )
        assert code == 0
        code, text_out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "7", "-k", "3",
        )
        assert code == 0
        text_nodes = [
            int(line.split()[2]) for line in text_out.splitlines() if " score " in line
        ]
        assert json.loads(json_out)["indices"] == text_nodes

    def test_batch_json(self, index_path, capsys):
        import json

        code, out, _ = run_cli(
            capsys,
            "search", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--batch", "--query", "3", "--query", "9", "-k", "4", "--json",
        )
        assert code == 0
        document = json.loads(out)
        assert [entry["query"] for entry in document["results"]] == [3, 9]
        assert all(len(entry["indices"]) == 4 for entry in document["results"])
        assert document["totals"]["clusters_total"] > 0
        assert 0.0 <= document["totals"]["prune_fraction"] <= 1.0


class TestBuildJobsAndBackend:
    def test_build_prints_stage_table(self, capsys, tmp_path):
        out_path = tmp_path / "profiled.idx.npz"
        code, out, _ = run_cli(
            capsys,
            "build", "--dataset", "coil", "--scale", "0.2",
            "--jobs", "2", "--out", str(out_path),
        )
        assert code == 0
        for stage in ("graph", "clustering", "factorization", "solver"):
            assert stage in out
        assert "backend=csr" in out

    def test_backends_build_identical_answers(self, capsys, tmp_path):
        # The CLI build (k-NN on two threads) answers like an index built
        # in-process on both oracles: the dict-of-rows LDL^T and the
        # array-based Louvain local move.
        path = tmp_path / "csr.idx.npz"
        assert main(
            [
                "build", "--dataset", "coil", "--scale", "0.2",
                "--jobs", "2", "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()  # drop the build output before parsing the search
        code, out, _ = run_cli(
            capsys,
            "search", str(path), "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "-k", "5",
        )
        assert code == 0
        served = [int(line.split()[2]) for line in out.splitlines() if "node" in line]
        features = load_dataset("coil", scale=0.2, seed=0).features
        with oracles.reference_kernels():
            reference = MogulRanker(build_knn_graph(features, k=5), alpha=0.99)
        assert served == reference.top_k(3, 5).indices.tolist()

    def test_invalid_jobs_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "build", "--dataset", "coil", "--scale", "0.2",
                    "--jobs", "none", "--out", str(tmp_path / "x.npz"),
                ]
            )

    def test_zero_jobs_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "build", "--dataset", "coil", "--scale", "0.2",
                    "--jobs", "0", "--out", str(tmp_path / "x.npz"),
                ]
            )

    def test_unknown_backend_rejected(self, capsys, tmp_path):
        # The build has one factorization, so the flag itself is unknown.
        with pytest.raises(SystemExit):
            main(
                [
                    "build", "--dataset", "coil", "--scale", "0.2",
                    "--factor-backend", "csr", "--out", str(tmp_path / "x.npz"),
                ]
            )
        assert "unrecognized arguments: --factor-backend" in capsys.readouterr().err


class TestShardedCli:
    @pytest.fixture(scope="class")
    def flat_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-sharded") / "coil.idx.npz"
        code = main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(path)]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def sharded_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-sharded") / "coil.shards"
        code = main(
            [
                "build", "--dataset", "coil", "--scale", "0.2",
                "--shards", "2", "--jobs", "2", "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_build_writes_directory_layout(self, sharded_path):
        assert (sharded_path / "manifest.json").is_file()
        assert (sharded_path / "global.npz").is_file()
        assert (sharded_path / "shard_0000.npz").is_file()
        assert (sharded_path / "shard_0001.npz").is_file()

    def test_info_prints_shard_layout(self, sharded_path, capsys):
        code, out, _ = run_cli(capsys, "info", str(sharded_path))
        assert code == 0
        assert "shard layout:     2 shards" in out
        assert "shard 0:" in out and "shard 1:" in out
        assert "nnz=" in out

    def test_info_degrades_on_legacy_npz(self, flat_path, capsys):
        code, out, _ = run_cli(capsys, "info", str(flat_path))
        assert code == 0
        assert "1 shard (legacy single-file index)" in out

    def test_info_verbose_degrades_on_sharded(self, sharded_path, capsys):
        code, out, _ = run_cli(capsys, "info", "--verbose", str(sharded_path))
        assert code == 0
        assert "shard layout:" in out

    def test_search_answers_match_flat_index(
        self, flat_path, sharded_path, capsys
    ):
        import json as json_module

        args = [
            "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "--query", "17", "--batch", "-k", "5", "--json",
        ]
        code, flat_out, _ = run_cli(capsys, "search", str(flat_path), *args)
        assert code == 0
        code, sharded_out, _ = run_cli(
            capsys, "search", str(sharded_path), *args
        )
        assert code == 0
        flat_doc = json_module.loads(flat_out)
        sharded_doc = json_module.loads(sharded_out)
        assert len(flat_doc["results"]) == len(sharded_doc["results"])
        for a, b in zip(flat_doc["results"], sharded_doc["results"]):
            assert a["indices"] == b["indices"]
            assert a["scores"] == b["scores"]

    def test_search_single_on_sharded(self, sharded_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", str(sharded_path),
            "--dataset", "coil", "--scale", "0.2",
            "--query", "3", "-k", "4",
        )
        assert code == 0
        assert out.count("node") >= 4

    def test_info_on_directory_without_manifest(self, tmp_path, capsys):
        bogus = tmp_path / "not-an-index"
        bogus.mkdir()
        code, _, err = run_cli(capsys, "info", str(bogus))
        assert code == 2
        assert "manifest" in err


class TestServeSignals:
    """`repro serve` stops gracefully on SIGINT and SIGTERM.

    The server is started with SIGINT ignored, the way a non-interactive
    shell starts a background job, so only an explicitly installed
    handler can stop it; a mutable server must save its live state on
    the way out.
    """

    @pytest.fixture(scope="class")
    def index_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "coil.idx.npz"
        code = main(
            ["build", "--dataset", "coil", "--scale", "0.2", "--out", str(path)]
        )
        assert code == 0
        return path

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_signal_stops_and_persists_live_state(self, index_path, signum):
        import repro
        from repro.core.serialize import live_state_path, load_live_state
        from repro.datasets.registry import load_dataset
        from repro.service.client import RetrievalClient, wait_until_healthy

        Path(live_state_path(index_path)).unlink(missing_ok=True)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        command = [
            sys.executable, "-m", "repro", "serve", str(index_path),
            "--dataset", "coil", "--scale", "0.2",
            "--port", str(port), "--mutable",
        ]
        # Children inherit an ignored disposition across exec.
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            server = subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            wait_until_healthy("127.0.0.1", port, timeout_seconds=60)
            feature = load_dataset("coil", scale=0.2).features[0] + 0.001
            with RetrievalClient(port=port) as client:
                client.insert(feature)
            server.send_signal(signum)
            output, _ = server.communicate(timeout=10)
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
        assert server.returncode == 0, output
        assert "saved live state" in output
        state = load_live_state(index_path)
        assert state is not None
        assert state.pending_ids.shape[0] == 1


class TestStoredGraph:
    """`search` and `serve` load the artifact's k-NN graph; none is rebuilt."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stored-graph")
        flat, sharded = root / "coil.idx.npz", root / "coil.shards"
        common = ["build", "--dataset", "coil", "--scale", "0.2"]
        assert main([*common, "--out", str(flat)]) == 0
        assert main([*common, "--shards", "2", "--out", str(sharded)]) == 0
        return {"flat": flat, "sharded": sharded}

    @pytest.fixture(scope="class")
    def fresh_graph(self):
        from repro.datasets.registry import load_dataset
        from repro.graph.build import build_knn_graph

        return build_knn_graph(load_dataset("coil", scale=0.2).features, k=5)

    @pytest.mark.parametrize("kind", ["flat", "sharded"])
    def test_search_runs_no_knn(
        self, kind, artifacts, fresh_graph, capsys, monkeypatch
    ):
        import json

        import repro.graph.build
        import repro.graph.knn
        from repro.core.engine import engine_from_index
        from repro.core.serialize import load_any_index

        search_knn = repro.graph.knn.knn_search

        def no_self_query(points, k, queries=None, **kwargs):
            if queries is None:
                raise AssertionError("k-NN self-query at search time")
            return search_knn(points, k, queries=queries, **kwargs)

        def no_graph_build(*args, **kwargs):
            raise AssertionError("k-NN graph rebuilt at search time")

        monkeypatch.setattr(repro.graph.knn, "knn_search", no_self_query)
        monkeypatch.setattr(repro.graph.build, "knn_search", no_self_query)
        monkeypatch.setattr(repro.graph.build, "build_knn_graph", no_graph_build)
        code, out, err = run_cli(
            capsys,
            "search", str(artifacts[kind]),
            "--dataset", "coil", "--scale", "0.2",
            "--batch", "--query", "3", "--query", "41", "-k", "5", "--json",
        )
        assert code == 0, err
        reference = engine_from_index(fresh_graph, load_any_index(artifacts[kind]))
        for document, query in zip(json.loads(out)["results"], (3, 41)):
            expected = reference.top_k(query, 5)
            assert document["indices"] == [int(i) for i in expected.indices]
            assert document["scores"] == [float(s) for s in expected.scores]

    @pytest.mark.parametrize("kind", ["flat", "sharded"])
    def test_info_prints_graph_line(self, kind, artifacts, fresh_graph, capsys):
        code, out, _ = run_cli(capsys, "info", str(artifacts[kind]))
        assert code == 0
        line = next(row for row in out.splitlines() if row.startswith("graph:"))
        assert "k=5" in line
        assert f"{fresh_graph.n_edges} edges" in line

    @pytest.mark.timeout(120)
    def test_served_out_of_sample_matches_reference(self, artifacts, fresh_graph):
        import repro
        from repro.core.engine import engine_from_index
        from repro.core.serialize import load_any_index
        from repro.service.client import RetrievalClient, wait_until_healthy

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(artifacts["flat"]),
                "--dataset", "coil", "--scale", "0.2", "--port", str(port),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        feature = fresh_graph.features[7] + 0.01
        try:
            wait_until_healthy("127.0.0.1", port, timeout_seconds=60)
            with RetrievalClient(port=port) as client:
                served = client.search_out_of_sample(feature, 6)
        finally:
            server.send_signal(signal.SIGTERM)
            server.communicate(timeout=10)
        reference = engine_from_index(
            fresh_graph, load_any_index(artifacts["flat"])
        ).top_k_out_of_sample(feature, 6)
        assert served["indices"] == [int(i) for i in reference.indices]
        assert served["scores"] == [float(s) for s in reference.scores]
