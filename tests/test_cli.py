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
        assert "backend=csr jobs=2" in out

    def test_backends_build_identical_answers(self, capsys, tmp_path):
        reference = tmp_path / "ref.idx.npz"
        fast = tmp_path / "csr.idx.npz"
        for path, backend in ((reference, "reference"), (fast, "csr")):
            assert main(
                [
                    "build", "--dataset", "coil", "--scale", "0.2",
                    "--factor-backend", backend, "--jobs", "2",
                    "--out", str(path),
                ]
            ) == 0
        capsys.readouterr()  # drop the build output before parsing searches
        outputs = []
        for path in (reference, fast):
            code, out, _ = run_cli(
                capsys,
                "search", str(path), "--dataset", "coil", "--scale", "0.2",
                "--query", "3", "-k", "5",
            )
            assert code == 0
            # Compare the ranked node ids line by line.
            outputs.append(
                [line.split()[2] for line in out.splitlines() if "node" in line]
            )
        assert outputs[0] == outputs[1]

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
        with pytest.raises(SystemExit):
            main(
                [
                    "build", "--dataset", "coil", "--scale", "0.2",
                    "--factor-backend", "bogus", "--out", str(tmp_path / "x.npz"),
                ]
            )


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
