"""Smoke test of the benchmark suite itself (n = 1000, sub-second windows).

Asserts the contract later PRs rely on: every workload emits every metric
that ``BENCHMARK.json`` names — finite, with the declared unit — no
operation fails, and a wrong expected answer makes the run fail.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())


def _smoke(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", *extra],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_smoke_emits_every_named_metric(tmp_path):
    # The traced pass alone: it also reports the end-to-end metrics (from its
    # untraced windows), and the test below drives an untraced run.
    out = tmp_path / "records.json"
    done = _smoke("--trace", "1", "--json", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(out.read_text())
    assert document["claim"] is None
    assert document["fingerprint"]["nproc"] >= 1
    records = {(r["workload"], r["metric"]): r for r in document["records"]}
    for workload in SPEC["workloads"]:
        name = workload["name"]
        summary = document["workloads"][name]
        assert summary["ops_failed"] == 0, summary
        assert summary["ops_attempted"] > 0
        assert len(summary["answers_digest"]) == 64
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            record = records[(name, entry["name"])]
            assert math.isfinite(record["value"]), record
            assert record["unit"] == entry["unit"], record
            assert record["n"] >= 1


def test_corrupted_expected_answer_fails_the_run():
    done = _smoke("--workload", "engine_direct", "--corrupt-oracle")
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
