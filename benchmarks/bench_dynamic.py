"""Benchmarks for the buffered-write path of :class:`LiveEngine`.

Measured: insert latency (buffered — should be microseconds), query
latency as a function of the pending-buffer size (the estimate pass adds
one solve plus a k-NN probe over the buffer), and the rebuild cost
(amortised across the buffer that triggered it).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import get_dataset
from repro.core.live import LiveEngine

DATASET = "pubfig"
K = 10

_state: dict = {}


def fresh_database(pending: int = 0, key_suffix: str = "") -> LiveEngine:
    key = ("db", pending, key_suffix)
    if key not in _state:
        dataset = get_dataset(DATASET)
        database = LiveEngine(
            dataset.features, alpha=0.99, auto_rebuild_fraction=None
        )
        rng = np.random.default_rng(1)
        for _ in range(pending):
            base = dataset.features[int(rng.integers(dataset.n_points))]
            database.add(base + rng.normal(scale=0.02, size=base.shape))
        _state[key] = database
    return _state[key]


@pytest.fixture(scope="module", autouse=True)
def _close_databases():
    yield
    for database in _state.values():
        database.close()
    _state.clear()


def test_insert_latency(benchmark):
    # Own instance: the benchmark loop fills the pending buffer with
    # thousands of points, which must not leak into the query benchmarks.
    database = fresh_database(key_suffix="insert-sink")
    dataset = get_dataset(DATASET)
    rng = np.random.default_rng(2)

    def insert():
        base = dataset.features[int(rng.integers(dataset.n_points))]
        return database.add(base + rng.normal(scale=0.02, size=base.shape))

    benchmark.group = "dynamic:insert"
    benchmark.name = "buffered add()"
    new_id = benchmark(insert)
    assert new_id >= dataset.n_points


@pytest.mark.parametrize("pending", [0, 10, 100])
def test_query_vs_buffer_size(benchmark, pending):
    database = fresh_database(pending)
    rng = np.random.default_rng(3)
    queries = rng.integers(0, database.n_indexed, size=16)
    state = {"i": 0}

    def query():
        q = int(queries[state["i"] % len(queries)])
        state["i"] += 1
        return database.top_k(q, K)

    benchmark.group = "dynamic:query"
    benchmark.name = f"top_k (pending={pending})"
    result = benchmark(query)
    assert len(result) == K


def test_rebuild_cost(benchmark):
    dataset = get_dataset(DATASET)
    rng = np.random.default_rng(4)

    def build_then_rebuild():
        database = LiveEngine(
            dataset.features, alpha=0.99, auto_rebuild_fraction=None
        )
        for _ in range(50):
            base = dataset.features[int(rng.integers(dataset.n_points))]
            database.add(base + rng.normal(scale=0.02, size=base.shape))
        database.rebuild()
        database.close()
        return database

    benchmark.group = "dynamic:rebuild"
    benchmark.name = "rebuild (n + 50 points)"
    database = benchmark.pedantic(build_then_rebuild, rounds=2, iterations=1)
    assert database.n_pending == 0
    assert database.rebuild_count == 1
