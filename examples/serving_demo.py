"""Serving demo: a live retrieval service with micro-batched queries.

Run with::

    python examples/serving_demo.py

Builds a small synthetic database, starts the asyncio HTTP server on a
free port (in a background thread — exactly what ``python -m repro
serve`` runs in the foreground), drives it with concurrent closed-loop
clients, and prints the p95 latency plus the scheduler's coalescing
rate.  One response is checked against a direct ``top_k`` call to show
that serving is purely an execution layer: same answers, shared solves.

The same workflow from the shell::

    python -m repro build --dataset coil --out coil.idx.npz
    python -m repro serve coil.idx.npz --dataset coil --port 8080 &
    python -m repro loadtest --port 8080 --concurrency 32 --requests 512
"""

from __future__ import annotations

import numpy as np

from repro import MogulRanker, build_knn_graph
from repro.service import BackgroundServer, RetrievalClient, run_load_test


def main() -> None:
    # A toy database: three separated Gaussian classes in 16-D.
    rng = np.random.default_rng(4)
    features = np.vstack(
        [rng.normal(scale=0.6, size=(120, 16)) + 4.0 * c for c in range(3)]
    )
    graph = build_knn_graph(features, k=5)
    ranker = MogulRanker(graph)

    with BackgroundServer(ranker, port=0, max_batch_size=32) as background:
        print(f"serving {ranker.n_nodes} nodes on port {background.port}")

        # One interactive query, checked against the library answer.
        with RetrievalClient(port=background.port) as client:
            payload = client.search(0, k=5)
            direct = ranker.top_k(0, 5)
            assert payload["indices"] == [int(node) for node in direct.indices]
            print(
                f"query 0 -> {payload['indices']} "
                f"(batch size {payload['batch_size']}, "
                f"{payload['latency_ms']:.2f} ms) — matches direct top_k"
            )

        # Concurrent load: 16 closed-loop workers, 400 requests total.
        report = run_load_test(
            port=background.port,
            concurrency=16,
            total_requests=400,
            k=10,
            check_against=ranker.top_k,
        )
        print()
        print(report.to_text())
        assert report.ok, "load test saw errors or empty responses"
        p95 = report.latency.summary()["p95_ms"]
        mean_batch = report.server_metrics.get("mean_batch_size", 0.0)
        print()
        print(
            f"p95 latency {p95:.2f} ms at {report.throughput_rps:.0f} req/s; "
            f"the scheduler coalesced {mean_batch:.1f} queries per solve"
        )


if __name__ == "__main__":
    main()
