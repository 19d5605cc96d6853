"""Figure 1 — search time of every method on every dataset.

The paper's headline efficiency figure: wall-clock per query for
Mogul(k=5/10/15/20), EMR (d=10), FMR, Iterative (tol 1e-4) and the Inverse
approach, across the four datasets in increasing size.  The expected shape:
Mogul fastest everywhere and independent of k; Inverse orders of magnitude
slower and infeasible past the memory cap; EMR between them.

Search time covers exactly the per-query work — all precomputation
(Mogul's factorization, EMR's anchors, FMR's partition, Inverse's matrix
inversion) happens before the timed region, matching §5.1's protocol.
"""

from __future__ import annotations

from repro.baselines.emr import EMRRanker
from repro.baselines.fmr import FMRRanker
from repro.core.index import MogulRanker
from repro.eval.harness import ExperimentTable, sample_queries, time_queries
from repro.experiments.common import ExperimentConfig, get_graph
from repro.ranking.exact import ExactRanker
from repro.ranking.iterative import IterativeRanker


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figure 1; one table row per dataset."""
    config = config or ExperimentConfig()
    columns = ["dataset", "n"]
    columns += [f"Mogul({k})" for k in config.mogul_k_values]
    columns += ["EMR", "FMR", "Iterative", "Inverse"]
    table = ExperimentTable(
        title="Figure 1: search time per query [s]", columns=columns
    )
    table.add_note(
        f"scale={config.scale}, {config.n_queries} queries/cell, alpha={config.alpha}"
    )

    for name in config.datasets:
        graph = get_graph(name, config)
        queries = sample_queries(graph.n_nodes, config.n_queries, seed=config.seed)
        row: list[object] = [name, graph.n_nodes]

        mogul = MogulRanker(graph, alpha=config.alpha)
        for k in config.mogul_k_values:
            row.append(time_queries(lambda q, k=k: mogul.top_k(int(q), k), queries))

        emr = EMRRanker(graph, alpha=config.alpha, n_anchors=config.emr_anchors)
        row.append(time_queries(lambda q: emr.top_k(int(q), config.k), queries))

        fmr = FMRRanker(graph, alpha=config.alpha)
        row.append(time_queries(lambda q: fmr.top_k(int(q), config.k), queries))

        iterative = IterativeRanker(graph, alpha=config.alpha)
        row.append(
            time_queries(lambda q: iterative.top_k(int(q), config.k), queries)
        )

        if graph.n_nodes <= config.inverse_cap:
            # The paper costs the Inverse baseline per query (inversion
            # included), so only a couple of queries are needed — the
            # variance of an O(n^3) dense inversion is negligible.
            inverse = ExactRanker(
                graph, alpha=config.alpha, method="per_query_inverse"
            )
            row.append(
                time_queries(
                    lambda q: inverse.top_k(int(q), config.k),
                    queries[: min(2, len(queries))],
                    warmup=0,
                )
            )
        else:
            row.append("skipped (memory)")
        table.add_row(*row)
    return [table]


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
