"""Figure 9 — case studies: what each method actually retrieves.

The paper shows example COIL queries where plain graph neighbours
("Connected") drift to semantically different objects, EMR retrieves
same-shape-different-object images, and Mogul stays on the query's object
manifold.  With the COIL substitute the exhibit becomes a table: for each
case-study query, the ground-truth class of the query and of each method's
top answers.

The reproduced shape: Mogul's answers match the query class (close to)
always; Connected and EMR mix in other classes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.emr import EMRRanker
from repro.core.index import MogulRanker
from repro.eval.harness import ExperimentTable, sample_queries
from repro.eval.metrics import retrieval_precision
from repro.experiments.common import ExperimentConfig, get_dataset, get_graph

#: EMR anchor count used in the paper's case studies (§5.3).
CASE_STUDY_ANCHORS = 100


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figure 9's case studies on the COIL substitute."""
    config = config or ExperimentConfig()
    dataset = get_dataset("coil", config)
    graph = get_graph("coil", config)
    labels = dataset.labels

    mogul = MogulRanker(graph, alpha=config.alpha)
    emr = EMRRanker(
        graph,
        alpha=config.alpha,
        n_anchors=min(CASE_STUDY_ANCHORS, graph.n_nodes),
    )

    n_cases = min(4, config.n_queries)
    queries = _interesting_queries(graph, labels, n_cases, config)

    table = ExperimentTable(
        title="Figure 9: case studies on COIL substitute (answer classes)",
        columns=[
            "query",
            "query class",
            "Connected (k-NN)",
            "Mogul",
            "EMR",
            "Mogul precision",
            "EMR precision",
        ],
    )
    for q in queries:
        q = int(q)
        query_label = int(labels[q])
        connected = graph.neighbors(q)[: config.k]
        mogul_answers = mogul.top_k(q, config.k).indices
        emr_answers = emr.top_k(q, config.k).indices
        table.add_row(
            q,
            query_label,
            _classes(labels, connected),
            _classes(labels, mogul_answers),
            _classes(labels, emr_answers),
            retrieval_precision(mogul_answers, labels, query_label),
            retrieval_precision(emr_answers, labels, query_label),
        )
    table.add_note(
        "each method cell lists the ground-truth classes of its top answers; "
        "matching the query class = semantically correct retrieval"
    )
    return [table]


def _classes(labels: np.ndarray, indices: np.ndarray) -> str:
    return ",".join(str(int(labels[i])) for i in indices)


def _interesting_queries(
    graph, labels: np.ndarray, n_cases: int, config: ExperimentConfig
) -> np.ndarray:
    """Prefer queries whose direct k-NN neighbourhood crosses classes.

    The paper's case studies showcase exactly such queries (the orange
    truck whose nearest neighbour is a tomato); on clean regions every
    method ties at precision 1 and the exhibit shows nothing.  Falls back
    to random queries when the graph has no impure neighbourhoods.
    """
    impure = [
        node
        for node in range(graph.n_nodes)
        if np.any(labels[graph.neighbors(node)] != labels[node])
    ]
    rng = np.random.default_rng(config.seed + 1)
    if len(impure) >= n_cases:
        return rng.choice(np.asarray(impure), size=n_cases, replace=False)
    extra = sample_queries(graph.n_nodes, n_cases - len(impure), seed=config.seed + 1)
    return np.concatenate([np.asarray(impure, dtype=np.int64), extra])


def main() -> None:  # pragma: no cover - CLI glue
    for table in run():
        print(table.to_text())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
