"""Figure 6 — non-zero pattern of the factor L: Mogul vs random permutation.

The paper plots gray-dot rasters of ``L`` for each dataset under (a) the
Mogul permutation and (b) a random permutation.  Mogul's pattern is singly
bordered block diagonal (Lemma 3); random scatters non-zeros everywhere.

Here each raster is rendered as text and, more importantly, quantified:
``off_block`` — the fraction of factor non-zeros between two distinct
interior clusters — must be exactly 0 under Mogul (that *is* Lemma 3) and
is substantial under a random permutation.
"""

from __future__ import annotations

import numpy as np

from repro.core.index import MogulIndex
from repro.core.permutation import Permutation
from repro.eval.harness import ExperimentTable
from repro.eval.sparsity import block_structure_stats, sparsity_raster
from repro.experiments.common import ExperimentConfig, get_graph
from repro.linalg.ldl import incomplete_ldl
from repro.linalg.ordering import reverse_cuthill_mckee
from repro.ranking.normalize import ranking_matrix
from repro.utils.rng import as_rng


def permutation_like(reference: Permutation, order: np.ndarray) -> Permutation:
    """Wrap an arbitrary node order with the reference's cluster bookkeeping.

    The clusters are remapped onto the new order so that block statistics
    are computed against the *same* clustering — isolating the effect of
    node placement, exactly Figure 6's comparison.
    """
    n = reference.n_nodes
    order = np.asarray(order, dtype=np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    cluster_of_node = np.empty(n, dtype=np.int64)
    for cid, sl in enumerate(reference.cluster_slices):
        cluster_of_node[reference.order[sl]] = cid
    return Permutation(
        order=order,
        inverse=inverse,
        cluster_slices=reference.cluster_slices,
        cluster_of_position=cluster_of_node[order],
    )


def random_permutation_like(reference: Permutation, seed: int) -> Permutation:
    """A uniformly random node order carrying the reference's clusters."""
    rng = as_rng(seed)
    return permutation_like(
        reference, rng.permutation(reference.n_nodes).astype(np.int64)
    )


def run(config: ExperimentConfig | None = None) -> list[ExperimentTable]:
    """Regenerate Figure 6: block statistics plus text rasters."""
    config = config or ExperimentConfig()
    table = ExperimentTable(
        title="Figure 6: non-zero structure of L (fractions of nnz)",
        columns=[
            "dataset",
            "permutation",
            "nnz",
            "within_block",
            "border",
            "off_block",
            "mean_band",
        ],
    )
    rasters: list[str] = []
    for name in config.datasets:
        graph = get_graph(name, config)
        index = MogulIndex.build(graph, alpha=config.alpha)
        stats = block_structure_stats(index.factors.lower, index.permutation)
        table.add_row(
            name,
            "Mogul",
            int(stats["nnz"]),
            stats["within_block"],
            stats["border"],
            stats["off_block"],
            stats["mean_band"],
        )

        random_perm = random_permutation_like(index.permutation, seed=config.seed)
        w = ranking_matrix(graph.adjacency, config.alpha)
        random_factors = incomplete_ldl(random_perm.permute_matrix(w))
        # Block membership in the random layout references the same clusters.
        random_stats = block_structure_stats(random_factors.lower, random_perm)
        table.add_row(
            name,
            "Random",
            int(random_stats["nnz"]),
            random_stats["within_block"],
            random_stats["border"],
            random_stats["off_block"],
            random_stats["mean_band"],
        )

        # The classic sparse-matrix baseline: RCM gives a tight band but no
        # block structure, so it cannot support Lemmas 4/5 — the contrast
        # that motivates Algorithm 1's clustering-driven layout.
        rcm_perm = permutation_like(
            index.permutation, reverse_cuthill_mckee(graph.adjacency)
        )
        rcm_factors = incomplete_ldl(rcm_perm.permute_matrix(w))
        rcm_stats = block_structure_stats(rcm_factors.lower, rcm_perm)
        table.add_row(
            name,
            "RCM",
            int(rcm_stats["nnz"]),
            rcm_stats["within_block"],
            rcm_stats["border"],
            rcm_stats["off_block"],
            rcm_stats["mean_band"],
        )

        rasters.append(f"{name} / Mogul permutation:")
        rasters.extend(sparsity_raster(index.factors.lower, size=32))
        rasters.append(f"{name} / random permutation:")
        rasters.extend(sparsity_raster(random_factors.lower, size=32))
        rasters.append(f"{name} / RCM permutation:")
        rasters.extend(sparsity_raster(rcm_factors.lower, size=32))
    table.add_note(
        "off_block is 0 in every layout because ICF keeps W's pattern and "
        "interior nodes have no cross-cluster edges; what Lemma 3 adds is "
        "that under Mogul the clusters also occupy *contiguous position "
        "ranges*, which is what restricted substitution needs"
    )
    table.add_note(
        "RCM (classic bandwidth minimisation) achieves the tightest band "
        "(mean_band below Mogul's), but it interleaves cluster members in "
        "position space — no contiguous cluster ranges, so Lemmas 4/5's "
        "restricted substitution and the cluster bounds cannot run on it"
    )
    table.add_note(
        "mean_band captures the visual scatter of the paper's rasters: "
        "compact blocks under Mogul, ~1/3 under a random permutation"
    )
    raster_table = ExperimentTable(
        title="Figure 6 rasters (one text row per raster line)",
        columns=["pattern"],
    )
    for line in rasters:
        raster_table.add_row(line)
    return [table, raster_table]


def main() -> None:  # pragma: no cover - CLI glue
    tables = run()
    print(tables[0].to_text())
    print()
    for row in tables[1].rows:
        print(row[0])


if __name__ == "__main__":  # pragma: no cover
    main()
