"""Clustering substrates required by the paper's pipeline.

* :mod:`~repro.clustering.louvain` — modularity-based graph clustering.
  Algorithm 1 of the paper delegates to Shiokawa et al. [17]
  (incremental-aggregation modularity clustering); we reimplement that
  family as Louvain-style local moving + aggregation, which optimises the
  same objective with the same linear-time behaviour on k-NN graphs and
  likewise determines the number of clusters automatically.
* :mod:`~repro.clustering.kmeans` — Lloyd's algorithm with k-means++
  seeding; selects EMR's anchor points [21] and the embedding step of
  spectral clustering.
* :func:`spectral_clustering` — normalised-cut spectral clustering, the
  partitioner FMR [8] relies on.
* :mod:`~repro.clustering.modularity` — the objective, for tests and
  diagnostics (import :func:`repro.clustering.modularity.modularity`; the
  package does not re-export it, so the submodule is never shadowed).
"""

from repro.clustering.kmeans import KMeansResult
from repro.clustering.louvain import louvain_refined
from repro.clustering.spectral import spectral_clustering

__all__ = [
    "KMeansResult",
    "louvain_refined",
    "spectral_clustering",
]
