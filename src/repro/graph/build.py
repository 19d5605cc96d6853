"""One-call construction of the k-NN graph used throughout the paper.

:func:`build_knn_graph` composes the neighbour search, symmetrisation and
heat-kernel weighting substrates into the graph the paper's experiments use
(k = 5, union symmetrisation, automatic bandwidth, alpha handled later by
the rankers).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import KnnGraph
from repro.graph.heat_kernel import heat_kernel_weights
from repro.graph.knn import knn_search
from repro.utils.validation import check_positive_int


def build_knn_graph(
    features: np.ndarray,
    k: int = 5,
    sigma: float | str = "auto",
    weight: str = "heat",
    mode: str = "union",
    method: str = "auto",
    jobs: int = 1,
) -> KnnGraph:
    """Build the undirected weighted k-NN graph of a feature matrix.

    Parameters
    ----------
    features:
        ``(n, m)`` dense feature matrix (one row per image).
    k:
        Neighbours per node before symmetrisation.  The paper uses 5 and
        notes 5-20 is the usual range (§3).
    sigma:
        Heat-kernel bandwidth or ``"auto"`` (std of the edge distances).
    weight:
        ``"heat"`` for heat-kernel weights (paper default) or ``"binary"``
        for unweighted edges.
    mode:
        ``"union"`` keeps an edge when either endpoint selects the other;
        ``"mutual"`` requires both.  Union is the standard reading of
        "two nodes are connected if they are k-nearest neighbors".
    method:
        Neighbour-search engine, forwarded to :func:`repro.graph.knn_search`.
    jobs:
        Worker threads for the neighbour search (the expensive stage of
        graph construction); identical graphs for any value.

    Returns
    -------
    KnnGraph
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    k = check_positive_int(k, "k")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of points n={n}")
    if weight not in ("heat", "binary"):
        raise ValueError(f"weight must be 'heat' or 'binary', got {weight!r}")
    if mode not in ("union", "mutual"):
        raise ValueError(f"mode must be 'union' or 'mutual', got {mode!r}")

    nbr_idx, nbr_dist = knn_search(features, k, method=method, jobs=jobs)
    return graph_from_neighbours(
        features, nbr_idx, nbr_dist, sigma=sigma, weight=weight, mode=mode
    )


def graph_from_neighbours(
    features: np.ndarray,
    nbr_idx: np.ndarray,
    nbr_dist: np.ndarray,
    sigma: float | str = "auto",
    weight: str = "heat",
    mode: str = "union",
) -> KnnGraph:
    """Symmetrise and weight ``(n, k)`` neighbour lists into the graph.

    The tail of :func:`build_knn_graph`, for callers that already hold
    the lists :func:`repro.graph.knn_search` returns (the live engine's
    incremental rebuilds); the same lists give the same graph bitwise.
    """
    n, k = nbr_idx.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = nbr_idx.ravel()
    dists = nbr_dist.ravel()

    directed = sp.csr_matrix((dists, (rows, cols)), shape=(n, n))
    # Marker matrix distinguishes "absent" from "present at distance 0".
    present = sp.csr_matrix((np.ones_like(dists), (rows, cols)), shape=(n, n))
    if mode == "union":
        sym_present = present.maximum(present.T)
        sym_dist = directed.maximum(directed.T)
    else:
        sym_present = present.minimum(present.T)
        sym_dist = directed.multiply(sym_present)
        sym_dist = sym_dist.maximum(sym_dist.T)
    sym_present = sym_present.tocoo()
    edge_rows, edge_cols = sym_present.row, sym_present.col
    sym_dist = sym_dist.tocsr()
    edge_dists = np.asarray(sym_dist[edge_rows, edge_cols]).ravel()

    if weight == "heat":
        if sigma == "auto":
            # Bandwidth from each undirected edge once (upper triangle).
            upper = edge_rows < edge_cols
            sigma = _auto_sigma(edge_dists[upper])
        weights, used_sigma = heat_kernel_weights(edge_dists, sigma)
    else:
        weights = np.ones_like(edge_dists)
        used_sigma = 0.0

    adjacency = sp.csr_matrix((weights, (edge_rows, edge_cols)), shape=(n, n))
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    # Symmetrise exactly against float round-off.
    adjacency = ((adjacency + adjacency.T) * 0.5).tocsr()
    adjacency.sort_indices()
    return KnnGraph(
        features=features,
        adjacency=adjacency,
        k=k,
        sigma=used_sigma,
        mode=mode,
    )


def _auto_sigma(upper_edge_dists: np.ndarray) -> float:
    from repro.graph.heat_kernel import estimate_sigma

    if upper_edge_dists.size == 0:
        return 1.0
    return estimate_sigma(upper_edge_dists)
