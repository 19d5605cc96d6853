"""Modularity-based graph clustering (Louvain-style incremental aggregation).

The paper's Algorithm 1 clusters the k-NN graph with the modularity
algorithm of Shiokawa et al. [17], chosen for being linear in the number of
edges and for choosing the number of clusters automatically.  That code is
C++ and unavailable; we implement the same algorithmic family from scratch:
greedy *local moving* of nodes between communities to maximise modularity,
followed by *aggregation* of communities into super-nodes, repeated until
modularity stops improving (Blondel et al.'s multilevel scheme, of which
[17] is an engineered variant).  Complexity is O(#edges) per pass and the
pass count is small in practice, matching the cost model Lemma 2 assumes.

Determinism: with the default ``shuffle=False`` nodes are visited in index
order and the result is a pure function of the graph.

Two implementations of the local-moving sweep share that contract:
``impl="fast"`` (default) runs the greedy loop over plain Python lists —
the same arithmetic in the same order, minus the per-element numpy
scalar overhead that dominates at k-NN-graph sparsity — and
``impl="reference"`` keeps the original array-based loop.  Both produce
bitwise-identical labels; the reference tier exists for equivalence
tests and as the precompute benchmark baseline.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_symmetric

#: Local-move implementations accepted by :func:`louvain`.
IMPLS = ("fast", "reference")


def louvain(
    adjacency: sp.spmatrix,
    resolution: float = 1.0,
    tol: float = 1e-9,
    max_levels: int = 32,
    shuffle: bool = False,
    seed: SeedLike = None,
    impl: str = "fast",
) -> np.ndarray:
    """Cluster a weighted undirected graph by greedy modularity optimisation.

    Parameters
    ----------
    adjacency:
        Symmetric non-negative weight matrix; self loops are ignored on
        input (k-NN graphs have none).
    resolution:
        Resolution parameter gamma; 1.0 recovers plain modularity.  Values
        above 1 give more, smaller clusters.
    tol:
        Minimum modularity gain for a move or a level to count as progress.
    max_levels:
        Safety cap on aggregation levels (never reached in practice).
    shuffle:
        Visit nodes in random order during local moving (uses ``seed``).
    seed:
        RNG seed for ``shuffle``.
    impl:
        ``"fast"`` (default) or ``"reference"`` — bitwise-identical
        results, see the module docstring.

    Returns
    -------
    numpy.ndarray
        Community label per node, contiguous ids ``0..N-1``.
    """
    if impl not in IMPLS:
        raise ValueError(f"impl must be one of {IMPLS}, got {impl!r}")
    adjacency = check_symmetric(adjacency.tocsr(), "adjacency", tol=1e-8)
    n = adjacency.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    rng = as_rng(seed)
    local_move = _local_move_fast if impl == "fast" else _local_move

    current = adjacency.copy().astype(np.float64)
    current.setdiag(0.0)
    current.eliminate_zeros()
    labels = np.arange(n, dtype=np.int64)  # original node -> community

    for _ in range(max_levels):
        comm, improved = local_move(current, resolution, tol, shuffle, rng)
        comm = _relabel(comm)
        labels = comm[labels]
        if not improved or comm.max() == current.shape[0] - 1:
            break
        current = _aggregate(current, comm)

    return _relabel(labels)


def louvain_reference(adjacency: sp.spmatrix, **kwargs) -> np.ndarray:
    """:func:`louvain` pinned to the reference local-move implementation.

    A named clusterer so reference-pipeline configurations (equivalence
    tests, the precompute benchmark baseline) can be passed around as a
    plain ``ClusterFn``.
    """
    return louvain(adjacency, impl="reference", **kwargs)


def louvain_refined(
    adjacency: sp.spmatrix,
    resolution: float = 1.0,
    max_cluster_size: int | None = None,
    max_attempts: int = 3,
    tol: float = 1e-9,
    impl: str = "fast",
) -> np.ndarray:
    """Louvain with recursive splitting of oversized communities.

    Plain modularity optimisation can emit one giant community on graphs
    with very unbalanced cluster sizes (the NUS-WIDE situation the paper
    calls out against FMR's balanced cuts).  A giant cluster hurts Mogul
    twice: its geometric bound :math:`(1+\\bar{U}_i)^{N_i-1}` is far too
    loose to ever prune, and scoring it costs a large fraction of a full
    solve.  This wrapper re-runs Louvain at doubled resolution inside any
    community above ``max_cluster_size`` until every piece fits or shows
    no substructure (a genuinely dense blob is left alone — splitting it
    would only push its members into the border cluster).

    Stays parameter-free in the paper's sense: the default cap
    ``max(64, ceil(4 * sqrt(n)))`` is derived from the graph, not tuned by
    the user.  Termination is guaranteed because every re-queued piece is
    strictly smaller than its parent.

    Returns community labels with contiguous ids, like :func:`louvain`.
    """
    adjacency = check_symmetric(adjacency.tocsr(), "adjacency", tol=1e-8)
    n = adjacency.shape[0]
    if max_cluster_size is None:
        max_cluster_size = max(64, int(math.ceil(4.0 * math.sqrt(n))))
    elif max_cluster_size < 1:
        raise ValueError(f"max_cluster_size must be >= 1, got {max_cluster_size}")
    labels = louvain(adjacency, resolution=resolution, tol=tol, impl=impl)
    if n == 0:
        return labels

    def split_community(members: np.ndarray) -> np.ndarray | None:
        subgraph = adjacency[members][:, members].tocsr()
        sub_resolution = resolution
        for _ in range(max_attempts):
            sub_resolution *= 2.0
            candidate = louvain(
                subgraph, resolution=sub_resolution, tol=tol, impl=impl
            )
            if candidate.max() > 0:
                return candidate
        return None  # no substructure found; keep the community whole

    next_label = int(labels.max()) + 1
    counts = np.bincount(labels)
    work = [int(c) for c in np.flatnonzero(counts > max_cluster_size)]
    while work:
        wave = sorted(work)
        work = []
        member_sets = [np.flatnonzero(labels == target) for target in wave]
        splits = [split_community(members) for members in member_sets]
        for target, members, split in zip(wave, member_sets, splits):
            if split is None:
                continue
            for piece in range(int(split.max()) + 1):
                piece_members = members[split == piece]
                label = target if piece == 0 else next_label
                if piece != 0:
                    next_label += 1
                labels[piece_members] = label
                if piece_members.size > max_cluster_size:
                    work.append(label)
    return _relabel(labels)


def _local_move(
    graph: sp.csr_matrix,
    resolution: float,
    tol: float,
    shuffle: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One level of greedy node moving.  Returns (labels, any_improvement)."""
    n = graph.shape[0]
    indptr, indices, data = graph.indptr, graph.indices, graph.data
    loops = graph.diagonal()
    degrees = np.asarray(graph.sum(axis=1)).ravel()
    two_m = float(degrees.sum())
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), False

    comm = np.arange(n, dtype=np.int64)
    comm_tot = degrees.copy()  # total degree per community
    order = np.arange(n)
    if shuffle:
        rng.shuffle(order)

    improved_any = False
    for _ in range(n):  # pass limit; each pass is O(edges)
        moved = 0
        for i in order:
            ci = comm[i]
            ki = degrees[i]
            # Edge weight from i to each neighbouring community.
            weights: dict[int, float] = {}
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if j == i:
                    continue
                cj = comm[j]
                weights[cj] = weights.get(cj, 0.0) + data[p]
            comm_tot[ci] -= ki
            # Gain of joining community c (up to constants shared by all c):
            #   w(i->c) - gamma * k_i * tot_c / 2m
            best_c = ci
            best_gain = weights.get(ci, 0.0) - resolution * ki * comm_tot[ci] / two_m
            for c, w in weights.items():
                if c == ci:
                    continue
                gain = w - resolution * ki * comm_tot[c] / two_m
                if gain > best_gain + tol:
                    best_gain = gain
                    best_c = c
            comm_tot[best_c] += ki
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        improved_any = True
    # `loops` intentionally unused for moving (self loops do not change
    # relative gains) but kept for clarity of the degree convention.
    del loops
    return comm, improved_any


def _local_move_fast(
    graph: sp.csr_matrix,
    resolution: float,
    tol: float,
    shuffle: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """The reference sweep restated on plain Python lists.

    Same visit order, same expressions evaluated in the same order —
    Python floats and numpy float64 scalars share IEEE-754 semantics, so
    the labels come out bitwise identical — but the per-node inner loops
    run on list indexing and native floats, which is several times
    faster than numpy scalar access at k-NN-graph degree.
    """
    n = graph.shape[0]
    if graph.nnz and bool((graph.data <= 0.0).any()):
        # The dense-scratch accumulator below uses "acc[c] == 0.0" as its
        # membership test, which only a strictly positive weight sum
        # keeps sound.  Graphs in this library always are (heat-kernel /
        # binary weights); anything else takes the reference sweep.
        return _local_move(graph, resolution, tol, shuffle, rng)
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    data = graph.data.tolist()
    degrees_arr = np.asarray(graph.sum(axis=1)).ravel()
    two_m = float(degrees_arr.sum())
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), False
    degrees = degrees_arr.tolist()

    comm = list(range(n))
    comm_tot = degrees_arr.copy().tolist()  # total degree per community
    order_arr = np.arange(n)
    if shuffle:
        rng.shuffle(order_arr)
    order = order_arr.tolist()

    # Neighbour-community weights accumulate into a dense scratch instead
    # of a per-node dict; ``touched`` replays the communities in
    # first-touch order — the same order dict insertion would give, so
    # gains are compared in the reference implementation's exact
    # sequence — and resets the scratch afterwards.
    acc = [0.0] * n
    touched: list[int] = []

    improved_any = False
    for _ in range(n):  # pass limit; each pass is O(edges)
        moved = 0
        for i in order:
            ci = comm[i]
            ki = degrees[i]
            del touched[:]
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                if j == i:
                    continue
                cj = comm[j]
                if acc[cj] == 0.0:
                    touched.append(cj)
                acc[cj] += data[p]
            comm_tot[ci] -= ki
            # Gain of joining community c (up to constants shared by all c):
            #   w(i->c) - gamma * k_i * tot_c / 2m
            best_c = ci
            best_gain = acc[ci] - resolution * ki * comm_tot[ci] / two_m
            for c in touched:
                if c == ci:
                    continue
                gain = acc[c] - resolution * ki * comm_tot[c] / two_m
                if gain > best_gain + tol:
                    best_gain = gain
                    best_c = c
            for c in touched:
                acc[c] = 0.0
            comm_tot[best_c] += ki
            if best_c != ci:
                comm[i] = best_c
                moved += 1
        if moved == 0:
            break
        improved_any = True
    return np.asarray(comm, dtype=np.int64), improved_any


def _relabel(labels: np.ndarray) -> np.ndarray:
    """Map labels to contiguous ids preserving first-appearance order."""
    _, inverse = np.unique(labels, return_inverse=True)
    first_pos: dict[int, int] = {}
    for pos, lab in enumerate(inverse.tolist()):
        if lab not in first_pos:
            first_pos[lab] = len(first_pos)
    mapping = np.empty(len(first_pos), dtype=np.int64)
    for lab, new in first_pos.items():
        mapping[lab] = new
    return mapping[inverse]


def _aggregate(graph: sp.csr_matrix, comm: np.ndarray) -> sp.csr_matrix:
    """Collapse communities into super-nodes: ``A' = S^T A S``.

    With degrees defined as plain row sums (see
    :mod:`repro.clustering.modularity`) this preserves total weight, per-
    community degrees and hence modularity exactly.
    """
    n_comms = int(comm.max()) + 1
    coo = graph.tocoo()
    aggregated = sp.csr_matrix(
        (coo.data, (comm[coo.row], comm[coo.col])), shape=(n_comms, n_comms)
    )
    aggregated.sum_duplicates()
    return aggregated
