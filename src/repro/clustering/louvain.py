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

**Kernel.**  The local-moving sweep is ``local_move`` in
``_local_move.c`` beside this module, called through :mod:`ctypes` (which
releases the GIL).  On first import :func:`repro.utils.cbuild.load_kernel`
compiles it without floating-point contraction into the ``__pycache__``
beside it, keyed by a hash of the source and the command, or loads the
library cached there.  Degrees, ``2m`` and the shuffled visit order stay
in numpy, shared by both kernels.

**Fallback.**  Without a working compiler the sweep runs in Python over
plain lists: the same visit order and the same expressions in the same
order, so the labels are bitwise identical.  The original array-based
loop is the test suite's oracle (``tests/oracles.py``) for both.
:data:`KERNEL` names the sweep in use, ``"compiled"`` or ``"python"``.
"""

from __future__ import annotations

import ctypes
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.utils.cbuild import load_kernel
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_symmetric

_SOURCE = Path(__file__).with_name("_local_move.c")
# n, indptr, indices, data, degrees, two_m, resolution, tol, order, comm,
# comm_tot, acc, touched
_ARGTYPES = (
    (ctypes.c_int64,)
    + (ctypes.c_void_p,) * 4
    + (ctypes.c_double,) * 3
    + (ctypes.c_void_p,) * 5
)


def _select_kernel(cache_dir: Path | None = None):
    """``(compiled kernel or None, KERNEL name)``."""
    kernel = load_kernel(_SOURCE, "local_move", _ARGTYPES, ctypes.c_int, cache_dir)
    return kernel, "python" if kernel is None else "compiled"


_kernel, KERNEL = _select_kernel()


def louvain(
    adjacency: sp.spmatrix,
    resolution: float = 1.0,
    tol: float = 1e-9,
    max_levels: int = 32,
    shuffle: bool = False,
    seed: SeedLike = None,
) -> np.ndarray:
    """Cluster a weighted undirected graph by greedy modularity optimisation.

    Parameters
    ----------
    adjacency:
        Symmetric non-negative weight matrix; self loops are ignored on
        input (k-NN graphs have none), and a negative weight raises
        ``ValueError``.
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

    Returns
    -------
    numpy.ndarray
        Community label per node, contiguous ids ``0..N-1``.
    """
    adjacency = check_symmetric(adjacency.tocsr(), "adjacency", tol=1e-8)
    n = adjacency.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    rng = as_rng(seed)

    current = adjacency.copy().astype(np.float64)
    current.setdiag(0.0)
    current.eliminate_zeros()
    _check_nonnegative(current)
    labels = np.arange(n, dtype=np.int64)  # original node -> community

    for _ in range(max_levels):
        comm, improved = _local_move_fast(current, resolution, tol, shuffle, rng)
        comm = _relabel(comm)
        labels = comm[labels]
        if not improved or comm.max() == current.shape[0] - 1:
            break
        current = _aggregate(current, comm)

    return _relabel(labels)


def _check_nonnegative(adjacency: sp.csr_matrix) -> None:
    """Reject a negative edge weight, naming the first one found.

    The local move's accumulator treats a zero sum as "community not yet
    touched", which only positive weights keep sound.  Explicit zeros are
    dropped before the first level and aggregated weights are sums of
    input weights, so this one check covers every level.
    """
    negative = np.flatnonzero(adjacency.data < 0.0)
    if negative.size:
        pos = int(negative[0])
        row = int(np.searchsorted(adjacency.indptr, pos, side="right")) - 1
        col = int(adjacency.indices[pos])
        raise ValueError(
            f"adjacency has a negative weight {float(adjacency.data[pos])!r} at "
            f"({row}, {col}); modularity clustering needs non-negative weights"
        )


def louvain_refined(
    adjacency: sp.spmatrix,
    resolution: float = 1.0,
    max_cluster_size: int | None = None,
    max_attempts: int = 3,
    tol: float = 1e-9,
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
    labels = louvain(adjacency, resolution=resolution, tol=tol)
    if n == 0:
        return labels

    def split_community(members: np.ndarray) -> np.ndarray | None:
        subgraph = adjacency[members][:, members].tocsr()
        sub_resolution = resolution
        for _ in range(max_attempts):
            sub_resolution *= 2.0
            candidate = louvain(subgraph, resolution=sub_resolution, tol=tol)
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


def _local_move_fast(
    graph: sp.csr_matrix,
    resolution: float,
    tol: float,
    shuffle: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """One level of greedy node moving.  Returns (labels, any_improvement).

    Computes the degrees, ``2m`` and the visit order, then runs the sweep
    on the compiled kernel, or on :func:`_local_move_python` without one.
    """
    n = graph.shape[0]
    degrees = np.asarray(graph.sum(axis=1)).ravel()
    two_m = float(degrees.sum())
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), False
    order = np.arange(n)
    if shuffle:
        rng.shuffle(order)
    if _kernel is None:
        return _local_move_python(graph, degrees, two_m, order, resolution, tol)

    # The kernel reads raw pointers: pin every dtype and layout here.
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
    data = np.ascontiguousarray(graph.data, dtype=np.float64)
    degrees = np.ascontiguousarray(degrees, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    comm = np.arange(n, dtype=np.int64)
    comm_tot = degrees.copy()  # total degree per community
    acc = np.zeros(n, dtype=np.float64)
    # A row touches at most one community per stored entry.
    touched = np.empty(max(1, int(np.diff(indptr).max())), dtype=np.int64)
    improved = _kernel(
        n,
        indptr.ctypes.data,
        indices.ctypes.data,
        data.ctypes.data,
        degrees.ctypes.data,
        two_m,
        float(resolution),
        float(tol),
        order.ctypes.data,
        comm.ctypes.data,
        comm_tot.ctypes.data,
        acc.ctypes.data,
        touched.ctypes.data,
    )
    return comm, bool(improved)


def _local_move_python(
    graph: sp.csr_matrix,
    degrees_arr: np.ndarray,
    two_m: float,
    order_arr: np.ndarray,
    resolution: float,
    tol: float,
) -> tuple[np.ndarray, bool]:
    """The sweep without a compiler, restated on plain Python lists.

    The oracle's array-based sweep (``tests/oracles.py``) with the same
    visit order and the same expressions evaluated in the same order —
    Python floats and numpy float64 scalars share IEEE-754 semantics, so
    the labels come out bitwise identical — but the per-node inner loops
    run on list indexing and native floats, which is several times faster
    than numpy scalar access at k-NN-graph degree.
    """
    n = graph.shape[0]
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    data = graph.data.tolist()
    degrees = degrees_arr.tolist()
    comm = list(range(n))
    comm_tot = degrees_arr.copy().tolist()  # total degree per community
    order = order_arr.tolist()

    # Neighbour-community weights accumulate into a dense scratch instead
    # of a per-node dict; ``touched`` replays the communities in
    # first-touch order — the same order dict insertion would give, so
    # gains are compared in the oracle's exact sequence — and resets the
    # scratch afterwards.  "acc[c] == 0.0" is a sound membership test
    # because every weight here is strictly positive (see
    # :func:`_check_nonnegative`).
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
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    mapping = np.empty(first.size, dtype=np.int64)
    mapping[np.argsort(first, kind="stable")] = np.arange(first.size)
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
