"""Exact k-nearest-neighbour search over dense feature matrices.

Three interchangeable engines:

* ``"brute"`` — chunked, fully vectorised Euclidean distances.  Exact, no
  preprocessing, O(n^2 m) time but cache-friendly.
* ``"blas"`` — the same O(n^2 m) work split into a single-precision
  *prefilter* (one ``sgemm`` panel per chunk over centred data, roughly
  twice the float64 throughput at half the memory traffic) that
  nominates ``k + pad`` candidates per query, followed by an exact
  float64 re-ranking of just those candidates with the same
  clamped-expansion formula ``brute`` uses.  Each row is then certified
  against a float32 error bound and recomputed by brute force when the
  pad provably might not have sufficed — so the selected neighbours
  always match ``brute`` (distances agree to float64 rounding of the
  dot products), and only adversarial inputs pay the fallback.  The
  default for large high-dimensional self-queries — i.e. graph
  construction.
* ``"kdtree"`` — the from-scratch tree in :mod:`repro.graph.kdtree`; wins in
  low dimensions.

All return the same `(indices, distances)` contract and exclude the point
itself from its own neighbour list.  ``jobs`` spreads the independent
query chunks of the matrix engines over a thread pool (the BLAS panels
release the GIL); any value returns identical results.

The blas engine's answer is a per-pair function
-----------------------------------------------
Every exact distance the blas engine keeps comes from one helper,
:func:`rerank_sq_distances`: the clamped expansion
``|a|^2 - 2 a.b + |b|^2`` with ``a.b`` from ``einsum("cm,cpm->cp")``,
whose value for a pair does not depend on how many rows or candidates
were gathered with it (a tier-1 test pins this; ``@`` and
``(a*b).sum(-1)`` round differently).  So a certified row's neighbours
do not depend on which panel nominated them, and
:func:`knn_update` can derive a grown or shrunk database's lists from
the previous pass's :class:`KnnState` — re-ranking only the pairs an
insert might enter, recomputing only the new rows — and return bitwise
what :func:`knn_search` would.  It certifies every row first and
returns ``None`` (run the full search) for any row it cannot.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.graph.kdtree import KDTree
from repro.utils.validation import check_jobs, check_positive_int

#: Rows per brute-force distance block; bounds peak memory at
#: ``_CHUNK * n * 8`` bytes for the pairwise-distance panel.
_CHUNK = 512

#: Rows per ``"blas"`` prefilter panel (float32, so twice the rows fit in
#: the same footprint as a brute-force panel).
_BLAS_CHUNK = 1024

#: Rows per candidate ``argpartition`` inside a ``"blas"`` panel.  Its
#: int64 index output is as wide as the panel; sub-blocking keeps that
#: transient at ``_BLAS_PARTITION_ROWS * n * 8`` bytes, and only the
#: ``k + pad`` kept columns are stored.
_BLAS_PARTITION_ROWS = 128

#: Extra float32 candidates kept beyond ``k`` before the exact float64
#: re-ranking.  The pad absorbs float32 misordering near the k-th
#: neighbour; rows where it provably might not suffice (see the
#: certification step in :func:`_blas_prefilter`) fall back to an exact
#: brute-force pass, so the engine stays exact regardless.
_BLAS_PAD = 16

#: Constant in the float32 error bound used to certify prefilter rows:
#: accumulating an m-term dot product plus the input roundings costs at
#: most ~(m + _BLAS_ERROR_TERMS) ulps of the magnitude scale.
_BLAS_ERROR_TERMS = 8

#: ``method="auto"`` switches to the ``"blas"`` engine for self-query
#: databases at least this large (below it, brute's simplicity wins).
_BLAS_MIN_POINTS = 4096


def pairwise_sq_distances(block: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between ``block`` rows and all ``points``.

    Uses the expansion ``|a-b|^2 = |a|^2 - 2 a.b + |b|^2`` with a clamp at
    zero (round-off can push tiny distances negative).
    """
    sq_block = np.einsum("ij,ij->i", block, block)
    sq_points = np.einsum("ij,ij->i", points, points)
    d2 = sq_block[:, None] - 2.0 * (block @ points.T) + sq_points[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def knn_search(
    points: np.ndarray,
    k: int,
    queries: np.ndarray | None = None,
    method: str = "auto",
    exclude_self: bool | None = None,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Find the ``k`` nearest neighbours of each query among ``points``.

    Parameters
    ----------
    points:
        ``(n, m)`` database feature matrix.
    k:
        Number of neighbours to return per query.
    queries:
        ``(q, m)`` query matrix.  ``None`` means "the points themselves",
        in which case each point is excluded from its own neighbour list
        (the k-NN-graph convention; no self loops, paper §3).
    method:
        ``"brute"``, ``"blas"``, ``"kdtree"``, or ``"auto"`` (KD-tree for
        m <= 16, the blas prefilter engine for self-query databases of at
        least ``_BLAS_MIN_POINTS`` points, brute force otherwise).
    exclude_self:
        Override the self-exclusion default (only meaningful when
        ``queries is None``).
    jobs:
        Worker threads for the independent query chunks of the matrix
        engines (``"brute"``/``"blas"``); identical results for any
        value.  The KD-tree engine ignores it.

    Returns
    -------
    (indices, distances):
        Both of shape ``(q, k)``; neighbours sorted by increasing distance.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    k = check_positive_int(k, "k")
    jobs = check_jobs(jobs)
    self_query = queries is None
    if exclude_self is None:
        exclude_self = self_query
    if exclude_self and not self_query:
        raise ValueError("exclude_self requires queries to be the points themselves")
    query_mat = points if self_query else np.asarray(queries, dtype=np.float64)
    if query_mat.ndim != 2 or query_mat.shape[1] != points.shape[1]:
        raise ValueError(
            f"queries must be (q, {points.shape[1]}), got shape {query_mat.shape}"
        )
    limit = points.shape[0] - (1 if exclude_self else 0)
    if k > limit:
        raise ValueError(f"k={k} exceeds the {limit} available neighbours")

    if method == "auto":
        method = _auto_method(points.shape, self_query)
    if method == "kdtree":
        tree = KDTree(points)
        return tree.query(query_mat, k, exclude_self=exclude_self)
    if method == "blas":
        return _blas_prefilter(points, query_mat, k, exclude_self, jobs)[:2]
    if method != "brute":
        raise ValueError(
            f"unknown method {method!r}; use 'brute', 'blas', 'kdtree' or 'auto'"
        )
    return _brute_force(points, query_mat, k, exclude_self, jobs)


def _auto_method(shape: tuple[int, int], self_query: bool) -> str:
    """The engine ``method="auto"`` runs on an ``(n, m)`` database."""
    n, m = shape
    if m <= 16:
        return "kdtree"
    return "blas" if self_query and n >= _BLAS_MIN_POINTS else "brute"


@dataclass(frozen=True, eq=False)
class KnnState:
    """One self-query blas pass's exact neighbour lists, kept for the next.

    Row ``i`` lists ``k + _BLAS_PAD`` slots: other rows' ids ``ids[i]`` and
    their per-pair squared distances ``d2[i]`` (ascending; an empty slot
    holds ``inf``, and id -1 once an update emptied it).  ``floor[i]`` is
    a certified lower bound on the squared distance from row ``i`` to
    every row it does not list.
    """

    k: int
    ids: np.ndarray
    d2: np.ndarray
    floor: np.ndarray


def knn_search_with_state(
    points: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, KnnState | None]:
    """``knn_search(points, k)`` plus the pass's :class:`KnnState`.

    The state exists only when ``method="auto"`` picks the blas engine
    (``None`` otherwise); :func:`knn_update` derives the next database's
    lists from it.
    """
    points = np.asarray(points, dtype=np.float64)
    k = check_positive_int(k, "k")
    if (
        points.ndim == 2
        and _auto_method(points.shape, True) == "blas"
        and k + _BLAS_PAD < points.shape[0]
    ):
        return _blas_prefilter(points, points, k, True, capture=True)
    return (*knn_search(points, k), None)


def knn_update(
    state: KnnState,
    points: np.ndarray,
    old_to_new: np.ndarray,
    inserted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, KnnState] | None:
    """``knn_search_with_state(points, state.k)``, from the previous lists.

    ``old_to_new[i]`` is the row of ``points`` that row ``i`` of the
    previous database became, or -1 if it was deleted; ``inserted`` are
    the rows of ``points`` the previous database did not hold.  Old rows
    keep their lists minus the deleted ids, plus the inserts one float32
    ``(n, len(inserted))`` panel nominates below their floor, re-ranked
    by :func:`rerank_sq_distances`.  Inserted rows, and old rows whose
    lists no longer certify, run the blas row algorithm against every
    point.

    Every row is then certified against this database's error scales:
    with ``L = min(floor, last listed d2)``, at least ``k + 1`` listed
    entries lie below ``L`` and ``L - d2[k] >= 4 (bound + noise64)``.
    Then the full pass's float32 nominees hold the row's true ``k + 1``
    nearest, its ``exact_rank`` test cannot fire, and its gap test —
    evaluated here exactly as :func:`_blas_prefilter` does — sees the
    same values: the row is bitwise the full pass's.  Returns ``None``
    when ``"auto"`` would not run blas here or any row fails either
    test; the caller then runs :func:`knn_search_with_state`.
    """
    points = np.asarray(points, dtype=np.float64)
    inserted = np.asarray(inserted, dtype=np.int64)
    n = points.shape[0]
    k = state.k
    width = k + _BLAS_PAD
    if _auto_method(points.shape, True) != "blas" or width >= n:
        return None
    frame = _BlasFrame(points)
    bound = frame.bound(frame.sq_centered)
    noise = frame.noise64(frame.sq_points)
    ids = np.full((n, width), -1, dtype=np.int64)
    d2 = np.full((n, width), np.inf)
    floor = np.full(n, -np.inf)

    kept = np.flatnonzero(old_to_new >= 0)
    rows = old_to_new[kept]
    old_ids = state.ids[kept]
    old_d2 = state.d2[kept]
    remapped = np.where(old_ids >= 0, old_to_new[old_ids], -1)
    dropped = (remapped < 0) | np.isinf(old_d2)
    remapped[dropped] = -1
    old_d2 = np.where(dropped, np.inf, old_d2)
    old_floor = state.floor[kept]
    extra_ids, extra_d2 = _nominate_inserts(frame, rows, old_floor, inserted, bound)
    # Re-sort the rows that lost or gained an entry and keep the nearest
    # ``width``; an entry cut off lowers the row's floor to its distance.
    touched = dropped.any(axis=1) | np.isfinite(extra_d2).any(axis=1)
    merged_ids = np.hstack([remapped[touched], extra_ids[touched]])
    merged_d2 = np.hstack([old_d2[touched], extra_d2[touched]])
    order = np.argsort(merged_d2, axis=1, kind="stable")
    merged_ids = np.take_along_axis(merged_ids, order, axis=1)
    merged_d2 = np.take_along_axis(merged_d2, order, axis=1)
    if merged_d2.shape[1] > width:
        old_floor[touched] = np.minimum(old_floor[touched], merged_d2[:, width])
    remapped[touched] = merged_ids[:, :width]
    old_d2[touched] = merged_d2[:, :width]
    ids[rows], d2[rows], floor[rows] = remapped, old_d2, old_floor

    failing = rows[~_certified(d2[rows], floor[rows], bound[rows], noise[rows], k)]
    redo = np.concatenate([inserted, failing])
    step = max(1, min(_BLAS_PARTITION_ROWS, 1_000_000 // (width * frame.m)))
    for lo in range(0, redo.size, step):
        sel = redo[lo : lo + step]
        part, row_d2, t32 = _blas_rows(frame, sel, width)
        order = np.argsort(row_d2, axis=1, kind="stable")
        ids[sel] = np.take_along_axis(part, order, axis=1)
        d2[sel] = np.take_along_axis(row_d2, order, axis=1)
        floor[sel] = t32 - bound[sel] + frame.sq_centered[sel]
    if not _certified(d2[redo], floor[redo], bound[redo], noise[redo], k).all():
        return None
    # The full pass's gap test, on the same k + 1 values.
    top = d2[:, :k]
    min_gap = d2[:, k] - top[:, k - 1]
    if k > 1:
        min_gap = np.minimum(min_gap, np.diff(top, axis=1).min(axis=1))
    if (min_gap <= 2.0 * noise).any():
        return None
    return ids[:, :k].copy(), np.sqrt(top), KnnState(k, ids, d2, floor)


def _nominate_inserts(
    frame: _BlasFrame,
    rows: np.ndarray,
    floors: np.ndarray,
    inserted: np.ndarray,
    bound: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Inserted rows that might lie below each old row's floor, re-ranked.

    One float32 panel against the inserts (in ``_BLAS_CHUNK``-row
    slices); a pair is nominated unless its rank value, less the row's
    float32 error bound, already puts it at or above the floor (so the
    floor stays a lower bound for every insert the row does not list).
    Returns ``(ids, d2)`` of shape ``(len(rows), most nominations of one
    row)``, ``inf``-padded.
    """
    inserted32 = frame.points32[inserted]
    pair_rows, pair_cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, rows.size if inserted.size else 0, _BLAS_CHUNK):
        sel = rows[lo : lo + _BLAS_CHUNK]
        r32 = frame.points32[sel] @ inserted32.T
        r32 *= -2.0
        r32 += frame.sq32[inserted][None, :]
        lower = r32 - bound[sel, None] + frame.sq_centered[sel, None]
        row, col = np.nonzero(lower < floors[lo : lo + _BLAS_CHUNK, None])
        pair_rows.append(lo + row)
        pair_cols.append(col)
    pair_row, pair_col = np.concatenate(pair_rows), np.concatenate(pair_cols)
    counts = np.bincount(pair_row, minlength=rows.size)
    ids = np.full((rows.size, int(counts.max(initial=0))), -1, dtype=np.int64)
    d2 = np.full(ids.shape, np.inf)
    slot = np.arange(pair_row.size) - (np.cumsum(counts) - counts)[pair_row]
    cands = inserted[pair_col]
    block = rows[pair_row]
    ids[pair_row, slot] = cands
    step = max(1, 1_000_000 // frame.m)  # ~8 MB of gathered candidates
    for lo in range(0, cands.size, step):
        at = slice(lo, lo + step)
        d2[pair_row[at], slot[at]] = rerank_sq_distances(
            frame.points[block[at]],
            frame.sq_points[block[at]],
            frame.points[cands[at]][:, None, :],
            frame.sq_points[cands[at]][:, None],
        )[:, 0]
    return ids, d2


def _certified(
    d2: np.ndarray, floor: np.ndarray, bound: np.ndarray, noise: np.ndarray, k: int
) -> np.ndarray:
    """Rows whose listed ``k + 1`` nearest the full blas pass provably keeps.

    See :func:`knn_update`; ``d2`` rows are ascending with ``inf`` padding.
    """
    limit = np.minimum(floor, d2[:, -1])
    enough = (d2 < limit[:, None]).sum(axis=1) > k
    with np.errstate(invalid="ignore"):
        clear = limit - d2[:, k] >= 4.0 * (bound + noise)
    return enough & clear


def _chunk_ranges(n_queries: int, chunk: int) -> list[tuple[int, int]]:
    return [
        (start, min(start + chunk, n_queries))
        for start in range(0, n_queries, chunk)
    ]


def _run_chunks(run, ranges: list[tuple[int, int]], jobs: int) -> None:
    """Execute chunk workers, optionally across a thread pool.

    Each worker writes a disjoint row range of the output arrays, so the
    schedule cannot change results.
    """
    if jobs > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(ranges))) as pool:
            for _ in pool.map(lambda span: run(*span), ranges):
                pass
    else:
        for start, stop in ranges:
            run(start, stop)


def _brute_force(
    points: np.ndarray, queries: np.ndarray, k: int, exclude_self: bool, jobs: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    n_queries = queries.shape[0]
    nbr_idx = np.empty((n_queries, k), dtype=np.int64)
    nbr_dist = np.empty((n_queries, k), dtype=np.float64)

    def run(start: int, stop: int) -> None:
        d2 = pairwise_sq_distances(queries[start:stop], points)
        if exclude_self:
            rows = np.arange(stop - start)
            d2[rows, np.arange(start, stop)] = np.inf
        # argpartition picks the k smallest in O(n), then we sort just those.
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        part_d2 = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(part_d2, axis=1, kind="stable")
        nbr_idx[start:stop] = np.take_along_axis(part, order, axis=1)
        nbr_dist[start:stop] = np.sqrt(np.take_along_axis(part_d2, order, axis=1))

    _run_chunks(run, _chunk_ranges(n_queries, _CHUNK), jobs)
    return nbr_idx, nbr_dist


class _BlasFrame:
    """One database as the blas engine sees it.

    Its centre, the centred copy and its float32 cast the prefilter
    panels multiply, the float64 and centred squared norms, and the
    scales of the two error bounds the certification uses.  The centred
    copy lives as long as the frame: freed before the panels, it raised
    the peak RSS of three index builds at n = 10 000 from 164 to 187 MiB
    (glibc kept the heap the panels' transients grew into).
    """

    def __init__(self, points: np.ndarray) -> None:
        n, m = points.shape
        self.points = points
        self.m = m
        self.center = points.mean(axis=0) if n else np.zeros(m)
        self.centered = points - self.center
        self.points32 = np.asarray(self.centered, dtype=np.float32)
        self.sq32 = np.einsum("ij,ij->i", self.points32, self.points32)
        self.sq_points = np.einsum("ij,ij->i", points, points)
        self.sq_centered = np.einsum("ij,ij->i", self.centered, self.centered)
        self.max_norm = float(np.sqrt(self.sq_centered.max())) if n else 0.0
        self.max_sq_points = float(self.sq_points.max()) if n else 0.0

    def bound(self, sq_centered_q: np.ndarray) -> np.ndarray:
        """Float32 error bound on the rank values of queries at these norms."""
        q_norm = np.sqrt(sq_centered_q)
        return (
            (self.m + _BLAS_ERROR_TERMS)
            * float(np.finfo(np.float32).eps)
            * (self.max_norm * self.max_norm + q_norm * self.max_norm)
        )

    def noise64(self, sq_q: np.ndarray) -> np.ndarray:
        """Float64 noise of the clamped expansion for queries at these norms."""
        return (
            (self.m + _BLAS_ERROR_TERMS)
            * float(np.finfo(np.float64).eps)
            * (self.max_sq_points + np.sqrt(sq_q * self.max_sq_points))
        )


def rerank_sq_distances(
    block: np.ndarray,
    sq_block: np.ndarray,
    gathered: np.ndarray,
    sq_gathered: np.ndarray,
) -> np.ndarray:
    """Exact squared distances from each ``block`` row to its candidates.

    The blas engine's one per-pair formula: ``sq_block - 2 a.b +
    sq_gathered`` clamped at zero, for ``(c, m)`` rows against their
    ``(c, p, m)`` gathered candidates, with ``a.b`` from
    ``einsum("cm,cpm->cp")``, whose value for a pair does not depend on
    ``c`` or ``p``.  Every exact distance the engine keeps — the full
    pass's re-rank and :func:`knn_update`'s — comes from here.
    """
    dots = np.einsum("cm,cpm->cp", block, gathered)
    d2 = sq_block[:, None] - 2.0 * dots + sq_gathered
    return np.maximum(d2, 0.0, out=d2)


def _blas_rows(
    frame: _BlasFrame, rows: np.ndarray, cand_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full pass's row algorithm for a few self-query ``rows``.

    Nominates each row's ``cand_count`` smallest float32 rank values and
    re-ranks them exactly, as :func:`_blas_prefilter` does.  Returns the
    candidates, their squared distances (``inf`` for the row itself) and
    ``t32``, the rank value of the last kept candidate (no excluded
    point ranks below it).
    """
    r32 = frame.points32[rows] @ frame.points32.T
    r32 *= -2.0
    r32 += frame.sq32[None, :]
    r32[np.arange(rows.size), rows] = np.inf
    part = np.argpartition(r32, cand_count - 1, axis=1)[:, :cand_count]
    t32 = np.take_along_axis(r32, part[:, -1:], axis=1).ravel().astype(np.float64)
    d2 = rerank_sq_distances(
        frame.points[rows],
        frame.sq_points[rows],
        frame.points[part],
        frame.sq_points[part],
    )
    d2[part == rows[:, None]] = np.inf
    return part, d2, t32


def _blas_prefilter(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    exclude_self: bool,
    jobs: int = 1,
    capture: bool = False,
) -> tuple[np.ndarray, np.ndarray, KnnState | None]:
    """Float32 candidate nomination + exact float64 re-ranking.

    Three safeguards make the fast path *exact*, not approximate:

    * the data is **centred** before the float32 stage (distances are
      translation invariant), so uncentred features with huge norms do
      not sink the prefilter in catastrophic cancellation;
    * the prefilter ranks by ``r = |x_j - c|^2 - 2 <q_i - c, x_j - c>``
      (the query norm is constant per row and cannot change the
      ordering), and the refine step evaluates the same clamped
      expansion ``brute`` uses, in float64, on the ``k + pad`` nominated
      candidates only (:func:`rerank_sq_distances`);
    * every row is **certified**: any point the prefilter excluded has
      float32 rank value at least that of the last kept candidate, so
      its true rank value is at least that minus the float32 error
      bound.  If the exact k-th candidate does not clear that threshold
      the row's neighbours are not provably correct, and the row is
      recomputed with an exact brute-force pass.  On feature matrices
      whose neighbour gaps exceed float32 noise (every real dataset
      here) no row falls back; adversarial inputs get the right answer
      at brute-force speed.

    With ``capture`` (a self query) the pass also returns its
    :class:`KnnState`: every row's ``k + pad`` candidates sorted by exact
    distance, and the floor the certification implies for the rest.
    """
    n, m = points.shape
    n_queries = queries.shape[0]
    cand_count = min(k + _BLAS_PAD, n)
    certify = cand_count < n  # with every point a candidate, exactness is free
    frame = _BlasFrame(points)
    if queries is points:
        queries32 = frame.points32
        sq_queries, sq_centered_q = frame.sq_points, frame.sq_centered
    else:
        centered_queries = queries - frame.center
        queries32 = np.asarray(centered_queries, dtype=np.float32)
        sq_queries = np.einsum("ij,ij->i", queries, queries)
        sq_centered_q = np.einsum("ij,ij->i", centered_queries, centered_queries)
    nbr_idx = np.empty((n_queries, k), dtype=np.int64)
    nbr_dist = np.empty((n_queries, k), dtype=np.float64)
    state = (
        KnnState(
            k,
            np.empty((n_queries, cand_count), dtype=np.int64),
            np.empty((n_queries, cand_count)),
            np.empty(n_queries),
        )
        if capture
        else None
    )

    def run(start: int, stop: int) -> None:
        # r32 = |x_j|^2 - 2 <q_i, x_j> (centred), built in place on the panel.
        r32 = queries32[start:stop] @ frame.points32.T
        r32 *= -2.0
        r32 += frame.sq32[None, :]
        if exclude_self:
            rows = np.arange(stop - start)
            r32[rows, np.arange(start, stop)] = np.inf
        part = np.empty((stop - start, cand_count), dtype=np.int64)
        for lo in range(0, stop - start, _BLAS_PARTITION_ROWS):
            hi = min(lo + _BLAS_PARTITION_ROWS, stop - start)
            part[lo:hi] = np.argpartition(r32[lo:hi], cand_count - 1, axis=1)[
                :, :cand_count
            ]
        block = queries[start:stop]
        sq_block = sq_queries[start:stop]
        # The exact re-rank gathers candidate points densely; sub-block
        # the rows so the (rows, cand, m) transient stays small even on
        # thousand-dimensional features (results are row-wise, so the
        # sub-blocking cannot change them).  ``gathered`` stays bound
        # until the row range is done: freeing each block as soon as it
        # was used made the peak RSS of three index builds at n = 10 000
        # swing between 158 and 188 MiB from run to run (164 held).
        d2 = np.empty((stop - start, cand_count), dtype=np.float64)
        # ~8 MB of gathered float64 candidates per sub-block.
        sub = max(1, 1_000_000 // (cand_count * m))
        for lo in range(0, stop - start, sub):
            hi = min(lo + sub, stop - start)
            gathered = points[part[lo:hi]]
            d2[lo:hi] = rerank_sq_distances(
                block[lo:hi], sq_block[lo:hi], gathered, frame.sq_points[part[lo:hi]]
            )
        if exclude_self:
            d2[part == np.arange(start, stop)[:, None]] = np.inf
        top = np.argpartition(d2, k - 1, axis=1)[:, :k]
        top_d2 = np.take_along_axis(d2, top, axis=1)
        order = np.argsort(top_d2, axis=1, kind="stable")
        nbr_idx[start:stop] = np.take_along_axis(
            np.take_along_axis(part, top, axis=1), order, axis=1
        )
        sorted_d2 = np.take_along_axis(top_d2, order, axis=1)
        nbr_dist[start:stop] = np.sqrt(sorted_d2)
        t32 = np.take_along_axis(
            r32, part[:, cand_count - 1 : cand_count], axis=1
        ).ravel().astype(np.float64)
        bound = frame.bound(sq_centered_q[start:stop])
        if state is not None:
            listed = np.argsort(d2, axis=1, kind="stable")
            state.ids[start:stop] = np.take_along_axis(part, listed, axis=1)
            state.d2[start:stop] = np.take_along_axis(d2, listed, axis=1)
            # Excluded points have true r >= t32 - bound, i.e. this d2.
            state.floor[start:stop] = t32 - bound + sq_centered_q[start:stop]
        if not certify:
            return
        # Certification: excluded points have r32 >= t32 (the last kept
        # candidate), hence true r >= t32 - bound; the row is proven
        # exact when its exact k-th candidate beats that floor.
        exact_rank = sorted_d2[:, k - 1] - sq_centered_q[start:stop]
        unproven = exact_rank > t32 - bound
        # Squared distances that tie within the float64 noise of the
        # expansion could legitimately be ordered either way by the two
        # computations; route those rows through brute's own panels so
        # both the selection (k-th kept vs. (k+1)-th candidate) and the
        # internal order match brute exactly.
        noise64 = frame.noise64(sq_block)
        runner_up = np.partition(d2, k, axis=1)[:, k]
        min_gap = runner_up - sorted_d2[:, k - 1]
        if k > 1:
            min_gap = np.minimum(min_gap, np.diff(sorted_d2, axis=1).min(axis=1))
        unproven |= min_gap <= 2.0 * noise64
        uncertified = start + np.flatnonzero(unproven)
        if uncertified.size == 0:
            return
        # Recompute uncertified rows through brute force's own chunked
        # panels: each row's distances come from the full ``_CHUNK``-row
        # panel brute would have computed for it (even when that panel
        # spans several blas chunks), so the panel values — and hence any
        # noise-level tie decisions — are bitwise what method="brute"
        # would have produced for those rows.
        for chunk_id in np.unique(uncertified // _CHUNK):
            panel_start = int(chunk_id) * _CHUNK
            panel_stop = min(panel_start + _CHUNK, n_queries)
            d2_panel = pairwise_sq_distances(
                queries[panel_start:panel_stop], points
            )
            if exclude_self:
                rows = np.arange(panel_stop - panel_start)
                d2_panel[rows, np.arange(panel_start, panel_stop)] = np.inf
            in_panel = uncertified[
                (uncertified >= panel_start) & (uncertified < panel_stop)
            ]
            for global_row in in_panel:
                d2_row = d2_panel[global_row - panel_start]
                chosen = np.argpartition(d2_row, k - 1)[:k]
                chosen_d2 = d2_row[chosen]
                resort = np.argsort(chosen_d2, kind="stable")
                nbr_idx[global_row] = chosen[resort]
                nbr_dist[global_row] = np.sqrt(chosen_d2[resort])

    _run_chunks(run, _chunk_ranges(n_queries, _BLAS_CHUNK), jobs)
    return nbr_idx, nbr_dist, state
