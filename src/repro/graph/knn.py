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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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
        if points.shape[1] <= 16:
            method = "kdtree"
        elif self_query and points.shape[0] >= _BLAS_MIN_POINTS:
            method = "blas"
        else:
            method = "brute"
    if method == "kdtree":
        tree = KDTree(points)
        return tree.query(query_mat, k, exclude_self=exclude_self)
    if method == "blas":
        return _blas_prefilter(points, query_mat, k, exclude_self, jobs)
    if method != "brute":
        raise ValueError(
            f"unknown method {method!r}; use 'brute', 'blas', 'kdtree' or 'auto'"
        )
    return _brute_force(points, query_mat, k, exclude_self, jobs)


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


def _blas_prefilter(
    points: np.ndarray,
    queries: np.ndarray,
    k: int,
    exclude_self: bool,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Float32 candidate nomination + exact float64 re-ranking.

    Three safeguards make the fast path *exact*, not approximate:

    * the data is **centred** before the float32 stage (distances are
      translation invariant), so uncentred features with huge norms do
      not sink the prefilter in catastrophic cancellation;
    * the prefilter ranks by ``r = |x_j - c|^2 - 2 <q_i - c, x_j - c>``
      (the query norm is constant per row and cannot change the
      ordering), and the refine step evaluates the same clamped
      expansion ``brute`` uses, in float64, on the ``k + pad`` nominated
      candidates only;
    * every row is **certified**: any point the prefilter excluded has
      float32 rank value at least that of the last kept candidate, so
      its true rank value is at least that minus the float32 error
      bound.  If the exact k-th candidate does not clear that threshold
      the row's neighbours are not provably correct, and the row is
      recomputed with an exact brute-force pass.  On feature matrices
      whose neighbour gaps exceed float32 noise (every real dataset
      here) no row falls back; adversarial inputs get the right answer
      at brute-force speed.
    """
    n, m = points.shape
    n_queries = queries.shape[0]
    cand_count = min(k + _BLAS_PAD, n)
    certify = cand_count < n  # with every point a candidate, exactness is free
    center = points.mean(axis=0) if n else np.zeros(m)
    centered = points - center
    self_query = queries is points
    centered_queries = centered if self_query else queries - center
    points32 = np.asarray(centered, dtype=np.float32)
    queries32 = points32 if self_query else np.asarray(centered_queries, np.float32)
    sq32 = np.einsum("ij,ij->i", points32, points32)
    sq_points = np.einsum("ij,ij->i", points, points)
    sq_centered_q = np.einsum("ij,ij->i", centered_queries, centered_queries)
    max_norm = float(
        np.sqrt(np.einsum("ij,ij->i", centered, centered).max())
    ) if n else 0.0
    max_sq_points = float(sq_points.max()) if n else 0.0
    eps32 = float(np.finfo(np.float32).eps)
    eps64 = float(np.finfo(np.float64).eps)
    nbr_idx = np.empty((n_queries, k), dtype=np.int64)
    nbr_dist = np.empty((n_queries, k), dtype=np.float64)

    def run(start: int, stop: int) -> None:
        # r32 = |x_j|^2 - 2 <q_i, x_j> (centred), built in place on the panel.
        r32 = queries32[start:stop] @ points32.T
        r32 *= -2.0
        r32 += sq32[None, :]
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
        sq_block = np.einsum("ij,ij->i", block, block)
        # The exact re-rank gathers candidate points densely; sub-block
        # the rows so the (rows, cand, m) transient stays small even on
        # thousand-dimensional features (results are row-wise, so the
        # sub-blocking cannot change them).
        d2 = np.empty((stop - start, cand_count), dtype=np.float64)
        # ~8 MB of gathered float64 candidates per sub-block.
        sub = max(1, 1_000_000 // (cand_count * m))
        for lo in range(0, stop - start, sub):
            hi = min(lo + sub, stop - start)
            gathered = points[part[lo:hi]]
            dots = np.einsum("cm,cpm->cp", block[lo:hi], gathered)
            d2[lo:hi] = sq_block[lo:hi, None] - 2.0 * dots + sq_points[part[lo:hi]]
        np.maximum(d2, 0.0, out=d2)
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
        if not certify:
            return
        # Certification: excluded points have r32 >= t32 (the last kept
        # candidate), hence true r >= t32 - bound; the row is proven
        # exact when its exact k-th candidate beats that floor.
        t32 = np.take_along_axis(
            r32, part[:, cand_count - 1 : cand_count], axis=1
        ).ravel().astype(np.float64)
        q_norm = np.sqrt(sq_centered_q[start:stop])
        bound = (
            (m + _BLAS_ERROR_TERMS)
            * eps32
            * (max_norm * max_norm + q_norm * max_norm)
        )
        exact_rank = sorted_d2[:, k - 1] - sq_centered_q[start:stop]
        unproven = exact_rank > t32 - bound
        # Squared distances that tie within the float64 noise of the
        # expansion could legitimately be ordered either way by the two
        # computations; route those rows through brute's own panels so
        # both the selection (k-th kept vs. (k+1)-th candidate) and the
        # internal order match brute exactly.
        noise64 = (
            (m + _BLAS_ERROR_TERMS)
            * eps64
            * (max_sq_points + np.sqrt(sq_block * max_sq_points))
        )
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
    return nbr_idx, nbr_dist
