"""Upper-bounding cluster estimations (paper §4.3, Definitions 1-2).

For an interior cluster :math:`C_i` (not the query's, not the border) the
paper bounds every member's approximate score by

.. math::
    \\bar{x}'_{C_i} = X_i\\,(1 + \\bar{U}_i)^{N_i - 1},\\qquad
    X_i = \\sum_{j \\ge c_N} \\bar{U}_{i:j}\\,|x'_j|

where :math:`\\bar{U}_{i:j} = \\max_{k \\in C_i} |U_{kj}|` (column maxima
over the cluster's rows, columns restricted to the border cluster) and
:math:`\\bar{U}_i` is the largest off-diagonal magnitude inside the
cluster's block of ``U``.  Both maxima are query independent and
precomputed here; at query time the bound costs one sparse dot with the
border scores.

Numerical care: :math:`(1+\\bar{U}_i)^{N_i-1}` overflows for large
clusters, so the bound is evaluated in log space and saturates at ``+inf``
— an infinite bound merely disables pruning for that cluster, which keeps
the algorithm correct (Lemma 7 needs an upper bound, not a tight one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.permutation import Permutation
from repro.linalg.ldl import LDLFactors

#: log-space exponent above which ``exp`` would overflow float64.
_LOG_OVERFLOW = 700.0


@dataclass(frozen=True)
class ClusterBoundData:
    """Query-independent bound ingredients for one interior cluster.

    Attributes
    ----------
    border_cols:
        Border-cluster positions ``j`` with :math:`\\bar{U}_{i:j} > 0`.
    border_maxima:
        The matching :math:`\\bar{U}_{i:j}` values.
    internal_max:
        :math:`\\bar{U}_i`: largest off-diagonal ``|U|`` inside the cluster.
    size:
        Cluster cardinality :math:`N_i`.
    """

    border_cols: np.ndarray
    border_maxima: np.ndarray
    internal_max: float
    size: int

    def estimate(self, x_border_abs: np.ndarray) -> float:
        """Evaluate :math:`\\bar{x}'_{C_i}` given ``|x'|`` over all positions.

        Parameters
        ----------
        x_border_abs:
            Dense vector of absolute approximate scores (full length;
            only border positions are read).
        """
        if self.border_cols.size == 0:
            return 0.0
        x_i = float(np.dot(self.border_maxima, x_border_abs[self.border_cols]))
        if x_i <= 0.0:
            return 0.0
        return x_i * self.growth

    @property
    def growth(self) -> float:
        """The geometric factor :math:`(1+\\bar{U}_i)^{N_i-1}`.

        Evaluated in log space and saturated at ``+inf`` so huge clusters
        cannot overflow — an infinite bound merely disables pruning, which
        keeps Lemma 7 intact.  Bitwise identical to the factor used by
        :meth:`BoundsTable.estimate_all`.
        """
        log_growth = (self.size - 1) * math.log1p(self.internal_max)
        return math.inf if log_growth > _LOG_OVERFLOW else math.exp(log_growth)


def precompute_cluster_bounds(
    factors: LDLFactors, permutation: Permutation
) -> tuple[ClusterBoundData, ...]:
    """Precompute Definition 1/2 data for every interior cluster.

    The interior clusters as one span of :func:`span_bounds`: its rows
    of ``L`` and its coupling ``U[interior, border]``, carved the way
    :class:`repro.core.ClusterSolver` carves them.
    """
    # solver.py builds on this module, so the carve helpers load here.
    from repro.core.solver import _csr_rows, span_coupling

    lower = factors.lower.tocsr()
    lower.sort_indices()
    border_start = permutation.border_slice.start
    coupling = span_coupling(
        _csr_rows(lower, border_start, factors.n), 0, border_start
    )
    return span_bounds(
        _csr_rows(lower, 0, border_start),
        0,
        permutation.cluster_slices[:-1],
        coupling,
        border_start,
    )


def span_bounds(
    rows,
    span_start: int,
    cluster_slices: tuple[slice, ...],
    coupling,
    border_start: int,
) -> tuple[ClusterBoundData, ...]:
    """Definition 1/2 data for a contiguous span of interior clusters.

    ``rows`` are the span's rows of ``L`` (CSR, global columns) and
    ``coupling`` is ``U[span, border]`` (CSR, border offsets as
    columns).  :math:`\\bar{U}_i` is the largest ``|L|`` in the
    cluster's rows — all of them inside its block (Lemma 3), the
    transposes of its block of ``U``.  The column maxima
    :math:`\\bar{U}_{i:j}` are vectorized grouped maxima over the
    coupling — a sort by (cluster, column) key plus
    ``np.maximum.reduceat`` over the group boundaries — in
    O(nnz log nnz) work and O(nnz) memory, matching the paper's
    linear-precomputation claim (Lemma 8's remark) without a dense
    (clusters x border) scratch.  Entries whose magnitude is exactly
    zero never enter the column maxima.
    """
    n_clusters = len(cluster_slices)
    sizes = [sl.stop - sl.start for sl in cluster_slices]
    edges = np.asarray(
        [sl.start - span_start for sl in cluster_slices]
        + [cluster_slices[-1].stop - span_start if n_clusters else 0],
        dtype=np.int64,
    )

    # Largest |L| per cluster: one reduceat over the clusters holding
    # entries (an empty cluster's segment would read its neighbour's).
    internal_max = np.zeros(n_clusters, dtype=np.float64)
    entry_edges = np.asarray(rows.indptr, dtype=np.int64)[edges]
    occupied = np.flatnonzero(np.diff(entry_edges))
    if occupied.size:
        internal_max[occupied] = np.maximum.reduceat(
            np.abs(rows.data[entry_edges[0] : entry_edges[-1]]),
            entry_edges[occupied] - entry_edges[0],
        )

    # Column maxima grouped by (cluster, column): sort the coupling's
    # entries by a combined key, then one reduceat sweep per group.
    n_border = coupling.shape[1]
    row_cluster = np.repeat(np.arange(n_clusters, dtype=np.int64), sizes)
    keys = (
        np.repeat(row_cluster, np.diff(coupling.indptr)) * max(n_border, 1)
        + coupling.indices
    )
    group_clusters = np.empty(0, dtype=np.int64)
    group_cols = np.empty(0, dtype=np.int64)
    group_maxima = np.empty(0, dtype=np.float64)
    if keys.size:
        sorter = np.argsort(keys, kind="stable")
        sorted_keys = keys[sorter]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        group_maxima = np.maximum.reduceat(np.abs(coupling.data)[sorter], starts)
        group_keys = sorted_keys[starts]
        group_clusters = group_keys // n_border
        group_cols = group_keys % n_border

    # Drop exact zeros, then slice the (cluster-major, column-ascending)
    # groups into per-cluster arrays.
    keep = group_maxima > 0.0
    group_clusters = group_clusters[keep]
    group_cols = group_cols[keep] + border_start
    group_maxima = group_maxima[keep]
    cuts = np.searchsorted(group_clusters, np.arange(n_clusters + 1))
    return tuple(
        ClusterBoundData(
            border_cols=group_cols[cuts[c] : cuts[c + 1]],
            border_maxima=group_maxima[cuts[c] : cuts[c + 1]],
            internal_max=float(internal_max[c]),
            size=sizes[c],
        )
        for c in range(n_clusters)
    )


@dataclass(frozen=True)
class BoundsTable:
    """All interior-cluster bounds packed for one-SpMV evaluation.

    Row ``i`` of ``matrix`` holds :math:`\\bar{U}_{i:j}` over the border
    *offsets* ``j - c_N``; ``growth`` holds the geometric factor
    :math:`(1+\\bar{U}_i)^{N_i-1}` (``+inf`` where it would overflow —
    an infinite bound only disables pruning, never breaks Lemma 7).
    Evaluating every cluster bound then costs a single sparse
    matrix-vector product, replacing the per-cluster Python loop on the
    query path.
    """

    matrix: "object"  # csr_matrix (n_interior x n_border)
    growth: np.ndarray

    @classmethod
    def from_bounds(
        cls, bounds: tuple[ClusterBoundData, ...], border_start: int, n: int
    ) -> "BoundsTable":
        """Pack per-cluster bound data into the vectorized table."""
        import scipy.sparse as sp

        n_border = n - border_start
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        growth = np.empty(len(bounds), dtype=np.float64)
        for i, bound in enumerate(bounds):
            if bound.border_cols.size:
                rows.append(np.full(bound.border_cols.size, i, dtype=np.int64))
                cols.append(bound.border_cols - border_start)
                vals.append(bound.border_maxima)
            growth[i] = bound.growth
        if rows:
            matrix = sp.csr_matrix(
                (
                    np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(len(bounds), n_border),
            )
        else:
            matrix = sp.csr_matrix((len(bounds), n_border), dtype=np.float64)
        return cls(matrix=matrix, growth=growth)

    def estimate_all(self, x_border_abs: np.ndarray) -> np.ndarray:
        """Evaluate every interior cluster's bound in one SpMV.

        ``x_border_abs`` may be a single ``(n_border,)`` vector or an
        ``(n_border, b)`` matrix of border-score magnitudes for ``b``
        queries; the result has one bound column per query (the batched
        engine evaluates a whole batch's bounds in one SpMM).

        Agrees with :meth:`ClusterBoundData.estimate` up to floating-point
        summation order (the SpMV may accumulate border terms in a
        different order than ``np.dot``); the growth factor and overflow
        saturation are shared exactly.
        """
        base = self.matrix @ x_border_abs
        growth = self.growth if base.ndim == 1 else self.growth[:, None]
        with np.errstate(invalid="ignore"):
            bounds = base * growth
        return np.where(base <= 0.0, 0.0, bounds)


#: Relative slack applied when widening compact bound estimates into a
#: certified [lo, hi] band.  It must dominate the float32 representation
#: error of a matrix entry (2^-24 ~ 6e-8) plus the float64 accumulation
#: drift of the SpMV (n * 2^-53 per row); 1e-6 covers both with orders
#: of magnitude to spare for any realistic row length.
COMPACT_RELATIVE_SLACK = 1e-6

#: Bound-table representations accepted by the memory-budgeted engine.
BOUND_TABLE_DTYPES = ("float64", "float32", "int8")


@dataclass(frozen=True)
class CompactBoundsTable:
    """A quantized :class:`BoundsTable` with *certified* error bands.

    The exact table stores float64 column maxima; serving an index much
    larger than RAM wants those resident always (pruning consults every
    shard's bounds on every batch) but small.  This table stores them as
    float32 (half the bytes; int32 indices halve the index arrays too)
    or as per-row scaled uint8 quanta (a quarter), and evaluates a
    conservative band ``[lo, hi]`` guaranteed to bracket the exact
    float64 estimate:

    * ``hi <  threshold``  — the exact bound is below too: prune, certain.
    * ``lo >= threshold``  — the exact bound is at least it: visit, certain.
    * otherwise — *ambiguous*: the caller falls back to the exact table
      (re-materializing the shard if evicted) so the final decision is
      bitwise identical to the unbudgeted engine's.

    Certification argument.  All matrix entries and border magnitudes are
    nonnegative, so every intermediate sum is nonnegative and monotone in
    the entries.  float32 mode: each stored entry has relative error at
    most ``2^-24`` (rows where an entry underflowed float32's normal
    range are flagged ``lossy`` and always ambiguous), and the float64
    SpMV accumulation adds ``~n*2^-53``; both are dominated by
    :data:`COMPACT_RELATIVE_SLACK`, so
    ``est' * (1 -/+ slack)`` brackets the exact estimate.  int8 mode:
    entry ``v`` is stored as ``q = rint(v / scale)`` with per-row
    ``scale = max_entry / 255``, so ``|v - q*scale| <= scale/2`` and the
    row's dot product lies within ``scale * 0.5 * (P @ x)`` of
    ``scale * (Q @ x)``, where ``P`` is the 0/1 pattern matrix (stored as
    uint8 sharing the index arrays).  ``P @ x > 0`` also decides
    *exactly* whether the exact base sum is positive, preserving the
    exact table's hard zero (``base <= 0 -> bound 0``) semantics.  The
    growth factor stays float64 and is shared bitwise with the exact
    table (``+inf`` saturation included: an infinite ``hi`` merely forces
    the ambiguous path).
    """

    dtype: str
    matrix: "object"  # csr: float32 data, or uint8 quanta (int8 mode)
    pattern: "object | None"  # int8 mode: uint8 ones sharing indices/indptr
    scale: "np.ndarray | None"  # int8 mode: per-row float64 scale
    growth: np.ndarray
    lossy: np.ndarray  # per-row bool: compact entry lost information

    @classmethod
    def from_table(
        cls, table: BoundsTable, dtype: str = "float32"
    ) -> "CompactBoundsTable":
        """Quantize an exact table.  ``dtype`` is ``float32`` or ``int8``."""
        import scipy.sparse as sp

        if dtype not in ("float32", "int8"):
            raise ValueError(
                f"compact bound-table dtype must be float32 or int8, "
                f"got {dtype!r}"
            )
        exact = table.matrix.tocsr()
        indices = exact.indices.astype(np.int32, copy=True)
        indptr = exact.indptr.astype(np.int32, copy=True)
        n_rows = exact.shape[0]
        growth = np.array(table.growth, dtype=np.float64, copy=True)
        lossy = np.zeros(n_rows, dtype=bool)

        def _flag_rows(entry_mask: np.ndarray) -> None:
            # Map flagged entries back to their rows via the indptr.
            for entry in np.flatnonzero(entry_mask):
                row = int(np.searchsorted(indptr, entry, side="right")) - 1
                lossy[row] = True

        if dtype == "float32":
            data = exact.data.astype(np.float32)
            # A positive float64 entry that rounded to zero or to a
            # subnormal float32 has unbounded *relative* error: the
            # multiplicative band cannot cover it, so the row is
            # permanently ambiguous instead.
            tiny = np.finfo(np.float32).tiny
            _flag_rows((exact.data > 0.0) & (data < tiny))
            matrix = sp.csr_matrix(
                (data, indices, indptr), shape=exact.shape
            )
            return cls(
                dtype=dtype,
                matrix=matrix,
                pattern=None,
                scale=None,
                growth=growth,
                lossy=lossy,
            )

        # int8 mode: per-row scale, uint8 quanta, uint8 pattern sharing
        # the same index arrays (2 bytes/entry of payload total).
        row_max = np.zeros(n_rows, dtype=np.float64)
        if exact.data.size:
            counts = np.diff(exact.indptr)
            occupied = np.flatnonzero(counts)
            maxima = np.maximum.reduceat(
                exact.data, exact.indptr[occupied].astype(np.int64)
            )
            row_max[occupied] = maxima
        scale = row_max / 255.0
        entry_scale = np.repeat(scale, np.diff(exact.indptr))
        with np.errstate(divide="ignore", invalid="ignore"):
            quanta = np.rint(exact.data / entry_scale)
        quanta = np.nan_to_num(quanta, nan=0.0, posinf=255.0)
        quanta = np.clip(quanta, 0.0, 255.0).astype(np.uint8)
        # Rows whose scale saturates the band math (zero or non-finite
        # entries) stay ambiguous forever rather than risk a bad band.
        _flag_rows(~np.isfinite(exact.data) | ~np.isfinite(entry_scale))
        matrix = sp.csr_matrix((quanta, indices, indptr), shape=exact.shape)
        pattern = sp.csr_matrix(
            (np.ones(exact.data.size, dtype=np.uint8), indices, indptr),
            shape=exact.shape,
        )
        return cls(
            dtype=dtype,
            matrix=matrix,
            pattern=pattern,
            scale=scale,
            growth=growth,
            lossy=lossy,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the compact arrays (memory-accounting surface)."""
        total = (
            self.matrix.data.nbytes
            + self.matrix.indices.nbytes
            + self.matrix.indptr.nbytes
            + self.growth.nbytes
            + self.lossy.nbytes
        )
        if self.pattern is not None:
            # indices/indptr are shared with ``matrix``; only the ones
            # payload is extra.
            total += self.pattern.data.nbytes
        if self.scale is not None:
            total += self.scale.nbytes
        return total

    def estimate_bands(
        self, x_border_abs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified ``(lo, hi)`` bracketing the exact ``estimate_all``.

        Accepts a ``(n_border,)`` vector or ``(n_border, b)`` batch like
        the exact table; the bands have the same shape as its output.
        Rows flagged ``lossy`` answer ``(0, +inf)`` — always ambiguous —
        which is sound because exact estimates are nonnegative and an
        infinite ``hi`` never certifies a prune.
        """
        batched = x_border_abs.ndim > 1
        growth = self.growth[:, None] if batched else self.growth
        if self.dtype == "float32":
            base = self.matrix @ x_border_abs
            with np.errstate(invalid="ignore"):
                est = base * growth
            est = np.where(base <= 0.0, 0.0, est)
            lo = est * (1.0 - COMPACT_RELATIVE_SLACK)
            hi = est * (1.0 + COMPACT_RELATIVE_SLACK)
        else:
            scale = self.scale[:, None] if batched else self.scale
            quanta_sum = self.matrix @ x_border_abs
            pattern_sum = self.pattern @ x_border_abs
            err = scale * 0.5 * pattern_sum
            base_lo = scale * quanta_sum - err
            base_hi = scale * quanta_sum + err
            with np.errstate(invalid="ignore"):
                raw_lo = base_lo * growth
                raw_hi = base_hi * growth
            # pattern_sum == 0 <=> the exact base sum is exactly zero
            # (entries and |x| are nonnegative), so the exact estimate is
            # a hard 0 there.
            lo = np.where((pattern_sum <= 0.0) | (base_lo <= 0.0), 0.0, raw_lo)
            hi = np.where(pattern_sum <= 0.0, 0.0, raw_hi)
            lo = lo * (1.0 - COMPACT_RELATIVE_SLACK)
            hi = hi * (1.0 + COMPACT_RELATIVE_SLACK)
        if self.lossy.any():
            mask = self.lossy[:, None] if batched else self.lossy
            lo = np.where(mask, 0.0, lo)
            hi = np.where(mask, np.inf, hi)
        return lo, hi


def node_estimate(
    factors: LDLFactors,
    permutation: Permutation,
    bound_data: ClusterBoundData,
    position: int,
    x_abs: np.ndarray,
) -> float:
    """Definition 2's per-node estimate :math:`\\bar{x}'_i` (used by tests).

    ``x_abs`` must hold ``|x'|`` with valid entries for every position in
    the node's cluster after ``position`` and for the border cluster.
    """
    cluster = permutation.cluster_slices[
        permutation.cluster_of_position[position]
    ]
    if bound_data.border_cols.size:
        border_term = float(
            np.dot(bound_data.border_maxima, x_abs[bound_data.border_cols])
        )
    else:
        border_term = 0.0
    last = cluster.stop - 1
    if position == last:
        return border_term
    tail = x_abs[position + 1 : cluster.stop]
    return bound_data.internal_max * float(tail.sum()) + border_term
