"""Prepacked unit-triangular solves for repeated right-hand sides.

:func:`scipy.sparse.linalg.spsolve_triangular` spends the bulk of its time
on per-call validation, copies and format conversion — two orders of
magnitude more than the substitution itself for the small cluster-sized
systems Mogul solves per query (Lemmas 4/5 restrict each query to a
handful of blocks).  :class:`PackedUnitLower` does all of that work
**once**: it packs a unit-lower-triangular block into CSC arrays and then
answers each solve with a single compiled call.  One packed block serves
both directions, because Mogul's back substitution runs on :math:`U = L^T`
(paper Eq. 5):

* :meth:`PackedUnitLower.solve_lower` — forward substitution
  :math:`(I + L_{strict})\\,z = b` (paper Eq. 4 after diagonal scaling).
* :meth:`PackedUnitLower.solve_upper` — back substitution
  :math:`(I + L_{strict})^T\\,z = b`.

Both accept a single ``(n,)`` right-hand side or an ``(n, b)`` matrix, the
form the batched engine (:mod:`repro.core.batch`) is built on: a batch
pays the per-call overhead once, and each column is bitwise identical to
the corresponding single-RHS solve.

**Kernel.**  The loop is ``unit_lower_solve`` in ``_unit_trsv.c`` beside
this module, called through :mod:`ctypes` (which releases the GIL).  It
replaces SciPy's private ``_superlu.gstrs``, which in SciPy 1.17 leaks one
allocation per call, so a server's RSS grew with the queries it answered.
It keeps ``gstrs``'s operation order and is built without floating-point
contraction, so the two agree bitwise.

**Build cache.**  On first import :func:`repro.utils.cbuild.load_kernel`
compiles the source into the ``__pycache__`` beside it, keyed by a hash
of the source and the command, or loads the library cached there.

**Fallback.**  Without a working compiler the solves call ``gstrs`` — the
same answers, with the leak.  :data:`KERNEL` names the kernel in use
(``"compiled"`` or ``"gstrs"``); with neither, import raises
:class:`ImportError`.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.utils.cbuild import load_kernel

try:  # pragma: no cover - depends on the scipy build
    from scipy.sparse.linalg._dsolve._superlu import gstrs as _gstrs
except ImportError:  # pragma: no cover
    _gstrs = None

_SOURCE = Path(__file__).with_name("_unit_trsv.c")
# n, nrhs, data, indices, indptr, x, trans
_ARGTYPES = (ctypes.c_int,) * 2 + (ctypes.c_void_p,) * 4 + (ctypes.c_int,)


def _select_kernel(cache_dir: Path | None = None):
    """``(compiled kernel or None, KERNEL name)``."""
    kernel = load_kernel(_SOURCE, "unit_lower_solve", _ARGTYPES, None, cache_dir)
    if kernel is not None:
        return kernel, "compiled"
    if _gstrs is None:  # pragma: no cover - no compiler and an unusual scipy
        raise ImportError(
            f"repro.linalg.packed needs a C compiler to build {_SOURCE.name} "
            "or scipy's private _superlu.gstrs, and found neither"
        )
    return None, "gstrs"


_kernel, KERNEL = _select_kernel()


class PackedUnitLower:
    """A unit-lower-triangular block packed for repeated fast solves.

    Parameters
    ----------
    strict_lower:
        Sparse matrix holding the **strict** lower triangle of the block
        (the unit diagonal is implied, matching
        :class:`repro.linalg.LDLFactors` storage).  Anything on or above
        the diagonal raises.
    """

    def __init__(self, strict_lower: sp.spmatrix):
        rows, cols = strict_lower.shape
        if rows != cols:
            raise ValueError(f"block must be square, got shape {strict_lower.shape}")
        # Explicit zeros on/above the diagonal are tolerated; values not.
        if sp.triu(strict_lower).count_nonzero():
            raise ValueError("strict_lower has entries on or above the diagonal")
        self._assemble(sp.tril(strict_lower, k=-1, format="csr"))

    @classmethod
    def from_strict_lower_trusted(
        cls, strict_lower: sp.csr_matrix
    ) -> "PackedUnitLower":
        """Pack a sorted strictly-lower CSR block without scipy conversions.

        Skips ``__init__``'s ``triu``/``tril`` passes and assembles the
        same arrays, so solves are bitwise identical.  Index construction
        packs a block per cluster; this path is what keeps that linear in
        nnz instead of in scipy conversions.  Strict-lowerness is still
        verified with one O(nnz) vectorized check, because a diagonal
        entry would silently shift the assembled columns.
        """
        strict_lower = strict_lower.tocsr()
        n = strict_lower.shape[0]
        entry_rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(strict_lower.indptr)
        )
        if np.any(strict_lower.indices >= entry_rows):
            raise ValueError("strict_lower has entries on or above the diagonal")
        self = cls.__new__(cls)
        self._assemble(strict_lower)
        return self

    def _assemble(self, strict_lower: sp.csr_matrix) -> None:
        """Pack the unit CSC arrays back to back in one buffer.

        Each column holds its diagonal entry first, then its rows of
        ``strict_lower`` in ascending order.  One buffer means a solve
        reads one base address, not three (each ``.ctypes.data`` read
        costs microseconds); only offsets are kept, never addresses, so a
        pickled block stays valid.
        """
        self.n = n = strict_lower.shape[0]
        if n <= 1:
            return  # 0x0 and 1x1 unit systems are identities
        transposed = strict_lower.T.tocsr()  # rows = columns of L
        transposed.sort_indices()
        self._nnz = nnz = transposed.nnz + n
        if nnz > np.iinfo(np.intc).max:
            raise ValueError(f"{nnz} stored entries overflow the kernel's int32")
        self._buffer = np.empty(12 * nnz + 4 * (n + 1), dtype=np.uint8)
        data, indices, indptr = self._arrays()
        indptr[0] = 0
        np.cumsum(np.diff(transposed.indptr) + 1, out=indptr[1:])
        diag_pos = indptr[:-1]
        indices[diag_pos] = np.arange(n, dtype=np.intc)
        data[diag_pos] = 1.0
        off_diag = np.ones(nnz, dtype=bool)
        off_diag[diag_pos] = False
        indices[off_diag] = transposed.indices
        data[off_diag] = transposed.data

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` views into the packed buffer."""
        buffer, a, b = self._buffer, 8 * self._nnz, 12 * self._nnz
        return (
            buffer[:a].view(np.float64),
            buffer[a:b].view(np.intc),
            buffer[b:].view(np.intc),
        )

    @property
    def nnz(self) -> int:
        """Stored non-zeros including the unit diagonal."""
        return self.n if self.n <= 1 else self._nnz

    @property
    def nbytes(self) -> int:
        """Bytes of the packed factor arrays (memory-accounting surface)."""
        return 0 if self.n <= 1 else int(self._buffer.nbytes)

    def solve_lower(self, b: np.ndarray) -> np.ndarray:
        """Solve :math:`(I + L_{strict})\\,z = b` (forward substitution).

        ``b`` may be a single ``(n,)`` right-hand side or an ``(n, b)``
        matrix; the result matches the input shape and each column equals
        the corresponding single-RHS solve bitwise.
        """
        return self._solve(b, trans="N")

    def solve_upper(self, b: np.ndarray) -> np.ndarray:
        """Solve :math:`(I + L_{strict})^T z = b` (back substitution).

        Accepts ``(n,)`` or ``(n, b)`` right-hand sides like
        :meth:`solve_lower`.
        """
        return self._solve(b, trans="T")

    def _solve(self, b: np.ndarray, trans: str) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(
                f"b must have shape ({self.n},) or ({self.n}, nrhs), got {b.shape}"
            )
        if self.n <= 1 or (b.ndim == 2 and b.shape[1] == 0):
            return b.copy()
        # Both kernels answer in a Fortran-ordered copy of b.
        x = np.array(b, order="F")
        if _kernel is not None:
            # The address is read per call, never stored: packed blocks are
            # pickled back from build workers and land at new addresses.
            base = self._buffer.ctypes.data
            _kernel(
                self.n,
                1 if x.ndim == 1 else x.shape[1],
                base,
                base + 8 * self._nnz,
                base + 12 * self._nnz,
                x.ctypes.data,
                trans == "T",
            )
            return x
        x, info = _gstrs(
            trans,
            self.n,
            self._nnz,
            *self._arrays(),
            self.n,
            0,
            np.empty(0, dtype=np.float64),  # gstrs wants an (empty) U factor
            np.empty(0, dtype=np.intc),
            np.zeros(self.n + 1, dtype=np.intc),
            x,
        )
        if info:  # pragma: no cover - unit diagonal cannot be singular
            raise np.linalg.LinAlgError("triangular solve reported singularity")
        return x
