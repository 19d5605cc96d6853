"""Sparse linear-algebra substrate used by Mogul and the baselines.

The paper's engine is an :math:`LDL^T` factorization of the symmetric
positive-definite matrix :math:`W = I - \\alpha C^{-1/2} A C^{-1/2}`:

* :func:`incomplete_ldl` — Incomplete Cholesky (paper Eq. 6-7): the factor is
  restricted to W's own sparsity pattern, giving O(n) non-zeros on k-NN
  graphs.  Used by Mogul.
* :func:`complete_ldl` — Modified (complete) Cholesky with fill-in, computed
  with an elimination tree and an up-looking sparse algorithm.  Used by
  MogulE (paper §4.6.1) for exact scores.
* :mod:`repro.linalg.triangular` — forward/back substitution, including the
  row-restricted variants that Lemmas 4 and 5 justify.

The EMR and FMR baselines (:mod:`repro.baselines`) carry their own
Woodbury algebra.
"""

from repro.linalg.elimination_tree import elimination_tree, ereach
from repro.linalg.ldl import LDLFactors, complete_ldl, incomplete_ldl
from repro.linalg.ordering import (
    apply_order,
    bandwidth,
    profile,
    reverse_cuthill_mckee,
)
from repro.linalg.packed import PackedUnitLower
from repro.linalg.spectral import (
    SpectralBasis,
    project_seeds,
    spectral_decompose,
    spectral_filter,
    spectral_scores,
)
from repro.linalg.triangular import (
    back_substitute,
    back_substitute_rows,
    forward_substitute,
    forward_substitute_rows,
    ldl_solve,
)

__all__ = [
    "LDLFactors",
    "PackedUnitLower",
    "SpectralBasis",
    "apply_order",
    "bandwidth",
    "back_substitute",
    "back_substitute_rows",
    "complete_ldl",
    "elimination_tree",
    "ereach",
    "forward_substitute",
    "forward_substitute_rows",
    "incomplete_ldl",
    "ldl_solve",
    "profile",
    "project_seeds",
    "reverse_cuthill_mckee",
    "spectral_decompose",
    "spectral_filter",
    "spectral_scores",
]
