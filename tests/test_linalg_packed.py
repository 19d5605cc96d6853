"""Tests for the packed triangular solver (repro.linalg.packed).

The contract: :class:`PackedUnitLower` answers repeated unit-triangular
solves, agrees to machine precision with dense numpy reference solves,
and its compiled kernel agrees **bitwise** with the ``gstrs`` fallback.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import packed
from repro.linalg.packed import PackedUnitLower
from repro.utils import cbuild

needs_both_kernels = pytest.mark.skipif(
    packed.KERNEL != "compiled" or packed._gstrs is None,
    reason="needs the compiled kernel and scipy's gstrs",
)


def solve_both_kernels(block, method, b):
    """``block.<method>(b)`` under the compiled kernel, then forced gstrs."""
    compiled = getattr(block, method)(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packed, "_kernel", None)
        fallback = getattr(block, method)(b)
    return compiled, fallback


def assert_kernels_bitwise_equal(block, b):
    for method in ("solve_lower", "solve_upper"):
        compiled, fallback = solve_both_kernels(block, method, b)
        assert np.array_equal(compiled, fallback), method
        assert compiled.flags.f_contiguous and fallback.flags.f_contiguous


def random_strict_lower(n: int, density: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
    return sp.csr_matrix(np.tril(dense, k=-1))


def dense_unit_lower(strict: sp.csr_matrix) -> np.ndarray:
    return strict.toarray() + np.eye(strict.shape[0])


class TestAgainstDenseReference:
    @pytest.mark.parametrize("n", [2, 3, 10, 57])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.6])
    def test_solve_lower(self, n, density):
        strict = random_strict_lower(n, density, seed=n)
        packed = PackedUnitLower(strict)
        rng = np.random.default_rng(1)
        b = rng.normal(size=n)
        expected = np.linalg.solve(dense_unit_lower(strict), b)
        np.testing.assert_allclose(packed.solve_lower(b), expected, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 10, 57])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.6])
    def test_solve_upper(self, n, density):
        strict = random_strict_lower(n, density, seed=n + 100)
        packed = PackedUnitLower(strict)
        rng = np.random.default_rng(2)
        b = rng.normal(size=n)
        expected = np.linalg.solve(dense_unit_lower(strict).T, b)
        np.testing.assert_allclose(packed.solve_upper(b), expected, atol=1e-10)

    def test_repeated_solves_are_stable(self):
        """The packed arrays must not be corrupted by solving."""
        strict = random_strict_lower(20, 0.3, seed=5)
        packed = PackedUnitLower(strict)
        b = np.arange(20, dtype=np.float64)
        first = packed.solve_lower(b)
        for _ in range(5):
            np.testing.assert_array_equal(packed.solve_lower(b), first)

    def test_input_vector_not_mutated(self):
        strict = random_strict_lower(15, 0.4, seed=9)
        packed = PackedUnitLower(strict)
        b = np.ones(15)
        before = b.copy()
        packed.solve_lower(b)
        packed.solve_upper(b)
        np.testing.assert_array_equal(b, before)


class TestKernelEquivalence:
    """The compiled kernel against forced ``gstrs``: bitwise, not close."""

    @needs_both_kernels
    @pytest.mark.parametrize("n", [2, 16, 40])
    def test_superlu_matches_fallback(self, n):
        block = PackedUnitLower(random_strict_lower(n, 0.25, seed=n))
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert_kernels_bitwise_equal(block, rng.normal(size=n))

    @needs_both_kernels
    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=2, max_value=120),
        density=st.floats(min_value=0.005, max_value=0.3),
        nrhs=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_compiled_matches_gstrs_bitwise(self, n, density, nrhs, seed):
        """nrhs = 0 stands for a 1-D right-hand side; both directions."""
        block = PackedUnitLower.from_strict_lower_trusted(
            random_strict_lower(n, density, seed)
        )
        rng = np.random.default_rng(seed)
        b = rng.normal(size=n) if nrhs == 0 else rng.normal(size=(n, nrhs))
        assert_kernels_bitwise_equal(block, b)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/status"
    )
    def test_solves_do_not_grow_rss(self):
        """200 000 solves leave RSS flat; the leaking gstrs adds tens of MB."""

        def vm_rss_mb() -> float:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024
            raise AssertionError("no VmRSS line")

        assert packed.KERNEL == "compiled"
        block = PackedUnitLower(random_strict_lower(200, 0.05, seed=3))
        b = np.random.default_rng(3).normal(size=200)
        block.solve_lower(b)
        block.solve_upper(b)
        before = vm_rss_mb()
        for _ in range(100_000):
            block.solve_lower(b)
            block.solve_upper(b)
        assert vm_rss_mb() - before < 5.0


class TestEdgeCases:
    def test_empty_block(self):
        packed = PackedUnitLower(sp.csr_matrix((0, 0)))
        assert packed.n == 0
        assert packed.nnz == 0
        result = packed.solve_lower(np.empty(0))
        assert result.shape == (0,)

    def test_single_row_block_is_identity(self):
        packed = PackedUnitLower(sp.csr_matrix((1, 1)))
        np.testing.assert_array_equal(packed.solve_lower(np.asarray([3.5])), [3.5])
        np.testing.assert_array_equal(packed.solve_upper(np.asarray([-2.0])), [-2.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            PackedUnitLower(sp.csr_matrix(np.zeros((2, 3))))

    def test_rejects_diagonal_entries(self):
        bad = sp.csr_matrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="on or above"):
            PackedUnitLower(bad)

    def test_rejects_upper_entries(self):
        bad = sp.csr_matrix(np.asarray([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="on or above"):
            PackedUnitLower(bad)

    def test_tolerates_explicit_zeros_above_diagonal(self):
        # Construct with an explicitly *stored* zero above the diagonal.
        matrix = sp.csr_matrix(
            (np.asarray([0.0, 0.5]), (np.asarray([0, 1]), np.asarray([1, 0]))),
            shape=(2, 2),
        )
        packed = PackedUnitLower(matrix)
        np.testing.assert_allclose(
            packed.solve_lower(np.asarray([1.0, 1.0])), [1.0, 0.5]
        )

    def test_rejects_wrong_rhs_shape(self):
        packed = PackedUnitLower(random_strict_lower(4, 0.5, seed=0))
        with pytest.raises(ValueError, match="shape"):
            packed.solve_lower(np.zeros(5))

    def test_nnz_counts_unit_diagonal(self):
        strict = random_strict_lower(10, 0.3, seed=3)
        packed = PackedUnitLower(strict)
        assert packed.nnz == strict.nnz + 10


class TestPropertyBased:
    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_solve_then_multiply_roundtrip(self, n, seed):
        """(I+L) @ solve_lower(b) == b and (I+L)^T @ solve_upper(b) == b."""
        strict = random_strict_lower(n, 0.3, seed=seed)
        packed = PackedUnitLower(strict)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=n)
        unit = dense_unit_lower(strict)
        np.testing.assert_allclose(unit @ packed.solve_lower(b), b, atol=1e-8)
        np.testing.assert_allclose(unit.T @ packed.solve_upper(b), b, atol=1e-8)


class TestMultiRHS:
    """Multi-RHS solves must equal the per-column single-RHS solves."""

    @pytest.mark.parametrize("n", [2, 10, 57])
    @pytest.mark.parametrize("n_rhs", [1, 3, 8])
    def test_columns_match_single_solves(self, n, n_rhs):
        strict = random_strict_lower(n, 0.4, seed=n + n_rhs)
        packed = PackedUnitLower(strict)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(n, n_rhs))
        lower = packed.solve_lower(b)
        upper = packed.solve_upper(b)
        assert lower.shape == (n, n_rhs)
        for j in range(n_rhs):
            np.testing.assert_array_equal(lower[:, j], packed.solve_lower(b[:, j]))
            np.testing.assert_array_equal(upper[:, j], packed.solve_upper(b[:, j]))

    @needs_both_kernels
    def test_kernels_agree_on_matrix_rhs(self):
        block = PackedUnitLower(random_strict_lower(23, 0.3, seed=9))
        b = np.random.default_rng(2).normal(size=(23, 5))
        assert_kernels_bitwise_equal(block, b)

    def test_zero_column_rhs(self):
        packed = PackedUnitLower(random_strict_lower(6, 0.5, seed=1))
        out = packed.solve_lower(np.zeros((6, 0)))
        assert out.shape == (6, 0)

    def test_tiny_block_matrix_rhs(self):
        packed = PackedUnitLower(sp.csr_matrix((1, 1)))
        b = np.asarray([[2.0, 3.0]])
        np.testing.assert_array_equal(packed.solve_upper(b), b)

    def test_rejects_3d_rhs(self):
        packed = PackedUnitLower(random_strict_lower(4, 0.5, seed=0))
        with pytest.raises(ValueError, match="shape"):
            packed.solve_lower(np.zeros((4, 2, 2)))


class TestTrustedPacking:
    def test_matches_validated_path_bitwise(self):
        rng = np.random.default_rng(0)
        dense = np.tril(rng.random((20, 20)), k=-1)
        block = sp.csr_matrix(dense)
        fast = PackedUnitLower.from_strict_lower_trusted(block)
        slow = PackedUnitLower(block)
        b = rng.random((20, 3))
        np.testing.assert_array_equal(fast.solve_lower(b), slow.solve_lower(b))
        np.testing.assert_array_equal(fast.solve_upper(b), slow.solve_upper(b))

    def test_rejects_diagonal_entries(self):
        bad = sp.csr_matrix(np.tril(np.ones((6, 6))))  # unit diagonal present
        with pytest.raises(ValueError, match="on or above the diagonal"):
            PackedUnitLower.from_strict_lower_trusted(bad)


class TestKernelBuild:
    """The compile-on-first-use cache and its fallbacks."""

    @pytest.mark.skipif(packed.KERNEL != "compiled", reason="no C compiler")
    def test_builds_once_into_the_cache_dir(self, tmp_path):
        kernel, name = packed._select_kernel(tmp_path)
        assert name == "compiled" and kernel is not None
        (library,) = tmp_path.iterdir()  # no temporary files left behind
        assert library.name.startswith("_unit_trsv.") and library.suffix == ".so"
        built = library.stat().st_mtime_ns
        assert packed._select_kernel(tmp_path)[1] == "compiled"
        assert [p.name for p in tmp_path.iterdir()] == [library.name]
        assert library.stat().st_mtime_ns == built

    @pytest.mark.skipif(packed.KERNEL != "compiled", reason="no C compiler")
    def test_unwritable_cache_builds_privately(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cbuild.os, "access", lambda *args: False)
        assert packed._select_kernel(tmp_path)[1] == "compiled"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(packed._gstrs is None, reason="needs scipy's gstrs")
    def test_missing_compiler_selects_gstrs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cbuild.sysconfig, "get_config_var", lambda name: "/nonexistent/cc"
        )
        assert packed._select_kernel(tmp_path) == (None, "gstrs")
