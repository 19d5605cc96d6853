"""Tests for the per-cluster packed substitution engine (repro.core.solver).

The :class:`ClusterSolver` is the production tier of Lemmas 4/5; every
result must agree with the readable per-row reference functions in
:mod:`repro.linalg.triangular` to machine precision, for both
factorizations, and the structural preconditions must be enforced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.permutation import build_permutation
from repro.core.solver import ClusterSolver
from repro.linalg import packed
from repro.linalg.ldl import complete_ldl, incomplete_ldl
from repro.linalg.triangular import (
    back_substitute,
    forward_substitute,
    forward_substitute_rows,
    ldl_solve,
)
from repro.ranking.normalize import ranking_matrix
from repro.utils import cbuild


def build_parts(graph, alpha=0.95, factorize=incomplete_ldl):
    permutation = build_permutation(graph.adjacency)
    w = permutation.permute_matrix(ranking_matrix(graph.adjacency, alpha))
    factors = factorize(w)
    return permutation, factors


def _solver_answers(solver, permutation):
    """Full, restricted-forward and batched solves for a fixed query."""
    q = np.zeros(solver.n)
    q[0] = 1.0
    batch = np.random.default_rng(4).normal(size=(solver.n, 3))
    first_cluster = [int(permutation.cluster_of_position[0])]
    return (
        solver.solve(q),
        solver.forward(q, first_cluster),
        solver.solve(batch),
    )


@pytest.fixture(scope="module", params=["incomplete", "complete"])
def solver_parts(request, bridged_graph):
    factorize = incomplete_ldl if request.param == "incomplete" else complete_ldl
    permutation, factors = build_parts(bridged_graph, factorize=factorize)
    return permutation, factors, ClusterSolver(factors, permutation)


class TestFullSolves:
    def test_solve_matches_ldl_solve(self, solver_parts):
        permutation, factors, solver = solver_parts
        rng = np.random.default_rng(0)
        for _ in range(3):
            q = rng.normal(size=factors.n)
            np.testing.assert_allclose(
                solver.solve(q), ldl_solve(factors, q), atol=1e-10
            )

    def test_forward_full_matches_reference(self, solver_parts):
        permutation, factors, solver = solver_parts
        q = np.random.default_rng(1).normal(size=factors.n)
        np.testing.assert_allclose(
            solver.forward_full(q), forward_substitute(factors, q), atol=1e-10
        )

    def test_back_full_matches_reference(self, solver_parts):
        permutation, factors, solver = solver_parts
        y = np.random.default_rng(2).normal(size=factors.n)
        np.testing.assert_allclose(
            solver.back_full(y), back_substitute(factors, y), atol=1e-10
        )


class TestRestrictedSolves:
    def test_forward_restricted_matches_rows_reference(self, solver_parts):
        permutation, factors, solver = solver_parts
        border = permutation.border_slice
        for cid in range(permutation.n_clusters - 1):
            sl = permutation.cluster_slices[cid]
            q = np.zeros(factors.n)
            q[sl.start] = 1.0  # seed inside cluster cid
            rows = list(range(sl.start, sl.stop)) + list(
                range(border.start, border.stop)
            )
            expected = forward_substitute_rows(factors, q, rows)
            np.testing.assert_allclose(
                solver.forward(q, [cid]), expected, atol=1e-10
            )

    def test_restricted_scores_match_full_solve(self, solver_parts):
        """Lemmas 4+5 chained: any cluster's scores from the restricted
        path equal the same positions of the full solve."""
        permutation, factors, solver = solver_parts
        border = permutation.border_slice
        q = np.zeros(factors.n)
        seed_cluster = 0
        q[permutation.cluster_slices[seed_cluster].start] = 0.01
        full = solver.solve(q)
        for cid in range(permutation.n_clusters):
            restricted = solver.solve_restricted(q, [seed_cluster], [cid])
            sl = permutation.cluster_slices[cid]
            np.testing.assert_allclose(
                restricted[sl], full[sl], atol=1e-10,
                err_msg=f"cluster {cid} scores diverge",
            )
            np.testing.assert_allclose(
                restricted[border], full[border], atol=1e-10
            )

    def test_multi_seed_forward(self, solver_parts):
        permutation, factors, solver = solver_parts
        q = np.zeros(factors.n)
        first = permutation.cluster_slices[0]
        second = permutation.cluster_slices[1]
        q[first.start] = 0.6
        q[second.start] = 0.4
        reference = forward_substitute(factors, q)
        y = solver.forward(q, [0, 1])
        border = permutation.border_slice
        for sl in (first, second, border):
            np.testing.assert_allclose(y[sl], reference[sl], atol=1e-10)

    def test_border_seed_cluster(self, solver_parts):
        """A query living in the border cluster is a valid seed set."""
        permutation, factors, solver = solver_parts
        border = permutation.border_slice
        if border.stop == border.start:
            pytest.skip("graph produced an empty border")
        q = np.zeros(factors.n)
        q[border.start] = 1.0
        y = solver.forward(q, [permutation.border_cluster])
        expected = forward_substitute(factors, q)
        np.testing.assert_allclose(y[border], expected[border], atol=1e-10)


class TestValidation:
    def test_size_mismatch_raises(self, bridged_graph, small_ring_graph):
        perm_small = build_permutation(small_ring_graph.adjacency)
        _, factors_big = build_parts(bridged_graph)
        with pytest.raises(ValueError, match="permutation"):
            ClusterSolver(factors_big, perm_small)

    def test_structure_mismatch_raises(self, bridged_graph):
        """Factors computed under a different permutation violate the
        bordered-block-diagonal precondition and must be rejected."""
        permutation = build_permutation(bridged_graph.adjacency)
        w_unpermuted = ranking_matrix(bridged_graph.adjacency, 0.95)
        factors_wrong = incomplete_ldl(w_unpermuted)  # no permutation applied
        if permutation.n_clusters < 3:
            pytest.skip("graph too small to expose a structure mismatch")
        with pytest.raises(ValueError, match="do not match this permutation"):
            ClusterSolver(factors_wrong, permutation)

    @pytest.mark.skipif(
        packed.KERNEL != "compiled" or packed._gstrs is None,
        reason="needs the compiled kernel and scipy's gstrs",
    )
    def test_fallback_tier_agrees(self, bridged_graph, monkeypatch):
        """The compiled kernel and forced gstrs answer bitwise alike."""
        permutation, factors = build_parts(bridged_graph)
        solver = ClusterSolver(factors, permutation)
        compiled = _solver_answers(solver, permutation)
        monkeypatch.setattr(packed, "_kernel", None)
        for got, want in zip(_solver_answers(solver, permutation), compiled):
            assert np.array_equal(got, want)

    @pytest.mark.skipif(packed._gstrs is None, reason="needs scipy's gstrs")
    def test_without_a_compiler_gstrs_answers(
        self, bridged_graph, monkeypatch, tmp_path
    ):
        """No usable compiler and an empty cache: KERNEL is "gstrs", and a
        solver built then answers exactly as the compiled kernel does."""
        permutation, factors = build_parts(bridged_graph)
        compiled = _solver_answers(ClusterSolver(factors, permutation), permutation)
        monkeypatch.setattr(
            cbuild.sysconfig, "get_config_var", lambda name: "/nonexistent/cc"
        )
        kernel, name = packed._select_kernel(tmp_path)
        monkeypatch.setattr(packed, "_kernel", kernel)
        monkeypatch.setattr(packed, "KERNEL", name)
        assert packed.KERNEL == "gstrs"
        fallback = _solver_answers(ClusterSolver(factors, permutation), permutation)
        for got, want in zip(fallback, compiled):
            assert np.array_equal(got, want)


class TestMultiRHS:
    """Every ClusterSolver method on (n, b) right-hand sides must equal
    the per-column single-RHS calls bitwise — the property the batched
    engine's exactness rests on."""

    def test_full_solves_match_columns(self, solver_parts):
        _, factors, solver = solver_parts
        b = np.random.default_rng(7).normal(size=(factors.n, 5))
        forward = solver.forward_full(b)
        back = solver.back_full(b)
        full = solver.solve(b)
        for j in range(5):
            np.testing.assert_array_equal(forward[:, j], solver.forward_full(b[:, j]))
            np.testing.assert_array_equal(back[:, j], solver.back_full(b[:, j]))
            np.testing.assert_array_equal(full[:, j], solver.solve(b[:, j]))

    def test_restricted_passes_match_columns(self, solver_parts):
        permutation, factors, solver = solver_parts
        rng = np.random.default_rng(8)
        seed_cluster = 0
        sl = permutation.cluster_slices[seed_cluster]
        q = np.zeros((factors.n, 3))
        q[sl.start : sl.stop] = rng.normal(size=(sl.stop - sl.start, 3))
        y = solver.forward(q, [seed_cluster])
        x = np.zeros((factors.n, 3))
        solver.back_border(y, x)
        solver.back_cluster(seed_cluster, y, x)
        other = 1 if permutation.n_clusters > 2 else seed_cluster
        solver.back_cluster(other, y, x)
        for j in range(3):
            y_ref = solver.forward(q[:, j], [seed_cluster])
            np.testing.assert_array_equal(y[:, j], y_ref)
            x_ref = np.zeros(factors.n)
            solver.back_border(y_ref, x_ref)
            solver.back_cluster(seed_cluster, y_ref, x_ref)
            solver.back_cluster(other, y_ref, x_ref)
            np.testing.assert_array_equal(x[:, j], x_ref)

    def test_column_subset_touches_only_those_columns(self, solver_parts):
        permutation, factors, solver = solver_parts
        rng = np.random.default_rng(9)
        sl = permutation.cluster_slices[0]
        q = np.zeros((factors.n, 4))
        q[sl.start : sl.stop] = rng.normal(size=(sl.stop - sl.start, 4))
        z = np.zeros((factors.n, 4))
        y = np.zeros((factors.n, 4))
        cols = np.asarray([1, 3])
        solver.forward_seed_block(0, q, z, y, cols=cols)
        assert np.all(y[:, [0, 2]] == 0.0)
        solver.forward_border(q, z, y)
        x = np.zeros((factors.n, 4))
        solver.back_border(y, x)
        solver.back_cluster(0, y, x, cols=cols)
        for j in cols:
            y_ref = solver.forward(q[:, j], [0])
            np.testing.assert_array_equal(y[:, j], y_ref)
            x_ref = np.zeros(factors.n)
            solver.back_border(y_ref, x_ref)
            solver.back_cluster(0, y_ref, x_ref)
            np.testing.assert_array_equal(x[:, j], x_ref)
        assert np.all(x[: permutation.border_slice.start, [0, 2]] == 0.0)

    def test_back_all_interior_matrix_rhs(self, solver_parts):
        permutation, factors, solver = solver_parts
        rng = np.random.default_rng(10)
        y = rng.normal(size=(factors.n, 3))
        x = np.zeros((factors.n, 3))
        solver.back_border(y, x)
        solver.back_all_interior(y, x)
        for j in range(3):
            x_ref = np.zeros(factors.n)
            solver.back_border(y[:, j], x_ref)
            solver.back_all_interior(y[:, j], x_ref)
            np.testing.assert_array_equal(x[:, j], x_ref)
