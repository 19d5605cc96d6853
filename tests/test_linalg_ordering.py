"""Tests for the RCM ordering and bandwidth/profile diagnostics."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.ordering import (
    apply_order,
    bandwidth,
    profile,
    reverse_cuthill_mckee,
)
from tests.conftest import random_symmetric_adjacency


def path_graph(n: int) -> sp.csr_matrix:
    rows = np.arange(n - 1)
    data = np.ones(n - 1)
    upper = sp.csr_matrix((data, (rows, rows + 1)), shape=(n, n))
    return (upper + upper.T).tocsr()


class TestRcm:
    def test_is_a_permutation(self):
        adjacency = random_symmetric_adjacency(40, seed=1)
        order = reverse_cuthill_mckee(adjacency)
        np.testing.assert_array_equal(np.sort(order), np.arange(40))

    def test_path_graph_is_optimal(self):
        """A path admits bandwidth 1; RCM must find it."""
        adjacency = path_graph(25)
        # scramble first so the input order carries no hint
        rng = np.random.default_rng(3)
        scramble = rng.permutation(25)
        scrambled = apply_order(adjacency, scramble)
        order = reverse_cuthill_mckee(scrambled)
        assert bandwidth(apply_order(scrambled, order)) == 1

    def test_reduces_bandwidth_vs_random(self):
        adjacency = random_symmetric_adjacency(60, density=0.05, seed=5)
        rng = np.random.default_rng(0)
        random_order = rng.permutation(60)
        rcm_order = reverse_cuthill_mckee(adjacency)
        bw_random = bandwidth(apply_order(adjacency, random_order))
        bw_rcm = bandwidth(apply_order(adjacency, rcm_order))
        assert bw_rcm <= bw_random

    def test_handles_disconnected_components(self):
        a = path_graph(6)
        blocks = sp.block_diag([a, a, a]).tocsr()
        order = reverse_cuthill_mckee(blocks)
        np.testing.assert_array_equal(np.sort(order), np.arange(18))
        assert bandwidth(apply_order(blocks, order)) == 1

    def test_single_node(self):
        order = reverse_cuthill_mckee(sp.csr_matrix((1, 1)))
        np.testing.assert_array_equal(order, [0])

    def test_edgeless_graph(self):
        order = reverse_cuthill_mckee(sp.csr_matrix((5, 5)))
        np.testing.assert_array_equal(np.sort(order), np.arange(5))

    def test_deterministic(self):
        adjacency = random_symmetric_adjacency(30, seed=9)
        a = reverse_cuthill_mckee(adjacency)
        b = reverse_cuthill_mckee(adjacency)
        np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_valid_permutation(self, n, seed):
        adjacency = random_symmetric_adjacency(n, seed=seed)
        order = reverse_cuthill_mckee(adjacency)
        np.testing.assert_array_equal(np.sort(order), np.arange(n))


class TestDiagnostics:
    def test_bandwidth_of_diagonal_is_zero(self):
        assert bandwidth(sp.identity(5, format="csr")) == 0

    def test_bandwidth_of_empty_is_zero(self):
        assert bandwidth(sp.csr_matrix((4, 4))) == 0

    def test_bandwidth_of_path(self):
        assert bandwidth(path_graph(10)) == 1

    def test_profile_of_path(self):
        # each row i>0 reaches back exactly one column
        assert profile(path_graph(10)) == 9

    def test_profile_monotone_under_rcm(self):
        adjacency = random_symmetric_adjacency(50, density=0.06, seed=2)
        rng = np.random.default_rng(1)
        random_order = rng.permutation(50)
        p_random = profile(apply_order(adjacency, random_order))
        p_rcm = profile(apply_order(adjacency, reverse_cuthill_mckee(adjacency)))
        assert p_rcm <= p_random
