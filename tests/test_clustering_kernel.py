"""The compiled local move, its Python fallback and the oracle agree bitwise.

:mod:`repro.clustering.louvain` runs its sweep on ``_local_move.c`` when a
compiler is usable and on plain Python lists otherwise.  Both must give
labels bitwise equal to each other and to ``tests/oracles.py``'s
array-based sweep, on every kind of graph the sweep branches on: ties,
isolated nodes, aggregated self loops, resolution != 1, a zero
tolerance and a shuffled visit order.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.louvain as louvain_module
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.graph.build import build_knn_graph
from repro.utils import cbuild
from tests import oracles

needs_compiled = pytest.mark.skipif(
    louvain_module.KERNEL != "compiled", reason="no C compiler"
)


def labels_three_ways(adjacency: sp.csr_matrix, **kwargs) -> list[np.ndarray]:
    """Labels from the module's kernel, the Python fallback and the oracle."""
    kernel = louvain_module.louvain(adjacency, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(louvain_module, "_kernel", None)
        python = louvain_module.louvain(adjacency, **kwargs)
    return [kernel, python, oracles.louvain(adjacency, **kwargs)]


def assert_bitwise_equal(labels: list[np.ndarray]) -> None:
    first = labels[0]
    for other in labels[1:]:
        assert other.dtype == first.dtype
        assert other.tobytes() == first.tobytes()


def random_graph(
    n: int, density: float, seed: int, quantised: bool, isolated: int
) -> sp.csr_matrix:
    """A symmetric positive-weight graph; quantised weights force gain ties."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n, n)) + 1e-3
    if quantised:
        weights = np.ceil(weights * 4.0) / 4.0
    upper = np.triu(weights * (rng.random((n, n)) < density), k=1)
    dense = upper + upper.T
    lonely = rng.choice(n, size=min(isolated, n), replace=False)
    dense[lonely, :] = 0.0
    dense[:, lonely] = 0.0
    return sp.csr_matrix(dense)


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 70),
        density=st.floats(0.02, 0.5),
        seed=st.integers(0, 2**31 - 1),
        quantised=st.booleans(),
        isolated=st.integers(0, 5),
        resolution=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
        tol=st.sampled_from([1e-9, 0.0]),
        shuffle=st.booleans(),
    )
    def test_random_graphs(
        self, n, density, seed, quantised, isolated, resolution, tol, shuffle
    ):
        # tol = 0 with quantised weights makes exact gain ties, where
        # only the strict ``>`` keeps the first-touched community.
        adjacency = random_graph(n, density, seed, quantised, isolated)
        assert_bitwise_equal(
            labels_three_ways(
                adjacency, resolution=resolution, tol=tol, shuffle=shuffle, seed=seed
            )
        )

    @pytest.mark.parametrize("name", DATASET_NAMES)
    @pytest.mark.parametrize(
        "kwargs", [{}, {"resolution": 2.0}, {"shuffle": True, "seed": 7}]
    )
    def test_dataset_graphs(self, name, kwargs):
        features = load_dataset(name, scale=0.05, seed=0).features
        adjacency = build_knn_graph(features).adjacency
        assert_bitwise_equal(labels_three_ways(adjacency, **kwargs))

    def test_edgeless_and_single_node(self):
        for adjacency in (sp.csr_matrix((5, 5)), sp.csr_matrix((1, 1))):
            assert_bitwise_equal(labels_three_ways(adjacency))


class TestKernelBuild:
    """The compile-on-first-use cache and the Python fallback."""

    @needs_compiled
    def test_cached_library_named_by_source_hash(self, tmp_path):
        kernel, name = louvain_module._select_kernel(tmp_path)
        assert name == "compiled" and kernel is not None
        (library,) = tmp_path.iterdir()  # no temporary files left behind
        assert re.fullmatch(r"_local_move\.[0-9a-f]{16}\.so", library.name)
        pycache = louvain_module._SOURCE.parent / "__pycache__"
        assert (pycache / library.name).is_file()

    def test_unusable_compiler_selects_python(self, tmp_path, monkeypatch):
        adjacency = build_knn_graph(
            load_dataset("coil", scale=0.05, seed=0).features
        ).adjacency
        before = louvain_module.louvain(adjacency)
        monkeypatch.setattr(
            cbuild.sysconfig, "get_config_var", lambda name: "/nonexistent/cc"
        )
        kernel, name = louvain_module._select_kernel(tmp_path)
        assert (kernel, name) == (None, "python")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(louvain_module, "_kernel", kernel)
        monkeypatch.setattr(louvain_module, "KERNEL", name)
        assert louvain_module.louvain(adjacency).tobytes() == before.tobytes()
