"""Persist and restore Mogul index artifacts.

Lemma 2's point is that all of Mogul's heavy lifting is query independent —
which makes the index worth saving: build once (k-NN graph, Algorithm 1,
the LDL^T factorization), serve queries from any later process.

The ``.npz`` format stores only the *primary* artifacts:

* the permutation (node order + cluster boundaries),
* the factor (strict lower triangle as CSR arrays + the diagonal of D),
* the per-cluster feature means (for out-of-sample routing),
* the k-NN graph the index was built from: its symmetric adjacency as
  CSR arrays (``graph_indptr`` / ``graph_indices`` / ``graph_data``)
  plus ``graph_k``, ``graph_sigma`` and ``graph_mode``,
* the scalars ``alpha`` / ``factorization``, and
* the :class:`repro.core.profile.BuildProfile` (as JSON), when present.

Everything else in the index (bounds, the packed per-cluster solvers, the
vectorized bound table, ``U = L^T``) is a pure function of those artifacts
and is **recomputed on load** — cheaper than storing it, and immune to
format drift in derived structures.

Files are written *uncompressed* by default (``compressed=True`` restores
the old behaviour): uncompressed zip members are plain ``.npy`` payloads
at a fixed offset, so :func:`load_index` maps the large factor and graph
arrays straight from disk with ``np.memmap`` instead of copying them
through the zip reader — the OS pages them in on demand.  Loading degrades
gracefully to the ordinary (still lazy, per-member) ``NpzFile`` reads for
compressed or otherwise unmappable members, and the measured wall-clock of
the whole restore lands in ``profile.load_seconds`` so ``repro serve``
startup cost is visible in ``/stats``.

The feature matrix is not part of the file.  A loaded index carries its
graph as a :class:`StoredGraph` (adjacency + construction metadata), and
:func:`graph_from_index` re-attaches whichever feature store the caller
keeps to make the :class:`repro.graph.adjacency.KnnGraph` an engine
serves from — no k-NN search runs at load time.  Version-1 artifacts,
which predate the stored graph, are rejected with a message to rebuild.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
import zipfile
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

#: Bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 2

#: Format marker of the sharded directory layout's manifest.
SHARDED_FORMAT_VERSION = 2
SHARDED_KIND = "sharded-mogul-index"
MANIFEST_NAME = "manifest.json"

_REQUIRED_KEYS = (
    "format_version",
    "order",
    "cluster_starts",
    "lower_data",
    "lower_indices",
    "lower_indptr",
    "diag",
    "pivot_perturbations",
    "cluster_means",
    "alpha",
    "factorization",
)

#: Members holding the k-NN graph, in both artifact kinds.
_GRAPH_ARRAY_KEYS = ("graph_indptr", "graph_indices", "graph_data")
_GRAPH_KEYS = _GRAPH_ARRAY_KEYS + ("graph_k", "graph_sigma", "graph_mode")

#: Arrays worth memory-mapping (everything that scales with the index).
_MMAP_KEYS = frozenset(
    {
        "order",
        "lower_data",
        "lower_indices",
        "lower_indptr",
        "diag",
        "cluster_means",
        *_GRAPH_ARRAY_KEYS,
    }
)


class StoredGraph(NamedTuple):
    """The k-NN graph a loaded artifact carries, without its features.

    Same ``adjacency`` / ``k`` / ``sigma`` / ``mode`` as the
    :class:`repro.graph.adjacency.KnnGraph` the index was built from;
    :func:`graph_from_index` pairs it with a feature matrix.
    """

    adjacency: sp.csr_matrix
    k: int
    sigma: float
    mode: str

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2


def graph_from_index(index, features: np.ndarray):
    """The :class:`repro.graph.adjacency.KnnGraph` of an index artifact.

    ``index`` is a built or loaded flat/sharded Mogul index; its stored
    adjacency and metadata are combined with ``features`` (the database
    the index was built over) without re-running the k-NN search.  Every
    :class:`KnnGraph` check applies, so a feature matrix whose row count
    differs from the graph's raises :class:`ValueError`, as does an
    index that carries no graph.
    """
    from repro.core.engine import _artifact_kind
    from repro.graph.adjacency import KnnGraph

    stored = getattr(index, "graph", None)
    if stored is None:
        raise ValueError(
            f"{_artifact_kind(index)} carries no k-NN graph; search and "
            "serve need a flat or sharded Mogul index built by `repro build`"
        )
    return KnnGraph(
        features=np.asarray(features, dtype=np.float64),
        adjacency=stored.adjacency,
        k=stored.k,
        sigma=stored.sigma,
        mode=stored.mode,
    )


def _graph_payload(graph) -> dict:
    """The ``.npz`` members storing an index's k-NN graph."""
    if graph is None:
        raise ValueError(
            "cannot save an index without the k-NN graph it was built from"
        )
    adjacency = graph.adjacency.tocsr()
    return dict(
        graph_indptr=adjacency.indptr,
        graph_indices=adjacency.indices,
        graph_data=adjacency.data,
        graph_k=np.int64(graph.k),
        graph_sigma=np.float64(graph.sigma),
        graph_mode=np.str_(graph.mode),
    )


def _read_graph(archive, fetch, n: int) -> StoredGraph:
    """Validate and reconstruct the stored k-NN graph of an ``n``-node index."""
    missing = [key for key in _GRAPH_KEYS if key not in archive]
    if missing:
        raise ValueError(f"corrupt index: k-NN graph members {missing} missing")
    indptr = fetch("graph_indptr")
    indices = fetch("graph_indices")
    data = fetch("graph_data")
    _check_row_block_csr(
        data, indices, indptr, n, n, 0, "k-NN graph", strict_lower=False
    )
    k = int(archive["graph_k"])
    if k < 1:
        raise ValueError(f"corrupt index: k-NN graph k={k} is not positive")
    sigma = float(archive["graph_sigma"])
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"corrupt index: k-NN graph sigma {sigma} is invalid")
    mode = str(archive["graph_mode"])
    if mode not in ("union", "mutual"):
        raise ValueError(f"corrupt index: unknown k-NN graph mode {mode!r}")
    adjacency = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return StoredGraph(adjacency=adjacency, k=k, sigma=sigma, mode=mode)


def _check_version(version: int, expected: int, what: str) -> None:
    if version != expected:
        raise ValueError(
            f"{what} has format version {version}, this library reads "
            f"version {expected}; rebuild it with `repro build`"
        )


def _atomic_write(target: str, write) -> None:
    """Write ``target`` via temp file + atomic rename.

    ``write`` receives the open binary/text stream.  Rewriting a path a
    live process has loaded (and possibly memory-mapped) must never
    truncate the mapped inode — the old file lingers for existing maps,
    the new one takes over the name.
    """
    scratch = f"{target}.tmp.{os.getpid()}"
    try:
        with open(scratch, "wb") as stream:
            write(stream)
        os.replace(scratch, target)
    except BaseException:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise


def _profile_payload(profile) -> dict:
    """A profile's persistable dict: build facts only.

    ``load_seconds`` / ``load_warnings`` describe one *load event* on one
    machine, not the build — persisting them would replay a previous
    session's warnings forever (and accumulate duplicates across
    save/load cycles), so they are stripped at every save.
    """
    payload = profile.to_dict()
    payload["load_seconds"] = None
    payload["load_warnings"] = []
    return payload


def save_index(index, path: "str | os.PathLike", compressed: bool = False) -> None:
    """Write a :class:`repro.core.MogulIndex` to ``path`` (``.npz``).

    The file is self-contained and versioned; load with
    :func:`load_index`.  ``compressed=False`` (default) stores members
    uncompressed so the loader can memory-map them; ``compressed=True``
    trades load speed for a smaller file.
    """
    perm = index.permutation
    starts = np.asarray(
        [sl.start for sl in perm.cluster_slices] + [perm.n_nodes], dtype=np.int64
    )
    lower = index.factors.lower.tocsr()
    payload = dict(
        format_version=np.int64(FORMAT_VERSION),
        order=perm.order,
        cluster_starts=starts,
        lower_data=lower.data,
        lower_indices=lower.indices,
        lower_indptr=lower.indptr,
        diag=index.factors.diag,
        pivot_perturbations=np.int64(index.factors.pivot_perturbations),
        cluster_means=index.cluster_means,
        alpha=np.float64(index.alpha),
        factorization=np.str_(index.factorization),
        **_graph_payload(index.graph),
    )
    if index.profile is not None:
        payload["build_profile"] = np.str_(
            json.dumps(_profile_payload(index.profile))
        )
    writer = np.savez_compressed if compressed else np.savez
    # Mirrors numpy's own ".npz" suffix rule.
    target = os.fspath(path)
    if not target.endswith(".npz"):
        target += ".npz"
    _atomic_write(target, lambda stream: writer(stream, **payload))


class StoredMember(NamedTuple):
    """Where one uncompressed ``.npy`` member's payload sits in its file."""

    offset: int
    dtype: np.dtype
    shape: tuple[int, ...]
    order: str


def _stored_member_table(path, keys) -> dict[str, StoredMember]:
    """Locate the uncompressed ``.npy`` members of a zip archive.

    For every ``ZIP_STORED`` member in ``keys``, parse the local file
    header and the npy header once and record where the raw payload
    starts.  Anything unexpected — compression, npy versions or dtypes
    we do not recognise, a truncated header — simply leaves the member
    out, and the caller falls back to the ordinary zip read.
    """
    table: dict[str, StoredMember] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        with open(path, "rb") as stream:
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED:
                    continue
                if not info.filename.endswith(".npy"):
                    continue
                key = info.filename[:-4]
                if key not in keys:
                    continue
                # The local file header repeats the name and carries its
                # own extra field (possibly differing from the central
                # directory's) — the payload offset must be derived from
                # it, not from the ZipInfo lengths.
                stream.seek(info.header_offset)
                header = stream.read(30)
                if len(header) != 30 or header[:4] != b"PK\x03\x04":
                    continue
                name_len, extra_len = struct.unpack("<HH", header[26:30])
                stream.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(stream)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                        stream
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                        stream
                    )
                else:
                    continue
                if dtype.hasobject:
                    continue
                table[key] = StoredMember(
                    stream.tell(), dtype, shape, "F" if fortran else "C"
                )
    except (OSError, ValueError, zipfile.BadZipFile, struct.error):
        return {}
    return table


def _map_members(path, table: dict[str, StoredMember]) -> dict[str, np.ndarray]:
    """Read-only ``np.memmap`` views of the members ``table`` locates.

    Parses nothing: no zip directory and no npy header (whose parser,
    ``ast.literal_eval``, is not safe to run from concurrent threads on
    every CPython), so shard re-faults can call it from any thread.
    """
    try:
        return {
            key: np.memmap(
                path,
                dtype=member.dtype,
                mode="r",
                offset=member.offset,
                shape=member.shape,
                order=member.order,
            )
            for key, member in table.items()
        }
    except (OSError, ValueError):
        return {}


def _mmap_stored_members(path, keys=_MMAP_KEYS) -> dict[str, np.ndarray]:
    """Memory-map the uncompressed ``.npy`` members of a zip archive."""
    return _map_members(path, _stored_member_table(path, keys))


def load_index(path: "str | os.PathLike"):
    """Read a :class:`repro.core.MogulIndex` previously saved by
    :func:`save_index`, rebuilding all derived structures.

    The payload is validated *before* reconstruction starts: unknown
    format versions, missing keys, and structurally corrupt arrays (a
    broken permutation, inconsistent CSR triplets, mismatched diagonal
    or mean shapes) all raise a clear :class:`ValueError` naming the
    problem rather than failing deep inside the solver rebuild.  Large
    arrays arrive as read-only memory maps when the file stores them
    uncompressed; the total restore time is recorded on the returned
    index's ``profile.load_seconds``.
    """
    # Imported here: serialize <-> index would otherwise be a cycle.
    from repro.core.bounds import BoundsTable
    from repro.core.index import MogulIndex
    from repro.core.profile import BuildProfile
    from repro.core.solver import ClusterSolver
    from repro.linalg.ldl import LDLFactors

    load_started = time.perf_counter()
    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError) as error:
        raise ValueError(
            f"not a Mogul index file ({os.fspath(path)!r} is not a "
            f"readable .npz archive: {error})"
        ) from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        # np.load returns a bare ndarray for .npy input (e.g. a feature
        # matrix passed where the index path belongs).
        raise ValueError(
            f"not a Mogul index file ({os.fspath(path)!r} is a plain "
            f"array, expected an .npz archive)"
        )
    mapped = _mmap_stored_members(path)

    with archive:
        # The version is checked ahead of the member list, so an older
        # artifact gets the versioned message, not a "missing keys" one.
        if "format_version" in archive:
            version_array = archive["format_version"]
            if version_array.size != 1 or not np.issubdtype(
                version_array.dtype, np.integer
            ):
                raise ValueError(
                    "corrupt index file: format_version is not an integer"
                )
            _check_version(int(version_array), FORMAT_VERSION, "index file")
        missing = [
            key for key in _REQUIRED_KEYS + _GRAPH_KEYS if key not in archive
        ]
        if missing:
            raise ValueError(f"not a Mogul index file (missing keys {missing})")
        unmapped = sorted(
            key for key in _MMAP_KEYS if key in archive and key not in mapped
        )

        def fetch(key: str) -> np.ndarray:
            return mapped[key] if key in mapped else archive[key]

        permutation = _reconstruct_permutation(
            fetch("order"), archive["cluster_starts"]
        )
        order = permutation.order
        slices = permutation.cluster_slices
        n = permutation.n_nodes
        lower_data = fetch("lower_data")
        lower_indices = fetch("lower_indices")
        lower_indptr = fetch("lower_indptr")
        _check_csr_arrays(lower_data, lower_indices, lower_indptr, n)
        diag = fetch("diag")
        if diag.shape != (n,):
            raise ValueError(
                f"corrupt index file: diagonal has shape {diag.shape}, "
                f"expected ({n},)"
            )
        n_clusters = len(slices)
        means = fetch("cluster_means")
        if means.ndim != 2 or means.shape[0] != n_clusters:
            raise ValueError(
                f"corrupt index file: cluster_means has shape {means.shape}, "
                f"expected ({n_clusters}, n_dims)"
            )
        factorization = str(archive["factorization"])
        if factorization not in ("incomplete", "complete"):
            raise ValueError(
                f"corrupt index file: unknown factorization {factorization!r}"
            )
        alpha = float(archive["alpha"])
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"corrupt index file: alpha {alpha} outside (0, 1)")
        profile = None
        if "build_profile" in archive:
            try:
                profile = BuildProfile.from_json(str(archive["build_profile"]))
            except (ValueError, TypeError):
                profile = None  # a broken profile never blocks a load
        graph = _read_graph(archive, fetch, n)

        lower = sp.csr_matrix(
            (
                np.asarray(lower_data, dtype=np.float64),
                np.asarray(lower_indices, dtype=np.int64),
                np.asarray(lower_indptr, dtype=np.int64),
            ),
            shape=(n, n),
        )
        factors = LDLFactors(
            lower=lower,
            upper=lower.T.tocsr(),
            diag=np.asarray(diag, dtype=np.float64),
            pivot_perturbations=int(archive["pivot_perturbations"]),
        )
        cluster_means = np.asarray(means, dtype=np.float64)

    solver = ClusterSolver(factors, permutation)
    bounds = solver.bounds
    bounds_table = BoundsTable.from_bounds(
        bounds, permutation.border_slice.start, n
    )
    members = tuple(order[sl] for sl in slices)
    if profile is None:
        profile = BuildProfile(
            n_nodes=n,
            n_clusters=len(slices),
            border_size=slices[-1].stop - slices[-1].start,
            factor_nnz=int(lower.nnz),
        )
    if unmapped:
        # The mmap fast path degraded to ordinary (copying) zip reads —
        # correct but slower; say so on the profile instead of diverging
        # silently, so `repro info` and /stats surface it.
        message = (
            "memory-map fallback: members "
            + ", ".join(unmapped)
            + " were read through the zip reader (compressed or unmappable)"
        )
        logger.warning("%s: %s", os.fspath(path), message)
        profile.load_warnings.append(message)
    profile.load_seconds = time.perf_counter() - load_started
    return MogulIndex(
        permutation=permutation,
        factors=factors,
        bounds=bounds,
        cluster_means=cluster_means,
        cluster_members=members,
        alpha=alpha,
        factorization=factorization,
        solver=solver,
        bounds_table=bounds_table,
        profile=profile,
        graph=graph,
    )


# -- sharded directory layout ----------------------------------------------
#
# A sharded index is a *directory*:
#
#     <path>/manifest.json     scalars, shard layout, build profile
#     <path>/global.npz        order, cluster boundaries, diagonal, means,
#                              the shared border block's factor rows and
#                              the k-NN graph (stored once, not per shard)
#     <path>/shard_0000.npz    one shard's factor rows (global columns)
#     ...
#
# Large arrays are stored uncompressed so loading memory-maps them member
# by member (the same fast path as the single-file format), and shard
# files are only *opened* when a query first touches their shard — the
# lazy half of scatter-gather serving.

#: Members of global.npz worth memory-mapping.
_SHARDED_GLOBAL_MMAP = frozenset(
    {
        "order",
        "diag",
        "cluster_means",
        "border_data",
        "border_indices",
        "border_indptr",
        *_GRAPH_ARRAY_KEYS,
    }
)
#: Members of a shard file worth memory-mapping.
_SHARD_MMAP = frozenset({"data", "indices", "indptr"})


def _write_npz_atomic(path: str, payload: dict) -> None:
    """Write an uncompressed ``.npz`` via temp file + atomic rename."""
    _atomic_write(path, lambda stream: np.savez(stream, **payload))


def save_sharded_index(index, path: "str | os.PathLike") -> None:
    """Write a :class:`repro.core.ShardedMogulIndex` directory at ``path``.

    Creates the directory if needed; every file is written via temp +
    atomic rename so a crashed save never leaves a half-written member
    under a valid manifest (the manifest is written last).
    """
    target = os.fspath(path)
    os.makedirs(target, exist_ok=True)
    perm = index.permutation
    starts = np.asarray(
        [sl.start for sl in perm.cluster_slices] + [perm.n_nodes], dtype=np.int64
    )
    border_rows = index.border_rows.tocsr()
    _write_npz_atomic(
        os.path.join(target, "global.npz"),
        dict(
            order=perm.order,
            cluster_starts=starts,
            diag=index.diag,
            cluster_means=index.cluster_means,
            border_data=border_rows.data,
            border_indices=np.asarray(border_rows.indices, dtype=np.int64),
            border_indptr=np.asarray(border_rows.indptr, dtype=np.int64),
            **_graph_payload(index.graph),
        ),
    )
    shard_files: list[str] = []
    shard_nnz: list[int] = []
    for shard_id in range(index.n_shards):
        name = f"shard_{shard_id:04d}.npz"
        with index.pinned_shard(shard_id) as state:
            rows = state.rows.tocsr()
            _write_npz_atomic(
                os.path.join(target, name),
                dict(
                    data=rows.data,
                    indices=np.asarray(rows.indices, dtype=np.int64),
                    indptr=np.asarray(rows.indptr, dtype=np.int64),
                ),
            )
            shard_nnz.append(int(rows.nnz))
        shard_files.append(name)
    manifest = {
        "format_version": SHARDED_FORMAT_VERSION,
        "kind": SHARDED_KIND,
        "n_nodes": int(perm.n_nodes),
        "alpha": float(index.alpha),
        "factorization": index.factorization,
        "pivot_perturbations": int(index.pivot_perturbations),
        "layout": index.layout.to_dict(),
        "shard_files": shard_files,
        "shard_nnz": shard_nnz,
        "border_nnz": int(border_rows.nnz),
        "profile": (
            None if index.profile is None else _profile_payload(index.profile)
        ),
    }
    _atomic_write(
        os.path.join(target, MANIFEST_NAME),
        lambda stream: stream.write(
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        ),
    )


def _check_row_block_csr(
    data,
    indices,
    indptr,
    n_rows: int,
    n_cols: int,
    row_offset: int,
    what: str,
    strict_lower: bool = True,
) -> None:
    """Validate a stored CSR row block before reconstruction.

    ``strict_lower`` (factor rows) also rejects entries on or above the
    global diagonal; the k-NN graph's adjacency is full and skips that.
    """
    if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
        raise ValueError(f"corrupt index: {what} CSR arrays must be 1-D")
    if indptr.shape[0] != n_rows + 1:
        raise ValueError(
            f"corrupt index: {what} indptr has {indptr.shape[0]} entries, "
            f"expected {n_rows + 1}"
        )
    indptr64 = np.asarray(indptr, dtype=np.int64)
    if int(indptr64[0]) != 0 or np.any(np.diff(indptr64) < 0):
        raise ValueError(f"corrupt index: {what} indptr is not monotonic from 0")
    nnz = int(indptr64[-1])
    if data.shape[0] != nnz or indices.shape[0] != nnz:
        raise ValueError(
            f"corrupt index: {what} has {data.shape[0]} values / "
            f"{indices.shape[0]} column indices but indptr declares {nnz}"
        )
    if nnz:
        indices64 = np.asarray(indices, dtype=np.int64)
        if int(indices64.min()) < 0 or int(indices64.max()) >= n_cols:
            raise ValueError(
                f"corrupt index: {what} column indices outside [0, {n_cols})"
            )
        if not strict_lower:
            return
        entry_rows = row_offset + np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(indptr64)
        )
        if np.any(indices64 >= entry_rows):
            raise ValueError(
                f"corrupt index: {what} entries on or above the diagonal"
            )


def _reconstruct_permutation(order: np.ndarray, starts: np.ndarray):
    """Rebuild a :class:`repro.core.Permutation` from its stored arrays."""
    from repro.core.permutation import Permutation

    order = np.asarray(order, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    n = order.shape[0]
    if order.ndim != 1 or n == 0:
        raise ValueError("corrupt index: node order must be 1-D, non-empty")
    if not np.array_equal(np.sort(order), np.arange(n, dtype=np.int64)):
        raise ValueError(
            f"corrupt index: node order is not a permutation of 0..{n - 1}"
        )
    if (
        starts.ndim != 1
        or starts.size < 2
        or starts[0] != 0
        or starts[-1] != n
        or np.any(np.diff(starts) < 0)
    ):
        raise ValueError("corrupt index: bad cluster boundaries")
    slices = tuple(slice(int(a), int(b)) for a, b in zip(starts[:-1], starts[1:]))
    cluster_of_position = np.empty(n, dtype=np.int64)
    for cid, sl in enumerate(slices):
        cluster_of_position[sl] = cid
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    return Permutation(
        order=order,
        inverse=inverse,
        cluster_slices=slices,
        cluster_of_position=cluster_of_position,
    )


class ShardRowsLoader:
    """Loads one shard's factor rows, *owning* the mmap lifecycle.

    The loader is a shard's ``source`` on :class:`ShardedMogulIndex`:
    calling it maps (or re-maps, after an eviction) the shard file and
    returns the validated CSR rows, whose arrays stay memmap-backed when
    the file stores them uncompressed.  ``members`` is the file's
    :class:`StoredMember` table, parsed once by
    :func:`load_sharded_index`; a call maps straight from it, so a
    re-fault from any thread never re-reads the zip directory or an npy
    header.  Only members the table lacks (compressed or unmappable)
    go through the zip reader.  The loader keeps references to the maps
    it created so :meth:`close` can release the underlying file handles
    — eviction calls it, so a long-running server cycling shards under
    a memory budget holds a stable fd count instead of leaking one mmap
    per reload.  numpy keeps no buffer export on the map, so a close
    unmaps arrays a consumer may still hold: the index closes a loader
    only under its shard's lock, after dropping the shard's state, and
    scans pin the shards they read.
    """

    def __init__(
        self,
        directory: str,
        file_name: str,
        span,
        n: int,
        profile,
        members: dict[str, StoredMember],
    ):
        self._path = os.path.join(directory, file_name)
        self._file_name = file_name
        self._directory = directory
        self._span = (int(span[0]), int(span[1]))
        self._n = int(n)
        self._profile = profile
        self._members = members
        self._mapped: dict[str, np.ndarray] = {}

    def __call__(self) -> sp.csr_matrix:
        # A re-load (fault after eviction) first drops the previous
        # generation's maps, if eviction has not closed them already.
        self.close()
        shard_mapped = _map_members(self._path, self._members)
        self._mapped = shard_mapped
        if _SHARD_MMAP <= shard_mapped.keys():
            return self._rows(
                shard_mapped["data"], shard_mapped["indices"], shard_mapped["indptr"]
            )
        with np.load(self._path, allow_pickle=False) as shard_archive:
            for key in ("data", "indices", "indptr"):
                if key not in shard_archive:
                    raise ValueError(
                        f"corrupt sharded index: {self._file_name} "
                        f"missing {key!r}"
                    )
            shard_unmapped = sorted(
                key for key in _SHARD_MMAP if key not in shard_mapped
            )
            rows = self._rows(
                *(
                    shard_mapped[key] if key in shard_mapped else shard_archive[key]
                    for key in ("data", "indices", "indptr")
                )
            )
        message = (
            f"memory-map fallback: {self._file_name} members "
            + ", ".join(shard_unmapped)
            + " were read through the zip reader"
        )
        logger.warning("%s: %s", self._directory, message)
        self._profile.load_warnings.append(message)
        return rows

    def _rows(self, data, indices, indptr) -> sp.csr_matrix:
        """Validate the shard's stored CSR arrays and wrap them."""
        m = self._span[1] - self._span[0]
        _check_row_block_csr(
            data, indices, indptr, m, self._n, self._span[0], self._file_name
        )
        return sp.csr_matrix(
            (
                np.asarray(data, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(m, self._n),
        )

    def close(self) -> None:
        """Release the file handles behind this loader's memory maps.

        The arrays the last call returned are unmapped with them (see
        the class docstring); a map that refuses to close is left to the
        garbage collector.
        """
        mapped, self._mapped = self._mapped, {}
        for array in mapped.values():
            handle = getattr(array, "_mmap", None)
            if handle is None:
                continue
            try:
                handle.close()
            except (BufferError, ValueError):
                pass


def load_sharded_index(path: "str | os.PathLike", lazy: bool = True):
    """Read a sharded index directory written by :func:`save_sharded_index`.

    With ``lazy=True`` (default) each shard's factor rows are opened,
    validated and packed only when a query first touches the shard; the
    manifest and the shared global/border state load eagerly.  Large
    arrays arrive as read-only memory maps when stored uncompressed, and
    any fallback to copying zip reads is recorded on the returned
    profile's ``load_warnings``.
    """
    from repro.core.profile import BuildProfile
    from repro.core.sharded import ShardLayout, ShardedMogulIndex

    load_started = time.perf_counter()
    target = os.fspath(path)
    manifest_path = os.path.join(target, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as stream:
            manifest = json.load(stream)
    except FileNotFoundError:
        raise ValueError(
            f"not a sharded Mogul index ({target!r} has no {MANIFEST_NAME})"
        ) from None
    except json.JSONDecodeError as error:
        raise ValueError(
            f"corrupt sharded index: unreadable manifest ({error})"
        ) from None
    if manifest.get("kind") != SHARDED_KIND:
        raise ValueError(
            f"not a sharded Mogul index (manifest kind {manifest.get('kind')!r})"
        )
    _check_version(
        int(manifest.get("format_version", -1)),
        SHARDED_FORMAT_VERSION,
        "sharded index",
    )
    factorization = str(manifest.get("factorization"))
    if factorization not in ("incomplete", "complete"):
        raise ValueError(
            f"corrupt sharded index: unknown factorization {factorization!r}"
        )
    alpha = float(manifest.get("alpha", 0.0))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"corrupt sharded index: alpha {alpha} outside (0, 1)")
    layout = ShardLayout.from_dict(manifest["layout"])
    shard_files = [str(name) for name in manifest["shard_files"]]
    if len(shard_files) != layout.n_shards:
        raise ValueError(
            f"corrupt sharded index: {len(shard_files)} shard files for "
            f"{layout.n_shards} shards"
        )
    shard_nnz = [int(v) for v in manifest.get("shard_nnz", [])]
    if len(shard_nnz) != len(shard_files):
        shard_nnz = None

    profile = None
    if manifest.get("profile") is not None:
        try:
            profile = BuildProfile.from_dict(manifest["profile"])
        except (ValueError, TypeError):
            profile = None
    if profile is None:
        profile = BuildProfile(n_shards=layout.n_shards)

    global_path = os.path.join(target, "global.npz")
    mapped = _mmap_stored_members(global_path, _SHARDED_GLOBAL_MMAP)
    with np.load(global_path, allow_pickle=False) as archive:
        required = (
            "order",
            "cluster_starts",
            "diag",
            "cluster_means",
            "border_data",
            "border_indices",
            "border_indptr",
        )
        missing = [key for key in required if key not in archive]
        if missing:
            raise ValueError(
                f"corrupt sharded index: global.npz missing keys {missing}"
            )
        unmapped = sorted(
            key
            for key in _SHARDED_GLOBAL_MMAP
            if key in archive and key not in mapped
        )

        def fetch(key: str) -> np.ndarray:
            return mapped[key] if key in mapped else archive[key]

        permutation = _reconstruct_permutation(
            fetch("order"), archive["cluster_starts"]
        )
        n = permutation.n_nodes
        if int(manifest.get("n_nodes", -1)) != n:
            raise ValueError(
                "corrupt sharded index: manifest node count disagrees with "
                "global.npz"
            )
        border_start = permutation.border_slice.start
        n_border = n - border_start
        diag = np.asarray(fetch("diag"), dtype=np.float64)
        if diag.shape != (n,):
            raise ValueError(
                f"corrupt sharded index: diagonal has shape {diag.shape}, "
                f"expected ({n},)"
            )
        means = np.asarray(fetch("cluster_means"), dtype=np.float64)
        if means.ndim != 2 or means.shape[0] != permutation.n_clusters:
            raise ValueError(
                f"corrupt sharded index: cluster_means has shape "
                f"{means.shape}, expected ({permutation.n_clusters}, n_dims)"
            )
        border_data = fetch("border_data")
        border_indices = fetch("border_indices")
        border_indptr = fetch("border_indptr")
        _check_row_block_csr(
            border_data,
            border_indices,
            border_indptr,
            n_border,
            n,
            border_start,
            "border rows",
        )
        border_rows = sp.csr_matrix(
            (
                np.asarray(border_data, dtype=np.float64),
                np.asarray(border_indices, dtype=np.int64),
                np.asarray(border_indptr, dtype=np.int64),
            ),
            shape=(n_border, n),
        )
        graph = _read_graph(archive, fetch, n)
    if unmapped:
        message = (
            "memory-map fallback: global members "
            + ", ".join(unmapped)
            + " were read through the zip reader (compressed or unmappable)"
        )
        logger.warning("%s: %s", target, message)
        profile.load_warnings.append(message)

    # Validate the layout against the permutation before trusting spans.
    expected_spans = [
        (permutation.cluster_slices[lo].start, permutation.cluster_slices[hi - 1].stop)
        for lo, hi in layout.cluster_ranges
    ]
    if list(layout.spans) != expected_spans or expected_spans[-1][1] != border_start:
        raise ValueError(
            "corrupt sharded index: shard layout disagrees with cluster "
            "boundaries"
        )

    # Each shard file's member table is parsed here, once and on one
    # thread; faults and re-faults only map from it.
    sources = [
        ShardRowsLoader(
            directory=target,
            file_name=name,
            span=layout.spans[shard_id],
            n=n,
            profile=profile,
            members=_stored_member_table(os.path.join(target, name), _SHARD_MMAP),
        )
        for shard_id, name in enumerate(shard_files)
    ]
    members = tuple(
        permutation.order[sl] for sl in permutation.cluster_slices
    )
    index = ShardedMogulIndex(
        permutation=permutation,
        alpha=alpha,
        factorization=factorization,
        layout=layout,
        diag=diag,
        border_rows=border_rows,
        cluster_means=means,
        cluster_members=members,
        pivot_perturbations=int(manifest.get("pivot_perturbations", 0)),
        profile=profile,
        shard_sources=sources,
        shard_nnz=shard_nnz,
        graph=graph,
    )
    if not lazy:
        for shard_id in range(index.n_shards):
            index.shard_state(shard_id)
    profile.load_seconds = time.perf_counter() - load_started
    return index


# -- live (mutable) state sidecar ------------------------------------------
#
# The mutable serving layer (repro.core.live.LiveEngine) buffers writes
# against an immutable index artifact.  Its durable state — the pending
# buffer, the tombstone set, the epoch counter and the mutation totals —
# persists *next to* the artifact as one small uncompressed .npz:
#
#     foo.idx.npz   ->  foo.idx.live.npz        (flat index)
#     foo.shards/   ->  foo.shards/live_state.npz  (sharded directory)
#
# The state is expressed relative to the on-disk artifact (a write-ahead
# buffer): every live id the artifact does not cover is stored with its
# feature vector, so a restart with the unchanged artifact replays into
# the identical logical database.

#: Bump when the live-state layout changes incompatibly.
LIVE_STATE_VERSION = 1
LIVE_STATE_MEMBER = "live_state.npz"


def live_state_path(index_path: "str | os.PathLike") -> str:
    """Where the live-state sidecar of an index artifact lives."""
    target = os.fspath(index_path)
    if os.path.isdir(target):
        return os.path.join(target, LIVE_STATE_MEMBER)
    if target.endswith(".npz"):
        target = target[:-4]
    return target + ".live.npz"


def save_live_state(index_path: "str | os.PathLike", state) -> str:
    """Persist a :class:`repro.core.live.LiveState` next to its artifact.

    ``state`` comes from :meth:`repro.core.live.LiveEngine.mutable_state`.
    Written atomically (temp + rename); returns the sidecar path.
    """
    target = live_state_path(index_path)
    payload = dict(
        format_version=np.int64(LIVE_STATE_VERSION),
        epoch=np.int64(state.epoch),
        n_indexed=np.int64(state.n_indexed),
        n_total=np.int64(state.n_total),
        pending_ids=np.asarray(state.pending_ids, dtype=np.int64),
        pending_features=np.asarray(state.pending_features, dtype=np.float64),
        tombstones=np.asarray(state.tombstones, dtype=np.int64),
        inserts=np.int64(state.inserts),
        deletes=np.int64(state.deletes),
        rebuilds=np.int64(state.rebuilds),
        feature_dim=np.int64(state.feature_dim),
    )
    _atomic_write(target, lambda stream: np.savez(stream, **payload))
    return target


def load_live_state(index_path: "str | os.PathLike"):
    """Read the live-state sidecar of an artifact; ``None`` when absent.

    Structural problems (bad version, inconsistent shapes, ids outside
    their ranges) raise :class:`ValueError` naming the defect — a
    corrupt sidecar must never silently serve a wrong database.
    """
    from repro.core.live import LiveState

    target = live_state_path(index_path)
    if not os.path.isfile(target):
        return None
    try:
        archive = np.load(target, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError) as error:
        raise ValueError(
            f"corrupt live state ({target!r} is not a readable .npz: {error})"
        ) from None
    with archive:
        required = (
            "format_version",
            "epoch",
            "n_indexed",
            "n_total",
            "pending_ids",
            "pending_features",
            "tombstones",
            "feature_dim",
        )
        missing = [key for key in required if key not in archive]
        if missing:
            raise ValueError(f"corrupt live state (missing keys {missing})")
        version = int(archive["format_version"])
        if version != LIVE_STATE_VERSION:
            raise ValueError(
                f"live state has format version {version}, this library "
                f"reads version {LIVE_STATE_VERSION}"
            )
        n_indexed = int(archive["n_indexed"])
        n_total = int(archive["n_total"])
        dim = int(archive["feature_dim"])
        pending_ids = np.asarray(archive["pending_ids"], dtype=np.int64)
        pending_features = np.asarray(
            archive["pending_features"], dtype=np.float64
        )
        tombstones = np.asarray(archive["tombstones"], dtype=np.int64)
        if n_total < n_indexed or n_indexed < 0:
            raise ValueError("corrupt live state: node counts inconsistent")
        if pending_features.ndim != 2 or (
            pending_features.shape != (pending_ids.shape[0], dim)
        ):
            raise ValueError(
                f"corrupt live state: pending_features has shape "
                f"{pending_features.shape}, expected "
                f"({pending_ids.shape[0]}, {dim})"
            )
        if pending_ids.size and (
            int(pending_ids.min()) < n_indexed
            or int(pending_ids.max()) >= n_total
        ):
            raise ValueError(
                f"corrupt live state: pending ids outside "
                f"[{n_indexed}, {n_total})"
            )
        if tombstones.size and (
            int(tombstones.min()) < 0 or int(tombstones.max()) >= n_total
        ):
            raise ValueError(
                f"corrupt live state: tombstones outside [0, {n_total})"
            )
        return LiveState(
            epoch=int(archive["epoch"]),
            n_indexed=n_indexed,
            n_total=n_total,
            pending_ids=pending_ids,
            pending_features=pending_features,
            tombstones=tombstones,
            inserts=int(archive["inserts"]) if "inserts" in archive else 0,
            deletes=int(archive["deletes"]) if "deletes" in archive else 0,
            rebuilds=int(archive["rebuilds"]) if "rebuilds" in archive else 0,
            feature_dim=dim,
        )


def is_sharded_index_path(path: "str | os.PathLike") -> bool:
    """``True`` when ``path`` looks like a sharded index directory."""
    target = os.fspath(path)
    return os.path.isdir(target) and os.path.isfile(
        os.path.join(target, MANIFEST_NAME)
    )


def load_any_index(path: "str | os.PathLike"):
    """Load whichever index artifact lives at ``path``.

    Dispatches on the on-disk shape: a directory with a manifest loads as
    a :class:`repro.core.ShardedMogulIndex`, and anything else through the
    single-file :func:`load_index` — the one entry point the CLI and
    service use, so both artifact kinds stay interchangeable.
    """
    if is_sharded_index_path(path):
        return load_sharded_index(path)
    if os.path.isdir(os.fspath(path)):
        raise ValueError(
            f"{os.fspath(path)!r} is a directory without a {MANIFEST_NAME}; "
            "not an index artifact"
        )
    return load_index(path)


def _check_csr_arrays(data, indices, indptr, n: int) -> None:
    """Reject inconsistent CSR triplets before scipy reconstructs them.

    scipy's own failure modes here range from cryptic exceptions to
    silently out-of-bounds reads, so the structural invariants are
    asserted up front.
    """
    if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
        raise ValueError("corrupt index file: factor CSR arrays must be 1-D")
    if indptr.shape[0] != n + 1:
        raise ValueError(
            f"corrupt index file: factor indptr has {indptr.shape[0]} entries, "
            f"expected {n + 1}"
        )
    if int(indptr[0]) != 0 or np.any(np.diff(np.asarray(indptr, dtype=np.int64)) < 0):
        raise ValueError("corrupt index file: factor indptr is not monotonic from 0")
    nnz = int(indptr[-1])
    if data.shape[0] != nnz or indices.shape[0] != nnz:
        raise ValueError(
            f"corrupt index file: factor has {data.shape[0]} values / "
            f"{indices.shape[0]} column indices but indptr declares {nnz}"
        )
    if nnz and (int(indices.min()) < 0 or int(indices.max()) >= n):
        raise ValueError(
            f"corrupt index file: factor column indices outside [0, {n})"
        )
    if nnz:
        # The factor stores the *strict* lower triangle with sorted
        # rows; on/above-diagonal entries would silently corrupt the
        # trusted solver packing downstream, and unsorted rows would
        # trip an in-place sort on the read-only memory maps — both are
        # rejected here at the boundary instead.
        indices64 = np.asarray(indices, dtype=np.int64)
        indptr64 = np.asarray(indptr, dtype=np.int64)
        entry_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr64))
        if np.any(indices64 >= entry_rows):
            raise ValueError(
                "corrupt index file: factor entries on or above the diagonal"
            )
        if nnz > 1:
            row_breaks = indptr64[1:-1]
            row_breaks = row_breaks[(row_breaks > 0) & (row_breaks < nnz)]
            within_row = np.ones(nnz - 1, dtype=bool)
            within_row[row_breaks - 1] = False
            if np.any(np.diff(indices64)[within_row] <= 0):
                raise ValueError(
                    "corrupt index file: factor column indices are "
                    "unsorted or duplicated within a row"
                )
