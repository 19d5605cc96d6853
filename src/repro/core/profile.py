"""Per-stage accounting of index construction (and loading) cost.

The paper's Figure 8 / Table 2 argument is that Mogul's precompute is
cheap *and* scales linearly; :class:`BuildProfile` makes that claim
inspectable on every index this library builds: each
:meth:`repro.core.MogulIndex.build` records wall-clock seconds per
pipeline stage plus the size/fill statistics that explain them, the
profile travels with the index through :mod:`repro.core.serialize`, and
``repro build`` / ``repro info`` / the HTTP server's ``/stats`` surface
it.  :func:`repro.core.serialize.load_index` adds the measured load time
(``load_seconds``) so serving startup cost is visible too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class BuildProfile:
    """Wall-clock and size statistics of one index build.

    Attributes
    ----------
    stages:
        Ordered ``stage name -> seconds`` mapping covering the build
        pipeline (clustering, permutation, ranking matrix, factorization,
        bounds, solver packing, cluster means — plus ``graph`` when the
        caller times graph construction into the same profile).
    factor_backend:
        A recorded label, not an option: ``"csr"`` for every Mogul
        build (the one LDL kernel), ``"eigsh"`` for the spectral tier.
        Artifacts, ``/stats`` and ``repro build``'s ``backend=`` line
        record it.
    n_nodes, n_clusters, border_size:
        Shape of the built index.
    w_nnz:
        Non-zeros of the permuted system matrix W.
    factor_nnz:
        Non-zeros of the factor's strict lower triangle.
    fill_ratio:
        ``factor_nnz`` over W's strict-lower non-zeros (1.0 for the
        paper's ICF, > 1 with fill).
    n_shards:
        Shard count of the build (1 for the unsharded index).
    load_seconds:
        Seconds :func:`repro.core.serialize.load_index` spent restoring
        the index, including rebuilding derived structures; ``None`` for
        an index built in-process.
    load_warnings:
        Degradations the loader hit (e.g. the memory-map fast path
        falling back to ordinary zip reads for compressed or unmappable
        members) — recorded here so they travel with the index instead
        of diverging silently.
    """

    stages: dict[str, float] = field(default_factory=dict)
    factor_backend: str = "csr"
    n_nodes: int = 0
    n_clusters: int = 0
    border_size: int = 0
    w_nnz: int = 0
    factor_nnz: int = 0
    fill_ratio: float = 0.0
    n_shards: int = 1
    #: Per-shard carve of the query-time state (packed blocks,
    #: couplings, bounds) in seconds; empty for unsharded builds.  The
    #: factorization is shared, so it is in no shard's term.
    shard_seconds: list[float] = field(default_factory=list)
    load_seconds: float | None = None
    load_warnings: list[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded stage times."""
        return float(sum(self.stages.values()))

    @property
    def critical_path_seconds(self) -> float:
        """Build wall-clock if every shard carved on its own worker.

        The shared stages (clustering, permutation, ranking matrix, the
        one factorization, ...) run once; the per-shard carves would
        overlap, so only the slowest counts: ``total - sum(shards) +
        max(shards)``.  Equals :attr:`total_seconds` for unsharded
        builds.  The build itself carves its shards one after another,
        inside :attr:`total_seconds`.
        """
        if not self.shard_seconds:
            return self.total_seconds
        return float(
            max(
                self.total_seconds
                - sum(self.shard_seconds)
                + max(self.shard_seconds),
                0.0,
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (used by ``/stats`` and the CLI)."""
        return {
            "stages": {name: float(t) for name, t in self.stages.items()},
            "total_seconds": self.total_seconds,
            "factor_backend": self.factor_backend,
            "n_nodes": int(self.n_nodes),
            "n_clusters": int(self.n_clusters),
            "border_size": int(self.border_size),
            "w_nnz": int(self.w_nnz),
            "factor_nnz": int(self.factor_nnz),
            "fill_ratio": float(self.fill_ratio),
            "n_shards": int(self.n_shards),
            "shard_seconds": [float(s) for s in self.shard_seconds],
            "critical_path_seconds": self.critical_path_seconds,
            "load_seconds": (
                None if self.load_seconds is None else float(self.load_seconds)
            ),
            "load_warnings": [str(w) for w in self.load_warnings],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BuildProfile":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        stages = payload.get("stages", {})
        if not isinstance(stages, dict):
            raise ValueError("build profile 'stages' must be a mapping")
        load_seconds = payload.get("load_seconds")
        return cls(
            stages={str(k): float(v) for k, v in stages.items()},
            factor_backend=str(payload.get("factor_backend", "csr")),
            n_nodes=int(payload.get("n_nodes", 0)),
            n_clusters=int(payload.get("n_clusters", 0)),
            border_size=int(payload.get("border_size", 0)),
            w_nnz=int(payload.get("w_nnz", 0)),
            factor_nnz=int(payload.get("factor_nnz", 0)),
            fill_ratio=float(payload.get("fill_ratio", 0.0)),
            n_shards=int(payload.get("n_shards", 1)),
            shard_seconds=[float(s) for s in payload.get("shard_seconds", [])],
            load_seconds=None if load_seconds is None else float(load_seconds),
            load_warnings=[str(w) for w in payload.get("load_warnings", [])],
        )

    def to_json(self) -> str:
        """Compact JSON string (the serialized form inside the ``.npz``)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "BuildProfile":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("build profile payload must be a JSON object")
        return cls.from_dict(payload)

    def to_text(self) -> str:
        """Fixed-width per-stage table for terminal output."""
        total = self.total_seconds
        lines = [f"{'stage':18s} {'seconds':>9s} {'share':>7s}"]
        for name, seconds in self.stages.items():
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"{name:18s} {seconds:9.3f} {share:6.1f}%")
        lines.append(f"{'total':18s} {total:9.3f} {100.0:6.1f}%")
        shard_note = f" shards={self.n_shards}" if self.n_shards > 1 else ""
        lines.append(
            f"backend={self.factor_backend}{shard_note} "
            f"nodes={self.n_nodes} clusters={self.n_clusters} "
            f"border={self.border_size} factor_nnz={self.factor_nnz} "
            f"fill={self.fill_ratio:.2f}x"
        )
        if self.load_seconds is not None:
            lines.append(f"loaded from disk in {self.load_seconds:.3f}s")
        for warning in self.load_warnings:
            lines.append(f"load warning: {warning}")
        return "\n".join(lines)
