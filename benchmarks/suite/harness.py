"""Measurement core of the suite: samples -> windows -> records.

Nothing in here knows about a workload.  A workload produces *samples*
(one per completed operation) and the harness buckets them into fixed
windows.  An end-to-end value is taken over **all windows pooled** (the
whole measured period) and carries the spread of the per-window values;
a probe is the **median** of its repetitions — never a best-of.  The
same record schema carries end-to-end metrics, per-layer probes and the
workload-scoped extras.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Record:
    """One reported number — the only shape the runner ever writes."""

    workload: str
    metric: str
    kind: str  # "e2e" | "layer"
    unit: str
    value: float
    spread: dict  # {"mad": ..., "min": ..., "max": ...} over the n values
    n: int
    seed: int


def reduce_values(values) -> tuple[float, dict, int]:
    """Median, spread (MAD, min, max) and count of per-window values."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        raise ValueError("no values to reduce")
    median = float(np.median(array))
    spread = {
        "mad": float(np.median(np.abs(array - median))),
        "min": float(array.min()),
        "max": float(array.max()),
    }
    return median, spread, int(array.size)


class Recorder:
    """Collects the :class:`Record` rows of one workload run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.records: list[Record] = []
        self._by_metric: dict[str, Record] = {}

    def add(self, metric: str, kind: str, unit: str, values, value=None) -> Record:
        """Record ``values`` (a scalar counts as one value) with their spread.

        The reported number is their median, unless ``value`` gives one
        computed over everything the values were cut from (the whole run).
        """
        if np.isscalar(values):
            values = [values]
        median, spread, n = reduce_values(values)
        record = Record(
            self.workload, metric, kind, unit,
            median if value is None else float(value), spread, n, self.seed,
        )  # fmt: skip
        self.records.append(record)
        self._by_metric[metric] = record
        return record

    def layer(self, metric: str, unit: str, values) -> Record:
        return self.add(metric, "layer", unit, values)

    def value(self, metric: str) -> float:
        return self._by_metric[metric].value


# -- samples and windows ---------------------------------------------------


@dataclass
class Sample:
    """One completed operation of the load generator."""

    ended: float  # perf_counter at completion
    kind: str  # op type ("search", "insert", "flat.top_k", ...)
    seconds: float  # latency attributed to this one operation
    key: object  # what was asked (workload-specific; used by verify)
    answer: object  # what came back (None = the call itself failed)
    twin: object = None  # an answer this one must equal bitwise, if any
    ok: bool = True
    #: False for the 2nd..nth query of a batched call: an operation of its
    #: own (counted, verified), but the call is one latency sample, not n.
    timed: bool = True


@dataclass
class Clock:
    """Warm-up followed by ``n`` contiguous windows of ``window_s`` seconds.

    ``traced[i]`` says whether window ``i`` records bench-side spans; the
    untraced run has none, the traced run alternates so both kinds see
    the same machine state.
    """

    start: float
    warmup_s: float
    window_s: float
    traced: list[bool]

    @property
    def n(self) -> int:
        return len(self.traced)

    def edge(self, i: int) -> float:
        """Start of window ``i`` (``edge(n)`` is the end of the run)."""
        return self.start + self.warmup_s + i * self.window_s

    def window_of(self, t: float) -> int:
        """Window index of a timestamp; ``-1`` is warm-up (discarded)."""
        if t < self.edge(0):
            return -1
        return min(int((t - self.edge(0)) / self.window_s), self.n - 1)


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(seconds, q))


def windows_of(samples: list[Sample], clock: Clock) -> list[list[Sample]]:
    """Samples per window, by completion time (warm-up dropped)."""
    buckets: list[list[Sample]] = [[] for _ in range(clock.n)]
    for sample in samples:
        index = clock.window_of(sample.ended)
        if index >= 0:
            buckets[index].append(sample)
    return buckets


# -- process accounting ----------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process from ``/proc/<pid>/stat`` (busy time)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def fingerprint(root: Path) -> dict:
    """Where and on what a run was measured (recorded with every result)."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


# -- bench-side spans ------------------------------------------------------


class Spans:
    """In-memory spans around bench -> program calls (traced windows only).

    A span is ``[name, start, end, parent]``; ``parent`` indexes the
    enclosing span (``-1`` for a root).  Kept in a list while the
    workload runs and written as JSONL when it ends.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[list] = []

    def add(self, name: str, start: float, end, parent: int = -1) -> int:
        self.rows.append([name, start, end, parent])
        return len(self.rows) - 1

    def open(self, name: str, parent: int = -1) -> int:
        return self.add(name, time.perf_counter(), None, parent)

    def close(self, index: int) -> None:
        self.rows[index][2] = time.perf_counter()

    def self_seconds(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time and span count.

        Self time is a span's duration minus the part of its interval
        that its children cover (their union — siblings may overlap).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, start, end, parent in self.rows:
            if parent >= 0 and end is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _parent) in enumerate(self.rows):
            if end is None:
                continue
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                lo, hi = max(child_start, reach), min(child_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            seconds, count = totals.get(name, (0.0, 0))
            totals[name] = (seconds + (end - start) - covered, count + 1)
        return totals

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.rows):
                row = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                    "op": name.rsplit(".", 1)[-1],
                }
                handle.write(json.dumps(row) + "\n")


# -- output ----------------------------------------------------------------


def print_table(records: list[Record], out=sys.stdout) -> None:
    """Every record by name with its unit, spread and sample count."""
    header = (
        f"{'workload':17s} {'metric':44s} {'kind':5s} {'unit':6s} "
        f"{'value':>14s} {'mad':>11s} {'min':>14s} {'max':>14s} {'n':>3s} seed"
    )
    print(header, file=out)
    for r in records:
        print(
            f"{r.workload:17s} {r.metric:44s} {r.kind:5s} {r.unit:6s} "
            f"{r.value:14.6g} {r.spread['mad']:11.4g} {r.spread['min']:14.6g} "
            f"{r.spread['max']:14.6g} {r.n:3d} {r.seed}",
            file=out,
        )


def records_document(records: list[dict], summaries: dict, root: Path) -> dict:
    """The JSON document a run writes to the path given by ``--json``
    (``records`` are :class:`Record` rows as dicts)."""
    return {
        "schema": "workload,metric,kind,unit,value,spread,n,seed",
        "claim": None,
        "fingerprint": fingerprint(root),
        "workloads": summaries,
        "records": records,
    }
