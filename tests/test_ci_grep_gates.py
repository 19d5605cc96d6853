"""CI's deleted-name ``grep`` gates, run with the standard library.

CI's ``lint`` job holds one ``! grep`` step per deleted name family: the
step fails if a pattern matches any line under its paths.  ``GATES``
copies every such step, pattern and paths verbatim, and this module runs
each one with :mod:`re` over the files a clean checkout holds, so the
tier-1 suite sees a broken gate before CI does.  A second test reads
``ci.yml`` as text and fails if its steps and ``GATES`` disagree.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: CI step name -> (pattern as CI writes it, ``-E``?, paths, ``--exclude-dir``s).
GATES = {
    "The coalescing window stays deleted": (
        "max_wai[t]", False, ("src", "README.md", "examples", ".github"), (),
    ),
    "Serving stays off the approximate tier": (
        "overload[_-]polic[y]|degrade-then-she[d]|--spectral-ran[k]"
        "|resolve_accurac[y]",
        True,
        ("src/repro/service", "src/repro/cli.py", "README.md", "examples",
         ".github"),
        (),
    ),
    "Search and serve load the stored k-NN graph (no graph-k flag)": (
        "--kn[n]", False,
        ("src/repro/cli.py", "README.md", "examples", ".github"), (),
    ),
    "Reads over-fetch only for deletes the served epoch can return": (
        "len(snap.tombstone[s])", False, ("src/repro/core/live.py",), (),
    ),
    "One mutable engine (no second class, baseline or penalty knob)": (
        "DynamicMogulRanke[r]|rebuild_stop_the_worl[d]|pending_penalt[y]",
        True,
        ("src", "tests", "examples", "benchmarks", "README.md"),
        (),
    ),
    "The spsolve_triangular tier stays deleted": (
        # Split so this file, which the gate scans, does not match it.
        "use_superl" "u", False, ("src", "tests"), (),
    ),
    "Query execution has one engine thread": (
        "query[_-]worker[s]|query[_-]job[s]|workers_bus[y]|_scan_poo[l]"
        "|_run_shard_scan[s]",
        True,
        ("src", "tests", "examples", "README.md", ".github",
         "benchmarks/bench_*.py"),
        (),
    ),
    "The spectral artifact kind stays deleted": (
        "save_spectral_inde[x]|load_spectral_inde[x]|load_spectral_tie[r]"
        "|spectral_tier_pat[h]|is_spectral_index_pat[h]|_spectral_inf[o]"
        "|recall_latency_curv[e]",
        True,
        ("src", "tests", "examples", "README.md", ".github",
         "benchmarks/bench_*.py"),
        (),
    ),
    "The index build has one thread": (
        "PARALLEL_MODE[S]|shard_parallel_mod[e]|_run_shard_worker[s]"
        "|_row_group[s]|_run_clustere[r]|woodbury_solv[e]"
        "|low_rank_regularized_appl[y]",
        True,
        ("src", "tests", "examples", "README.md", ".github",
         "benchmarks/bench_*.py"),
        ("fixtures",),
    ),
    "One factorization and one local move": (
        "louvain_referenc[e]|_incomplete_referenc[e]|_complete_referenc[e]"
        "|factor-backen[d]|DEFAULT_BACKEN[D]|_check_backen[d]",
        True,
        ("src", "README.md", "examples", ".github", "benchmarks/bench_*.py"),
        (),
    ),
    "One factorization path for every shard count": (
        "factor_row_spa[n]|factor_border_row[s]|RowSpanFacto[r]"
        "|global_pivot_floo[r]|symbolic_patter[n]|_pack_cluster_block[s]"
        "|prepacked_block[s]",
        True,
        ("src", "tests", "examples", "README.md", "benchmarks/bench_*.py"),
        (),
    ),
    "The retired bench scripts stay deleted": (
        "bench_batch_throughpu[t]|bench_serving_latenc[y]"
        "|bench_observabilit[y]|bench_overloa[d]|bench_sharded_scalin[g]"
        "|bench_dynami[c]|bench_live_mutatio[n]|time_engine_querie[s]"
        "|time_query_batche[s]",
        True,
        ("src", "tests", "examples", ".github", ".claude"),
        (),
    ),
}

#: Directories that running the code leaves behind; a checkout has none.
LEFT_BEHIND = {"__pycache__", ".pytest_cache", ".hypothesis"}


def _regex(pattern: str, extended: bool) -> re.Pattern:
    """``grep``'s regex in :mod:`re` syntax: in a basic one, ``(``, ``)``,
    ``|``, ``+``, ``?``, ``{`` and ``}`` are plain characters."""
    if not extended:
        pattern = re.sub(r"([()|+?{}])", r"\\\1", pattern)
    return re.compile(pattern)


def _files(paths, excluded):
    """The files ``grep -r`` reads under ``paths`` in a clean checkout."""
    skipped = LEFT_BEHIND.union(excluded)
    for name in paths:
        for path in ROOT.glob(name) if "*" in name else [ROOT / name]:
            if path.is_file():
                yield path
            elif path.is_dir():
                for child in sorted(path.rglob("*")):
                    parents = child.relative_to(path).parts[:-1]
                    if child.is_file() and not skipped.intersection(parents):
                        yield child


@pytest.mark.parametrize("step", sorted(GATES))
def test_gate_holds(step):
    pattern, extended, paths, excluded = GATES[step]
    regex = _regex(pattern, extended)
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in _files(paths, excluded)
        for number, line in enumerate(
            path.read_text(errors="replace").splitlines(), start=1
        )
        if regex.search(line)
    ]
    assert not hits, "\n".join(hits)


def _ci_gates() -> dict:
    """Every ``! grep`` step of ``ci.yml``, keyed by its step name."""
    gates = {}
    name = None
    for line in CI.read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("- name:"):
            name = stripped[len("- name:"):].strip()
        elif stripped.startswith("run:") and "! grep" in stripped:
            command = stripped[len("run:"):].strip().strip('"')
            args = shlex.split(command.split("! grep", 1)[1])
            options, extended, excluded = True, False, []
            operands = []
            for arg in args:
                if options and arg == "--":
                    options = False
                elif options and arg.startswith("--exclude-dir="):
                    excluded.append(arg.split("=", 1)[1])
                elif options and arg.startswith("-"):
                    extended |= "E" in arg
                else:
                    options = False
                    operands.append(arg)
            gates[name] = (
                operands[0], extended, tuple(operands[1:]), tuple(excluded)
            )
    return gates


def test_table_matches_ci():
    ci = _ci_gates()
    assert len(ci) == CI.read_text().count("! grep")
    assert ci == GATES
