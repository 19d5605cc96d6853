"""One benchmark for the whole stack — the single entry point.

    python3 benchmarks/suite/run.py                      # all four workloads,
                                                         # untraced then traced
    python3 benchmarks/suite/run.py --workload http_search --seed 3 \
        --seconds 16 --trace 0                           # one run (driver form)
    python3 benchmarks/suite/run.py --smoke              # n=1000, seconds
    python3 benchmarks/suite/run.py --check-repeat       # suite twice, compare

A single-workload run prints a table of every record and, as its last
line, one JSON object ``{correct, attempted, failed, metrics}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  Without ``--workload``
every workload runs in its own fresh subprocess and pays its own set-up.
See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
TMP_ROOT = ROOT / ".bench_tmp"  # inside the checkout, git-ignored, emptied per run

#: Exported before numpy loads and inherited by every child: BLAS/OpenMP
#: pools stay at one thread so that busy threads can be budgeted against
#: ``nproc`` (client + server, or generator + engine worker).
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOAD_NAMES = ("http_search", "sched_fanin32", "engine_direct", "http_mutable_mix")
WINDOWS = 5  # the measured period is cut into this many windows for its spread
WARMUP_S = 2.4  # discarded traffic before the first window
SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
CEILING_S = 170  # hard wall-clock limit of one workload run
DEFAULT_SECONDS = 16  # = BENCHMARK.json run_seconds
SMOKE_SECONDS = 1.5


class CeilingExceeded(BaseException):
    """The run outlived ``CEILING_S``; not an ``Exception`` on purpose, so
    that no per-operation handler can swallow it."""


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="dataset + op-script seed")
    parser.add_argument("--seconds", type=float, default=None, help="measured seconds")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="1 = bench-side spans + the per-layer probe battery",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="n=1000, short windows")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--json", type=Path, help="write the records document here")
    parser.add_argument("--spans", type=Path, help="write the span JSONL here")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="test hook: plant one wrong expected answer; the run must fail",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload, in this process ------------------------------------------


def run_one(args) -> int:
    from dataclasses import asdict

    from harness import (
        Clock,
        Recorder,
        Spans,
        peak_rss_mb,
        percentile_ms,
        print_table,
        records_document,
        windows_of,
    )
    from probes import run_battery
    from workloads import WORKLOADS, Traced, Untraced, answers_digest

    def on_alarm(_signum, _frame):
        raise CeilingExceeded(f"{args.workload} exceeded {CEILING_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(CEILING_S)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    rec = Recorder(args.workload, args.seed)
    spans = Spans(args.workload)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args, ROOT, tmp)
        repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
        setup_seconds = []
        for repeat in range(repeats):
            if repeat:
                workload.tear_down()
            workdir = tmp / f"setup-{repeat}"
            workdir.mkdir()
            started = time.perf_counter()
            workload.set_up(workdir)
            setup_seconds.append(time.perf_counter() - started)
        workload.prepare()

        window_s = args.seconds / WINDOWS
        # Traced runs alternate plain and traced windows on one machine state.
        flags = [False, True, False, True] if args.trace else [False] * WINDOWS

        def make_clock() -> Clock:
            return Clock(time.perf_counter(), min(window_s, WARMUP_S), window_s, flags)

        def tracers_for(clock: Clock) -> list:
            return [
                Traced(spans, spans.add("window", clock.edge(i), clock.edge(i + 1)))
                if traced
                else Untraced()
                for i, traced in enumerate(clock.traced)
            ]

        probe_answers, clock, samples = workload.run(make_clock, tracers_for)
        rss = peak_rss_mb(workload.sut_pid())
        workload.verify(probe_answers, samples)

        buckets = windows_of(samples, clock)
        plain = [b for b, traced in zip(buckets, flags) if not traced]
        if not all(any(s.ok for s in bucket) for bucket in buckets):
            raise RuntimeError(
                f"a window completed no operation (last error: {workload.last_error})"
            )

        def rate(bucket) -> float:
            return sum(s.ok for s in bucket) / window_s

        # A value is taken over the whole measured period (all untraced
        # windows pooled); the per-window values give its spread.
        latencies = [[s.seconds for s in b if s.ok and s.timed] for b in plain]
        pooled = [seconds for window in latencies for seconds in window]
        rec.add("setup_s", "e2e", "s", setup_seconds)
        throughput = rec.add(
            "throughput_ops_s", "e2e", "1/s", [rate(b) for b in plain],
            value=statistics.fmean(rate(b) for b in plain),
        )  # fmt: skip
        for metric, q in (("latency_p50_ms", 50), ("latency_p95_ms", 95)):
            rec.add(
                metric, "e2e", "ms", [percentile_ms(window, q) for window in latencies],
                value=percentile_ms(pooled, q),
            )  # fmt: skip
        rec.add("peak_rss_mb", "e2e", "MiB", rss)
        for metric, values in workload.laps.items():
            rec.layer(metric, "bytes" if metric.endswith("_bytes") else "s", values)
        rec.layer(
            "bench.window_spread", "ratio", throughput.spread["mad"] / throughput.value
        )
        workload.finish(rec, clock, samples)
        if args.trace:
            traced = [rate(b) for b, flag in zip(buckets, flags) if flag]
            rec.layer(
                "bench.trace_overhead_share", "ratio",
                1.0 - statistics.median(traced) / throughput.value,
            )  # fmt: skip
            run_battery(workload, rec)
            spans.write_jsonl(args.spans or tmp / "spans.jsonl")
    finally:
        signal.alarm(0)
        if workload is not None:
            workload.tear_down()
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_ROOT.exists() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    failed = sum(not s.ok for s in samples) + workload.extra_failed
    attempted = len(samples) + workload.extra_attempted
    summary = {
        "why": workload.why,
        "ops_attempted": attempted,
        "ops_ok": attempted - failed,
        "ops_failed": failed,
        "answers_digest": answers_digest(probe_answers),
        "last_error": workload.last_error,
        "span_self_seconds": {
            name: {"self_s": seconds, "count": count}
            for name, (seconds, count) in sorted(spans.self_seconds().items())
        },
    }
    print_table(rec.records)
    for name, entry in summary["span_self_seconds"].items():
        print(f"span {name:40s} self {entry['self_s']:10.4f} s  x{entry['count']}")
    print(
        f"{args.workload}: attempted {attempted} ok {attempted - failed} failed "
        f"{failed} answers_digest {summary['answers_digest'][:16]}"
    )
    if args.json:
        rows = [asdict(record) for record in rec.records]
        document = records_document(rows, {args.workload: summary}, ROOT)
        args.json.write_text(json.dumps(document, indent=1))
    named = _benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": rec.value(entry["name"]), "unit": entry["unit"]}
        for entry in named
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# -- the whole suite: one fresh subprocess per workload run -----------------


def collect(args, traces) -> tuple[list[dict], dict, bool]:
    """Run every workload for each trace mode; (records, summaries, all ok)."""
    TMP_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="suite-", dir=TMP_ROOT))
    records: list[dict] = []
    summaries: dict = {}
    all_ok = True
    try:
        for name in WORKLOAD_NAMES:
            for trace in traces:
                out = out_dir / f"{name}-{trace}.json"
                command = [
                    sys.executable, str(SUITE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--json", str(out),
                ]  # fmt: skip
                if args.smoke:
                    command.append("--smoke")
                if args.corrupt_oracle:
                    command.append("--corrupt-oracle")
                if trace and args.spans:
                    args.spans.mkdir(parents=True, exist_ok=True)
                    command += ["--spans", str(args.spans / f"{name}.jsonl")]
                started = time.perf_counter()
                try:
                    done = subprocess.run(
                        command, capture_output=True, text=True, timeout=CEILING_S + 30
                    )
                    code, tail = done.returncode, done.stderr[-2000:]
                except subprocess.TimeoutExpired:
                    code, tail = -1, "timed out"
                elapsed = time.perf_counter() - started
                print(
                    f"[suite] {name} trace={trace} exit={code} {elapsed:.1f} s",
                    file=sys.stderr,
                )
                if not out.exists():
                    # Unfinished: everything the run still owed counts as failed.
                    all_ok = False
                    summaries.setdefault(name, {})["ops_failed"] = "unfinished"
                    print(tail, file=sys.stderr)
                    continue
                document = json.loads(out.read_text())
                all_ok = all_ok and code == 0
                # A traced run repeats the end-to-end records; the untraced win.
                seen = {r["metric"] for r in records if r["workload"] == name}
                records += [r for r in document["records"] if r["metric"] not in seen]
                if trace == 0 or name not in summaries:
                    summaries[name] = document["workloads"][name]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if TMP_ROOT.exists() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()
    return records, summaries, all_ok


def run_suite(args) -> int:
    from harness import Record, print_table, records_document

    traces = (0, 1) if args.trace is None else (args.trace,)
    records, summaries, all_ok = collect(args, traces)
    print_table([Record(**r) for r in records])
    shown = ("ops_attempted", "ops_ok", "ops_failed", "answers_digest")
    for name, summary in summaries.items():
        print(f"{name}: " + " ".join(f"{key}={summary.get(key)}" for key in shown))
    if args.json:
        document = records_document(records, summaries, ROOT)
        args.json.write_text(json.dumps(document, indent=1))
    return 0 if all_ok else 1


def check_repeat(args) -> int:
    """The suite twice, back to back: do two sets of runs of the same code
    agree within the bounds ``BENCHMARK.json`` fixes?"""
    bounds = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    first, _, ok_a = collect(args, (0,))
    second, _, ok_b = collect(args, (0,))
    again = {(r["workload"], r["metric"]): r["value"] for r in second}
    violations = 0
    print(f"{'workload':17s} {'metric':18s} {'first':>12s} {'second':>12s} {'diff':>8s} {'bound':>6s}")
    for r in first:
        if r["kind"] != "e2e":
            continue
        a, b = r["value"], again[(r["workload"], r["metric"])]
        diff = (b - a) / a
        bound = bounds[r["metric"]]["bound"]
        verdict = "ok" if abs(diff) <= bound else "VIOLATION"
        violations += verdict != "ok"
        print(
            f"{r['workload']:17s} {r['metric']:18s} {a:12.5g} {b:12.5g} "
            f"{100 * diff:+7.2f}% {100 * bound:5.0f}% {verdict}"
        )
    return 0 if (violations == 0 and ok_a and ok_b) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload:
        if args.trace is None:
            args.trace = 0
        return run_one(args)
    if args.check_repeat:
        return check_repeat(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
