"""The four workloads: set-up, closed-loop traffic, and the answer oracle.

Every workload is one closed loop generated by this process: the next
operation is issued only when the previous one has been answered.  HTTP
workloads talk over **one** keep-alive connection to a ``python -m repro
serve`` subprocess (client and server share no GIL, busy threads stay
within ``nproc``); in-process workloads use this thread plus the
scheduler's single engine worker.  Answers are kept with their samples
and verified after the timed windows, so the check never sits between
two requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from harness import Clock, Sample, cpu_seconds, percentile_ms, windows_of

from repro.clustering.louvain import louvain
from repro.core.engine import engine_from_index
from repro.core.index import MogulIndex, MogulRanker
from repro.core.live import LiveEngine
from repro.core.serialize import load_any_index
from repro.core.sharded import ShardedMogulIndex
from repro.datasets.registry import load_dataset
from repro.graph.build import build_knn_graph
from repro.service.client import RetrievalClient
from repro.service.scheduler import MicroBatchScheduler

K = 10  # answers per query, every workload
KNN = 5  # graph degree (the shipped default of `repro build` / `serve`)
N_SHARDS = 4
POOL = 2048  # distinct in-sample query ids a script draws from
OOS_POOL = 256  # distinct out-of-sample query features
PROBE_IN_SAMPLE, PROBE_OOS = 192, 64  # the fixed 256-query digest probe set
OOS_NOISE_STD = 0.01
OP_TIMEOUT_S = 5.0  # an op unanswered for this long is a failed op
SMOKE_SCALE = 0.125  # inria-synthetic n = 1000
#: The corpus is the benchmark's fixed database: ``--seed`` draws the
#: traffic (query pools, op mix, noise), never the data.  On this class of
#: host a different corpus moves engine throughput by ~30 % (cluster count
#: and border size change), which would drown any bound in seed noise.
CORPUS_SEED = 0
SCRIPT_LENGTH = 1 << 16  # pre-drawn op script; wraps if a run outlasts it


# -- tracers: the same call sites with and without bench-side spans -------


class Untraced:
    """Call-through used by warm-up and untraced windows."""

    def call(self, _name, fn, *args):
        return fn(*args)

    def add(self, _name, _start, _end) -> None:
        pass

    def scope(self, _name) -> "Untraced":
        return self

    def done(self) -> None:
        pass


class Traced:
    """Records one span per bench -> program call under ``parent``."""

    def __init__(self, spans, parent: int):
        self.spans = spans
        self.parent = parent

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.add(name, start, time.perf_counter(), self.parent)

    def add(self, name, start, end) -> None:
        self.spans.add(name, start, end, self.parent)

    def scope(self, name) -> "Traced":
        return Traced(self.spans, self.spans.open(name, self.parent))

    def done(self) -> None:
        self.spans.close(self.parent)


# -- answers ----------------------------------------------------------------


def answer_arrays(answer) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scores) of a ``TopKResult`` or of an HTTP response document."""
    if isinstance(answer, dict):
        return (
            np.asarray(answer["indices"], dtype=np.int64),
            np.asarray(answer["scores"], dtype=np.float64),
        )
    return np.asarray(answer.indices, dtype=np.int64), np.asarray(answer.scores)


def same_answer(answer, expected, bitwise: bool = False) -> bool:
    """Ids exactly and scores to 1e-8 (``run_load_test``'s rule), or bitwise."""
    ids, scores = answer_arrays(answer)
    want_ids, want_scores = answer_arrays(expected)
    if not np.array_equal(ids, want_ids):
        return False
    if np.array_equal(scores, want_scores):  # the common case, and the cheap test
        return True
    return not bitwise and np.allclose(scores, want_scores, atol=1e-8)


def answers_digest(answers) -> str:
    """SHA-256 over the ordered probe answers (ids exact, scores to 6 digits)."""
    digest = hashlib.sha256()
    for answer in answers:
        if answer is None:
            digest.update(b"<failed>")
            continue
        ids, scores = answer_arrays(answer)
        digest.update(ids.tobytes())
        digest.update(" ".join(f"{score:.6e}" for score in scores).encode())
    return digest.hexdigest()


# -- the server under test -------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` on a free port, torn down for certain."""

    def __init__(self, root: Path, workdir: Path, index_path, features_path, args=()):
        self.root = root
        self.workdir = workdir
        self.command = [
            sys.executable, "-m", "repro", "serve", str(index_path),
            "--features", str(features_path), *args,
        ]  # fmt: skip
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> RetrievalClient:
        """Spawn and poll ``/healthz``; returns the connected client."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        log_path = self.workdir / f"server-{self.port}.log"
        self._log = open(log_path, "wb")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.proc = subprocess.Popen(
            [*self.command, "--port", str(self.port)],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=self.workdir,
        )
        give_up = time.perf_counter() + 120.0
        while True:
            if self.proc.poll() is not None or time.perf_counter() > give_up:
                tail = log_path.read_text(errors="replace")[-2000:]
                self.stop()
                raise RuntimeError(f"server did not come up:\n{tail}")
            client = RetrievalClient(port=self.port, timeout=OP_TIMEOUT_S)
            try:
                client.healthz()
                return client
            except (OSError, http.client.HTTPException):
                client.close()
                time.sleep(0.01)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


# -- base workload -----------------------------------------------------------


class Workload:
    """Set-up, traffic and oracle of one workload.

    Life cycle (driven by ``run.py``): ``set_up`` (timed, repeated) ->
    ``prepare`` (oracle and op script, untimed) -> ``run`` (probe set,
    warm-up, windows) -> ``verify`` -> ``finish`` -> ``tear_down``.
    """

    name = ""
    why = ""
    full_scale = 1.25  # inria-synthetic n = 10 000

    def __init__(self, cfg, root: Path, tmp: Path):
        self.cfg = cfg
        self.root = root
        self.tmp = tmp
        self.rng = np.random.default_rng([cfg.seed, 1])
        #: layer metric -> one value per set-up repetition
        self.laps: dict[str, list[float]] = {}
        self.expected: dict = {}
        self.last_error: str | None = None
        self.extra_failed = 0  # wrong answers outside the sample list
        self.extra_attempted = 0
        started = time.perf_counter()
        scale = SMOKE_SCALE if cfg.smoke else self.full_scale
        self.features = load_dataset("inria", scale=scale, seed=CORPUS_SEED).features
        self._lap("datasets.load_s", started)
        self.n = self.features.shape[0]

    # -- set-up ----------------------------------------------------------

    def _lap(self, metric: str, started: float) -> float:
        now = time.perf_counter()
        self.laps.setdefault(metric, []).append(now - started)
        return now

    def build_corpus(self, workdir: Path) -> None:
        """Graph -> clustering -> index -> saved artifact (each lap timed)."""
        t = time.perf_counter()
        self.graph = build_knn_graph(self.features, k=KNN)
        t = self._lap("graph.knn_s", t)
        self.labels = louvain(self.graph.adjacency)
        t = self._lap("clustering.louvain_s", t)
        self.index = MogulIndex.build(self.graph, cluster_labels=self.labels)
        t = self._lap("core.index.build_s", t)
        self.flat_path = workdir / "flat.npz"
        self.index.save(self.flat_path)
        self._lap("core.serialize.save_s", t)
        self.laps.setdefault("core.serialize.index_bytes", []).append(
            float(self.flat_path.stat().st_size)
        )

    def set_up(self, workdir: Path) -> None:
        raise NotImplementedError

    def tear_down(self) -> None:
        pass

    def sut_pid(self) -> int:
        """The process whose ``VmHWM`` and CPU are the workload's."""
        return os.getpid()

    # -- oracle ------------------------------------------------------------

    def prepare(self) -> None:
        """Query pools, sequential reference answers and the op script."""
        self.pool = self.rng.choice(self.n, size=min(POOL, self.n), replace=False)
        rows = self.rng.integers(self.n, size=OOS_POOL)
        dim = self.features.shape[1]
        self.oos = self.features[rows] + self.rng.normal(
            0.0, OOS_NOISE_STD, size=(OOS_POOL, dim)
        )
        self.reference = MogulRanker.from_index(self.graph, self.index)
        shrink = 4 if self.cfg.smoke else 1
        self.probe_keys = [("search", j) for j in range(PROBE_IN_SAMPLE // shrink)]
        self.probe_keys += [("search_oos", j) for j in range(PROBE_OOS // shrink)]
        for key in self.oracle_keys():
            self.expected[key] = self.reference_answer(key)
        if self.cfg.corrupt_oracle:
            # Test hook: one deliberately wrong expected answer must fail the run.
            wrong = self.expected[self.probe_keys[0]]
            self.expected[self.probe_keys[0]] = type(wrong)(
                indices=wrong.indices[::-1].copy(), scores=wrong.scores
            )
        self.script_oos = self.rng.random(SCRIPT_LENGTH) < 0.15
        self.script_pick = self.rng.integers(len(self.pool), size=SCRIPT_LENGTH)
        self.script_pick_oos = self.rng.integers(OOS_POOL, size=SCRIPT_LENGTH)
        self.cursor = 0

    def oracle_keys(self) -> list:
        """Keys whose reference answer is precomputed (default: every query)."""
        keys = [("search", j) for j in range(len(self.pool))]
        return keys + [("search_oos", j) for j in range(OOS_POOL)]

    def reference_answer(self, key):
        kind, j = key
        if kind == "search":
            return self.reference.top_k(int(self.pool[j]), K)
        return self.reference.top_k_out_of_sample(self.oos[j], K)

    # -- traffic -----------------------------------------------------------

    def ask(self, key):
        """One probe query through the workload's own path."""
        raise NotImplementedError

    def step(self, samples: list[Sample], tracer) -> None:
        """Issue the next operation(s) of the script, appending samples."""
        raise NotImplementedError

    def on_edge(self, index: int) -> None:
        """Hook at the start of window ``index`` (``n`` = end of the run)."""

    def timed(self, samples, tracer, span, kind, key, fn, *args) -> object:
        """One call = one sample; any exception is a failed operation."""
        started = time.perf_counter()
        try:
            answer = tracer.call(span, fn, *args)
        except Exception as error:  # non-2xx, timeout, dropped connection
            self.last_error = repr(error)
            answer = None
        ended = time.perf_counter()
        samples.append(Sample(ended, kind, ended - started, key, answer))
        return answer

    def run(self, make_clock, tracers_for) -> tuple[list, Clock, list[Sample]]:
        """Probe set, warm-up, windows: (probe answers, clock, samples)."""
        probe_answers = []
        for key in self.probe_keys:
            try:
                probe_answers.append(self.ask(key))
            except Exception as error:
                self.last_error = repr(error)
                probe_answers.append(None)
        clock = make_clock()
        tracers = tracers_for(clock)
        warmup = Untraced()
        samples: list[Sample] = []
        window = -1
        while True:
            now = time.perf_counter()
            while window < clock.n and now >= clock.edge(window + 1):
                window += 1
                self.on_edge(window)
            if window >= clock.n:
                break
            self.step(samples, tracers[window] if window >= 0 else warmup)
        return probe_answers, clock, samples

    # -- verification ------------------------------------------------------

    def check(self, sample: Sample) -> bool:
        if not same_answer(sample.answer, self.expected[sample.key]):
            return False
        return sample.twin is None or same_answer(sample.answer, sample.twin, True)

    def verify(self, probe_answers: list, samples: list[Sample]) -> None:
        """Mark every wrong or missing answer as a failed operation."""
        for sample in samples:
            sample.ok = sample.answer is not None and self.check(sample)
        self.extra_attempted += len(probe_answers)
        for key, answer in zip(self.probe_keys, probe_answers):
            if answer is None or not same_answer(answer, self.expected[key]):
                self.extra_failed += 1

    def finish(self, recorder, clock: Clock, samples: list[Sample]) -> None:
        """Post-run checks and workload-scoped layer records."""


# -- 1. http_search -----------------------------------------------------------


class HttpWorkload(Workload):
    """Shared by the two HTTP workloads: server subprocess + one client."""

    serve_args: tuple[str, ...] = ()
    server: ServerProcess | None = None
    client: RetrievalClient | None = None

    def set_up(self, workdir: Path) -> None:
        self.build_corpus(workdir)
        features_path = workdir / "features.npy"
        np.save(features_path, self.features)
        self.server = ServerProcess(
            self.root, workdir, self.flat_path, features_path, self.serve_args
        )
        self.client = self.server.start()

    def tear_down(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()

    def sut_pid(self) -> int:
        return self.server.pid

    def ask(self, key):
        kind, j = key
        if kind == "search":
            return self.client.search(int(self.pool[j]), K)
        return self.client.search_out_of_sample(self.oos[j], K)


class HttpSearch(HttpWorkload):
    name = "http_search"
    why = (
        "the real request path: one connection to `repro serve`, 85% /search + "
        "15% /search_oos; the HTTP shell and the scheduler deadline dominate, "
        "the engine is under a tenth of a request"
    )
    serve_args = ("--cache-capacity", "0")

    def step(self, samples, tracer) -> None:
        i = self.cursor % SCRIPT_LENGTH
        self.cursor += 1
        if self.script_oos[i]:
            j = int(self.script_pick_oos[i])
            self.timed(
                samples, tracer, "service.client.search_oos", "search_oos",
                ("search_oos", j), self.client.search_out_of_sample, self.oos[j], K,
            )  # fmt: skip
        else:
            j = int(self.script_pick[i])
            self.timed(
                samples, tracer, "service.client.search", "search",
                ("search", j), self.client.search, int(self.pool[j]), K,
            )  # fmt: skip


# -- 2. sched_fanin32 ---------------------------------------------------------


class SchedFanin32(Workload):
    name = "sched_fanin32"
    why = (
        "in-process MicroBatchScheduler under 32 closed-loop coroutines: the only "
        "regime where coalescing engages (batches of 32) and core.batch does "
        "most of the work; no HTTP, so shell changes must read no change"
    )
    coroutines = 32

    def set_up(self, workdir: Path) -> None:
        self.build_corpus(workdir)
        self.engine = engine_from_index(self.graph, load_any_index(self.flat_path))

    def oracle_keys(self) -> list:
        return [("search", j) for j in range(len(self.pool))] + self.probe_keys

    def run(self, make_clock, tracers_for):
        return asyncio.run(self._run(make_clock, tracers_for))

    async def _search(self, scheduler, key):
        kind, j = key
        if kind == "search":
            scheduled = await scheduler.search(int(self.pool[j]), K)
        else:
            scheduled = await scheduler.search_out_of_sample(self.oos[j], K)
        return scheduled.result

    async def _run(self, make_clock, tracers_for):
        async with MicroBatchScheduler(self.engine) as scheduler:
            probe_answers = await asyncio.gather(
                *(self._search(scheduler, key) for key in self.probe_keys),
                return_exceptions=True,
            )
            for i, answer in enumerate(probe_answers):
                if isinstance(answer, Exception):
                    self.last_error = repr(answer)
                    probe_answers[i] = None
            clock = make_clock()
            tracers = tracers_for(clock)
            warmup = Untraced()
            samples: list[Sample] = []

            async def worker(lane: int) -> None:
                cursor = lane
                while True:
                    started = time.perf_counter()
                    if started >= clock.edge(clock.n):
                        return
                    j = int(self.script_pick[cursor % SCRIPT_LENGTH])
                    cursor += self.coroutines
                    try:
                        answer = await self._search(scheduler, ("search", j))
                    except Exception as error:
                        self.last_error = repr(error)
                        answer = None
                    ended = time.perf_counter()
                    window = clock.window_of(started)
                    tracer = tracers[window] if window >= 0 else warmup
                    tracer.add("service.scheduler.search", started, ended)
                    samples.append(
                        Sample(ended, "search", ended - started, ("search", j), answer)
                    )

            await asyncio.gather(*(worker(c) for c in range(self.coroutines)))
        return probe_answers, clock, samples


# -- 3. engine_direct -----------------------------------------------------------


class EngineDirect(Workload):
    name = "engine_direct"
    why = (
        "no service layer: flat and sharded (S=4) engines from one graph and one "
        "clustering, each cycle 32 top_k + one top_k_batch(32) + 8 out-of-sample "
        "per engine, so a kernel change that helps one entry point and costs "
        "another shows in the same run"
    )
    batch, oos_per_cycle = 32, 8
    #: attribute holding the engine, then the span names of its three calls
    ENGINES = (
        ("flat", "core.index.top_k", "core.batch.top_k_batch",
         "core.out_of_sample.top_k"),
        ("sharded", "core.sharded.top_k", "core.sharded.top_k_batch",
         "core.sharded.top_k_out_of_sample"),
    )  # fmt: skip

    def set_up(self, workdir: Path) -> None:
        self.build_corpus(workdir)
        sharded = ShardedMogulIndex.build(
            self.graph, N_SHARDS, cluster_labels=self.labels
        )
        self.sharded_path = workdir / "sharded"
        sharded.save(self.sharded_path)
        self.flat = engine_from_index(self.graph, load_any_index(self.flat_path))
        self.sharded = engine_from_index(self.graph, load_any_index(self.sharded_path))

    def ask(self, key):
        kind, j = key
        if kind == "search":
            return self.sharded.top_k(int(self.pool[j]), K)
        return self.sharded.top_k_out_of_sample(self.oos[j], K)

    def step(self, samples, tracer) -> None:
        i = self.cursor % (SCRIPT_LENGTH - self.batch)
        self.cursor += self.batch
        picks = [int(j) for j in self.script_pick[i : i + self.batch]]
        oos_picks = [int(j) for j in self.script_pick_oos[i : i + self.oos_per_cycle]]
        nodes = self.pool[picks]
        cycle = tracer.scope("cycle")
        first = len(samples)
        for label, single_span, batch_span, oos_span in self.ENGINES:
            engine = getattr(self, label)
            for j in picks:
                self.timed(
                    samples, cycle, single_span, f"{label}.top_k", ("search", j),
                    engine.top_k, int(self.pool[j]), K,
                )  # fmt: skip
            started = time.perf_counter()
            try:
                answers = cycle.call(batch_span, engine.top_k_batch, nodes, K)
            except Exception as error:
                self.last_error = repr(error)
                answers = [None] * self.batch
            ended = time.perf_counter()
            share = (ended - started) / self.batch  # wall time / 32 per query
            for position, (j, answer) in enumerate(zip(picks, answers)):
                samples.append(
                    Sample(
                        ended, f"{label}.top_k_batch32", share, ("search", j), answer,
                        timed=position == 0,
                    )  # fmt: skip
                )
            for j in oos_picks:
                self.timed(
                    samples, cycle, oos_span, f"{label}.oos", ("search_oos", j),
                    engine.top_k_out_of_sample, self.oos[j], K,
                )  # fmt: skip
        cycle.done()
        # Sharded answers must equal flat bitwise: pair the two halves.
        half = (len(samples) - first) // 2
        for flat_sample, sharded_sample in zip(
            samples[first : first + half], samples[first + half :]
        ):
            sharded_sample.twin = flat_sample.answer


# -- 4. http_mutable_mix --------------------------------------------------------


class HttpMutableMix(HttpWorkload):
    name = "http_mutable_mix"
    why = (
        "writes beside reads on `repro serve --mutable`: 70% Zipf /search, 25% "
        "/insert, 5% /delete and a waited-for /rebuild every 80 inserts, so a "
        "read-path gain that taxes writes (or a slower build) shows"
    )
    full_scale = 0.5  # n = 4000
    #: Rebuild points are in the script (``POST /rebuild {"wait": true}``
    #: every 0.02 n = 80 inserts, the ``--auto-rebuild-fraction`` they
    #: replace), so the pending buffer is the same saw-tooth in every run.
    #: A background rebuild beside the queries needs two free cores; on a
    #: shared 2-vCPU host it measured the hypervisor (p95 12-23 ms over
    #: ten runs of one code).
    serve_args = ("--mutable", "--auto-rebuild-fraction", "0")
    rebuild_fraction = 0.02
    zipf_s = 1.2

    def prepare(self) -> None:
        super().prepare()
        # Zipf rank -> node id.  Part of the corpus, not of the traffic: the
        # ten hottest ids take half of all searches and a node's search cost
        # depends on its cluster, so a per-seed permutation made every seed a
        # different workload (p95 spread 12-15 % over ten seeds against 7 %
        # over ten runs of one seed).
        self.ranks = np.random.default_rng(CORPUS_SEED).permutation(self.n)
        weights = 1.0 / np.arange(1, self.n + 1) ** self.zipf_s
        self.zipf_cdf = np.cumsum(weights / weights.sum())
        floor = min(1000, self.n // 4)
        self.delete_queue = list(self.rng.permutation(np.arange(floor, self.n)))
        self.deleted: list[int] = []
        self.deleted_set: set[int] = set()
        self.inserted: list[int] = []
        self.mutations: list[tuple[str, object]] = []  # acknowledged, in order
        self.stats_marks: list[dict] = []
        self.rebuild_every = max(1, round(self.rebuild_fraction * self.n))

    def oracle_keys(self) -> list:
        return list(self.probe_keys)  # only the pre-mutation probe has an oracle

    def on_edge(self, index: int) -> None:
        live = self.client.stats()["live"]
        metrics = self.client.metrics()
        self.stats_marks.append(
            {
                "pending": live["n_pending"],
                "rebuilds": live["rebuilds"],
                "stall_ms": 1e3 * live["max_query_stall_seconds"],
                "hits": metrics["cache"]["hits"],
                "misses": metrics["cache"]["misses"],
                "sheds": metrics["admission"]["sheds_total"],
                "server_cpu": cpu_seconds(self.server.pid),
            }
        )

    def step(self, samples, tracer) -> None:
        draw = self.rng.random()
        if draw < 0.70:
            rank = int(np.searchsorted(self.zipf_cdf, self.rng.random()))
            node = int(self.ranks[min(rank, self.n - 1)])
            while node in self.deleted_set:
                rank = (rank + 1) % self.n
                node = int(self.ranks[rank])
            self.timed(
                samples, tracer, "service.client.search", "search",
                ("search", node, len(self.deleted)), self.client.search, node, K,
            )  # fmt: skip
        elif draw < 0.95:
            row = int(self.rng.integers(self.n))
            feature = self.features[row] + self.rng.normal(
                0.0, OOS_NOISE_STD, size=self.features.shape[1]
            )
            expected_id = self.n + len(self.inserted)
            answer = self.timed(
                samples, tracer, "service.client.insert", "insert",
                ("insert", expected_id), self.client.insert, feature,
            )  # fmt: skip
            if answer is not None:
                self.inserted.append(int(answer["id"]))
                self.mutations.append(("add", feature))
                if len(self.inserted) % self.rebuild_every == 0:
                    self.timed(
                        samples, tracer, "service.client.rebuild", "rebuild",
                        ("rebuild", None), self.client.rebuild, True,
                    )  # fmt: skip
        else:
            node = int(self.delete_queue.pop())
            answer = self.timed(
                samples, tracer, "service.client.delete", "delete",
                ("delete", node), self.client.delete, node,
            )  # fmt: skip
            if answer is not None:
                self.deleted.append(node)
                self.deleted_set.add(node)
                self.mutations.append(("remove", node))

    def check(self, sample: Sample) -> bool:
        kind, target, *rest = sample.key
        if kind == "insert":
            return sample.answer["id"] == target
        if kind == "delete":
            return sample.answer["node"] == target
        if kind == "rebuild":  # waited for: a fresh epoch must be in place
            answer = sample.answer
            fresh = answer.get("epoch", -1) > answer["epoch_before"]
            return fresh and not answer["in_flight"]
        # No id whose delete was acknowledged before this search may reappear.
        gone = set(self.deleted[: rest[0]])
        indices = sample.answer["indices"]
        return len(indices) == K and gone.isdisjoint(indices)

    def finish(self, recorder, clock, samples) -> None:
        self._record_traffic(recorder, clock, samples)
        # Fold everything in, then the server must agree with a local
        # LiveEngine that replayed the same acknowledged mutations.
        self.client.close()
        self.client = RetrievalClient(port=self.server.port, timeout=60.0)
        for _ in range(8):
            self.client.rebuild(wait=True)
            live = self.client.stats()["live"]
            if live["n_pending"] == 0 and not live["rebuild_in_flight"]:
                break
        replica = LiveEngine.from_engine(
            self.reference, k=KNN, auto_rebuild_fraction=None
        )
        try:
            for action, payload in self.mutations:
                if action == "add":
                    replica.add(payload)
                else:
                    replica.remove(payload)
            replica.rebuild()
            survivors = [int(v) for v in self.ranks if int(v) not in self.deleted_set]
            probes = survivors[:64] + self.inserted[:256]
            for node in probes:
                self.extra_attempted += 1
                try:
                    answer = self.client.search(node, K)
                    good = same_answer(answer, replica.top_k(node, K))
                except Exception as error:  # an acknowledged insert must be searchable
                    self.last_error = repr(error)
                    good = False
                self.extra_failed += not good
        finally:
            replica.close()

    def _record_traffic(self, recorder, clock, samples) -> None:
        """Client-observed latency by op type, and what the server's own
        documents (``/stats``, ``/metrics``) say about the timed windows."""
        buckets = windows_of(samples, clock)
        for kind in ("search", "insert", "delete", "rebuild"):
            per_window = [
                [s.seconds for s in bucket if s.kind == kind and s.ok]
                for bucket in buckets
            ]
            p50s = [percentile_ms(seconds, 50) for seconds in per_window if seconds]
            if p50s:  # a smoke run may see no delete at all
                recorder.layer(f"core.live.{kind}_p50_ms", "ms", p50s)
        first, *rest = self.stats_marks
        last = rest[-1]
        ops = sum(len(bucket) for bucket in buckets)
        recorder.layer(
            "core.live.server_cpu_ms_per_op", "ms",
            1e3 * (last["server_cpu"] - first["server_cpu"]) / ops,
        )  # fmt: skip

        def grown(counter: str) -> float:
            return last[counter] - first[counter]

        lookups = grown("hits") + grown("misses")
        pending = [mark["pending"] for mark in rest]  # sampled at window ends
        recorder.layer("core.live.rebuilds", "count", grown("rebuilds"))
        recorder.layer("core.live.pending_mean", "count", np.mean(pending))
        recorder.layer("core.live.max_snapshot_stall_ms", "ms", last["stall_ms"])
        recorder.layer(
            "service.cache.hit_rate", "ratio", grown("hits") / lookups if lookups else 0.0
        )
        recorder.layer("service.admission.shed_count", "count", grown("sheds"))


WORKLOADS = {
    w.name: w for w in (HttpSearch, SchedFanin32, EngineDirect, HttpMutableMix)
}
