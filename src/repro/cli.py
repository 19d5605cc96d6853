"""Command-line interface: build, inspect and query Mogul indexes.

The CLI wraps the library's primary workflow so the system can be driven
without writing Python::

    python -m repro datasets
    python -m repro build --dataset coil --out coil.idx.npz
    python -m repro build --dataset coil --shards 4 --jobs 4 --out coil.shards
    python -m repro build --dataset coil --spectral-rank 128 --out coil.idx.npz
    python -m repro info coil.idx.npz
    python -m repro info coil.shards
    python -m repro search coil.idx.npz --dataset coil --query 42 -k 10
    python -m repro search coil.idx.npz --dataset coil --query 42 --accuracy fast
    python -m repro search coil.shards --features db.npy --query 42 -k 10
    python -m repro search coil.idx.npz --dataset coil --batch \
        --query 1 --query 2 --query 3 -k 10
    python -m repro serve coil.shards --dataset coil --port 8080
    python -m repro serve coil.idx.npz --dataset coil --mutable
    python -m repro loadtest --port 8080 --concurrency 32 --requests 512
    python -m repro slowlog --port 8080 --limit 5

``build --spectral-rank R`` additionally writes a rank-R spectral tier
next to the exact artifact (the ``.spectral.npz`` sidecar).  When the
sidecar exists, ``serve`` composes the tiered engine automatically (the
accuracy dial appears on ``/search``), and ``search --accuracy``/
``--m`` query through it from the command line; without the dial flags,
``search`` stays on the exact engine.

Feature sources: either a named synthetic dataset (``--dataset`` +
``--scale``/``--seed``, regenerated deterministically) or a dense ``.npy``
feature matrix (``--features``).  Index artifacts are interchangeable
everywhere a path is accepted: a legacy single ``.npz`` file or a sharded
directory (built with ``--shards``) — ``search``/``serve``/``info`` pick
the right engine.  ``search --json`` emits the same machine-readable
documents the HTTP server serves.  Experiment regeneration lives in its
own entry point, ``python -m repro.experiments <figure>``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

import numpy as np

from repro.core.engine import engine_from_index
from repro.core.index import MogulIndex
from repro.core.serialize import load_any_index
from repro.core.sharded import ShardedMogulIndex
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.graph.build import build_knn_graph
from repro.linalg.ldl import BACKENDS, DEFAULT_BACKEND


def _nonnegative_float(text: str) -> float:
    """argparse type for flags that must be a float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type for flags that must be a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer >= 1, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type for flags that must be a float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return value


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Mogul: scalable top-k Manifold Ranking "
        "(reproduction of Fujiwara et al., VLDB 2014).",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    datasets = sub.add_parser(
        "datasets", help="list the built-in synthetic dataset substitutes"
    )
    datasets.add_argument(
        "--scale", type=float, default=1.0, help="size multiplier (default 1.0)"
    )
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(handler=_cmd_datasets)

    build = sub.add_parser("build", help="build a Mogul index and save it")
    _add_feature_source(build)
    build.add_argument("--out", required=True, help="output .npz path")
    build.add_argument("--k", type=int, default=5, help="k-NN neighbours (default 5)")
    build.add_argument(
        "--alpha", type=float, default=0.99, help="damping parameter (default 0.99)"
    )
    build.add_argument(
        "--exact",
        action="store_true",
        help="use Modified Cholesky (MogulE): exact scores, denser factor",
    )
    build.add_argument(
        "--fill-level",
        type=int,
        default=0,
        help="ILU(p)-style fill budget for the incomplete factorization "
        "(0 = the paper's ICF; higher = more accuracy, more memory)",
    )
    build.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker threads for the parallel precompute stages (k-NN "
        "search, per-cluster factorization); any value builds an "
        "identical index (default 1)",
    )
    build.add_argument(
        "--factor-backend",
        choices=BACKENDS,
        default=DEFAULT_BACKEND,
        help="LDL^T implementation: 'csr' (fast, default) or 'reference' "
        "(the original dict-of-rows kernel, kept for equivalence runs)",
    )
    build.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="S",
        help="build a sharded index with S shards (written as a directory: "
        "manifest.json + per-shard .npz); answers are identical to the "
        "unsharded index for any S, and --jobs > 1 builds the shards in "
        "parallel worker processes.  Omit for the legacy single .npz",
    )
    build.add_argument(
        "--spectral-rank",
        type=_positive_int,
        default=None,
        metavar="R",
        help="also build a rank-R spectral nomination tier and save it as "
        "a sidecar next to the index; serve composes the tiered engine "
        "(accuracy dial) automatically when the sidecar is present",
    )
    build.set_defaults(handler=_cmd_build)

    info = sub.add_parser("info", help="print statistics of a saved index")
    info.add_argument("index", help="index .npz path")
    info.add_argument(
        "--verbose",
        action="store_true",
        help="full health report with warnings (cluster sizes, bound "
        "saturation, pivot guards)",
    )
    info.set_defaults(handler=_cmd_info)

    search = sub.add_parser("search", help="query a saved index")
    search.add_argument("index", help="index .npz path")
    _add_feature_source(search)
    search.add_argument(
        "--query",
        type=int,
        action="append",
        required=True,
        help="database node id; repeat for a multi-seed query",
    )
    search.add_argument("-k", type=int, default=10, help="answers (default 10)")
    search.add_argument("--knn", type=int, default=5, help="graph k (default 5)")
    search.add_argument(
        "--batch",
        action="store_true",
        help="treat repeated --query as independent queries answered in one "
        "batched engine pass (prints per-query answers plus pruning stats)",
    )
    search.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document (the same encoding "
        "the HTTP server's /search responses use)",
    )
    dial = search.add_mutually_exclusive_group()
    dial.add_argument(
        "--accuracy",
        choices=("fast", "balanced", "exact"),
        default=None,
        help="answer through the tiered engine at this accuracy level "
        "(requires the index's spectral sidecar, built with "
        "build --spectral-rank)",
    )
    dial.add_argument(
        "--m",
        type=_positive_int,
        default=None,
        metavar="M",
        help="answer through the tiered engine with an explicit candidate "
        "budget of M nominations (requires the spectral sidecar)",
    )
    search.add_argument(
        "--query-jobs",
        type=_positive_int,
        default=1,
        metavar="J",
        help="threads for a sharded index's per-shard scans (default 1; "
        "answers are identical at any setting; no-op on flat/spectral "
        "indexes)",
    )
    _add_memory_budget_flags(search)
    search.set_defaults(handler=_cmd_search)

    serve = sub.add_parser(
        "serve", help="serve a saved index over HTTP with micro-batching"
    )
    serve.add_argument("index", help="index .npz path")
    _add_feature_source(serve)
    serve.add_argument("--knn", type=int, default=5, help="graph k (default 5)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks a free port")
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="most queries coalesced into one engine dispatch (default "
        "32; 1 = per-request).  Dispatch is work-conserving: a request "
        "goes to the engine as soon as its lane is free, and a busy "
        "lane batches what queued meanwhile — nothing waits for company",
    )
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="LRU result-cache entries (default 1024; 0 disables)",
    )
    serve.add_argument(
        "--query-workers",
        type=_positive_int,
        default=1,
        metavar="W",
        help="engine worker threads solving dispatched batches "
        "(default 1 = serialize every dispatch; more workers overlap "
        "the solves of different lanes on multi-core hosts — each lane "
        "keeps one batch in flight; answers are identical at any "
        "setting)",
    )
    serve.add_argument(
        "--query-jobs",
        type=_positive_int,
        default=1,
        metavar="J",
        help="threads for a sharded index's per-shard scans inside one "
        "solve (default 1; no-op on flat/spectral indexes; composes "
        "with --query-workers — total engine threads ~ W*J)",
    )
    serve.add_argument(
        "--mutable",
        action="store_true",
        help="accept writes: POST /insert, /delete and /rebuild route "
        "through an epoch-versioned LiveEngine that rebuilds in the "
        "background and atomically swaps the fresh index in; mutable "
        "state (pending buffer + tombstones + epoch) persists next to "
        "the index artifact across restarts",
    )
    serve.add_argument(
        "--auto-rebuild-fraction",
        type=_nonnegative_float,
        default=0.2,
        metavar="F",
        help="trigger a background rebuild when the pending buffer "
        "outgrows this fraction of the indexed database (default 0.2; "
        "0 disables automatic rebuilds — only POST /rebuild rebuilds)",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable per-request span tracing (X-Repro-Trace-Id, "
        "?debug=trace, the slow-query flight recorder and the "
        "per-stage histograms)",
    )
    serve.add_argument(
        "--slowlog-capacity",
        type=int,
        default=32,
        help="traces retained by the slow-query flight recorder "
        "(default 32; 0 disables it)",
    )
    serve.add_argument(
        "--slow-threshold-ms",
        type=_nonnegative_float,
        default=None,
        metavar="MS",
        help="record the most recent requests at least this slow instead "
        "of the all-time slowest (default: slowest-N policy)",
    )
    serve.add_argument(
        "--request-timeout-ms",
        type=_nonnegative_float,
        default=30_000.0,
        metavar="MS",
        help="default per-request deadline for search endpoints "
        "(default 30000; 0 disables; requests override with "
        "?deadline_ms= or the X-Repro-Deadline-Ms header)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        metavar="N",
        help="admission-control threshold: past this many queued "
        "requests, new ones are degraded or shed per --overload-policy "
        "(default 1024; 0 disables admission control — unbounded queues)",
    )
    serve.add_argument(
        "--overload-policy",
        choices=("shed", "degrade", "degrade-then-shed"),
        default="degrade-then-shed",
        help="what to do past the queue threshold: shed (429 + "
        "Retry-After), degrade (downgrade dialable requests to the fast "
        "tier), or degrade-then-shed (degrade what can be, shed the "
        "rest; the default)",
    )
    serve.add_argument(
        "--max-queue-delay-ms",
        type=_nonnegative_float,
        default=None,
        metavar="MS",
        help="also shed/degrade when the estimated queue delay (from the "
        "per-stage histograms) crosses this budget (default: depth "
        "threshold only)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=_positive_int,
        default=8 * 1024 * 1024,
        metavar="BYTES",
        help="largest accepted request body; larger answers 413 "
        "(default 8 MiB)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="ARM THE CHAOS HARNESS (tests/CI only): comma-separated "
        "site:kind[:value_ms][:probability] rules, e.g. "
        "'engine.solve:latency:25,server.response:error:0:0.05'; the "
        "REPRO_FAULTS environment variable is honoured when this flag "
        "is absent",
    )
    _add_memory_budget_flags(serve)
    serve.set_defaults(handler=_cmd_serve)

    slowlog = sub.add_parser(
        "slowlog", help="print a running server's slow-query flight recorder"
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=8080)
    slowlog.add_argument(
        "--limit", type=int, default=10, help="entries to print (default 10)"
    )
    slowlog.add_argument(
        "--json",
        action="store_true",
        help="emit the raw /debug/slow document instead of the text view",
    )
    slowlog.set_defaults(handler=_cmd_slowlog)

    loadtest = sub.add_parser(
        "loadtest", help="drive a running server with concurrent queries"
    )
    loadtest.add_argument("--host", default="127.0.0.1")
    loadtest.add_argument("--port", type=int, default=8080)
    loadtest.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop workers (default 8)"
    )
    bound = loadtest.add_mutually_exclusive_group()
    bound.add_argument(
        "--requests",
        type=int,
        default=None,
        help="total requests across all workers (default 256)",
    )
    bound.add_argument(
        "--duration",
        type=float,
        default=None,
        help="run for this many seconds instead of a request count",
    )
    loadtest.add_argument("-k", type=int, default=10, help="answers per query")
    loadtest.add_argument("--seed", type=int, default=0, help="query sampling seed")
    loadtest.add_argument(
        "--deadline-ms",
        type=_nonnegative_float,
        default=None,
        metavar="MS",
        help="per-request deadline sent as X-Repro-Deadline-Ms "
        "(default: the server's own default; 0 opts out)",
    )
    loadtest.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="budgeted client retries per request with exponential "
        "backoff + full jitter, honouring Retry-After (default 0)",
    )
    loadtest.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the text summary",
    )
    loadtest.set_defaults(handler=_cmd_loadtest)

    return parser


def _add_memory_budget_flags(parser: argparse.ArgumentParser) -> None:
    """Shard-residency flags shared by ``search`` and ``serve``.

    Both are no-ops on flat and spectral artifacts (loaded whole); on a
    sharded index they configure LRU eviction and compact bound tables
    with answers bitwise identical to the unbudgeted engine.
    """
    from repro.core.bounds import BOUND_TABLE_DTYPES

    parser.add_argument(
        "--memory-budget-mb",
        type=_positive_float,
        default=None,
        metavar="MB",
        help="cap a sharded index's evictable shard-state bytes; least-"
        "recently-used shards are evicted back to their mmap loaders and "
        "re-faulted on demand (default: everything stays resident; no-op "
        "on flat/spectral indexes; answers are identical at any budget)",
    )
    parser.add_argument(
        "--bounds-dtype",
        choices=BOUND_TABLE_DTYPES,
        default="float64",
        help="bound-table representation kept resident per shard: float64 "
        "(exact, default), float32 or int8 (compact, with certified exact "
        "fallback for clusters within quantization error of the pruning "
        "threshold; answers are identical under any setting)",
    )


def _add_feature_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=DATASET_NAMES, help="built-in synthetic dataset"
    )
    source.add_argument("--features", help="path to a dense (n, m) .npy matrix")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset size multiplier"
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed")


def _load_features(args: argparse.Namespace) -> np.ndarray:
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed).features
    features = np.load(args.features, allow_pickle=False)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got shape {features.shape}")
    return np.asarray(features, dtype=np.float64)


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'points':>8s} {'dims':>6s} {'classes':>8s}")
    for name in DATASET_NAMES:
        dataset = load_dataset(name, scale=args.scale, seed=args.seed)
        print(
            f"{name:10s} {dataset.n_points:8d} {dataset.n_dims:6d} "
            f"{dataset.n_classes:8d}"
        )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    features = _load_features(args)
    started = time.perf_counter()
    graph = build_knn_graph(features, k=args.k, jobs=args.jobs)
    graph_seconds = time.perf_counter() - started
    started = time.perf_counter()
    build_kwargs = dict(
        alpha=args.alpha,
        factorization="complete" if args.exact else "incomplete",
        fill_level=0 if args.exact else args.fill_level,
        jobs=args.jobs,
        factor_backend=args.factor_backend,
    )
    if args.shards is not None:
        index = ShardedMogulIndex.build(graph, args.shards, **build_kwargs)
    else:
        index = MogulIndex.build(graph, **build_kwargs)
    index_seconds = time.perf_counter() - started
    if index.profile is not None:
        # Account graph construction in the same table, ahead of the
        # stages the index build recorded itself.
        index.profile.stages = {"graph": graph_seconds, **index.profile.stages}
    index.save(args.out)
    shard_note = (
        f" ({index.n_shards} shards)" if args.shards is not None else ""
    )
    print(
        f"indexed {graph.n_nodes} nodes ({graph.n_edges} edges) in "
        f"{graph_seconds:.2f}s graph + {index_seconds:.2f}s index"
        f"{shard_note} -> {args.out}"
    )
    if index.profile is not None:
        print(index.profile.to_text())
    if args.spectral_rank is not None:
        from repro.core.serialize import save_spectral_index, spectral_tier_path
        from repro.core.spectral import SpectralIndex

        started = time.perf_counter()
        tier = SpectralIndex.build(graph, rank=args.spectral_rank, alpha=args.alpha)
        spectral_seconds = time.perf_counter() - started
        sidecar = save_spectral_index(tier, spectral_tier_path(args.out))
        print(
            f"spectral tier rank {tier.rank} in {spectral_seconds:.2f}s "
            f"-> {sidecar}"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    from repro.core.spectral import SpectralIndex

    if isinstance(index, SpectralIndex):
        return _spectral_info(index)
    sharded = isinstance(index, ShardedMogulIndex)
    if args.verbose:
        if sharded:
            # Full health diagnostics assume the single-index layout;
            # degrade to the standard report rather than failing.
            print("(--verbose diagnostics cover single-index layouts; "
                  "showing the standard report)")
        else:
            from repro.core.diagnostics import diagnose_index

            print(diagnose_index(index).to_text())
            return 0
    perm = index.permutation
    border = perm.border_slice
    interior = [sl.stop - sl.start for sl in perm.cluster_slices[:-1]]
    print(f"nodes:            {index.n_nodes}")
    print(f"alpha:            {index.alpha}")
    print(f"factorization:    {index.factorization}")
    print(f"clusters:         {index.n_clusters} (border last)")
    print(f"border size:      {border.stop - border.start}")
    if interior:
        print(f"interior sizes:   min {min(interior)} / max {max(interior)}")
    print(f"factor non-zeros: {index.factor_nnz} (strict lower)")
    if sharded:
        print(f"pivot guards hit: {index.pivot_perturbations}")
        layout = index.layout
        print(
            f"shard layout:     {index.n_shards} shards + shared border "
            f"block of {index.border_size} nodes "
            f"({index.border_rows.nnz} border nnz)"
        )
        for shard_id, ((start, stop), (c_lo, c_hi)) in enumerate(
            zip(layout.spans, layout.cluster_ranges)
        ):
            print(
                f"  shard {shard_id}:        n={stop - start} "
                f"clusters={c_hi - c_lo} nnz={index.shard_nnz(shard_id)}"
            )
    else:
        # Legacy single-file layout: everything lives in one shard.
        print(f"pivot guards hit: {index.factors.pivot_perturbations}")
        print("shard layout:     1 shard (legacy single-file index)")
    profile = index.profile
    if profile is not None:
        if profile.stages:
            print("build profile:")
            print(profile.to_text())
        elif profile.load_seconds is not None:
            print(f"loaded in:        {profile.load_seconds:.3f}s")
            for warning in profile.load_warnings:
                print(f"load warning:     {warning}")
    from repro.core.serialize import is_spectral_index_path, spectral_tier_path

    sidecar = spectral_tier_path(args.index)
    if is_spectral_index_path(sidecar):
        # The artifact carries a nomination tier: serve composes the
        # tiered engine (accuracy dial) from it automatically.
        print(f"spectral tier:    {sidecar}")
    from repro.core.serialize import load_live_state

    state = load_live_state(args.index)
    if state is not None:
        # A mutable deployment's write-ahead sidecar: show the mutation
        # totals next to the (static) artifact they apply to.
        print("live state:")
        print(f"  epoch:          {state.epoch}")
        print(f"  pending:        {state.pending_ids.shape[0]}")
        print(f"  tombstones:     {state.tombstones.shape[0]}")
        print(
            f"  mutations:      {state.inserts} inserts / "
            f"{state.deletes} deletes / {state.rebuilds} rebuilds"
        )
        print(f"  live nodes:     {state.n_total - state.tombstones.shape[0]}")
    return 0


def _spectral_info(index) -> int:
    """The ``info`` report for a standalone spectral artifact."""
    print(f"nodes:            {index.n_nodes}")
    print(f"alpha:            {index.alpha}")
    print(f"factorization:    {index.factorization}")
    print(f"spectral rank:    {index.rank}")
    print(f"clusters:         {index.n_clusters}")
    print(f"basis non-zeros:  {index.factor_nnz} (dense n x r)")
    profile = index.profile
    if profile is not None:
        if profile.stages:
            print("build profile:")
            print(profile.to_text())
        elif profile.load_seconds is not None:
            print(f"loaded in:        {profile.load_seconds:.3f}s")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    index = load_any_index(args.index)
    features = _load_features(args)
    graph = build_knn_graph(features, k=args.knn)
    dial = {}
    if args.accuracy is not None:
        dial["accuracy"] = args.accuracy
    if args.m is not None:
        dial["m"] = args.m
    spectral = None
    if dial:
        from repro.core.serialize import load_spectral_tier

        spectral = load_spectral_tier(args.index)
        if spectral is None:
            raise ValueError(
                f"--accuracy/--m need a spectral tier next to {args.index}; "
                "build one with `build --spectral-rank R`"
            )
    ranker = engine_from_index(
        graph,
        index,
        spectral=spectral,
        query_jobs=args.query_jobs,
        memory_budget_mb=args.memory_budget_mb,
        bounds_dtype=args.bounds_dtype,
    )
    label = ranker.resolve_accuracy(**dial)[0] if dial else None
    if args.batch:
        # Batch queries are independent; repeats are answered repeatedly.
        return _search_batch(
            ranker, list(args.query), args.k, as_json=args.json, dial=dial
        )
    queries = list(dict.fromkeys(args.query))  # de-dup, keep order (multi-seed)
    started = time.perf_counter()
    if len(queries) == 1:
        result = ranker.top_k(queries[0], args.k, **dial)
    else:
        if dial:
            raise ValueError(
                "the accuracy dial applies to single-node or --batch "
                "queries; multi-seed queries stay on the exact engine"
            )
        result = ranker.top_k_multi(np.asarray(queries), args.k)
    elapsed = time.perf_counter() - started
    if args.json:
        from repro.service.encoding import search_result_payload

        extra = {} if label is None else {"accuracy": label}
        print(
            json.dumps(
                search_result_payload(
                    result,
                    args.k,
                    ranker.last_stats,
                    query=queries[0] if len(queries) == 1 else queries,
                    latency_ms=1e3 * elapsed,
                    **extra,
                ),
                indent=2,
            )
        )
        return 0
    dial_note = "" if label is None else f" [{label}]"
    print(
        f"query {queries} -> top-{len(result)}{dial_note} "
        f"in {1e3 * elapsed:.2f} ms"
    )
    for rank, (node, score) in enumerate(zip(result.indices, result.scores), 1):
        print(f"{rank:4d}  node {int(node):8d}  score {float(score):.6e}")
    return 0


def _search_batch(
    ranker,
    queries: list[int],
    k: int,
    as_json: bool = False,
    dial: dict | None = None,
) -> int:
    """Answer every ``--query`` independently in one batched engine pass."""
    dial = dial or {}
    started = time.perf_counter()
    results = ranker.top_k_batch(np.asarray(queries), k, **dial)
    elapsed = time.perf_counter() - started
    if as_json:
        from repro.service.encoding import search_result_payload, stats_to_dict

        batch_stats = ranker.last_batch_stats
        document = {
            "k": k,
            "elapsed_ms": 1e3 * elapsed,
            "results": [
                search_result_payload(result, k, stats, query=int(query))
                for query, result, stats in zip(
                    queries, results, batch_stats.per_query
                )
            ],
            "totals": stats_to_dict(batch_stats.totals),
        }
        if dial:
            document["accuracy"] = ranker.resolve_accuracy(**dial)[0]
        print(json.dumps(document, indent=2))
        return 0
    per_query = 1e3 * elapsed / len(queries)
    print(
        f"batch of {len(queries)} queries -> top-{k} each in "
        f"{1e3 * elapsed:.2f} ms ({per_query:.2f} ms/query)"
    )
    batch_stats = ranker.last_batch_stats
    for query, result, stats in zip(queries, results, batch_stats.per_query):
        print(
            f"query {query}: pruned {stats.clusters_pruned}/"
            f"{stats.clusters_total} clusters "
            f"({100.0 * stats.prune_fraction:.0f}%), "
            f"{stats.nodes_scored} nodes scored"
        )
        for rank, (node, score) in enumerate(zip(result.indices, result.scores), 1):
            print(f"{rank:4d}  node {int(node):8d}  score {float(score):.6e}")
    totals = batch_stats.totals
    print(
        f"batch totals: pruned {totals.clusters_pruned}/"
        f"{totals.clusters_pruned + totals.clusters_scored} eligible clusters "
        f"({100.0 * batch_stats.prune_fraction:.0f}%), "
        f"{totals.nodes_scored} nodes scored, "
        f"{totals.bound_evaluations} bound evaluations"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.faults import FaultInjector
    from repro.service.server import run_server

    if args.faults:
        faults = FaultInjector.parse(args.faults)
    else:
        faults = FaultInjector.from_env()

    def _overload_kwargs() -> dict:
        return dict(
            request_timeout_ms=args.request_timeout_ms or None,
            max_queue_depth=args.max_queue_depth or None,
            overload_policy=args.overload_policy,
            max_queue_delay_ms=args.max_queue_delay_ms,
            max_body_bytes=args.max_body_bytes,
            faults=faults,
        )

    index = load_any_index(args.index)
    features = _load_features(args)
    graph = build_knn_graph(features, k=args.knn)
    from repro.core.serialize import (
        is_spectral_index_path,
        load_spectral_tier,
        spectral_tier_path,
    )

    spectral = None
    if not args.mutable:
        # A spectral sidecar next to the artifact turns the deployment
        # into a tiered engine with the /search accuracy dial.  A mutable
        # deployment cannot use it (the tier cannot follow writes).
        spectral = load_spectral_tier(args.index)
    elif is_spectral_index_path(spectral_tier_path(args.index)):
        print(
            "ignoring spectral tier sidecar: a mutable deployment serves "
            "the exact engine only"
        )
    ranker = engine_from_index(
        graph,
        index,
        live=args.mutable,
        live_kwargs=dict(
            k=args.knn,
            auto_rebuild_fraction=args.auto_rebuild_fraction or None,
        ),
        spectral=spectral,
        query_jobs=args.query_jobs,
        memory_budget_mb=args.memory_budget_mb,
        bounds_dtype=args.bounds_dtype,
    )
    if spectral is not None:
        print(
            f"spectral tier: rank {spectral.rank}, accuracy dial on "
            "/search (fast/balanced/exact or m=<budget>)"
        )
    if not args.mutable:
        run_server(
            ranker,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            cache_capacity=args.cache_capacity,
            tracing=not args.no_tracing,
            slowlog_capacity=args.slowlog_capacity,
            slow_threshold_ms=args.slow_threshold_ms,
            query_workers=args.query_workers,
            **_overload_kwargs(),
        )
        return 0

    from repro.core.serialize import load_live_state, save_live_state

    state = load_live_state(args.index)
    if state is not None:
        ranker.restore_mutable_state(state)
        print(
            f"restored live state: epoch {state.epoch}, "
            f"{state.pending_ids.shape[0]} pending, "
            f"{state.tombstones.shape[0]} tombstones"
        )
    try:
        run_server(
            ranker,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            cache_capacity=args.cache_capacity,
            tracing=not args.no_tracing,
            slowlog_capacity=args.slowlog_capacity,
            slow_threshold_ms=args.slow_threshold_ms,
            query_workers=args.query_workers,
            **_overload_kwargs(),
        )
    finally:
        # Let an in-flight background rebuild settle, then persist the
        # write-ahead state next to the (unchanged) index artifact.
        ranker.close()
        sidecar = save_live_state(args.index, ranker.mutable_state())
        print(f"saved live state -> {sidecar}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.service.client import run_load_test

    total = args.requests
    if total is None and args.duration is None:
        total = 256
    report = run_load_test(
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        total_requests=total,
        duration_seconds=args.duration,
        k=args.k,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        retries=args.retries,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    if not report.ok:
        print(
            f"loadtest FAILED: {report.n_errors} errors, "
            f"{report.n_empty} empty responses out of {report.n_requests}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    from repro.obs.trace import format_trace
    from repro.service.client import RetrievalClient

    with RetrievalClient(args.host, args.port) as client:
        document = client.slowlog()
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    recorder = document["slowlog"]
    policy = recorder["policy"]
    threshold = recorder.get("threshold_ms")
    print(
        f"slow-query flight recorder: policy={policy}"
        + (f" (>= {threshold:g} ms)" if threshold is not None else "")
        + f", retained {recorder['retained']}/{recorder['capacity']}, "
        f"seen {recorder['seen']} requests"
    )
    if not recorder.get("tracing", True):
        print("tracing is disabled on this server (--no-tracing)")
    entries = document["entries"][: max(0, args.limit)]
    for rank, entry in enumerate(entries, start=1):
        print(
            f"\n#{rank}  {entry['endpoint']}  {entry['latency_ms']:.2f} ms  "
            f"trace {entry['trace_id']}"
        )
        print(format_trace(entry["trace"]["root"], indent=1))
    if not entries:
        print("no slow queries recorded")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
