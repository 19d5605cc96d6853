"""Two-tier serving: spectral nomination, exact Mogul re-rank.

:class:`TieredEngine` composes an approximate
:class:`repro.core.spectral.SpectralEngine` with an exact engine
(:class:`repro.core.MogulRanker` or
:class:`repro.core.ShardedMogulRanker`): the spectral tier nominates the
``m`` highest-scoring candidates with one GEMV, and the exact tier
re-ranks exactly those candidates through the candidate-restricted
search (``top_k_rerank``), which pays the seed/border substitutions but
visits only candidate-owning clusters.  Answer scores are therefore
bitwise the exact engine's scores; approximation can only *omit* a true
answer the spectral tier failed to nominate, and the recall of that
nomination is what ``m`` dials:

* ``accuracy="fast"`` — ``m = max(4k, 32)``: smallest candidate sets,
  highest q/s, lowest recall.
* ``accuracy="balanced"`` (default) — ``m = max(16k, 128)``: recall@10
  indistinguishable from exact on the benchmark graphs.
* ``accuracy="exact"`` — bypass the spectral tier entirely and delegate
  to the exact engine; answers are bitwise identical to serving it
  directly.
* explicit ``m`` — any candidate budget; ``m >= n`` degenerates to an
  exact answer (every node is a candidate).

The engine implements the full :class:`repro.core.Engine` protocol, so
the scheduler, server, cache and eval harness serve it unchanged; every
entry point takes the extra ``accuracy=`` / ``m=`` dial, and per-level
counters (queries, per-tier seconds, candidate counts, measured
nomination recall) are exposed through :meth:`TieredEngine.tier_counters`
for ``/metrics`` and ``/stats``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.batch import BatchStats
from repro.core.out_of_sample import build_query_seeds, build_query_seeds_batch
from repro.core.search import SearchStats
from repro.obs.trace import span as obs_span
from repro.core.spectral import SpectralEngine, nominate_from_scores
from repro.linalg.spectral import project_seeds, spectral_scores
from repro.ranking.base import Ranker, TopKResult, ambient_stat
from repro.utils.validation import check_positive_int

#: The named positions of the accuracy dial.
ACCURACY_PRESETS = ("fast", "balanced", "exact")

#: The dial position used when a query does not specify one.
DEFAULT_ACCURACY = "balanced"


def preset_candidates(accuracy: str, k: int) -> int:
    """Candidate budget ``m`` of a named preset for an order-k query."""
    if accuracy == "fast":
        return max(4 * k, 32)
    if accuracy == "balanced":
        return max(16 * k, 128)
    raise ValueError(f"preset {accuracy!r} has no candidate budget")


class TieredEngine(Ranker):
    """Spectral-nominate / exact-re-rank engine with a per-query dial.

    Parameters
    ----------
    base:
        The exact engine (``MogulRanker`` or ``ShardedMogulRanker``); it
        must expose the candidate-restricted ``top_k_rerank`` family.
    spectral:
        The nomination tier, built over the same graph.
    default_accuracy:
        Dial position used when a query passes neither ``accuracy`` nor
        ``m``.
    """

    #: Per-tier timing of this thread's most recent call (any entry point).
    last_tier_breakdown = ambient_stat(
        "last_tier_breakdown",
        "Per-tier timing of this thread's most recent call (``None`` "
        "before the first).",
    )

    def __init__(
        self,
        base: Ranker,
        spectral: SpectralEngine,
        default_accuracy: str = DEFAULT_ACCURACY,
    ):
        if base.n_nodes != spectral.n_nodes:
            raise ValueError(
                f"base engine covers {base.n_nodes} nodes but the spectral "
                f"tier covers {spectral.n_nodes}"
            )
        if not hasattr(base, "top_k_rerank"):
            raise ValueError(
                f"base engine {base.name!r} has no candidate-restricted "
                "re-rank entry point (top_k_rerank)"
            )
        if default_accuracy not in ACCURACY_PRESETS:
            raise ValueError(
                f"unknown accuracy level {default_accuracy!r}; expected one "
                f"of {ACCURACY_PRESETS}"
            )
        super().__init__(base.graph, base.alpha)
        self.base = base
        self.spectral = spectral
        self.default_accuracy = default_accuracy
        self.name = f"Tiered({spectral.name}->{base.name})"
        # Ambient stats (thread-local descriptors via Ranker): reads of
        # self.base.last_* below happen on the thread that made the base
        # call, so delegation stays race-free under concurrent queries.
        self.last_stats = None
        self.last_batch_stats = None
        self.last_breakdown = None
        self.last_tier_breakdown = None
        self._counter_lock = threading.Lock()
        self._counters: dict[str, dict[str, float]] = {}

    @property
    def index(self):
        """The exact tier's index (uniform ``/stats`` surface)."""
        return self.base.index

    # -- the accuracy dial ------------------------------------------------

    def resolve_accuracy(
        self, accuracy: str | None = None, m: int | None = None
    ) -> tuple[str, dict]:
        """Canonicalise a dial request into ``(label, engine_kwargs)``.

        The label is the identity of the accuracy level — it keys the
        result cache and the scheduler's coalescing lanes, so two
        requests share an answer only when they share a label.  Explicit
        ``m`` wins over a preset name and labels as ``"m=<value>"``.
        """
        if accuracy is not None and m is not None:
            raise ValueError("pass either accuracy or m, not both")
        if m is not None:
            m = int(m)
            if m < 1:
                raise ValueError(f"m must be >= 1, got {m}")
            return f"m={m}", {"m": m}
        label = accuracy if accuracy is not None else self.default_accuracy
        if label not in ACCURACY_PRESETS:
            raise ValueError(
                f"unknown accuracy level {label!r}; expected one of "
                f"{ACCURACY_PRESETS} or an explicit m"
            )
        return label, {"accuracy": label}

    def _candidate_budget(self, label: str, m: int | None, k: int) -> int:
        budget = int(m) if m is not None else preset_candidates(label, k)
        # Never nominate fewer candidates than answers, never more than
        # the database holds.
        return min(max(budget, k), self.n_nodes)

    def _record(
        self,
        label: str,
        spectral_seconds: float,
        rerank_seconds: float,
        candidates: int,
        recall_sum: float,
        queries: int = 1,
    ) -> None:
        with self._counter_lock:
            entry = self._counters.setdefault(
                label,
                {
                    "queries": 0,
                    "spectral_seconds": 0.0,
                    "rerank_seconds": 0.0,
                    "candidates": 0,
                    "recall_sum": 0.0,
                },
            )
            entry["queries"] += queries
            entry["spectral_seconds"] += spectral_seconds
            entry["rerank_seconds"] += rerank_seconds
            entry["candidates"] += candidates
            entry["recall_sum"] += recall_sum
        self.last_tier_breakdown = {
            "accuracy": label,
            "queries": queries,
            "spectral_seconds": spectral_seconds,
            "rerank_seconds": rerank_seconds,
            "candidates": candidates,
        }

    def tier_counters(self) -> dict[str, dict[str, float]]:
        """Cumulative per-accuracy-level serving counters.

        One entry per accuracy label served so far: query count, seconds
        spent in each tier, total candidates nominated, and
        ``recall_sum`` — the summed per-query recall@k of the *spectral
        nomination* measured against the final (exact-over-candidates)
        answer, so ``recall_sum / queries`` is the mean measured
        nomination quality at that level (1.0 for ``exact``).
        """
        with self._counter_lock:
            return {
                label: dict(entry) for label, entry in self._counters.items()
            }

    @staticmethod
    def _nomination_recall(nominated_prefix, final: TopKResult) -> float:
        """Fraction of the final answers the spectral prefix already had."""
        if len(final) == 0:
            return 1.0
        prefix = set(int(node) for node in nominated_prefix)
        hits = sum(1 for node in final.indices if int(node) in prefix)
        return hits / len(final)

    # -- scoring ----------------------------------------------------------

    def scores(self, query: int) -> np.ndarray:
        """Exact full score vector (delegated to the exact tier)."""
        return self.base.scores(query)

    def scores_for_vector(self, q: np.ndarray) -> np.ndarray:
        """Exact scores for an arbitrary query vector (delegated)."""
        return self.base.scores_for_vector(q)

    # -- engine entry points ----------------------------------------------

    def top_k(
        self,
        query: int,
        k: int,
        exclude_query: bool = True,
        accuracy: str | None = None,
        m: int | None = None,
    ) -> TopKResult:
        """Dialed top-k: nominate with the spectral tier, re-rank exactly."""
        k = check_positive_int(k, "k")
        label, _ = self.resolve_accuracy(accuracy, m)
        if label == "exact":
            started = time.perf_counter()
            with obs_span("tier.exact", accuracy=label):
                result = self.base.top_k(query, k, exclude_query)
            self.last_stats = self.base.last_stats
            self._record(label, 0.0, time.perf_counter() - started, 0, 1.0)
            return result
        budget = self._candidate_budget(label, m, k)
        started = time.perf_counter()
        with obs_span("tier.nominate", accuracy=label, budget=budget) as node:
            nominated = self.spectral.nominate(query, budget, exclude_query)
            node.annotate(candidates=int(nominated.size))
        spectral_seconds = time.perf_counter() - started
        started = time.perf_counter()
        with obs_span("tier.rerank", accuracy=label):
            result = self.base.top_k_rerank(query, k, nominated, exclude_query)
        rerank_seconds = time.perf_counter() - started
        self.last_stats = self.base.last_stats
        self._record(
            label,
            spectral_seconds,
            rerank_seconds,
            nominated.size,
            self._nomination_recall(nominated[:k], result),
        )
        return result

    def top_k_batch(
        self,
        queries,
        k: int,
        exclude_query: bool = True,
        accuracy: str | None = None,
        m: int | None = None,
    ) -> list[TopKResult]:
        """Dialed batch: one spectral GEMM, one candidate-restricted pass."""
        k = check_positive_int(k, "k")
        label, _ = self.resolve_accuracy(accuracy, m)
        if label == "exact":
            started = time.perf_counter()
            with obs_span("tier.exact", accuracy=label, batch=len(queries)):
                results = self.base.top_k_batch(queries, k, exclude_query)
            self.last_batch_stats = self.base.last_batch_stats
            self._record(
                label,
                0.0,
                time.perf_counter() - started,
                0,
                float(len(results)),
                queries=len(results),
            )
            return results
        nodes = self._check_batch_queries(queries)
        if nodes.size == 0:
            self.last_batch_stats = BatchStats(per_query=())
            return []
        budget = self._candidate_budget(label, m, k)
        started = time.perf_counter()
        with obs_span(
            "tier.nominate", accuracy=label, budget=budget, batch=int(nodes.size)
        ):
            nominations = self.spectral.nominate_batch(nodes, budget, exclude_query)
        spectral_seconds = time.perf_counter() - started
        started = time.perf_counter()
        with obs_span("tier.rerank", accuracy=label, batch=int(nodes.size)):
            results = self.base.top_k_rerank_batch(
                nodes, k, nominations, exclude_query
            )
        rerank_seconds = time.perf_counter() - started
        self.last_batch_stats = self.base.last_batch_stats
        recall_sum = sum(
            self._nomination_recall(nominated[:k], result)
            for nominated, result in zip(nominations, results)
        )
        self._record(
            label,
            spectral_seconds,
            rerank_seconds,
            sum(nominated.size for nominated in nominations),
            recall_sum,
            queries=len(results),
        )
        return results

    def top_k_multi(
        self,
        queries,
        k: int,
        weights: np.ndarray | None = None,
        exclude_queries: bool = True,
    ) -> TopKResult:
        """Multi-seed queries stay on the exact tier (no dial)."""
        result = self.base.top_k_multi(queries, k, weights, exclude_queries)
        self.last_stats = self.base.last_stats
        return result

    def top_k_out_of_sample(
        self,
        feature: np.ndarray,
        k: int,
        n_probe: int = 1,
        accuracy: str | None = None,
        m: int | None = None,
    ) -> TopKResult:
        """Dialed out-of-sample query.

        The §4.6.2 seeding (nearest cluster, heat-kernel neighbour
        weights) runs **once** against the exact tier's routing tables;
        the same seed set then drives both the spectral nomination (via
        basis projection) and the exact re-rank — so ``exact`` and
        ``m = n`` answers are bitwise those of the exact engine.
        """
        k = check_positive_int(k, "k")
        label, _ = self.resolve_accuracy(accuracy, m)
        if label == "exact":
            started = time.perf_counter()
            with obs_span("tier.exact", accuracy=label):
                result = self.base.top_k_out_of_sample(feature, k, n_probe=n_probe)
            self.last_stats = self.base.last_stats
            self.last_breakdown = self.base.last_breakdown
            self._record(label, 0.0, time.perf_counter() - started, 0, 1.0)
            return result
        feature = np.asarray(feature, dtype=np.float64)
        if feature.shape != (self.graph.features.shape[1],):
            raise ValueError(
                f"feature must have shape ({self.graph.features.shape[1]},), "
                f"got {feature.shape}"
            )
        budget = self._candidate_budget(label, m, k)
        nn_started = time.perf_counter()
        with obs_span("tier.seed", n_probe=n_probe):
            seeds = build_query_seeds(
                feature,
                self.base.index.cluster_means,
                self.base.index.cluster_members,
                self.graph.features,
                n_neighbors=self.graph.k,
                sigma=self.graph.sigma,
                n_probe=n_probe,
            )
        nn_seconds = time.perf_counter() - nn_started
        started = time.perf_counter()
        with obs_span("tier.nominate", accuracy=label, budget=budget) as node:
            basis = self.spectral.index.basis
            projection = project_seeds(basis, seeds.nodes, seeds.weights)
            approx = spectral_scores(basis, self.alpha, projection)
            nominated = nominate_from_scores(approx, budget)
            node.annotate(candidates=int(nominated.size))
        spectral_seconds = time.perf_counter() - started
        started = time.perf_counter()
        with obs_span("tier.rerank", accuracy=label):
            result = self.base.top_k_rerank_seeded(
                seeds.nodes, seeds.weights, k, nominated
            )
        rerank_seconds = time.perf_counter() - started
        self.last_stats = self.base.last_stats
        self.last_breakdown = {
            "nearest_neighbor": nn_seconds,
            "top_k": spectral_seconds + rerank_seconds,
            "overall": nn_seconds + spectral_seconds + rerank_seconds,
        }
        self._record(
            label,
            spectral_seconds,
            rerank_seconds,
            nominated.size,
            self._nomination_recall(nominated[:k], result),
        )
        return result

    def top_k_out_of_sample_batch(
        self,
        features: np.ndarray,
        k: int,
        n_probe: int = 1,
        accuracy: str | None = None,
        m: int | None = None,
    ) -> list[TopKResult]:
        """Dialed batch of out-of-sample queries (shared seeding)."""
        k = check_positive_int(k, "k")
        label, _ = self.resolve_accuracy(accuracy, m)
        if label == "exact":
            started = time.perf_counter()
            with obs_span("tier.exact", accuracy=label, batch=len(features)):
                results = self.base.top_k_out_of_sample_batch(
                    features, k, n_probe=n_probe
                )
            self.last_batch_stats = self.base.last_batch_stats
            self._record(
                label,
                0.0,
                time.perf_counter() - started,
                0,
                float(len(results)),
                queries=len(results),
            )
            return results
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.graph.features.shape[1]:
            raise ValueError(
                f"features must have shape (b, {self.graph.features.shape[1]}), "
                f"got {features.shape}"
            )
        with obs_span("tier.seed", n_probe=n_probe, batch=len(features)):
            seeds_list = build_query_seeds_batch(
                features,
                self.base.index.cluster_means,
                self.base.index.cluster_members,
                self.graph.features,
                n_neighbors=self.graph.k,
                sigma=self.graph.sigma,
                n_probe=n_probe,
            )
        if not seeds_list:
            self.last_batch_stats = BatchStats(per_query=())
            return []
        budget = self._candidate_budget(label, m, k)
        started = time.perf_counter()
        with obs_span(
            "tier.nominate", accuracy=label, budget=budget, batch=len(seeds_list)
        ):
            basis = self.spectral.index.basis
            projections = np.stack(
                [
                    project_seeds(basis, seeds.nodes, seeds.weights)
                    for seeds in seeds_list
                ],
                axis=1,
            )
            approx = spectral_scores(basis, self.alpha, projections)
            nominations = [
                nominate_from_scores(approx[:, col], budget)
                for col in range(len(seeds_list))
            ]
        spectral_seconds = time.perf_counter() - started
        started = time.perf_counter()
        results: list[TopKResult] = []
        per_query: list[SearchStats] = []
        with obs_span("tier.rerank", accuracy=label, batch=len(seeds_list)):
            for seeds, nominated in zip(seeds_list, nominations):
                results.append(
                    self.base.top_k_rerank_seeded(
                        seeds.nodes, seeds.weights, k, nominated
                    )
                )
                per_query.append(self.base.last_stats)
        rerank_seconds = time.perf_counter() - started
        self.last_batch_stats = BatchStats(per_query=tuple(per_query))
        recall_sum = sum(
            self._nomination_recall(nominated[:k], result)
            for nominated, result in zip(nominations, results)
        )
        self._record(
            label,
            spectral_seconds,
            rerank_seconds,
            sum(nominated.size for nominated in nominations),
            recall_sum,
            queries=len(results),
        )
        return results
