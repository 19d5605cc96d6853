"""LRU result cache for served top-k queries.

Retrieval traffic is heavy-tailed — popular queries repeat — and a Mogul
answer is a pure function of (query, k, index), so caching is safe as
long as the index does not change.  :class:`ResultCache` keys entries by
the full query identity (node id or feature bytes, plus k and any
ranking parameters), counts hits and misses, and exposes
:meth:`invalidate` for the moment the index *does* change:
:meth:`attach` registers that invalidation with a
:class:`repro.core.LiveEngine` so inserts, deletes and rebuilds
drop every cached answer.

Thread-safe (single lock around the ordered dict): the scheduler probes
from the event loop while the worker thread fills.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Hashable

import numpy as np


class ResultCache:
    """A bounded LRU map from query identity to served result.

    ``capacity=0`` disables caching entirely (every ``get`` misses, every
    ``put`` is a no-op) — useful for load tests that must measure the
    engine, not the cache.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._generation = 0

    # -- keys ------------------------------------------------------------

    @staticmethod
    def node_key(node: int, k: int, **params: Hashable) -> Hashable:
        """Cache key for an in-database query."""
        return ("node", int(node), int(k), tuple(sorted(params.items())))

    @staticmethod
    def feature_key(feature: np.ndarray, k: int, **params: Hashable) -> Hashable:
        """Cache key for an out-of-sample query feature vector.

        The vector is digested (not stored): two requests hit the same
        entry iff their features are bitwise identical.
        """
        digest = hashlib.sha1(
            np.ascontiguousarray(feature, dtype=np.float64).tobytes()
        ).hexdigest()
        return ("oos", digest, int(k), tuple(sorted(params.items())))

    # -- access ----------------------------------------------------------

    def get(self, key: Hashable):
        """The cached value, bumped to most-recent; ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(
        self, key: Hashable, value: object, generation: int | None = None
    ) -> None:
        """Insert (or refresh) an entry, evicting the least recent at capacity.

        ``generation`` closes the compute/invalidate race: pass the value
        of :attr:`generation` observed *before* computing ``value``, and
        the insert is silently dropped if :meth:`invalidate` ran in
        between — the computed answer describes an index state that no
        longer exists.
        """
        if self.capacity == 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every entry (the index changed under the cache)."""
        with self._lock:
            self._entries.clear()
            self.invalidations += 1
            self._generation += 1

    @property
    def generation(self) -> int:
        """Monotone counter, bumped by every :meth:`invalidate`."""
        with self._lock:
            return self._generation

    def attach(self, dynamic_ranker) -> None:
        """Invalidate automatically on every mutation of a dynamic database.

        ``dynamic_ranker`` is a :class:`repro.core.LiveEngine`;
        its ``add`` / ``remove`` / ``rebuild`` all change what a correct
        answer is, so each triggers :meth:`invalidate`.
        """
        dynamic_ranker.add_invalidation_listener(self.invalidate)

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Hit/miss accounting as a JSON-serialisable dict."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "invalidations": self.invalidations,
            }
