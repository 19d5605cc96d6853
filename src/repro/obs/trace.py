"""Request tracing primitives: spans, traces and the ambient context.

The serving stack spans six layers (HTTP front end → micro-batching
scheduler → result cache → seed forward solve → border solve → cluster
scan); aggregate percentiles say *that* a p99
spike happened, a trace says *where*.  A :class:`Trace` is one request's
span tree: the server creates it, the scheduler records the coalescing
wait, and the engine worker activates it so instrumentation points deep
in :mod:`repro.core` attach their stage timings without any layer
threading a trace argument through its signature.

Design constraints, in order:

* **Near-zero cost when off.**  Instrumentation points call
  :func:`span` / :func:`add_span` unconditionally; when no trace is
  active on the calling thread they return a cached no-op singleton —
  one ``threading.local`` attribute read, no allocation.  The
  guarantee is that a server with tracing disabled is
  indistinguishable from one that never imported this module; the
  benchmark suite records the traced cost as ``obs.trace.overhead_share``.
* **Monotonic clocks.**  All span timestamps are ``time.perf_counter``
  values; wall-clock time appears only once, on the trace itself, for
  display.
* **Thread-safe.**  A trace is assembled by at least two threads (the
  asyncio event loop records the scheduler wait, the engine worker
  records the solve stages).  Structural mutation is a single
  ``list.append`` — atomic under the GIL — so spans carry no locks;
  readers snapshot ``children`` with ``list(...)`` before iterating.

Ambient context is **thread-local, not async-aware** on purpose: the
event loop interleaves many requests on one thread, so server-side spans
are attached explicitly (:meth:`Span.add_span`, :meth:`Span.attach`);
the ambient :func:`activate` / :func:`span` pair is used only inside the
engine worker thread, where one dispatch owns the thread end-to-end.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Iterator

_tls = threading.local()


class _NoopSpan:
    """The disabled-tracing singleton: absorbs every call, allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def child(self, name: str, **meta: object) -> "_NoopSpan":
        return self

    def add_span(self, name, started=None, ended=None, **meta) -> "_NoopSpan":
        return self

    def attach(self, span: object) -> None:
        pass

    def annotate(self, **meta: object) -> None:
        pass

    def end(self) -> None:
        pass


#: The module-wide no-op span; identity-comparable (``span is NOOP``).
NOOP = _NoopSpan()


class Span:
    """One timed stage of a request: a name, an interval, children.

    Spans form a tree; every timestamp is a ``time.perf_counter`` value.
    A span is usually used as a context manager (which also makes it the
    calling thread's ambient parent, so nested instrumentation points
    attach beneath it), but completed intervals can be added after the
    fact with :meth:`add_span` and whole finished subtrees grafted with
    :meth:`attach` — that is how the event loop stitches the engine
    worker's dispatch tree into each coalesced request's trace.
    """

    __slots__ = ("name", "meta", "started", "ended", "children", "_prev")

    def __init__(
        self,
        name: str,
        started: float | None = None,
        meta: dict | None = None,
    ):
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.started = time.perf_counter() if started is None else started
        self.ended: float | None = None
        self.children: list[Span] = []
        self._prev: object = None

    # -- construction ----------------------------------------------------

    def child(self, name: str, **meta: object) -> "Span":
        """Start a child span now (use as ``with parent.child("stage"):``)."""
        node = Span(name, meta=meta or None)
        self.children.append(node)  # atomic under the GIL
        return node

    def add_span(
        self,
        name: str,
        started: float | None = None,
        ended: float | None = None,
        **meta: object,
    ) -> "Span":
        """Attach an already-measured interval as a completed child.

        For stages whose endpoints were observed elsewhere (the
        scheduler's enqueue→dispatch wait, a lock hold measured under
        the lock): pass the ``perf_counter`` values directly.
        """
        now = time.perf_counter()
        node = Span(name, started=now if started is None else started, meta=meta or None)
        node.ended = now if ended is None else ended
        self.children.append(node)
        return node

    def attach(self, span: "Span") -> None:
        """Graft a finished span (sub)tree under this span."""
        self.children.append(span)

    # -- lifecycle -------------------------------------------------------

    def end(self) -> None:
        """Close the interval (idempotent; first close wins)."""
        if self.ended is None:
            self.ended = time.perf_counter()

    def annotate(self, **meta: object) -> None:
        """Merge metadata into the span (stats discovered mid-stage)."""
        self.meta.update(meta)

    def __enter__(self) -> "Span":
        self._prev = getattr(_tls, "span", None)
        _tls.span = self
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.end()
        _tls.span = self._prev
        self._prev = None
        return False

    # -- reading ---------------------------------------------------------

    @property
    def duration_seconds(self) -> float:
        """Span length; a still-open span measures up to now."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return max(0.0, end - self.started)

    def walk(self) -> "Iterator[Span]":
        """This span and every descendant, depth-first."""
        yield self
        for node in list(self.children):
            yield from node.walk()

    def to_dict(self, base: float | None = None) -> dict:
        """JSON-serialisable subtree, times relative to ``base`` (ms).

        ``base`` defaults to this span's own start, so a root span
        renders with ``start_ms = 0.0`` and children offset within it.
        """
        origin = self.started if base is None else base
        children = list(self.children)
        node = {
            "name": self.name,
            "start_ms": 1e3 * (self.started - origin),
            "duration_ms": 1e3 * self.duration_seconds,
        }
        if self.meta:
            node["meta"] = dict(self.meta)
        if children:
            node["children"] = [child.to_dict(base=origin) for child in children]
        return node


class Trace:
    """One request's trace: an id, a root span, and reporting helpers.

    Created per request by the server (when tracing is enabled), carried
    through the scheduler to the engine worker, finalised when the
    response is assembled.  The id travels back on every response as the
    ``X-Repro-Trace-Id`` header, so a client report ("this request was
    slow") can be joined against the slow-query flight recorder.
    """

    __slots__ = ("trace_id", "root", "created_at")

    def __init__(self, name: str = "request", **meta: object):
        self.trace_id = uuid.uuid4().hex[:16]
        self.created_at = time.time()
        self.root = Span(name, meta=meta or None)

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.root.end()

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def span_names(self) -> set[str]:
        """Every span name in the tree (assertion and test helper)."""
        return {span.name for span in self.root.walk()}

    def stage_durations(self) -> list[tuple[str, float]]:
        """``(name, seconds)`` for every span — the per-stage histogram feed."""
        return [
            (span.name, span.duration_seconds) for span in self.root.walk()
        ]

    def to_dict(self) -> dict:
        """The document served by ``?debug=trace`` and ``/debug/slow``."""
        return {
            "trace_id": self.trace_id,
            "created_at": self.created_at,
            "duration_ms": 1e3 * self.duration_seconds,
            "root": self.root.to_dict(),
        }


#: The per-request tracing context the server creates and the stack
#: carries; an alias — the context *is* the trace being assembled.
TraceContext = Trace


# -- ambient (thread-local) context ----------------------------------------


class _Activation:
    """Context manager making ``span`` the calling thread's ambient parent."""

    __slots__ = ("_span", "_prev")

    def __init__(self, span: Span | None):
        self._span = span
        self._prev: object = None

    def __enter__(self) -> Span | None:
        self._prev = getattr(_tls, "span", None)
        _tls.span = self._span
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        _tls.span = self._prev
        return False


def activate(span: Span | None) -> _Activation:
    """Make ``span`` the ambient parent for this thread (``None`` clears it).

    Used by the scheduler's engine worker: one dispatch activates its
    ``engine.dispatch`` span, and every :func:`span` call in the core
    modules beneath attaches to it.  Restores the previous ambient span
    on exit, so nested activations compose.
    """
    return _Activation(span)


def current() -> Span | _NoopSpan:
    """The calling thread's ambient span, or :data:`NOOP` when tracing is off."""
    node = getattr(_tls, "span", None)
    return NOOP if node is None else node


def span(name: str, **meta: object) -> Span | _NoopSpan:
    """Open a child of the ambient span (the core instrumentation point).

    ``with obs.span("solve.border"): ...`` — when no trace is active on
    this thread, returns the no-op singleton: one thread-local read, no
    allocation, nothing recorded.
    """
    parent = getattr(_tls, "span", None)
    if parent is None:
        return NOOP
    return parent.child(name, **meta)


def add_span(
    name: str,
    started: float | None = None,
    ended: float | None = None,
    **meta: object,
) -> Span | _NoopSpan:
    """Record an already-measured interval under the ambient span.

    The no-op rules of :func:`span` apply; for stages measured with
    their own ``perf_counter`` reads (lock waits, queue times).
    """
    parent = getattr(_tls, "span", None)
    if parent is None:
        return NOOP
    return parent.add_span(name, started=started, ended=ended, **meta)


def format_trace(tree: dict, indent: int = 0) -> str:
    """Render a :meth:`Span.to_dict` tree as indented text (CLI slowlog).

    ::

        request                      12.41 ms
          scheduler.wait              1.93 ms  batch_size=4
          engine.dispatch             9.80 ms  lane=node
            solve.seed_forward        0.77 ms
            solve.border              1.02 ms
            scan.clusters             8.01 ms
    """
    meta = tree.get("meta") or {}
    note = "  " + " ".join(f"{k}={v}" for k, v in meta.items()) if meta else ""
    lines = [
        f"{'  ' * indent}{tree['name']:<{max(1, 34 - 2 * indent)}s}"
        f"{tree['duration_ms']:10.2f} ms{note}"
    ]
    for child in tree.get("children", ()):
        lines.append(format_trace(child, indent + 1))
    return "\n".join(lines)
