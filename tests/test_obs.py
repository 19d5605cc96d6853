"""Unit tests for the observability primitives (repro.obs).

Covers the Trace/Span tree, the thread-local ambient context, the no-op
fast path, the flight recorder's two retention policies, and the
Prometheus text exposition renderer.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import (
    NOOP,
    Span,
    Trace,
    activate,
    add_span,
    current,
    format_trace,
    span,
)
from repro.service.metrics import ServiceMetrics

pytestmark = pytest.mark.timeout(60)


# -- spans and traces -------------------------------------------------------


class TestSpan:
    def test_child_nesting_and_durations(self):
        root = Span("request")
        with root:
            with span("stage.a"):
                pass
            with span("stage.b") as b:
                with span("stage.b.inner"):
                    pass
                assert b is not NOOP
        root.end()
        names = [node.name for node in root.walk()]
        assert names == ["request", "stage.a", "stage.b", "stage.b.inner"]
        for node in root.walk():
            assert node.ended is not None
            assert node.duration_seconds >= 0.0

    def test_ambient_restored_after_exit(self):
        assert current() is NOOP
        outer = Span("outer")
        with outer:
            assert current() is outer
            with span("inner") as inner:
                assert current() is inner
            assert current() is outer
        assert current() is NOOP

    def test_span_without_ambient_is_noop_singleton(self):
        assert span("anything") is NOOP
        assert add_span("anything") is NOOP
        # The no-op absorbs the full surface without allocating state.
        with NOOP as node:
            assert node.child("x") is NOOP
            node.annotate(a=1)
            node.attach(Span("y"))
            node.end()

    def test_add_span_records_given_interval(self):
        root = Span("request")
        node = root.add_span("waited", started=10.0, ended=10.5, lane="node")
        assert node.started == 10.0
        assert node.ended == 10.5
        assert node.duration_seconds == pytest.approx(0.5)
        assert node.meta == {"lane": "node"}

    def test_attach_grafts_finished_subtree(self):
        shared = Span("engine.dispatch")
        with activate(shared):
            with span("solve"):
                pass
        shared.end()
        first, second = Span("request-1"), Span("request-2")
        first.attach(shared)
        second.attach(shared)
        for root in (first, second):
            assert [n.name for n in root.walk()] == [
                root.name,
                "engine.dispatch",
                "solve",
            ]

    def test_end_is_idempotent(self):
        node = Span("x")
        node.end()
        first = node.ended
        node.end()
        assert node.ended == first

    def test_to_dict_offsets_relative_to_root(self):
        root = Span("request", started=100.0)
        child = root.add_span("stage", started=100.25, ended=100.5)
        assert child is not None
        root.ended = 101.0
        tree = root.to_dict()
        assert tree["start_ms"] == 0.0
        assert tree["duration_ms"] == pytest.approx(1000.0)
        (child_doc,) = tree["children"]
        assert child_doc["start_ms"] == pytest.approx(250.0)
        assert child_doc["duration_ms"] == pytest.approx(250.0)

    def test_activation_is_thread_local(self):
        root = Span("root")
        seen = {}

        def other_thread():
            seen["ambient"] = current()

        with root:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["ambient"] is NOOP

    def test_concurrent_children_are_all_recorded(self):
        root = Span("root")
        n_threads, per_thread = 8, 50

        def worker(tid):
            with activate(root):
                for i in range(per_thread):
                    with span(f"t{tid}.{i}"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        root.end()
        assert len(list(root.walk())) == 1 + n_threads * per_thread


class TestTrace:
    def test_trace_ids_unique_and_finish(self):
        first, second = Trace("search"), Trace("search")
        assert first.trace_id != second.trace_id
        assert len(first.trace_id) == 16
        first.finish()
        assert first.root.ended is not None

    def test_span_names_and_stage_durations(self):
        trace = Trace("search", query=3)
        trace.root.add_span("scheduler.wait", started=0.0, ended=0.1)
        trace.finish()
        assert trace.span_names() == {"search", "scheduler.wait"}
        stages = trace.stage_durations()
        assert stages[0][0] == "search"
        assert dict(stages)["scheduler.wait"] == pytest.approx(0.1)

    def test_to_dict_is_json_ready(self):
        import json

        trace = Trace("search")
        with activate(trace.root):
            with span("stage", n=3):
                pass
        trace.finish()
        document = trace.to_dict()
        json.dumps(document)  # must not raise
        assert document["trace_id"] == trace.trace_id
        assert document["root"]["children"][0]["meta"] == {"n": 3}

    def test_format_trace_renders_every_line(self):
        trace = Trace("search")
        trace.root.add_span("scheduler.wait", started=0.0, ended=0.002)
        trace.finish()
        text = format_trace(trace.to_dict()["root"])
        assert "search" in text and "scheduler.wait" in text
        assert "ms" in text


# -- flight recorder --------------------------------------------------------


def _trace_dict(trace_id="abc123"):
    return {"trace_id": trace_id, "created_at": 0.0, "duration_ms": 1.0, "root": {}}


class TestFlightRecorder:
    def test_slowest_policy_keeps_the_worst(self):
        recorder = FlightRecorder(capacity=3)
        for ms in (5, 1, 9, 3, 7, 2):
            recorder.record("search", ms / 1e3, _trace_dict(f"t{ms}"))
        retained = [entry["latency_ms"] for entry in recorder.snapshot()]
        assert retained == [9.0, 7.0, 5.0]
        assert recorder.stats()["policy"] == "slowest"
        assert recorder.stats()["seen"] == 6

    def test_fast_requests_skip_rendering(self):
        class Exploding:
            def to_dict(self):  # pragma: no cover - must never run
                raise AssertionError("rendered a skipped trace")

        recorder = FlightRecorder(capacity=1)
        assert recorder.record("search", 1.0, _trace_dict())
        # Faster than the retained floor: rejected before rendering.
        assert not recorder.record("search", 0.5, Exploding())

    def test_threshold_policy_is_recent_fifo(self):
        recorder = FlightRecorder(capacity=2, threshold_ms=10.0)
        assert not recorder.record("search", 0.005, _trace_dict("fast"))
        for name, ms in (("a", 20), ("b", 30), ("c", 40)):
            assert recorder.record("search", ms / 1e3, _trace_dict(name))
        entries = recorder.snapshot()
        assert {entry["trace_id"] for entry in entries} == {"b", "c"}
        assert recorder.stats()["policy"] == "threshold"

    def test_zero_capacity_disables(self):
        recorder = FlightRecorder(capacity=0)
        assert not recorder.record("search", 10.0, _trace_dict())
        assert recorder.snapshot() == []
        assert len(recorder) == 0

    def test_clear_keeps_counters(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("search", 0.5, _trace_dict())
        recorder.clear()
        assert recorder.snapshot() == []
        assert recorder.stats()["recorded"] == 1

    def test_records_live_trace_objects(self):
        recorder = FlightRecorder(capacity=2)
        trace = Trace("search")
        trace.finish()
        assert recorder.record("search", 0.25, trace)
        (entry,) = recorder.snapshot()
        assert entry["trace_id"] == trace.trace_id
        assert entry["trace"]["root"]["name"] == "search"

    def test_concurrent_recording_is_bounded(self):
        recorder = FlightRecorder(capacity=8)

        def worker(offset):
            for i in range(100):
                recorder.record("search", (offset + i) / 1e3, _trace_dict())

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorder) == 8
        assert recorder.stats()["seen"] == 400

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)
        with pytest.raises(ValueError):
            FlightRecorder(threshold_ms=-2.0)


# -- prometheus exposition --------------------------------------------------


class TestPrometheus:
    def _metrics(self):
        metrics = ServiceMetrics()
        metrics.record_request("search", 0.010)
        metrics.record_request("search", 0.020)
        metrics.record_request("search_oos", 0.030)
        metrics.record_batch(4)
        metrics.record_stage("tier.nominate", 0.001)
        return metrics

    def test_families_and_values(self):
        text = render_prometheus(self._metrics(), queue_depth=3)
        lines = text.splitlines()
        assert "repro_requests_total 3" in lines
        assert "repro_queue_depth 3" in lines
        assert "repro_batches_total 1" in lines
        # HELP/TYPE declared once per family, before the samples.
        assert lines.index("# TYPE repro_requests_total counter") < lines.index(
            "repro_requests_total 3"
        )
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative_and_monotone(self):
        text = render_prometheus(self._metrics())
        buckets = [
            line
            for line in text.splitlines()
            if line.startswith("repro_request_latency_seconds_bucket")
            and 'endpoint="search"' in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1].startswith(
            'repro_request_latency_seconds_bucket{endpoint="search",le="+Inf"}'
        )
        assert counts[-1] == 2
        assert 'repro_request_latency_seconds_count{endpoint="search"} 2' in text

    def test_le_bounds_sorted_within_family(self):
        text = render_prometheus(self._metrics())
        bounds = []
        for line in text.splitlines():
            if (
                line.startswith("repro_request_latency_seconds_bucket")
                and 'endpoint="search"' in line
                and 'le="+Inf"' not in line
            ):
                le = line.split('le="')[1].split('"')[0]
                bounds.append(float(le))
        assert bounds == sorted(bounds)

    def test_stage_histograms_exposed(self):
        text = render_prometheus(self._metrics())
        assert 'repro_stage_duration_seconds_count{stage="tier.nominate"} 1' in text

    def test_optional_sections(self):
        cache = {"hits": 5, "misses": 2, "invalidations": 1, "size": 4}
        text = render_prometheus(
            self._metrics(),
            cache_stats=cache,
            slowlog_stats={"recorded": 9},
        )
        assert "repro_cache_hits_total 5" in text
        assert "repro_slowlog_recorded_total 9" in text
        assert "repro_tier_" not in text

    def test_label_escaping(self):
        metrics = ServiceMetrics()
        metrics.record_stage('we"ird\nstage\\name', 0.001)
        text = render_prometheus(metrics)
        assert 'stage="we\\"ird\\nstage\\\\name"' in text
