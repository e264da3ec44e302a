"""Request tracing, flight recorder, rolling quantiles, exposition hygiene.

The observability primitives behind the serving daemon's forensics:
per-request trace records (:mod:`repro.obs.reqtrace`), the bounded flight
recorder (:mod:`repro.obs.flight`), deterministic rolling latency
quantiles (:mod:`repro.obs.quantiles`), and the Prometheus text-format
guarantees the satellites tightened (one ``# HELP``/``# TYPE`` per family,
label-value escaping, structured log fields).
"""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder, process_rss_bytes
from repro.obs.logsetup import (
    RESERVED_FIELD_KEYS,
    configure_logging,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import (
    RollingQuantiles,
    nearest_rank,
    quantile_label,
)
from repro.obs.reqtrace import (
    RequestTrace,
    TraceStore,
    current_trace,
    new_trace_id,
    trace_event,
    use_trace,
    valid_trace_id,
)
from repro.obs.spans import get_collector, span


# ----------------------------------------------------------------------
# trace ids
# ----------------------------------------------------------------------


class TestTraceIds:
    def test_new_ids_are_unique_and_valid(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_trace_id(i) for i in ids)

    @pytest.mark.parametrize(
        "candidate", ["abc", "A-b_c.9", "x" * 128, "ci-serve-smoke"]
    )
    def test_accepts_safe_client_ids(self, candidate):
        assert valid_trace_id(candidate)

    @pytest.mark.parametrize(
        "candidate",
        ["", "has space", "x" * 129, 'quo"te', "new\nline", "semi;colon"],
    )
    def test_rejects_unsafe_client_ids(self, candidate):
        assert not valid_trace_id(candidate)


# ----------------------------------------------------------------------
# RequestTrace / use_trace / trace_event
# ----------------------------------------------------------------------


class TestRequestTrace:
    def test_events_accumulate_in_causal_order(self):
        trace = RequestTrace("t1", "/v1/search")
        trace.event("first", tier="memory")
        trace.event("second")
        offsets = [e["t"] for e in trace.events]
        assert [e["name"] for e in trace.events] == ["first", "second"]
        assert offsets == sorted(offsets)
        assert all(t >= 0.0 for t in offsets)
        assert trace.events[0]["attrs"] == {"tier": "memory"}

    def test_finish_freezes_duration_idempotently(self):
        trace = RequestTrace("t2", "/v1/search")
        trace.finish(200, outcome="memory")
        first_duration = trace.duration_ms
        assert first_duration is not None and first_duration >= 0.0
        time.sleep(0.002)
        trace.finish(200)
        assert trace.duration_ms == first_duration
        assert trace.outcome == "memory"  # not clobbered by outcome=None

    def test_to_dict_schema(self):
        trace = RequestTrace("t3", "/v1/plans")
        trace.key = "abc123"
        trace.event("e")
        with use_trace(trace):
            with span("search"):
                pass
        trace.finish(200, outcome="computed")
        record = trace.to_dict()
        assert set(record) == {
            "trace_id", "endpoint", "started_unix", "duration_ms",
            "status", "outcome", "key", "events", "spans",
        }
        assert record["key"] == "abc123"
        assert record["spans"][0]["name"] == "search"
        # Span starts and event offsets share the request's clock.
        assert record["spans"][0]["start"] >= record["events"][0]["t"]
        # Deep-ish copies: mutating the record must not touch the trace.
        record["events"][0]["name"] = "mutated"
        assert trace.events[0]["name"] == "e"

    def test_use_trace_installs_and_restores(self):
        assert current_trace() is None and get_collector() is None
        trace_event("dropped")  # no-op outside any request
        outer = RequestTrace("outer", "/a")
        inner = RequestTrace("inner", "/b")
        with use_trace(outer):
            assert current_trace() is outer
            assert get_collector() is outer.collector
            trace_event("on-outer", n=1)
            with use_trace(inner):
                assert current_trace() is inner
                assert get_collector() is inner.collector
                trace_event("on-inner")
                with span("inner-work"):
                    pass
            assert current_trace() is outer
            assert get_collector() is outer.collector
        assert current_trace() is None and get_collector() is None
        assert [e["name"] for e in outer.events] == ["on-outer"]
        assert [e["name"] for e in inner.events] == ["on-inner"]
        assert [s["name"] for s in inner.to_dict()["spans"]] == ["inner-work"]
        # A trace's spans also land in the enclosing collector.
        assert [s["path"] for s in outer.to_dict()["spans"]] == ["inner-work"]

    def test_use_trace_restores_after_exception(self):
        trace = RequestTrace("t", "/a")
        with pytest.raises(RuntimeError):
            with use_trace(trace):
                raise RuntimeError("boom")
        assert current_trace() is None and get_collector() is None


class TestTraceStore:
    def test_wraparound_drops_oldest(self):
        store = TraceStore(max_entries=3)
        for i in range(5):
            store.put({"trace_id": f"t{i}", "n": i})
        assert len(store) == 3
        assert store.get("t0") is None
        assert store.get("t1") is None
        assert [store.get(f"t{i}")["n"] for i in (2, 3, 4)] == [2, 3, 4]

    def test_duplicate_id_replaces_and_refreshes_position(self):
        store = TraceStore(max_entries=2)
        store.put({"trace_id": "a", "n": 1})
        store.put({"trace_id": "b", "n": 2})
        store.put({"trace_id": "a", "n": 3})  # refresh: "b" is now oldest
        store.put({"trace_id": "c", "n": 4})
        assert store.get("b") is None
        assert store.get("a")["n"] == 3
        assert store.get("c")["n"] == 4

    def test_get_missing_is_none(self):
        assert TraceStore().get("no-such-trace") is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(max_entries=0)


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------


class TestFlightRecorder:
    def test_request_ring_wraparound_counts_dropped(self):
        recorder = FlightRecorder(max_requests=3, snapshot_interval=0)
        for i in range(5):
            recorder.record_request({"trace_id": f"t{i}"})
        dump = recorder.dump(take_snapshot=False)
        assert dump["schema"] == FLIGHT_SCHEMA
        assert dump["max_requests"] == 3
        assert dump["requests_dropped"] == 2
        assert [r["trace_id"] for r in dump["requests"]] == ["t2", "t3", "t4"]

    def test_dump_takes_a_fresh_snapshot_by_default(self):
        recorder = FlightRecorder(snapshot_interval=0)
        dump = recorder.dump()
        assert len(dump["snapshots"]) == 1
        snap = dump["snapshots"][0]
        assert snap["rss_bytes"] >= 0
        assert snap["threads"] >= 1

    def test_snapshot_provider_fields_are_merged(self):
        recorder = FlightRecorder(
            snapshot_interval=0,
            snapshot_provider=lambda: {"lru_entries": 7, "queued": 0},
        )
        snap = recorder.snapshot()
        assert snap["lru_entries"] == 7
        assert snap["queued"] == 0

    def test_snapshot_provider_errors_do_not_kill_sampling(self):
        def broken():
            raise RuntimeError("provider bug")

        recorder = FlightRecorder(
            snapshot_interval=0, snapshot_provider=broken
        )
        snap = recorder.snapshot()
        assert "RuntimeError" in snap["provider_error"]
        assert snap["rss_bytes"] >= 0  # base fields survived

    def test_snapshot_ring_is_bounded(self):
        recorder = FlightRecorder(max_snapshots=2, snapshot_interval=0)
        for _ in range(4):
            recorder.snapshot()
        assert len(recorder.dump(take_snapshot=False)["snapshots"]) == 2

    def test_background_sampler_runs_and_stops(self):
        recorder = FlightRecorder(snapshot_interval=0.01)
        recorder.start()
        try:
            deadline = time.monotonic() + 10.0
            while len(recorder.dump(take_snapshot=False)["snapshots"]) < 2:
                assert time.monotonic() < deadline, "sampler never sampled"
                time.sleep(0.005)
        finally:
            recorder.stop()
        recorder.stop()  # idempotent
        assert recorder._thread is None

    def test_start_is_noop_when_interval_disabled(self):
        recorder = FlightRecorder(snapshot_interval=0)
        assert recorder.start() is recorder
        assert recorder._thread is None

    def test_dump_is_json_serializable(self):
        recorder = FlightRecorder(snapshot_interval=0)
        recorder.record_request({"trace_id": "t", "status": 200})
        json.dumps(recorder.dump())

    def test_rejects_bad_capacities(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_requests=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_snapshots=0)

    def test_process_rss_is_plausible(self):
        rss = process_rss_bytes()
        # A running python interpreter is at least a few MiB resident.
        assert rss > 1 << 20


# ----------------------------------------------------------------------
# RollingQuantiles
# ----------------------------------------------------------------------


def _bench_percentile(samples, q):
    """The estimator ``benchmarks/bench_serve.py`` reports, verbatim."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class TestRollingQuantiles:
    def test_matches_bench_percentile_exactly(self):
        # Deterministic but unordered sequence.
        values = [((i * 7919) % 101) / 10.0 for i in range(57)]
        rolling = RollingQuantiles(window=100)
        for v in values:
            rolling.observe(v)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert rolling.quantile(q) == _bench_percentile(values, q)

    def test_window_evicts_oldest(self):
        rolling = RollingQuantiles(window=4)
        for v in range(10):
            rolling.observe(float(v))
        assert rolling.count == 10
        snap = rolling.snapshot()
        assert snap["window"] == 4.0
        # Only 6..9 remain, so even p0-ish quantiles never see 0..5.
        assert rolling.quantile(0.0) == 6.0
        assert rolling.quantile(1.0) == 9.0

    def test_snapshot_schema(self):
        rolling = RollingQuantiles(window=8)
        assert rolling.snapshot() == {
            "count": 0.0, "window": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
        rolling.observe(3.0)
        snap = rolling.snapshot()
        assert snap["count"] == 1.0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 3.0

    def test_nearest_rank_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0.0

    def test_quantile_labels(self):
        assert quantile_label(0.5) == "p50"
        assert quantile_label(0.95) == "p95"
        assert quantile_label(0.999) == "p99.9"

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            RollingQuantiles(window=0)
        with pytest.raises(ValueError):
            RollingQuantiles(quantiles=(1.5,))


# ----------------------------------------------------------------------
# Prometheus exposition hygiene
# ----------------------------------------------------------------------


class TestPrometheusHygiene:
    def test_help_and_type_once_per_family_before_samples(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests", endpoint="/healthz").inc()
        registry.counter("serve.requests", endpoint="/v1/search").inc(2)
        registry.counter("serve.requests", endpoint="/metrics").inc()
        registry.histogram("serve.wait", buckets=(0.1,), kind="a").observe(0.05)
        registry.histogram("serve.wait", buckets=(0.1,), kind="b").observe(0.2)
        lines = registry.to_prometheus().splitlines()
        for family in ("primepar_serve_requests", "primepar_serve_wait"):
            help_lines = [
                i for i, l in enumerate(lines)
                if l.startswith(f"# HELP {family} ")
            ]
            type_lines = [
                i for i, l in enumerate(lines)
                if l.startswith(f"# TYPE {family} ")
            ]
            samples = [
                i for i, l in enumerate(lines)
                if l.startswith(family) and not l.startswith("#")
            ]
            assert len(help_lines) == 1, family
            assert len(type_lines) == 1, family
            assert help_lines[0] < type_lines[0] < min(samples)

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "odd", path='C:\\tmp', note='say "hi"\nbye'
        ).inc()
        text = registry.to_prometheus()
        assert r'path="C:\\tmp"' in text
        assert r'note="say \"hi\"\nbye"' in text
        assert "\nbye" not in text.replace(r"\nbye", "")  # no raw newline

    def test_help_text_escaping_and_describe(self):
        registry = MetricsRegistry()
        # describe() before the family exists parks the text...
        registry.describe("early", 'line1\nline2 \\ "quoted"')
        registry.counter("early").inc()
        # ...and after the family exists attaches immediately.
        registry.counter("late").inc()
        registry.describe("late", "late help")
        lines = registry.to_prometheus().splitlines()
        assert r'# HELP primepar_early line1\nline2 \\ "quoted"' in lines
        assert "# HELP primepar_late late help" in lines

    def test_default_help_names_the_kind(self):
        registry = MetricsRegistry()
        registry.gauge("undescribed").set(1)
        assert (
            "# HELP primepar_undescribed gauge undescribed"
            in registry.to_prometheus().splitlines()
        )


# ----------------------------------------------------------------------
# structured log fields
# ----------------------------------------------------------------------


class TestLogFields:
    def _configured(self, json_mode):
        stream = io.StringIO()
        logger = configure_logging(
            level="info", json_mode=json_mode, stream=stream
        )
        return logger, stream

    def test_json_lines_merge_fields_at_top_level(self):
        logger, stream = self._configured(json_mode=True)
        logger.info(
            "GET /healthz -> 200",
            extra={"fields": {
                "trace_id": "abc123", "duration_ms": 1.25, "status": 200,
            }},
        )
        record = json.loads(stream.getvalue().strip())
        assert record["trace_id"] == "abc123"
        assert record["duration_ms"] == 1.25
        assert record["status"] == 200
        assert record["message"] == "GET /healthz -> 200"
        # Schema-stable: keys are emitted sorted.
        raw = stream.getvalue().strip()
        keys = list(json.loads(raw))
        assert keys == sorted(keys)

    def test_fields_cannot_shadow_base_schema(self):
        logger, stream = self._configured(json_mode=True)
        logger.info(
            "real message",
            extra={"fields": {key: "spoofed" for key in RESERVED_FIELD_KEYS}},
        )
        record = json.loads(stream.getvalue().strip())
        assert record["message"] == "real message"
        assert record["level"] == "info"
        assert "spoofed" not in record.values()

    def test_text_mode_appends_sorted_pairs(self):
        logger, stream = self._configured(json_mode=False)
        logger.info(
            "done", extra={"fields": {"z": 1, "a": 2}}
        )
        line = stream.getvalue().strip()
        assert line.endswith("done a=2 z=1")

    def teardown_method(self):
        # Leave the shared "repro" logger quiet for other tests.
        root = logging.getLogger("repro")
        root.handlers = []
        root.setLevel(logging.WARNING)
