"""Request tracing, the request ring, exposition hygiene.

The observability behind the serving daemon's forensics: per-request
trace records (:mod:`repro.obs.reqtrace`); the daemon's one ring of
finished ``/v1/*`` records (:mod:`repro.serve.server`), which answers
trace lookups, the ``/healthz`` nearest-rank quantiles and the
flight-recorder dump; and the Prometheus text-format guarantees (one
``# HELP``/``# TYPE`` per family, label-value escaping, structured log
fields).

The ring tests feed a never-started :class:`PlanServer` the way its
handler does when a request finishes, so every duration is exact.
"""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro.obs.logsetup import (
    RESERVED_FIELD_KEYS,
    configure_logging,
)
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    nearest_rank,
    use_registry,
)
from repro.obs.reqtrace import (
    RequestTrace,
    current_trace,
    new_trace_id,
    trace_event,
    use_trace,
    valid_trace_id,
)
from repro.obs.spans import get_collector, span
from repro.serve import PlanServer, PlanService, PlanStore, ServeConfig
from repro.serve.server import (
    FLIGHT_SCHEMA,
    REQUEST_RING_SIZE,
    SUMMARY_FIELDS,
)


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


# ----------------------------------------------------------------------
# the request ring
# ----------------------------------------------------------------------


@pytest.fixture()
def ring():
    """A never-started server (its ring and gauges are all the tests
    read), in a fresh metrics registry."""
    store = PlanStore(max_entries=4, use_disk=False)
    with use_registry(MetricsRegistry()):
        yield PlanServer(ServeConfig(port=0), service=PlanService(store=store))


def _finish(server, trace_id, duration_ms=1.0, endpoint="/v1/search"):
    """Hand ``server`` one finished request, as its handler does."""
    trace = RequestTrace(trace_id, endpoint)
    trace.duration_ms = duration_ms
    trace.finish(200, outcome="memory")
    server.complete_request(trace)


def _bench_percentile(samples, q):
    """The estimator ``benchmarks/bench_serve.py`` reports, verbatim."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class TestTraceStore:
    """``GET /v1/traces/<id>``: the newest ring record with that id."""

    def test_wraparound_drops_oldest(self, ring):
        for i in range(REQUEST_RING_SIZE + 2):
            _finish(ring, f"t{i}", duration_ms=float(i))
        assert ring.trace("t0") is None
        assert ring.trace("t1") is None
        for i in (2, REQUEST_RING_SIZE + 1):
            assert ring.trace(f"t{i}")["duration_ms"] == float(i)

    def test_duplicate_id_replaces_and_refreshes_position(self, ring):
        _finish(ring, "a", duration_ms=1.0)
        _finish(ring, "b", duration_ms=2.0)
        _finish(ring, "a", duration_ms=3.0)  # a client reusing its id
        assert ring.trace("a")["duration_ms"] == 3.0
        # The first "a" and then "b" fall off; the newest "a" stays.
        for i in range(REQUEST_RING_SIZE - 1):
            _finish(ring, f"filler-{i}")
        assert ring.trace("b") is None
        assert ring.trace("a")["duration_ms"] == 3.0

    def test_get_missing_is_none(self, ring):
        assert ring.trace("no-such-trace") is None

    def test_only_v1_requests_enter_the_ring(self, ring):
        _finish(ring, "kept", endpoint="/v1/plans")
        for endpoint in ("/healthz", "/metrics", "(unrouted)"):
            for i in range(REQUEST_RING_SIZE + 1):
                _finish(ring, f"poll-{i}", endpoint=endpoint)
        assert ring.trace("kept")["endpoint"] == "/v1/plans"
        assert ring.trace("poll-0") is None
        assert ring.flight_dump()["requests_dropped"] == 0


class TestFlightRecorder:
    """``GET /debug/flightrecorder`` and the SIGUSR1 dump."""

    def test_request_ring_wraparound_counts_dropped(self, ring):
        for i in range(REQUEST_RING_SIZE):
            _finish(ring, f"t{i}")
        assert ring.flight_dump()["requests_dropped"] == 0
        _finish(ring, f"t{REQUEST_RING_SIZE}")  # the 257th evicts t0
        dump = ring.flight_dump()
        assert dump["schema"] == FLIGHT_SCHEMA == 2
        assert dump["max_requests"] == REQUEST_RING_SIZE == 256
        assert dump["requests_dropped"] == 1
        assert [r["trace_id"] for r in dump["requests"]] == [
            f"t{i}" for i in range(1, REQUEST_RING_SIZE + 1)
        ]

    def test_dump_carries_the_current_health(self, ring):
        _finish(ring, "t", duration_ms=4.0)
        health = ring.flight_dump()["health"]
        assert health == ring.health()
        assert health["status"] == "ok"
        assert health["latency_ms"]["/v1/search"]["p95"] == 4.0

    def test_dump_is_json_serializable(self, ring):
        _finish(ring, "t")
        dump = json.loads(json.dumps(ring.flight_dump()))
        assert "snapshots" not in dump
        assert [tuple(r) for r in dump["requests"]] == [SUMMARY_FIELDS]
        assert dump["requests"][0]["outcome"] == "memory"


class TestRollingQuantiles:
    """``/healthz`` ``latency_ms`` and ``slo``: nearest-rank over the ring."""

    def test_matches_bench_percentile_exactly(self, ring):
        # Deterministic but unordered sequence.
        values = [((i * 7919) % 101) / 10.0 for i in range(57)]
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert nearest_rank(sorted(values), q) == _bench_percentile(
                values, q
            )
        for i, value in enumerate(values):
            _finish(ring, f"t{i}", duration_ms=value)
        latency = ring.latency_snapshot()["/v1/search"]
        slo = ring.slo_status()
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert latency[label] == _bench_percentile(values, q)
            assert slo[f"{label}_ms"] == latency[label]

    def test_window_evicts_oldest(self, ring):
        for i in range(REQUEST_RING_SIZE + 44):
            _finish(ring, f"t{i}", duration_ms=float(i))
        latency = ring.latency_snapshot()["/v1/search"]
        kept = [float(i) for i in range(44, REQUEST_RING_SIZE + 44)]
        assert latency["count"] == REQUEST_RING_SIZE
        assert latency["p50"] == nearest_rank(kept, 0.5)
        assert latency["p99"] == nearest_rank(kept, 0.99)

    def test_endpoint_window_is_its_share_of_the_ring(self, ring):
        for i in range(REQUEST_RING_SIZE):
            _finish(ring, f"s{i}", duration_ms=float(i))
        for i in range(100):
            _finish(ring, f"p{i}", 1000.0 + i, endpoint="/v1/plans")
        latency = ring.latency_snapshot()
        search = [float(i) for i in range(100, REQUEST_RING_SIZE)]
        plans = [1000.0 + i for i in range(100)]
        assert latency["/v1/search"]["count"] == len(search) == 156
        assert latency["/v1/plans"]["count"] == 100
        assert latency["/v1/search"]["p95"] == nearest_rank(search, 0.95)
        assert latency["/v1/plans"]["p95"] == nearest_rank(plans, 0.95)
        assert ring.slo_status()["p95_ms"] == nearest_rank(
            sorted(search + plans), 0.95
        )

    def test_gauges_publish_the_snapshot(self, ring):
        for i in range(10):
            _finish(ring, f"t{i}", duration_ms=float(i))
        latency = ring.latency_snapshot()["/v1/search"]
        for label in ("p50", "p95", "p99"):
            gauge = get_registry().gauge(
                "serve.latency_ms", endpoint="/v1/search", quantile=label
            )
            assert gauge.value == latency[label]

    def test_snapshot_schema(self, ring):
        assert ring.latency_snapshot() == {}
        assert ring.slo_status() == {
            "status": "disabled", "target_p95_ms": 0.0, "count": 0,
            "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
        }
        _finish(ring, "t", duration_ms=3.0)
        assert ring.latency_snapshot() == {
            "/v1/search": {"count": 1, "p50": 3.0, "p95": 3.0, "p99": 3.0},
        }

    def test_nearest_rank_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0.0


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
