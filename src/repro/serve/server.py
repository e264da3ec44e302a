"""The plan-serving daemon: a dependency-free HTTP/JSON front-end.

``primepar serve`` wraps a :class:`PlanService` in a stdlib
``ThreadingHTTPServer`` — one thread per connection, shared plan store,
single-flight coalescing and admission control behind it.  Endpoints:

* ``POST /v1/search``   — body: :class:`~repro.api.SearchRequest` fields
  (+ optional ``deadline`` seconds); returns the plan payload with ``key``
  and ``source``.  A body key no request field declares is a 400.
* ``POST /v1/simulate`` — search body + ``layers``; replays the plan on the
  event engine and returns latency/throughput/memory/breakdown, the
  utilization summary and the replayed plan.
* ``POST /v1/explain``  — search body + ``links`` flag; returns the plan's
  cost decomposition (:mod:`repro.core.explain`) whose component fold
  equals the stored cost bit-exactly.
* ``POST /v1/robustness`` — search body plus a fault model (``faults``
  spec string or JSON object), ``scenarios``, ``seed`` and an
  ``objective``; returns the plan's Monte-Carlo
  :class:`~repro.sim.faults.RobustnessReport` with tail percentiles.

The three derived endpoints also take ``plan`` (``primepar``, the
searched plan, or ``megatron``).
* ``GET /v1/plans/<key>`` — a previously computed payload by content hash
  (404 on miss).
* ``GET /v1/traces/<id>`` — the newest finished request record for a
  trace id (404 once it ages out of the request ring).
* ``GET /healthz``      — liveness + occupancy snapshot + per-endpoint
  latency quantiles and SLO status over the request ring; 503 while
  draining.
* ``GET /metrics``      — the current metrics registry in Prometheus text
  exposition format (straight from :mod:`repro.obs`).
* ``GET /debug/flightrecorder`` — the request ring's summary fields plus
  the current ``/healthz`` state (also dumped to a temp file on SIGUSR1).

**The request ring.** The daemon keeps the records of its last
:data:`REQUEST_RING_SIZE` finished ``/v1/*`` requests in one bounded ring,
and every reader above reads it: trace lookup by id (newest first), the
``/healthz`` quantiles (nearest-rank over each endpoint's share of the
ring, and over the whole ring for the SLO) and the flight-recorder dump.
A record's ``endpoint`` is its route label (``/v1/plans``, not
``/v1/plans/<key>``); ``/healthz``, ``/metrics`` and unrouted requests
never enter the ring, so polling cannot evict a trace.

**Tracing.** Every request gets a trace id — the client's
``X-PrimePar-Trace-Id`` header when well-formed, a fresh uuid otherwise —
whose record and span collector are the handler's telemetry scope for the
request's whole causal path (plan-store tiers, admission wait, coalescing,
its own search and replay spans, never a concurrent request's).  Appending
``?debug=trace`` to any ``/v1/*`` call inlines the full record into the
response under ``"trace"``; finished ``/v1/*`` records stay retrievable
from ``GET /v1/traces/<id>`` until the request ring wraps.  Handler
threads start from the context that started the server, so for
``primepar serve`` their metrics, searches' included, land in the process
registry ``/metrics`` exports.

Overload surfaces as HTTP 429 (queue full) or 503 (slot/deadline timeout),
both with a ``Retry-After`` header.  Shutdown is graceful: SIGTERM/SIGINT
stop the accept loop, in-flight requests drain (bounded by
``drain_timeout``), then the listener closes.

Every request is logged structured (method, path, status, plus
``trace_id``/``duration_ms``/``endpoint``/``status`` fields) through
:mod:`repro.obs.logsetup`; per-endpoint latency histograms
(``serve.request_seconds``), request counters (``serve.requests``), an
in-flight gauge (``serve.http_inflight``) and the request ring's
latency-quantile gauges (``serve.latency_ms``, refreshed at scrape time)
land in the metrics registry.
"""

from __future__ import annotations

import contextvars
import json
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..api import (
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    ServeConfig,
    SimulateRequest,
    ValidationError,
)
from ..core.optimizer.deadline import SearchDeadlineExceeded
from ..obs.logsetup import get_logger
from ..obs.metrics import (
    counter,
    describe,
    gauge,
    get_registry,
    histogram,
    nearest_rank,
)
from ..obs.reqtrace import (
    RequestTrace,
    current_trace,
    new_trace_id,
    use_trace,
    valid_trace_id,
)
from .admission import AdmissionController, AdmissionRejected
from .service import PlanService
from .store import PlanStore, default_store

logger = get_logger("serve.server")

#: Largest accepted request body (a search request is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Latency buckets sized for LRU hits (sub-ms) through cold searches.
LATENCY_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 30.0, 120.0,
)

#: ``POST`` routes: the :class:`PlanService` entry that validates and runs
#: each request type's body.
ROUTES = {
    SearchRequest.endpoint: "search_from_request",
    SimulateRequest.endpoint: "simulate_from_request",
    ExplainRequest.endpoint: "explain_from_request",
    RobustnessRequest.endpoint: "robustness_from_request",
}

#: The trace-id request header the daemon honours (case-insensitive).
TRACE_HEADER = "X-PrimePar-Trace-Id"

#: Finished ``/v1/*`` request records the daemon keeps (oldest evicted).
REQUEST_RING_SIZE = 256

#: Latency quantiles ``/healthz`` reports: ``(label, q)``.
QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))

#: Schema version of the flight-recorder dump.
FLIGHT_SCHEMA = 2

#: The record fields a flight-recorder dump lists per request.
SUMMARY_FIELDS = (
    "trace_id", "endpoint", "started_unix", "duration_ms", "status",
    "outcome", "key",
)

#: ``# HELP`` text for the serving layer's metric families.
METRIC_HELP = {
    "serve.requests": "HTTP requests by endpoint and status.",
    "serve.request_seconds": "End-to-end HTTP request latency by endpoint.",
    "serve.http_inflight": "HTTP requests currently being handled.",
    "serve.active": "Admitted computations currently holding a slot.",
    "serve.queued": "Requests currently waiting for an execution slot.",
    "serve.queue_wait_seconds":
        "Time admitted requests spent waiting for a slot (0 = fast path).",
    "serve.rejected": "Requests refused by admission control, by reason.",
    "serve.coalesced": "Requests answered by another caller's computation.",
    "serve.searches": "Plan searches actually executed.",
    "serve.simulations": "Simulation replays actually executed.",
    "serve.explains": "Cost decompositions actually executed.",
    "serve.robustness": "Monte-Carlo robustness evaluations executed.",
    "serve.latency_ms":
        "HTTP latency quantiles (ms) by endpoint over the request ring.",
    "plan_store.lookups": "Plan-store lookups by tier (memory/disk/miss).",
}


class _PlanHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    #: The context (telemetry scope) of the thread that started serving.
    context: contextvars.Context

    def process_request_thread(self, request, client_address) -> None:
        self.context.copy().run(
            super().process_request_thread, request, client_address
        )


class PlanServer:
    """Lifecycle owner: bind, serve in a thread, drain, close.

    Usable in-process (tests, benchmarks)::

        server = PlanServer(ServeConfig(port=0)).start()
        ...  # point a PlanClient at server.url
        server.shutdown()

    or as a blocking daemon via :meth:`run_until_signal`.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        service: Optional[PlanService] = None,
    ) -> None:
        self.config = config or ServeConfig()
        if service is None:
            store = default_store(self.config.lru_size)
            admission = AdmissionController(
                max_concurrent=self.config.max_concurrent,
                max_queue=self.config.queue_depth,
                retry_after=self.config.retry_after,
            )
            service = PlanService(
                store=store,
                admission=admission,
                jobs=self.config.jobs,
                default_deadline=self.config.deadline or None,
            )
        self.service = service
        self._requests: deque = deque(maxlen=REQUEST_RING_SIZE)
        self._requests_dropped = 0
        self._requests_lock = threading.Lock()
        self._httpd: Optional[_PlanHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drained = threading.Condition(self._inflight_lock)
        self._draining = False
        self._stop_requested = threading.Event()
        for name, text in METRIC_HELP.items():
            describe(name, text)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "PlanServer":
        """Bind (``port=0`` picks an ephemeral port) and serve in a thread."""
        if self._httpd is not None:
            raise RuntimeError("server already started")
        handler = _make_handler(self)
        self._httpd = _PlanHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="primepar-serve",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving on http://%s:%d", self.host, self.port)
        return self

    @property
    def host(self) -> str:
        if self._httpd is None:
            return self.config.host
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def request_stop(self) -> None:
        """Ask :meth:`run_until_signal` to exit (signal-handler safe)."""
        self._stop_requested.set()

    def shutdown(self, drain: bool = True) -> bool:
        """Stop accepting, optionally drain in-flight requests, close.

        Returns ``True`` when every in-flight request finished inside
        ``drain_timeout`` (or draining was skipped with none in flight).
        """
        if self._httpd is None:
            return True
        self._draining = True
        self._httpd.shutdown()  # stops the accept loop, waits for it
        drained = True
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            with self._drained:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        drained = False
                        break
                    self._drained.wait(timeout=remaining)
        if not drained:
            logger.warning(
                "drain timeout (%.1fs) with %d request(s) still in flight",
                self.config.drain_timeout, self.inflight(),
            )
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        logger.info(
            "server stopped (drained=%s, inflight=%d)", drained, self.inflight()
        )
        return drained

    def run_until_signal(self) -> int:
        """Block until SIGTERM/SIGINT (or :meth:`request_stop`), then drain.

        Returns a process exit code: 0 on a clean drain, 1 otherwise.
        Must be called from the main thread (signal handlers).
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, self._on_signal)
        if hasattr(signal, "SIGUSR1"):
            previous[signal.SIGUSR1] = signal.signal(
                signal.SIGUSR1, self._on_sigusr1
            )
        try:
            self._stop_requested.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        logger.info("shutdown requested; draining")
        return 0 if self.shutdown(drain=True) else 1

    def _on_signal(self, signum, frame) -> None:
        self._stop_requested.set()

    def _on_sigusr1(self, signum, frame) -> None:
        self.dump_flight_recorder()

    def dump_flight_recorder(self) -> Optional[str]:
        """Write the flight-recorder dump to a temp file; returns its path."""
        path = os.path.join(
            tempfile.gettempdir(), f"primepar-flight-{os.getpid()}.json"
        )
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    self.flight_dump(), handle, indent=1, sort_keys=True
                )
        except Exception:
            logger.exception("flight-recorder dump to %s failed", path)
            return None
        logger.info("flight recorder dumped to %s", path)
        return path

    # -- the request ring ----------------------------------------------

    def complete_request(self, trace: RequestTrace) -> None:
        """Keep one finished request's record when it is a ``/v1/*`` one."""
        if not trace.endpoint.startswith("/v1/"):
            return
        record = trace.to_dict()
        with self._requests_lock:
            if len(self._requests) == REQUEST_RING_SIZE:
                self._requests_dropped += 1
            self._requests.append(record)

    def finished_requests(self) -> List[Dict[str, Any]]:
        """The ring's records, oldest first."""
        with self._requests_lock:
            return list(self._requests)

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The newest record for ``trace_id`` in the ring, or ``None``."""
        for record in reversed(self.finished_requests()):
            if record["trace_id"] == trace_id:
                return record
        return None

    def latency_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-endpoint latency quantiles in ms over the ring, publishing
        the ``serve.latency_ms`` gauges as a side effect (scrape time)."""
        durations: Dict[str, List[float]] = {}
        for record in self.finished_requests():
            durations.setdefault(record["endpoint"], []).append(
                record["duration_ms"]
            )
        snapshots = {
            endpoint: _quantiles(values)
            for endpoint, values in sorted(durations.items())
        }
        for endpoint, snap in snapshots.items():
            for label, _ in QUANTILES:
                gauge(
                    "serve.latency_ms", endpoint=endpoint, quantile=label
                ).set(snap[label])
        return snapshots

    def slo_status(self) -> Dict[str, Any]:
        """The ring's p95 over every ``/v1/*`` record vs. the target."""
        snap = _quantiles(r["duration_ms"] for r in self.finished_requests())
        target = self.config.slo_p95_ms
        status = "disabled"
        if target > 0:
            breached = snap["count"] and snap["p95"] > target
            status = "breach" if breached else "ok"
        return {
            "status": status,
            "target_p95_ms": target,
            "count": snap["count"],
            **{f"{label}_ms": snap[label] for label, _ in QUANTILES},
        }

    def health(self) -> Dict[str, Any]:
        """Occupancy plus the ring's latency quantiles and SLO status: the
        ``/healthz`` body (which answers only ``draining`` once shutdown
        starts)."""
        return {
            "status": "draining" if self.draining else "ok",
            "inflight": self.inflight(),
            "active_searches": self.service.admission.active,
            "queued_searches": self.service.admission.waiting,
            "plan_store": self.service.store.stats(),
            "latency_ms": self.latency_snapshot(),
            "slo": self.slo_status(),
        }

    def flight_dump(self) -> Dict[str, Any]:
        """The ring's summary fields (oldest first) and the ``/healthz``
        state now: ``GET /debug/flightrecorder`` and the SIGUSR1 dump."""
        with self._requests_lock:
            records = list(self._requests)
            dropped = self._requests_dropped
        return {
            "schema": FLIGHT_SCHEMA,
            "generated_unix": time.time(),
            "max_requests": REQUEST_RING_SIZE,
            "requests_dropped": dropped,
            "requests": [
                {field: record[field] for field in SUMMARY_FIELDS}
                for record in records
            ],
            "health": self.health(),
        }

    # -- request accounting (handler callbacks) ------------------------

    def _enter_request(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            gauge("serve.http_inflight").set(self._inflight)

    def _exit_request(self) -> None:
        with self._drained:
            self._inflight -= 1
            gauge("serve.http_inflight").set(self._inflight)
            if self._inflight == 0:
                self._drained.notify_all()


def _quantiles(durations: Iterable[float]) -> Dict[str, float]:
    """Sample count and nearest-rank :data:`QUANTILES` of ``durations``."""
    ordered = sorted(durations)
    return {
        "count": len(ordered),
        **{label: nearest_rank(ordered, q) for label, q in QUANTILES},
    }


def _make_handler(server: PlanServer):
    """A handler class bound to one :class:`PlanServer` instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "primepar-serve/1.0"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------

        def log_message(self, format: str, *args) -> None:
            logger.debug("http: " + format, *args)

        def _send_json(
            self,
            status: int,
            payload: Dict[str, Any],
            retry_after: Optional[float] = None,
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After", str(max(1, round(retry_after))))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, text: str) -> None:
            body = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> Dict[str, Any]:
            declared = self.headers.get("Content-Length") or "0"
            length = int(declared) if declared.isdecimal() else -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # The unread body would be parsed as the next request.
                self.close_connection = True
                if length < 0:
                    raise ValidationError(
                        f"invalid Content-Length {declared!r}"
                    )
                raise ValidationError(
                    f"request body too large ({length} > {MAX_BODY_BYTES})"
                )
            raw = self.rfile.read(length) if length else b"{}"
            try:
                body = json.loads(raw or b"{}")
            except ValueError as exc:
                raise ValidationError(f"invalid JSON body: {exc}") from exc
            if not isinstance(body, dict):
                raise ValidationError("request body must be a JSON object")
            return body

        # -- dispatch --------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            self._dispatch("POST")

        def _trace_for_request(self) -> RequestTrace:
            """Adopt the client's trace id when well-formed, else mint one."""
            supplied = self.headers.get(TRACE_HEADER)
            if supplied and valid_trace_id(supplied):
                trace_id = supplied
            else:
                trace_id = new_trace_id()
            endpoint = self.path.split("?", 1)[0].rstrip("/") or "/"
            return RequestTrace(trace_id, endpoint=endpoint)

        def _dispatch(self, method: str) -> None:
            started = time.perf_counter()
            trace = self._trace_for_request()
            endpoint, status = trace.endpoint, 500
            server._enter_request()
            try:
                with use_trace(trace):
                    endpoint, status = self._route(method)
            except BrokenPipeError:  # client went away mid-response
                status = 499
            except Exception:
                logger.exception("unhandled error on %s %s", method, self.path)
                try:
                    self._send_json(500, {"error": "internal server error"})
                except Exception:
                    pass
                status = 500
            finally:
                elapsed = time.perf_counter() - started
                server._exit_request()
                trace.endpoint = endpoint
                trace.finish(status)
                server.complete_request(trace)
                counter(
                    "serve.requests", endpoint=endpoint, status=status
                ).inc()
                histogram(
                    "serve.request_seconds",
                    buckets=LATENCY_BUCKETS,
                    endpoint=endpoint,
                ).observe(elapsed)
                logger.info(
                    "%s %s -> %d in %.1fms",
                    method, self.path, status, elapsed * 1e3,
                    extra={
                        "fields": {
                            "trace_id": trace.trace_id,
                            "endpoint": endpoint,
                            "status": status,
                            "duration_ms": round(elapsed * 1e3, 3),
                            "outcome": trace.outcome,
                        }
                    },
                )

        def _with_debug_trace(self, payload: Dict[str, Any]) -> Dict[str, Any]:
            """``payload``, plus the request's own record under ``"trace"``
            when the URL carries ``?debug=trace``."""
            query = parse_qs(urlsplit(self.path).query)
            if "trace" not in query.get("debug", []):
                return payload
            trace = current_trace()
            trace.finish(200)
            return {**payload, "trace": trace.to_dict()}

        def _route(self, method: str) -> Tuple[str, int]:
            """Handle one request; returns ``(endpoint label, status)``."""
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if method == "GET" and path == "/healthz":
                if server.draining:
                    self._send_json(
                        503, {"status": "draining"},
                        retry_after=server.config.retry_after,
                    )
                    return "/healthz", 503
                self._send_json(200, server.health())
                return "/healthz", 200
            if method == "GET" and path == "/metrics":
                server.latency_snapshot()  # refresh serve.latency_ms gauges
                self._send_text(200, get_registry().to_prometheus())
                return "/metrics", 200
            if method == "GET" and path == "/debug/flightrecorder":
                self._send_json(200, server.flight_dump())
                return "/debug/flightrecorder", 200
            if method == "GET" and path.startswith("/v1/traces/"):
                trace_id = path[len("/v1/traces/"):]
                record = server.trace(trace_id)
                if record is None:
                    self._send_json(
                        404, {"error": f"no trace for id {trace_id!r}"}
                    )
                    return "/v1/traces", 404
                self._send_json(200, record)
                return "/v1/traces", 200
            if method == "GET" and path.startswith("/v1/plans/"):
                key = path[len("/v1/plans/"):]
                payload = server.service.plan(key)
                if payload is None:
                    self._send_json(404, {"error": f"no plan for key {key!r}"})
                    return "/v1/plans", 404
                self._send_json(200, self._with_debug_trace(payload))
                return "/v1/plans", 200
            if method == "POST" and path in ROUTES:
                return path, self._execute(path)
            self._send_json(
                404, {"error": f"no route for {method} {self.path}"}
            )
            return "(unrouted)", 404

        def _execute(self, path: str) -> int:
            if server.draining:
                self._send_json(
                    503, {"error": "server draining"},
                    retry_after=server.config.retry_after,
                )
                return 503
            try:
                body = self._read_body()
                payload = getattr(server.service, ROUTES[path])(body)
            except ValidationError as exc:
                self._send_json(400, {"error": str(exc)})
                return 400
            except AdmissionRejected as exc:
                self._send_json(
                    exc.status, {"error": str(exc)},
                    retry_after=exc.retry_after,
                )
                return exc.status
            except SearchDeadlineExceeded as exc:
                self._send_json(
                    503, {"error": str(exc)},
                    retry_after=server.config.retry_after,
                )
                return 503
            except FutureTimeoutError:
                self._send_json(
                    503, {"error": "timed out waiting for coalesced result"},
                    retry_after=server.config.retry_after,
                )
                return 503
            self._send_json(200, self._with_debug_trace(payload))
            return 200

    return Handler
