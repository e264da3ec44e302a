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
* ``GET /v1/traces/<id>`` — the completed request record for a trace id
  (404 once it ages out of the bounded trace store).
* ``GET /healthz``      — liveness + occupancy snapshot + rolling latency
  quantiles with SLO status; 503 while draining.
* ``GET /metrics``      — the current metrics registry in Prometheus text
  exposition format (straight from :mod:`repro.obs`).
* ``GET /debug/flightrecorder`` — the always-on flight recorder's request
  and process-snapshot rings (also dumped to a temp file on SIGUSR1).

**Tracing.** Every request gets a trace id — the client's
``X-PrimePar-Trace-Id`` header when well-formed, a fresh uuid otherwise —
whose record and span collector are the handler's telemetry scope for the
request's whole causal path (plan-store tiers, admission wait, coalescing,
its own search and replay spans, never a concurrent request's).  Appending
``?debug=trace`` to any ``/v1/*`` call inlines the full record into the
response under ``"trace"``; completed ``/v1/*`` records stay retrievable
from ``GET /v1/traces/<id>`` until the store wraps.  Handler threads start
from the context that started the server, so for ``primepar serve`` their
metrics, searches' included, land in the process registry ``/metrics``
exports.

Overload surfaces as HTTP 429 (queue full) or 503 (slot/deadline timeout),
both with a ``Retry-After`` header.  Shutdown is graceful: SIGTERM/SIGINT
stop the accept loop, in-flight requests drain (bounded by
``drain_timeout``), then the listener closes.

Every request is logged structured (method, path, status, plus
``trace_id``/``duration_ms``/``endpoint``/``status`` fields) through
:mod:`repro.obs.logsetup`; per-endpoint latency histograms
(``serve.request_seconds``), request counters (``serve.requests``), an
in-flight gauge (``serve.http_inflight``) and rolling latency-quantile
gauges (``serve.latency_ms``) land in the metrics registry.
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
from typing import Any, Dict, Optional, Tuple
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
from ..obs.flight import FlightRecorder
from ..obs.logsetup import get_logger
from ..obs.metrics import counter, describe, gauge, get_registry, histogram
from ..obs.quantiles import RollingQuantiles
from ..obs.reqtrace import (
    RequestTrace,
    TraceStore,
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
        "Rolling-window HTTP latency quantiles (ms) by endpoint.",
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
        self.traces = TraceStore(max_entries=self.config.trace_store_size)
        self.flight = FlightRecorder(
            max_requests=self.config.flight_size,
            snapshot_interval=self.config.flight_snapshot_interval,
            snapshot_provider=self._flight_snapshot,
        )
        self._latency_lock = threading.Lock()
        self._latency: Dict[str, RollingQuantiles] = {}
        self._slo = RollingQuantiles(window=self.config.slo_window)
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
        self.flight.start()
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
        self.flight.stop()
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
                json.dump(self.flight.dump(), handle, indent=1, sort_keys=True)
        except Exception:
            logger.exception("flight-recorder dump to %s failed", path)
            return None
        logger.info("flight recorder dumped to %s", path)
        return path

    # -- observability (handler callbacks) -----------------------------

    def _flight_snapshot(self) -> Dict[str, Any]:
        """Extra per-snapshot state: LRU occupancy, admission depth."""
        return {
            "plan_store": self.service.store.stats(),
            "admission_active": self.service.admission.active,
            "admission_queued": self.service.admission.waiting,
            "http_inflight": self.inflight(),
        }

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        """Feed the rolling quantile estimators (O(1) — the request hot
        path; quantile evaluation happens at scrape time)."""
        with self._latency_lock:
            rolling = self._latency.get(endpoint)
            if rolling is None:
                rolling = self._latency[endpoint] = RollingQuantiles(
                    window=self.config.slo_window
                )
        rolling.observe(seconds * 1e3)
        if endpoint.startswith("/v1/"):
            self._slo.observe(seconds * 1e3)

    def latency_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-endpoint rolling latency quantiles in ms, publishing the
        ``serve.latency_ms`` gauges as a side effect (scrape time)."""
        with self._latency_lock:
            estimators = dict(self._latency)
        snapshots = {
            endpoint: rolling.snapshot()
            for endpoint, rolling in sorted(estimators.items())
        }
        for endpoint, snap in snapshots.items():
            for label in ("p50", "p95", "p99"):
                gauge(
                    "serve.latency_ms", endpoint=endpoint, quantile=label
                ).set(snap[label])
        return snapshots

    def slo_status(self) -> Dict[str, Any]:
        """Rolling ``/v1/*`` p95 vs. the configured target."""
        snap = self._slo.snapshot()
        target = self.config.slo_p95_ms
        status = "disabled"
        if target > 0:
            p95 = snap["p95"]
            if snap["count"] == 0 or p95 is None or p95 <= target:
                status = "ok"
            else:
                status = "breach"
        return {
            "status": status,
            "target_p95_ms": target,
            "window": snap["window"],
            "count": snap["count"],
            "p50_ms": snap["p50"],
            "p95_ms": snap["p95"],
            "p99_ms": snap["p99"],
        }

    def complete_request(self, trace: RequestTrace) -> None:
        """Retain one finished request: trace store + flight recorder."""
        record = trace.to_dict()
        if trace.endpoint.startswith("/v1/"):
            self.traces.put(record)
        self.flight.record_request(
            {
                "trace_id": record["trace_id"],
                "endpoint": record["endpoint"],
                "started_unix": record["started_unix"],
                "duration_ms": record["duration_ms"],
                "status": record["status"],
                "outcome": record["outcome"],
                "key": record["key"],
            }
        )

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
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
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
            endpoint, status = self.path, 500
            started = time.perf_counter()
            trace = self._trace_for_request()
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
                trace.finish(status)
                server.complete_request(trace)
                server.observe_latency(endpoint, elapsed)
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
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "inflight": server.inflight(),
                        "active_searches": server.service.admission.active,
                        "queued_searches": server.service.admission.waiting,
                        "plan_store": server.service.store.stats(),
                        "latency_ms": server.latency_snapshot(),
                        "slo": server.slo_status(),
                    },
                )
                return "/healthz", 200
            if method == "GET" and path == "/metrics":
                server.latency_snapshot()  # refresh serve.latency_ms gauges
                self._send_text(200, get_registry().to_prometheus())
                return "/metrics", 200
            if method == "GET" and path == "/debug/flightrecorder":
                self._send_json(200, server.flight.dump())
                return "/debug/flightrecorder", 200
            if method == "GET" and path.startswith("/v1/traces/"):
                trace_id = path[len("/v1/traces/"):]
                record = server.traces.get(trace_id)
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
