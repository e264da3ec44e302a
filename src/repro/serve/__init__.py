"""Plan-serving daemon: the optimizer as a long-lived, multi-client system.

``primepar serve`` turns the batch search CLI into an HTTP/JSON service
(stdlib only — ``ThreadingHTTPServer``) built from four composable layers:

* :mod:`repro.serve.store` — :class:`PlanStore`, a bounded in-memory LRU
  (:class:`repro.cache.MemoryLRU`) layered over the content-hashed disk
  cache, shared by every request thread;
* :mod:`repro.serve.singleflight` — :class:`SingleFlight`, coalescing
  identical in-flight requests onto a single search;
* :mod:`repro.serve.admission` — :class:`AdmissionController`, bounding
  concurrent searches and queue depth (429/503 + ``Retry-After``);
* :mod:`repro.serve.service` / :mod:`repro.serve.server` — the
  transport-free request brain and the HTTP front-end with graceful
  SIGTERM/SIGINT drain.

:mod:`repro.serve.client` is the stdlib client used by the tests and
``benchmarks/bench_serve.py``: ``PlanClient.post`` sends any request type
to its endpoint; ``search``, ``plan``, ``trace``, ``healthz`` and
``metrics`` cover the rest.

Observability: every request carries a trace id through the whole
causal path (store tier, queue wait, coalescing, optimizer spans) —
``?debug=trace`` inlines the record.  The server keeps its last 256
finished ``/v1/*`` records in one ring, the only source of
``GET /v1/traces/<id>``, the ``/healthz`` latency quantiles and SLO status,
and the flight-recorder dump (``GET /debug/flightrecorder`` and SIGUSR1).
``POST /v1/explain`` serves bit-exact plan-cost decompositions.

Unified request API: request bodies are the versioned, frozen dataclasses
of :mod:`repro.api` (``SearchRequest``, ``SimulateRequest``,
``ExplainRequest``, ``RobustnessRequest``), which also name each
endpoint's path — the CLI, this daemon and :class:`PlanClient` all
validate and serialize through them.  ``POST /v1/robustness`` scores a
searched plan's tail latency under a seeded fault model
(:mod:`repro.sim.faults`).
"""

from .admission import AdmissionController, AdmissionRejected
from .client import (
    ExplainRequest,
    PlanClient,
    RobustnessRequest,
    SearchRequest,
    SearchResponse,
    ServeError,
    SimulateRequest,
)
from .server import TRACE_HEADER, PlanServer, ServeConfig
from .service import PlanService
from .singleflight import SingleFlight
from .store import PlanStore, default_store, reset_default_store

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "ExplainRequest",
    "PlanClient",
    "PlanServer",
    "PlanService",
    "PlanStore",
    "RobustnessRequest",
    "SearchRequest",
    "SearchResponse",
    "ServeConfig",
    "ServeError",
    "SimulateRequest",
    "SingleFlight",
    "TRACE_HEADER",
    "default_store",
    "reset_default_store",
]
