"""Typed stdlib client for the plan-serving daemon.

Thin ``urllib.request`` wrapper used by the test suite and the closed-loop
load benchmark — no third-party HTTP stack.  Server-side rejections
(400/404/429/503) surface as :class:`ServeError` carrying the HTTP status,
the server's error message, and the parsed ``Retry-After`` hint.

::

    client = PlanClient("http://127.0.0.1:8780")
    response = client.search(SearchRequest(model="opt-6.7b", devices=8))
    assert response.source in ("computed", "memory", "disk", "coalesced")

Tracing: every call may pin its own id via ``trace_id`` (sent as
``X-PrimePar-Trace-Id``); ``debug_trace=True`` appends ``?debug=trace`` so
the response carries its full request record under ``"trace"``
(:attr:`SearchResponse.trace`), and :meth:`PlanClient.trace` fetches a
completed record by id later.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, Optional

# Request bodies are the canonical repro.api types — the client serializes
# exactly what the server validates (same schema_version, same defaults).
from ..api import (  # noqa: F401  (re-exported for callers)
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
)

DEFAULT_TIMEOUT = 300.0


class ServeError(Exception):
    """An HTTP error response from the daemon."""

    def __init__(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


@dataclass
class SearchResponse:
    """A plan payload: the searched plan plus cache/coalescing provenance."""

    key: str
    source: str  # memory | disk | computed | coalesced
    model: str
    devices: int
    batch: int
    n_layers: int
    plan: Dict[str, str]
    cost: float
    model_cost: Optional[float]
    elapsed: float
    #: Inlined request record when the call asked for ``debug_trace``.
    trace: Optional[Dict[str, Any]] = None

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SearchResponse":
        return cls(
            key=payload["key"],
            source=payload["source"],
            model=payload["model"],
            devices=payload["devices"],
            batch=payload["batch"],
            n_layers=payload["n_layers"],
            plan=dict(payload["plan"]),
            cost=payload["cost"],
            model_cost=payload.get("model_cost"),
            elapsed=payload["elapsed"],
            trace=payload.get("trace"),
        )


@dataclass
class SimulateResponse:
    """One simulated training iteration of the searched plan."""

    source: str
    plan_key: str
    plan_source: str
    layers: int
    latency: float
    throughput: float
    peak_memory_bytes: float
    breakdown: Dict[str, float]

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SimulateResponse":
        return cls(
            source=payload["source"],
            plan_key=payload["plan_key"],
            plan_source=payload["plan_source"],
            layers=payload["layers"],
            latency=payload["latency"],
            throughput=payload["throughput"],
            peak_memory_bytes=payload["peak_memory_bytes"],
            breakdown=dict(payload["breakdown"]),
        )


@dataclass
class RobustnessResponse:
    """A plan's Monte-Carlo robustness score (``POST /v1/robustness``).

    ``report`` is the schema-versioned ``RobustnessReport`` document.
    """

    source: str
    plan_key: str
    plan_source: str
    model: str
    devices: int
    batch: int
    layers: int
    objective: str
    blend: float
    score: float
    report: Dict[str, Any]

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RobustnessResponse":
        return cls(
            source=payload["source"],
            plan_key=payload["plan_key"],
            plan_source=payload["plan_source"],
            model=payload["model"],
            devices=payload["devices"],
            batch=payload["batch"],
            layers=payload["layers"],
            objective=payload["objective"],
            blend=payload["blend"],
            score=payload["score"],
            report=dict(payload["report"]),
        )


class PlanClient:
    """HTTP client for one daemon instance."""

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> urllib.request.addinfourl:
        data = json.dumps(body).encode() if body is not None else None
        headers: Dict[str, str] = (
            {"Content-Type": "application/json"} if data else {}
        )
        if trace_id is not None:
            headers["X-PrimePar-Trace-Id"] = trace_id
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers=headers,
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode())
            except ValueError:
                message = raw.decode(errors="replace")
            retry_after = exc.headers.get("Retry-After")
            raise ServeError(
                exc.code,
                message,
                float(retry_after) if retry_after else None,
            ) from None

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        with self._request(method, path, body, trace_id) as response:
            return json.loads(response.read())

    def _post(
        self,
        request: Any,
        trace_id: Optional[str] = None,
        debug_trace: bool = False,
    ) -> Dict[str, Any]:
        """``POST`` a :mod:`repro.api` request to its own endpoint."""
        return self._json(
            "POST",
            self._with_debug(request.endpoint, debug_trace),
            request.to_json(),
            trace_id=trace_id,
        )

    @staticmethod
    def _with_debug(path: str, debug_trace: bool) -> str:
        return path + "?debug=trace" if debug_trace else path

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        """The ``/metrics`` Prometheus text exposition, verbatim."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode()

    def search(
        self,
        request: SearchRequest,
        trace_id: Optional[str] = None,
        debug_trace: bool = False,
    ) -> SearchResponse:
        return SearchResponse.from_json(
            self._post(request, trace_id, debug_trace)
        )

    def simulate(
        self,
        request: SimulateRequest,
        trace_id: Optional[str] = None,
    ) -> SimulateResponse:
        return SimulateResponse.from_json(self._post(request, trace_id))

    def explain(
        self,
        request: ExplainRequest,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The plan's cost decomposition (``POST /v1/explain``), as a dict.

        The document's ``components``, folded in ``component_order``,
        sum bit-exactly to its ``total_cost``.
        """
        return self._post(request, trace_id)

    def robustness(
        self,
        request: RobustnessRequest,
        trace_id: Optional[str] = None,
    ) -> RobustnessResponse:
        """Score the searched plan under a fault model
        (``POST /v1/robustness``)."""
        return RobustnessResponse.from_json(self._post(request, trace_id))

    def plan(
        self, key: str, debug_trace: bool = False
    ) -> Optional[SearchResponse]:
        """A stored plan payload by content hash; ``None`` when absent."""
        try:
            return SearchResponse.from_json(
                self._json(
                    "GET", self._with_debug(f"/v1/plans/{key}", debug_trace)
                )
            )
        except ServeError as exc:
            if exc.status == 404:
                return None
            raise

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A completed request record by trace id; ``None`` when absent."""
        try:
            return self._json("GET", f"/v1/traces/{trace_id}")
        except ServeError as exc:
            if exc.status == 404:
                return None
            raise

    def flightrecorder(self) -> Dict[str, Any]:
        """The daemon's flight-recorder dump (``GET /debug/flightrecorder``)."""
        return self._json("GET", "/debug/flightrecorder")
