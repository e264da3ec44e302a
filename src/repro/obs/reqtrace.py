"""Request-scoped tracing: one id per request, one record per causal path.

The metrics registry (:mod:`repro.obs.metrics`) aggregates; spans
(:mod:`repro.obs.spans`) time code regions.  Neither answers "what happened
to *this* request" — a request that queued, coalesced onto another caller's
search, and missed the LRU is indistinguishable from a warm hit except by
latency.  This module adds the request dimension:

* :func:`new_trace_id` mints ids; callers may supply their own (e.g. the
  serving daemon honours an ``X-PrimePar-Trace-Id`` header).
* :class:`RequestTrace` accumulates a request's causal events — plan-store
  tier, admission wait, coalescing leader — and, in its own
  :class:`~repro.obs.spans.SpanCollector`, its spans, against a monotonic
  clock anchored at the request's start.
* :func:`use_trace` installs a trace and its collector in the calling
  context's :class:`~repro.obs.metrics.Scope`; instrumented code anywhere
  below calls :func:`trace_event` (a cheap no-op when no trace is active)
  and :func:`~repro.obs.spans.span`, so deep layers need no trace-id
  plumbing in their signatures.

The serving daemon keeps finished records in its request ring
(:mod:`repro.serve.server`) for retrieval by id (``GET /v1/traces/<id>``).
"""

from __future__ import annotations

import re
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from .metrics import current_scope
from .spans import SpanCollector, collecting

#: Accepted shape of a client-supplied trace id (defensive: ids are echoed
#: into logs, JSON payloads and Prometheus-adjacent surfaces).
TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def new_trace_id() -> str:
    """A fresh, process-unique trace id (32 hex chars)."""
    return uuid.uuid4().hex


def valid_trace_id(candidate: str) -> bool:
    """Whether a client-supplied id is safe to adopt verbatim."""
    return bool(TRACE_ID_PATTERN.match(candidate))


class RequestTrace:
    """The in-flight record of one request's causal path.

    Events are ``(name, offset seconds, attrs)`` appended in causal order;
    :meth:`finish` freezes the record.  Thread-safe appends — a request is
    handled by one thread, but a coalescing leader may publish into a
    follower's trace.
    """

    def __init__(self, trace_id: str, endpoint: str) -> None:
        self.trace_id = trace_id
        self.endpoint = endpoint
        self.started_unix = time.time()
        #: The request's spans; its epoch is the request's start, and its
        #: ``now()`` the request's clock.
        self.collector = SpanCollector()
        self.events: List[Dict[str, Any]] = []
        #: Request params content hash, once known.
        self.key: Optional[str] = None
        #: Terminal outcome: a plan source (``memory``/``disk``/``computed``
        #: /``coalesced``) or an error class (``error:<kind>``).
        self.outcome: Optional[str] = None
        self.status: Optional[int] = None
        self.duration_ms: Optional[float] = None
        self._lock = threading.Lock()

    def event(self, name: str, **attrs: Any) -> None:
        """Append one causal event at the current offset."""
        entry = {"name": name, "t": self.collector.now(), "attrs": attrs}
        with self._lock:
            self.events.append(entry)

    def finish(self, status: int, outcome: Optional[str] = None) -> None:
        """Freeze terminal fields (idempotent on ``duration_ms``)."""
        with self._lock:
            self.status = status
            if outcome is not None:
                self.outcome = outcome
            if self.duration_ms is None:
                self.duration_ms = self.collector.now() * 1e3

    def to_dict(self) -> Dict[str, Any]:
        """Schema-stable JSON shape of the record."""
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "endpoint": self.endpoint,
                "started_unix": self.started_unix,
                "duration_ms": self.duration_ms,
                "status": self.status,
                "outcome": self.outcome,
                "key": self.key,
                "events": [dict(e) for e in self.events],
                "spans": self.collector.export(),
            }


# ----------------------------------------------------------------------
# current trace
# ----------------------------------------------------------------------


def current_trace() -> Optional[RequestTrace]:
    """The calling context's active trace, or ``None``."""
    return current_scope.get().trace


@contextmanager
def use_trace(trace: RequestTrace):
    """Install ``trace`` and its span collector in this context; its spans
    also merge into the enclosing collector, if any, when the block ends."""
    with collecting(trace.collector, trace=trace):
        yield trace


def trace_event(name: str, **attrs: Any) -> None:
    """Record an event on the current trace; no-op outside any request."""
    trace = current_scope.get().trace
    if trace is not None:
        trace.event(name, **attrs)
