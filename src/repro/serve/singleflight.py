"""Request coalescing: at most one in-flight computation per key.

When N clients ask for the same uncached plan concurrently, running N
identical searches multiplies latency and squanders the admission budget.
:class:`SingleFlight` keys each computation by its content hash: the first
caller (the *leader*) computes; everyone else arriving while that
computation is in flight (the *followers*) blocks on the leader's future
and receives the very same result object — bit-identical by construction,
no second search.  A leader failure propagates its exception to every
follower, and the key is released so the next request retries fresh.

Followers are counted under ``serve.coalesced`` in the current metrics
registry.  For request tracing, the leader publishes its trace id on the
shared future (``future.trace_id``); followers record it as a
``singleflight.follow`` trace event so one coalesced request's trace names
the trace that actually ran the search.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.metrics import counter
from ..obs.reqtrace import current_trace, trace_event

#: Metric namespace for coalescing counters.
NAMESPACE = "serve"


class SingleFlight:
    """Per-key in-flight computation dedup (Go's ``singleflight`` shape)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}

    def run(
        self,
        key: str,
        fn: Callable[[], Any],
        timeout: Optional[float] = None,
    ) -> Tuple[Any, bool]:
        """``(value, leader)`` — run ``fn`` once per concurrent key.

        The leader executes ``fn`` inline and publishes its result (or
        exception) to every follower.  Followers wait at most ``timeout``
        seconds (``concurrent.futures.TimeoutError`` past that; the
        leader's computation itself is unaffected).
        """
        with self._lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = Future()
                trace = current_trace()
                if trace is not None:
                    future.trace_id = trace.trace_id
                self._inflight[key] = future
        if not leader:
            counter(f"{NAMESPACE}.coalesced").inc()
            trace_event(
                "singleflight.follow",
                key=key,
                leader_trace_id=getattr(future, "trace_id", None),
            )
            return future.result(timeout=timeout), False
        try:
            value = fn()
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            raise
        with self._lock:
            self._inflight.pop(key, None)
        future.set_result(value)
        return value, True
