"""Unified telemetry: metrics registry, timing spans, structured logging.

``repro.obs`` is the dependency-free observability layer under every other
subsystem (it imports nothing from the rest of the package):

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms with labels, exportable as schema-stable JSON and
  Prometheus text format.  Instrumented code reaches the *current*
  registry through :func:`counter`/:func:`gauge`/:func:`histogram`;
  :func:`nearest_rank` is the package's one percentile estimator.
* :mod:`repro.obs.spans` — :func:`span`, a context manager producing nested
  wall-clock timing spans into a thread-safe :class:`SpanCollector`;
  :meth:`SpanCollector.merge` re-bases spans exported by child processes so
  ``repro.core.optimizer.parallel`` fan-out appears inside the parent's
  timeline.
* :mod:`repro.obs.logsetup` — :func:`configure_logging`, structured (plain
  or JSON-lines) logging for the ``repro`` logger tree, honouring the
  ``PRIMEPAR_LOG_LEVEL`` / ``PRIMEPAR_LOG_JSON`` environment knobs.
* :mod:`repro.obs.reqtrace` — :class:`RequestTrace`, one request's causal
  events and spans under a trace id (the serving daemon keeps finished
  ones in its request ring).

Where telemetry goes is one ``contextvars`` value: the current registry
(the process one by default), span collector and request trace (none by
default).  :func:`use_registry`, :func:`use_collector` and
:func:`use_trace` replace one for a ``with`` block in the calling context
only; :func:`telemetry_scope` gives a search or pool task its own
registry and collector, merged into the enclosing scope when it ends.

:func:`metrics_document` bundles the registry snapshot with every collected
span — the payload behind ``primepar ... --metrics-out`` and the
``primepar report`` subcommand.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from .logsetup import configure_logging, get_logger
from .metrics import (
    MetricsRegistry,
    counter,
    delta_snapshots,
    describe,
    gauge,
    get_registry,
    histogram,
    nearest_rank,
    use_registry,
)
from .reqtrace import (
    RequestTrace,
    current_trace,
    new_trace_id,
    trace_event,
    use_trace,
    valid_trace_id,
)
from .spans import (
    Span,
    SpanCollector,
    get_collector,
    span,
    telemetry_scope,
    use_collector,
)

#: Schema version of the ``--metrics-out`` / ``primepar report`` document.
METRICS_SCHEMA = 1

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "RequestTrace",
    "Span",
    "SpanCollector",
    "configure_logging",
    "counter",
    "current_trace",
    "delta_snapshots",
    "describe",
    "gauge",
    "get_collector",
    "get_logger",
    "get_registry",
    "histogram",
    "metrics_document",
    "nearest_rank",
    "new_trace_id",
    "span",
    "telemetry_scope",
    "trace_event",
    "use_collector",
    "use_registry",
    "use_trace",
    "valid_trace_id",
    "write_metrics",
]


def metrics_document(
    registry: Optional[MetricsRegistry] = None,
    collector: Optional[SpanCollector] = None,
) -> Dict[str, object]:
    """The full telemetry state as one schema-stable JSON-ready document."""
    registry = registry if registry is not None else get_registry()
    collector = collector if collector is not None else get_collector()
    document = {"schema": METRICS_SCHEMA}
    document.update(registry.snapshot())
    document["spans"] = collector.export() if collector is not None else []
    return document


def write_metrics(
    path: str,
    registry: Optional[MetricsRegistry] = None,
    collector: Optional[SpanCollector] = None,
) -> Dict[str, object]:
    """Dump :func:`metrics_document` as JSON at ``path``; returns it."""
    document = metrics_document(registry, collector)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return document
