"""Metrics registry: counters, gauges, histograms with labels.

The registry is intentionally small and dependency-free.  Three metric
kinds, Prometheus-compatible semantics:

* :class:`Counter` — monotonically increasing float (``inc``);
* :class:`Gauge` — last-written value (``set``, plus ``track_max``);
* :class:`Histogram` — fixed upper-bound buckets, count and sum
  (``observe``).

A metric is identified by ``(name, labels)``; metrics sharing a name form a
*family* and must agree on their kind.  Instrumented code never holds a
registry reference — it calls the module-level :func:`counter`,
:func:`gauge` and :func:`histogram` helpers, which resolve the *current*
registry at call time: a field of the calling context's :class:`Scope`
(see :mod:`repro.obs`), the process registry by default.
:func:`repro.obs.spans.telemetry_scope` gives a unit of work a fresh
registry whose snapshot merges into the enclosing one when it ends
(counters and histograms are additive, so merge order cannot change their
values; gauges are last-write-wins in merge order).

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain sorted dicts —
schema-stable JSON — and :func:`delta_snapshots` subtracts two of them.
:func:`nearest_rank` is the one percentile estimator the package reports
(the serving daemon's ``/healthz`` quantiles, robustness tail latencies).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from collections import namedtuple
from contextvars import ContextVar
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Default histogram upper bounds, tuned for seconds-scale durations but
#: serviceable for counts; pass explicit ``buckets=`` for anything else.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def track_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new high-watermark."""
        with self._lock:
            self.value = max(self.value, float(value))


class Histogram:
    """Fixed-bucket distribution with Prometheus bucket semantics."""

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count", "_lock")

    def __init__(
        self, name: str, labels: _LabelKey, bounds: Sequence[float]
    ) -> None:
        ordered = tuple(sorted(float(b) for b in bounds))
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = ordered
        #: Per-bucket counts; index ``len(bounds)`` is the +Inf overflow.
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1


_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All label-children of one metric name, pinned to a single kind."""

    __slots__ = ("name", "kind", "children", "bounds", "help")

    def __init__(
        self, name: str, kind: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> None:
        self.name = name
        self.kind = kind
        self.children: Dict[_LabelKey, object] = {}
        self.bounds = bounds
        self.help: Optional[str] = None


class MetricsRegistry:
    """A thread-safe collection of metric families.

    All reads for export take the registry lock, so snapshots are
    consistent even while other threads keep instrumenting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        #: Help text registered before the family's first data point.
        self._pending_help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # metric access
    # ------------------------------------------------------------------

    def _child(
        self,
        kind: str,
        name: str,
        labels: Mapping[str, object],
        bounds: Optional[Sequence[float]] = None,
    ):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(
                    name, kind, tuple(bounds) if bounds is not None else None
                )
                family.help = self._pending_help.pop(name, None)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested as {kind}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(
                        name, key, family.bounds or DEFAULT_BUCKETS
                    )
                else:
                    child = _KIND_CLASSES[kind](name, key)
                family.children[key] = child
            return child

    def counter(self, name: str, **labels: object) -> Counter:
        return self._child("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._child("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        return self._child("histogram", name, labels, bounds=buckets)

    def describe(self, name: str, text: str) -> None:
        """Attach ``# HELP`` text to a metric family (created lazily).

        The family's kind is pinned on first data access; describing a
        name before any child exists just parks the text until then.
        """
        with self._lock:
            family = self._families.get(name)
            if family is None:
                self._pending_help[name] = text
            else:
                family.help = text

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def _iter_families(
        self,
    ) -> Iterator[Tuple[str, str, Optional[str], List[object]]]:
        with self._lock:
            families = [
                (
                    family.name,
                    family.kind,
                    family.help,
                    list(family.children.values()),
                )
                for family in self._families.values()
            ]
        for name, kind, help_text, children in sorted(
            families, key=lambda f: (f[0], f[1])
        ):
            yield (
                name,
                kind,
                help_text,
                sorted(children, key=lambda c: c.labels),
            )

    def _iter_children(self) -> Iterator[Tuple[str, str, object]]:
        for name, kind, _, children in self._iter_families():
            for child in children:
                yield name, kind, child

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """Schema-stable plain-dict export, sorted by (name, labels)."""
        out: Dict[str, List[Dict[str, object]]] = {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for name, kind, child in self._iter_children():
            entry: Dict[str, object] = {
                "name": name,
                "labels": dict(child.labels),
            }
            if kind == "histogram":
                entry.update(
                    {
                        "count": child.count,
                        "sum": child.sum,
                        "bounds": list(child.bounds),
                        "bucket_counts": list(child.counts),
                    }
                )
            else:
                entry["value"] = child.value
            out[kind + "s"].append(entry)
        return out

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms are additive (order-independent); gauges
        take the incoming value (last write in merge order wins).
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], **entry["labels"]).set(entry["value"])
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(
                entry["name"], buckets=entry["bounds"], **entry["labels"]
            )
            if list(hist.bounds) != [float(b) for b in entry["bounds"]]:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds disagree"
                )
            with hist._lock:
                hist.count += entry["count"]
                hist.sum += entry["sum"]
                for i, c in enumerate(entry["bucket_counts"]):
                    hist.counts[i] += c

    def to_prometheus(self, prefix: str = "primepar") -> str:
        """The registry in the Prometheus text exposition format.

        Per the exposition format: exactly one ``# HELP`` and one
        ``# TYPE`` line per metric family (in that order, before any
        sample of the family); label values escape backslash, double
        quote and newline; help text escapes backslash and newline.
        """
        lines: List[str] = []
        for name, kind, help_text, children in self._iter_families():
            metric = _prom_name(prefix, name)
            lines.append(
                f"# HELP {metric} "
                f"{_escape_help(help_text or f'{kind} {name}')}"
            )
            lines.append(f"# TYPE {metric} {kind}")
            for child in children:
                if kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.counts):
                        cumulative += count
                        labels = _prom_labels(
                            child.labels, ("le", _fmt(bound))
                        )
                        lines.append(f"{metric}_bucket{labels} {cumulative}")
                    labels = _prom_labels(child.labels, ("le", "+Inf"))
                    lines.append(f"{metric}_bucket{labels} {child.count}")
                    base = _prom_labels(child.labels)
                    lines.append(f"{metric}_sum{base} {_fmt(child.sum)}")
                    lines.append(f"{metric}_count{base} {child.count}")
                else:
                    labels = _prom_labels(child.labels)
                    lines.append(f"{metric}{labels} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(prefix: str, name: str) -> str:
    return f"{prefix}_{name}".replace(".", "_").replace("-", "_")


def _prom_labels(
    labels: _LabelKey, extra: Optional[Tuple[str, str]] = None
) -> str:
    pairs = list(labels) + ([extra] if extra else [])
    if not pairs:
        return ""
    rendered = ",".join(
        f'{key}="{_escape(value)}"' for key, value in pairs
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    """Label-value escaping: backslash, double quote, newline (in order)."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """Help-text escaping: backslash and newline (quotes stay literal)."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of an already-sorted sequence.

    Matches ``benchmarks/bench_serve.py``'s ``_percentile`` exactly:
    ``round(q * (n - 1))`` with banker's rounding, clamped to the range.
    Returns ``0.0`` for an empty sequence.
    """
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def delta_snapshots(
    before: Mapping[str, object], after: Mapping[str, object]
) -> Dict[str, List[Dict[str, object]]]:
    """What changed between two snapshots of the same registry.

    Counters and histograms subtract (entries that did not move are
    dropped); gauges keep their ``after`` value when it is new or changed.
    """

    def keyed(entries):
        return {
            (e["name"], _label_key(e["labels"])): e for e in entries
        }

    out: Dict[str, List[Dict[str, object]]] = {
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    prior = keyed(before.get("counters", ()))
    for entry in after.get("counters", ()):
        key = (entry["name"], _label_key(entry["labels"]))
        base = prior[key]["value"] if key in prior else 0.0
        moved = entry["value"] - base
        if moved:
            out["counters"].append({**entry, "value": moved})
    prior = keyed(before.get("gauges", ()))
    for entry in after.get("gauges", ()):
        key = (entry["name"], _label_key(entry["labels"]))
        if key not in prior or prior[key]["value"] != entry["value"]:
            out["gauges"].append(dict(entry))
    prior = keyed(before.get("histograms", ()))
    for entry in after.get("histograms", ()):
        key = (entry["name"], _label_key(entry["labels"]))
        base = prior.get(key)
        count = entry["count"] - (base["count"] if base else 0)
        if not count:
            continue
        out["histograms"].append(
            {
                **entry,
                "count": count,
                "sum": entry["sum"] - (base["sum"] if base else 0.0),
                "bucket_counts": [
                    c - (base["bucket_counts"][i] if base else 0)
                    for i, c in enumerate(entry["bucket_counts"])
                ],
            }
        )
    return out


# ----------------------------------------------------------------------
# the telemetry scope
# ----------------------------------------------------------------------

#: Where a context records telemetry: a registry, a
#: :class:`~repro.obs.spans.SpanCollector` and a
#: :class:`~repro.obs.reqtrace.RequestTrace` (``None``: none of either),
#: and the ``/``-joined path of the spans open in the collector.
Scope = namedtuple(
    "Scope", "registry collector trace path", defaults=(None, None, "")
)

#: The calling context's scope.  A context that never set one (a new
#: thread, a fresh process) records into the process registry only.
current_scope: ContextVar[Scope] = ContextVar(
    "repro_obs_scope", default=Scope(MetricsRegistry())
)


@contextmanager
def rescoped(**fields: object) -> Iterator[None]:
    """Replace fields of the calling context's scope for a ``with`` block."""
    token = current_scope.set(current_scope.get()._replace(**fields))
    try:
        yield
    finally:
        current_scope.reset(token)


def get_registry() -> MetricsRegistry:
    """The registry instrumented code in this context records into."""
    return current_scope.get().registry


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Record into ``registry`` in this context for a ``with`` block."""
    with rescoped(registry=registry):
        yield registry


def counter(name: str, **labels: object) -> Counter:
    """A counter in the current registry (creates it on first use)."""
    return current_scope.get().registry.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    """A gauge in the current registry (creates it on first use)."""
    return current_scope.get().registry.gauge(name, **labels)


def histogram(
    name: str, buckets: Optional[Sequence[float]] = None, **labels: object
) -> Histogram:
    """A histogram in the current registry (creates it on first use)."""
    return current_scope.get().registry.histogram(
        name, buckets=buckets, **labels
    )


def describe(name: str, text: str) -> None:
    """Attach ``# HELP`` text to a family in the current registry."""
    current_scope.get().registry.describe(name, text)
