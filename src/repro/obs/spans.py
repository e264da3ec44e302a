"""Nested wall-clock timing spans with a mergeable, thread-safe collector.

:func:`span` wraps a code region::

    with span("search.candidates", ops=4):
        ...

Completed spans land in the current :class:`SpanCollector` with their full
nesting path (``"search/search.candidates"``), a start offset relative to
the collector's epoch, and a duration.  The open span path is part of the
calling context, so concurrent threads nest independently while sharing
one collector.

The current collector is a field of the calling context's
:class:`~repro.obs.metrics.Scope`; there is none by default, and then
:func:`span` keeps nothing.  :func:`collecting` installs one and merges
its spans upward when the block ends; :func:`telemetry_scope` does so
with a fresh registry too, for one unit of work.  A pool worker runs its
task in one and ships the export back; the parent calls
:meth:`SpanCollector.merge` with the wall-clock offset where the fan-out
began — the child spans are re-based to that offset and re-rooted under
the parent's open span path, so one timeline shows the whole tree.  Span
*timings* naturally differ run to run; the deterministic part of telemetry
lives in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .metrics import MetricsRegistry, Scope, current_scope, rescoped


@dataclass(frozen=True)
class Span:
    """One completed timing span.

    Attributes:
        name: Leaf name (``"search.candidates"``).
        path: Full nesting path, ``/``-joined ancestor names.
        start: Seconds since the collector's epoch.
        duration: Wall-clock seconds.
        attrs: Small JSON-safe annotation payload.
        proc: ``"main"`` or a worker tag for merged child-process spans.
    """

    name: str
    path: str
    start: float
    duration: float
    attrs: Dict[str, object] = field(default_factory=dict)
    proc: str = "main"


#: Types ``dataclasses.asdict`` returns as they are (deep copies of them
#: are themselves).
_ATOMS = (str, int, float, bool, type(None))


def _exported(span: Span) -> Dict[str, object]:
    """``dataclasses.asdict(span)``: the same dict, with ``attrs`` deep
    copied, without ``asdict``'s per-field recursion where every key and
    value of ``attrs`` is atomic."""
    attrs = span.attrs
    if all(
        type(key) in _ATOMS and type(value) in _ATOMS
        for key, value in attrs.items()
    ):
        attrs = dict(attrs)
    else:
        attrs = asdict(span)["attrs"]
    return {
        "name": span.name,
        "path": span.path,
        "start": span.start,
        "duration": span.duration,
        "attrs": attrs,
        "proc": span.proc,
    }


class SpanCollector:
    """Accumulates completed spans; thread-safe."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this collector's epoch."""
        return time.perf_counter() - self.epoch

    def append(self, completed: Span) -> None:
        with self._lock:
            self._spans.append(completed)

    # ------------------------------------------------------------------
    # reading / merging
    # ------------------------------------------------------------------

    def export(self) -> List[Dict[str, object]]:
        """Completed spans as dicts sorted by start: each
        ``dataclasses.asdict(span)``, built directly."""
        with self._lock:
            spans = list(self._spans)
        spans.sort(key=lambda s: (s.start, s.path))
        return [_exported(s) for s in spans]

    def merge(
        self,
        exported: Sequence[Mapping[str, object]],
        at: float,
        proc: str = "worker",
    ) -> None:
        """Fold spans exported by a child collector into this one.

        Child spans are shifted so their earliest start lands at ``at``
        and re-rooted under the calling context's open span path; their
        relative nesting is preserved.
        """
        if not exported:
            return
        earliest = min(s["start"] for s in exported)
        root = current_scope.get().path
        for entry in exported:
            path = entry["path"]
            # "main" in a child export means "the child's own process" —
            # relabel with the caller's tag; an already-tagged span (a
            # grandchild merged by the child) keeps its tag.
            child_proc = str(entry.get("proc") or "main")
            self.append(
                Span(
                    name=entry["name"],
                    path=f"{root}/{path}" if root else path,
                    start=at + (entry["start"] - earliest),
                    duration=entry["duration"],
                    attrs=dict(entry.get("attrs", {})),
                    proc=proc if child_proc == "main" else child_proc,
                )
            )


# ----------------------------------------------------------------------
# current collector
# ----------------------------------------------------------------------


def get_collector() -> Optional[SpanCollector]:
    """The collector :func:`span` records into here (``None``: none)."""
    return current_scope.get().collector


@contextmanager
def use_collector(collector: Optional[SpanCollector]):
    """Record spans into ``collector`` in this context for a ``with`` block."""
    with rescoped(collector=collector, path=""):
        yield collector


@contextmanager
def collecting(collector: SpanCollector, **fields: object) -> Iterator[None]:
    """Record spans into ``collector`` (and set other scope ``fields``) for
    a ``with`` block, then, even if it raised, merge them into the
    enclosing collector, if any, under its open span, timing kept."""
    outer = current_scope.get().collector
    try:
        with rescoped(collector=collector, path="", **fields):
            yield
    finally:
        spans = collector.export()
        if outer is not None and spans:
            outer.merge(
                spans,
                at=spans[0]["start"] + collector.epoch - outer.epoch,
                proc="main",
            )


@contextmanager
def telemetry_scope() -> Iterator[Scope]:
    """Record a unit of work into its own registry and collector, both
    merged into the enclosing scope when it ends; yields its scope."""
    outer = current_scope.get().registry
    registry = MetricsRegistry()
    try:
        with collecting(SpanCollector(), registry=registry):
            yield current_scope.get()
    finally:
        outer.merge_snapshot(registry.snapshot())


@contextmanager
def span(name: str, **attrs: object):
    """Time a code region as a nested span in the current collector.

    Yields the span's ``attrs`` dict, so the region can annotate the span
    with what it learns (``with span("x") as attrs: attrs["n"] = ...``).
    Without a current collector nothing is timed or kept.
    """
    scope = current_scope.get()
    collector = scope.collector
    if collector is None:
        yield attrs
        return
    path = f"{scope.path}/{name}" if scope.path else name
    start = collector.now()
    try:
        with rescoped(path=path):
            yield attrs
    finally:
        collector.append(
            Span(name=name, path=path, start=start,
                 duration=collector.now() - start, attrs=attrs)
        )
