"""Nested wall-clock timing spans with a mergeable, thread-safe collector.

:func:`span` wraps a code region::

    with span("search.candidates", ops=4):
        ...

Completed spans land in the current :class:`SpanCollector` with their full
nesting path (``"search/search.candidates"``), a start offset relative to
the collector's epoch, and a duration.  Nesting is tracked per thread, so
concurrent threads each build their own stack while sharing one collector.

Cross-process merge: a worker runs under a fresh collector
(:func:`use_collector`), exports its spans, and the parent calls
:meth:`SpanCollector.merge` with the wall-clock offset where the fan-out
began — the child spans are re-based to that offset and re-rooted under the
parent's active span path, so one timeline shows the whole tree.  Span
*timings* naturally differ run to run; the deterministic part of telemetry
lives in :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "proc": self.proc,
        }


class SpanCollector:
    """Accumulates completed spans; thread-safe, per-thread nesting stacks."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active_path(self) -> str:
        """The current thread's open span path (``""`` outside any span)."""
        return "/".join(self._stack())

    def now(self) -> float:
        """Seconds since this collector's epoch."""
        return time.perf_counter() - self.epoch

    def append(self, completed: Span) -> None:
        with self._lock:
            self._spans.append(completed)

    # ------------------------------------------------------------------
    # reading / merging
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """An opaque position; pass to :meth:`export` for "spans since"."""
        with self._lock:
            return len(self._spans)

    def export(self, since: int = 0) -> List[Dict[str, object]]:
        """Completed spans (optionally after ``since``) as sorted dicts."""
        with self._lock:
            spans = self._spans[since:]
        return [
            s.to_dict() for s in sorted(spans, key=lambda s: (s.start, s.path))
        ]

    def merge(
        self,
        exported: Sequence[Mapping[str, object]],
        at: Optional[float] = None,
        proc: str = "worker",
    ) -> None:
        """Fold spans exported by a child collector into this one.

        Child spans are shifted so their earliest start lands at ``at``
        (default: now) and re-rooted under the calling thread's active
        span path; their relative nesting is preserved.
        """
        if not exported:
            return
        base = self.now() if at is None else at
        earliest = min(s["start"] for s in exported)
        root = self.active_path()
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
                    start=base + (entry["start"] - earliest),
                    duration=entry["duration"],
                    attrs=dict(entry.get("attrs", {})),
                    proc=proc if child_proc == "main" else child_proc,
                )
            )


# ----------------------------------------------------------------------
# current collector
# ----------------------------------------------------------------------

_default_collector = SpanCollector()
_current_collector = _default_collector
_swap_lock = threading.Lock()


def get_collector() -> SpanCollector:
    """The collector :func:`span` is currently recording into."""
    return _current_collector


@contextmanager
def use_collector(collector: SpanCollector):
    """Swap the current collector for a ``with`` block (workers, tests)."""
    global _current_collector
    with _swap_lock:
        previous = _current_collector
        _current_collector = collector
    try:
        yield collector
    finally:
        with _swap_lock:
            _current_collector = previous


@contextmanager
def span(name: str, **attrs: object):
    """Time a code region as a nested span in the current collector.

    Yields the span's ``attrs`` dict, so the region can annotate the span
    with what it learns (``with span("x") as attrs: attrs["n"] = ...``).
    """
    collector = _current_collector
    stack = collector._stack()
    stack.append(name)
    path = "/".join(stack)
    start = collector.now()
    try:
        yield attrs
    finally:
        duration = collector.now() - start
        stack.pop()
        collector.append(
            Span(name=name, path=path, start=start, duration=duration,
                 attrs=attrs)
        )
