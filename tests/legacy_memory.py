"""Frozen copy of the per-device memory playback (commit 5ae1a0e).

The engine once played one training iteration's allocations and releases
to find the per-device memory watermark and its makeup; that playback's
peak is by construction the price list's static sum.  This module keeps
``MemoryTimeline`` and ``track_iteration`` verbatim, less their metric
emission, so ``tests/test_memory_tracker.py`` can prove the lowering's
``plan_memory`` and ``memory_split`` equal what the playback reported, in
values and key order.  Do not edit except to re-freeze against a new
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.cost.overall import PlanCost
from repro.graph.graph import ComputationGraph


@dataclass(frozen=True)
class MemoryEvent:
    """One allocation (+) or release (-) on the device, in bytes."""

    op: str
    kind: str  # "parameters" | "stash" | "buffers"
    delta: float


@dataclass
class MemoryTimeline:
    """Playback of per-device memory over one training iteration."""

    events: List[MemoryEvent] = field(default_factory=list)
    resident: float = 0.0
    peak: float = 0.0
    peak_index: int = -1

    def record(self, op: str, kind: str, delta: float) -> None:
        if delta == 0:
            return
        self.events.append(MemoryEvent(op=op, kind=kind, delta=delta))
        self.resident += delta
        if self.resident > self.peak:
            self.peak = self.resident
            self.peak_index = len(self.events) - 1

    def composition_at_peak(self) -> Dict[str, float]:
        """Bytes per kind resident at the peak moment."""
        totals: Dict[str, float] = {}
        for event in self.events[: self.peak_index + 1]:
            totals[event.kind] = totals.get(event.kind, 0.0) + event.delta
        return {k: v for k, v in totals.items() if v > 1e-9}


def track_iteration(graph: ComputationGraph, priced: PlanCost) -> MemoryTimeline:
    """Play one iteration's allocations and releases.

    ``priced`` is the plan's price list; each operator's parameters,
    stashes and double buffers are its memory terms.  Parameters (weights
    + gradients) and temporal double buffers are resident for the whole
    iteration; stashes appear per operator during Forward and disappear as
    the reverse sweep finishes each operator's Gradient phase.
    """
    timeline = MemoryTimeline()
    for node, terms in zip(graph.nodes, priced.terms):
        timeline.record(
            node.name, "parameters", float(terms.parameter_bytes[0])
        )
        timeline.record(node.name, "buffers", float(terms.buffer_bytes[0]))
    stash = [float(terms.stash_bytes[0]) for terms in priced.terms]
    for node, stashed in zip(graph.nodes, stash):  # Forward sweep
        timeline.record(node.name, "stash", stashed)
    for node, stashed in zip(reversed(graph.nodes), reversed(stash)):
        timeline.record(node.name, "stash", -stashed)  # Backward + Gradient
    return timeline
