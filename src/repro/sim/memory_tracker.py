"""Phase-resolved per-device memory tracking.

The static model (paper Sec. 4.1) charges every operator its parameters
plus stashed activations; this tracker plays the training iteration instead
— allocating stashes during Forward, releasing each one when its owner's
Gradient phase completes — exposing *where* in the iteration the peak
occurs and what it is made of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.cost.overall import PlanCost
from ..graph.graph import ComputationGraph
from ..obs.metrics import counter, gauge


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
    counter("memory.iterations_tracked").inc()
    gauge("memory.watermark_bytes").track_max(timeline.peak)
    for kind, resident in timeline.composition_at_peak().items():
        gauge("memory.watermark_kind_bytes", kind=kind).track_max(resident)
    return timeline
