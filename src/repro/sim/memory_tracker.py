"""Phase-resolved per-device memory tracking.

The static model (paper Sec. 4.1) charges every operator its parameters
plus stashed activations; this tracker plays the training iteration instead
— allocating stashes during Forward, releasing each one when its owner's
Gradient phase completes — exposing *where* in the iteration the peak
occurs and what it is made of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..core.cost.memory import MemoryCostModel
from ..core.spec import PartitionSpec
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


def track_iteration(
    graph: ComputationGraph,
    plan: Mapping[str, PartitionSpec],
) -> MemoryTimeline:
    """Play one iteration's allocations and releases.

    Parameters (weights + gradients) and temporal double buffers are
    resident for the whole iteration; stashes appear per operator during
    Forward and disappear as the reverse sweep finishes each operator's
    Gradient phase.
    """
    memory_model = MemoryCostModel()
    timeline = MemoryTimeline()
    for node in graph.nodes:
        spec = plan[node.name]
        timeline.record(
            node.name, "parameters", memory_model.parameter_bytes(node, spec)
        )
        timeline.record(
            node.name, "buffers", memory_model.double_buffer_bytes(node, spec)
        )
    stash: Dict[str, float] = {}
    for node in graph.nodes:  # Forward sweep
        spec = plan[node.name]
        stash[node.name] = memory_model.stash_bytes(node, spec)
        timeline.record(node.name, "stash", stash[node.name])
    for node in reversed(graph.nodes):  # Backward + Gradient sweep
        timeline.record(node.name, "stash", -stash[node.name])
    counter("memory.iterations_tracked").inc()
    gauge("memory.watermark_bytes").track_max(timeline.peak)
    for kind, resident in timeline.composition_at_peak().items():
        gauge("memory.watermark_kind_bytes", kind=kind).track_max(resident)
    return timeline
