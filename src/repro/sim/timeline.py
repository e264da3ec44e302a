"""Kernel timeline records for simulated training iterations (paper Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping


@dataclass(frozen=True)
class KernelRecord:
    """One kernel occurrence on a device stream or fabric link.

    Attributes:
        op: Operator node name.
        phase: ``F``/``B``/``G`` (or ``-`` for inter-operator kernels).
        kind: ``compute``, ``ring``, ``allreduce`` or ``redistribute``.
        start: Stream time the kernel begins, seconds.
        duration: Kernel latency, seconds.
        overlapped: Whether the kernel runs concurrently with compute
            (ring communication under double buffering).
        device: Device rank (pipeline stage in pipeline timelines) the
            kernel executes on; a ring transfer carries its sending rank.
    """

    op: str
    phase: str
    kind: str
    start: float
    duration: float
    overlapped: bool = False
    device: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_json(self) -> List[Any]:
        """Compact positional encoding (one row per record)."""
        return [
            self.op, self.phase, self.kind, self.start, self.duration,
            self.overlapped, self.device,
        ]

    @classmethod
    def from_json(cls, row: List[Any]) -> "KernelRecord":
        op, phase, kind, start, duration, overlapped, device = row
        return cls(
            op=op,
            phase=phase,
            kind=kind,
            start=float(start),
            duration=float(duration),
            overlapped=bool(overlapped),
            device=int(device),
        )


@dataclass
class Timeline:
    """A kernel schedule and its makespan (``clock``, seconds)."""

    records: List[KernelRecord] = field(default_factory=list)
    clock: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "clock": self.clock,
            "records": [record.to_json() for record in self.records],
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "Timeline":
        return cls(
            records=[
                KernelRecord.from_json(row)
                for row in payload.get("records", ())
            ],
            clock=float(payload.get("clock", 0.0)),
        )
