"""Kernel timeline records for simulated training iterations (paper Fig. 9)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


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


@dataclass
class Timeline:
    """A kernel schedule and its makespan (``clock``, seconds)."""

    records: List[KernelRecord] = field(default_factory=list)
    clock: float = 0.0
