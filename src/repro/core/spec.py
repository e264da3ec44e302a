"""Partition specifications: a sequence of basic partitions bound to a cluster.

A :class:`PartitionSpec` is the unit the optimizer searches over — one per
operator.  It owns a :class:`~repro.core.dsi.DsiEvaluator` and offers layout
queries used by the cost model and the execution simulator.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple

from .dims import ALL_DIMS, Dim, Phase
from .dsi import DsiEvaluator
from .partitions import (
    DimPartition,
    PartitionStep,
    Replicate,
    TemporalPartition,
    format_sequence,
    parse_sequence,
)


class PartitionSpec:
    """A partition sequence ``P`` for one operator over ``2**n_bits`` devices.

    Args:
        steps: The ordered basic partitions.
        n_bits: Device-id bit width; the sequence must consume exactly this
            many bits (all devices participate, possibly via replication
            implied by not partitioning some tensor's dims).
        legal_dims: Dims this operator allows partitioning (e.g. softmax
            forbids its reduction dim).  ``None`` means all four.
        allow_temporal: Whether the operator supports ``P_{2^k x 2^k}``
            (only matmul-like operators do).
    """

    def __init__(
        self,
        steps: Sequence[PartitionStep],
        n_bits: int,
        legal_dims: Optional[Sequence[Dim]] = None,
        allow_temporal: bool = True,
    ) -> None:
        self.steps: Tuple[PartitionStep, ...] = tuple(steps)
        self.n_bits = n_bits
        legal = tuple(legal_dims) if legal_dims is not None else ALL_DIMS
        for step in self.steps:
            if isinstance(step, DimPartition) and step.dim not in legal:
                raise ValueError(
                    f"dimension {step.dim.value} not partitionable here "
                    f"(legal: {[d.value for d in legal]})"
                )
            if isinstance(step, TemporalPartition) and not allow_temporal:
                raise ValueError("temporal primitive not supported by operator")
        self.evaluator = DsiEvaluator(self.steps, n_bits)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_string(cls, text: str, n_bits: int, **kwargs) -> "PartitionSpec":
        """Parse e.g. ``PartitionSpec.from_string("B-N-P2x2", n_bits=4)``."""
        return cls(parse_sequence(text.replace("-", " ")), n_bits, **kwargs)

    @classmethod
    def replicated(cls, n_bits: int) -> "PartitionSpec":
        """Fully replicated spec — only valid on a 1-device cluster."""
        if n_bits != 0:
            raise ValueError("replicated spec only valid for n_bits=0")
        return cls((), 0)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        return 1 << self.n_bits

    @property
    def total_steps(self) -> int:
        return self.evaluator.total_steps

    @property
    def has_temporal(self) -> bool:
        return self.evaluator.has_temporal

    @cached_property
    def slice_counts(self) -> Mapping[Dim, int]:
        return self.evaluator.slice_counts()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionSpec)
            and self.steps == other.steps
            and self.n_bits == other.n_bits
        )

    def __hash__(self) -> int:
        return hash((self.steps, self.n_bits))

    def __str__(self) -> str:
        return format_sequence(self.steps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionSpec({format_sequence(self.steps)}, n_bits={self.n_bits})"
