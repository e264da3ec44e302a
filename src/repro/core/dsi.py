"""Dimension Slice Index (DSI) conventions — paper Algorithm 1.

A partition plan is a sequence of basic partitions.  Walking the sequence
yields, for every training phase and every dimension, a **DSI function**
``I_X^phase(D, t)`` mapping a device id and temporal step to the slice index
of dimension ``X`` that the sub-operator ``(D, t)`` holds (paper Sec. 3.1).

Conventions (matching Alg. 1):

* A :class:`~repro.core.partitions.DimPartition` consumes one device-id bit
  and updates the partitioned dim's DSI in all three phases:
  ``I_X <- 2 I_X + d_i``.
* A :class:`~repro.core.partitions.TemporalPartition` ``P_{2^k x 2^k}``
  consumes ``2k`` interleaved bits forming square coordinates ``(r, c)`` and
  updates ``M``, ``N``, ``K`` DSIs per paper Eq. 4-6 with its own temporal
  index ``t`` in ``[0, 2^k)``.
* With several temporal primitives in one sequence, the flat temporal step is
  mixed-radix: earlier primitives are outer loops.

:class:`~repro.core.steps.DsiTable` evaluates these functions for a whole
spec list at once; this module holds the per-sequence structure they rest
on.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from .dims import ALL_DIMS, Dim, Phase
from .partitions import DimPartition, PartitionStep, TemporalPartition


#: Dims whose DSIs vary across temporal steps, per phase (Eq. 4-6):
#: Forward varies ``N``; Backward varies ``K``; Gradient varies ``M``
#: every step and ``N``/``K`` only at the final step (the ``delta``
#: redistribution of ``dW``).
TEMPORAL_VARYING: Mapping[Phase, Tuple[Dim, ...]] = {
    Phase.FORWARD: (Dim.N,),
    Phase.BACKWARD: (Dim.K,),
    Phase.GRADIENT: (Dim.M, Dim.N, Dim.K),
}


def sequence_slice_counts(steps: Sequence[PartitionStep]) -> Dict[Dim, int]:
    """Number of slices each dimension is split into (phase-invariant)."""
    counts = {dim: 1 for dim in ALL_DIMS}
    for step in steps:
        if isinstance(step, DimPartition):
            counts[step.dim] *= 2
        elif isinstance(step, TemporalPartition):
            for dim in (Dim.M, Dim.N, Dim.K):
                counts[dim] *= step.side
    return counts


def check_bits(steps: Sequence[PartitionStep], n_bits: int) -> None:
    """Raise ``ValueError`` unless ``steps`` consume exactly ``n_bits`` bits."""
    consumed = sum(step.bits_consumed for step in steps)
    if consumed != n_bits:
        raise ValueError(
            f"sequence consumes {consumed} bits but cluster has {n_bits}"
        )
