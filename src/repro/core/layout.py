"""Grid layouts: mapping DSI slice indices to logical-axis intervals.

A canonical dimension flattening several logical axes (an attention matmul's
``B`` spans ``batch`` and ``heads``) is partitioned as a *grid*: each basic
partition event targets one axis (explicitly via
:class:`~repro.core.partitions.DimPartition`'s ``axis``, or the first axis
with remaining capacity by default).  A slice index then decomposes into
per-axis indices, and a device's holding is an exact box in axis space —
this is how Megatron's head-aligned attention partitioning coexists with
batch data parallelism on the same flattened dimension.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..graph.operators import OperatorSpec
from ..graph.tensors import AxisInterval, slice_interval
from .dims import Dim
from .partitions import DimPartition, TemporalPartition
from .spec import PartitionSpec


def default_axis(
    axes: Sequence[str],
    axis_sizes: Mapping[str, int],
    factors: Mapping[str, int],
    multiplier: int,
) -> str:
    """The first axis (major to minor) that can absorb ``multiplier`` splits.

    Falls back to the axis with the largest remaining capacity when none
    fits exactly — slices then become uneven, which
    :func:`~repro.graph.tensors.slice_interval` spreads as evenly as it can.
    """
    for axis in axes:
        if factors[axis] * multiplier <= axis_sizes[axis]:
            return axis
    return max(axes, key=lambda a: axis_sizes[a] / factors[a])


def grid_events(
    op: OperatorSpec, spec: PartitionSpec, dim: Dim
) -> List[Tuple[str, int]]:
    """Ordered (axis, factor) partition events of ``dim`` under ``spec``.

    Events appear in DSI-significance order (earliest partition is the most
    significant digit of the slice index, per Alg. 1's ``I <- s*I + ...``).
    """
    axes = tuple(op.dim_axes.get(dim, ()))
    if not axes:
        return []
    factors = {axis: 1 for axis in axes}
    events: List[Tuple[str, int]] = []

    def record(axis: str, multiplier: int) -> None:
        events.append((axis, multiplier))
        factors[axis] *= multiplier

    for step in spec.steps:
        if isinstance(step, DimPartition) and step.dim is dim:
            axis = step.axis
            if axis is None:
                axis = default_axis(axes, op.axis_sizes, factors, 2)
            elif axis not in axes:
                raise ValueError(
                    f"axis {axis!r} not part of {op.name}'s {dim.value} "
                    f"(axes: {axes})"
                )
            record(axis, 2)
        elif isinstance(step, TemporalPartition) and dim in (Dim.M, Dim.N, Dim.K):
            record(default_axis(axes, op.axis_sizes, factors, step.side), step.side)
    return events


def axis_intervals(
    op: OperatorSpec,
    spec: PartitionSpec,
    dim: Dim,
    slice_index: int,
) -> Dict[str, AxisInterval]:
    """Exact per-axis intervals of slice ``slice_index`` of ``dim``."""
    axes = tuple(op.dim_axes.get(dim, ()))
    events = grid_events(op, spec, dim)
    axis_factor = {axis: 1 for axis in axes}
    axis_index = {axis: 0 for axis in axes}
    remainder = slice_index
    total = 1
    for _, factor in events:
        total *= factor
    for axis, factor in events:
        total //= factor
        digit = remainder // total
        remainder %= total
        axis_index[axis] = axis_index[axis] * factor + digit
        axis_factor[axis] *= factor
    intervals: Dict[str, AxisInterval] = {}
    for axis in axes:
        size = op.axis_sizes[axis]
        start, stop = slice_interval(size, axis_factor[axis], axis_index[axis])
        intervals[axis] = AxisInterval(start, stop)
    return intervals
