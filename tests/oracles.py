"""Scalar oracles the production code is checked against.

Each function is the plain, one-at-a-time statement of something the
package computes in bulk or never spells out:

* :func:`slice_interval` / :func:`axis_intervals` — one slice's per-axis
  box, which ``repro.core.cost.inter.SliceTables`` decodes for every spec
  and rank at once;
* :func:`space_size` — the closed-form count of the partition space that
  ``repro.core.space.enumerate_specs`` materialises;
* :func:`is_ring_pattern` — the ring shape of the primitive's transfers
  (paper Table 1);
* :func:`stack_layers_doubling` — the paper's recursive-doubling layer
  stack (Sec. 5.1), which ``repro.core.optimizer.merge.stack_layers``
  replaces by a min-plus vector fold;
* :func:`dsi_matrix` — one spec's DSIs on every rank at one ``(phase,
  t)``, which ``repro.core.steps.boundary_matrices`` computes for a whole
  spec list at every boundary point;
* :func:`heap_id_matrix` — one spec's per-axis heap ids on every rank at
  one ``(phase, t)``, which ``repro.core.cost.inter.boundary_ids``
  computes for a whole spec list at every boundary point;
* :func:`min_plus_strided` — the min-plus product reduced over the
  strided middle axis of a ``(A x B x C)`` broadcast, the byte-equality
  oracle of ``repro.core.optimizer.dp.min_plus``;
* :func:`group_indicator` — the device-id bits a dim set's DSIs depend
  on, which ``repro.core.steps.StepTable.partition_bits`` computes as bit
  masks for a whole spec list;
* :func:`temporal_varying_dims` — which dims' DSIs change across a
  phase's temporal steps, which ``repro.core.dsi.TEMPORAL_VARYING``
  states per phase.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from dsi_oracle import DsiEvaluator, evaluator
from repro.core.cost.inter import CHUNK_BYTES, slice_ids
from repro.core.device import DeviceId
from repro.core.dims import ALL_DIMS, Dim, Phase
from repro.core.layout import grid_events
from repro.core.optimizer.dp import min_plus
from repro.core.partitions import DimPartition, Replicate, TemporalPartition
from repro.core.spec import PartitionSpec
from repro.graph.operators import OperatorSpec
from repro.graph.tensors import AxisInterval
from schedule_oracle import RingTransfer


def slice_interval(total: int, n_slices: int, index: int) -> Tuple[int, int]:
    """Flat ``[start, stop)`` of slice ``index`` among ``n_slices`` equal parts.

    Sizes need not divide evenly; boundaries are spread as evenly as
    possible.
    """
    base = total // n_slices
    extra = total % n_slices
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    return start, stop


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


def space_size(n_bits: int, n_legal_dims: int, include_temporal: bool = True) -> int:
    """Closed-form count of sequences (no limits, single-axis dims)."""
    counts = [1] + [0] * n_bits
    for used in range(1, n_bits + 1):
        total = n_legal_dims * counts[used - 1]
        if include_temporal:
            k = 1
            while 2 * k <= used:
                total += counts[used - 2 * k]
                k += 1
        counts[used] = total
    return counts[n_bits]


def is_ring_pattern(transfers: Sequence[RingTransfer]) -> bool:
    """Check a set of same-step same-tensor transfers forms disjoint rings.

    In a ring each participating device sends exactly one block and receives
    exactly one block (paper Table 1: neighbour-to-neighbour rings).
    """
    sends: Dict[DeviceId, int] = {}
    recvs: Dict[DeviceId, int] = {}
    for tr in transfers:
        sends[tr.src] = sends.get(tr.src, 0) + 1
        recvs[tr.dst] = recvs.get(tr.dst, 0) + 1
    participants = set(sends) | set(recvs)
    return all(sends.get(d, 0) == 1 and recvs.get(d, 0) == 1 for d in participants)


def stack_layers_doubling(
    layer_cost: np.ndarray, boundary_intra: np.ndarray, n_layers: int
) -> float:
    """Optimal cost of ``n_layers`` stacked layers by recursive doubling.

    Squares the ``P x P`` layer table ``log2(n_layers)`` times and merges
    the powers of the binary decomposition of ``n_layers`` (paper Sec. 5.1),
    each merge an Eq. 14 min-plus product that subtracts the shared
    boundary node's intra cost once.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")

    def merge(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return min_plus(left, right - boundary_intra[:, None])[0]

    result: Optional[np.ndarray] = None
    power = layer_cost
    remaining = n_layers
    while remaining:
        if remaining & 1:
            result = power if result is None else merge(result, power)
        remaining >>= 1
        if remaining:
            power = merge(power, power)
    return float(result.min())


def dsi_matrix(evaluator: DsiEvaluator, phase: Phase, t: int = 0) -> np.ndarray:
    """All devices' DSIs at once: ``(n_devices, 4)`` int64 array.

    Vectorised over ranks, but spec by spec and point by point:
    ``evaluator.dsi`` for every device, columns in ``ALL_DIMS`` order.
    """
    n_dev = evaluator.n_devices
    n_bits = evaluator.n_bits
    ranks = np.arange(n_dev, dtype=np.int64)
    bits = (ranks[:, None] >> (n_bits - 1 - np.arange(n_bits))) & 1
    t_indices = evaluator.decompose_step(t)
    values = {dim: np.zeros(n_dev, dtype=np.int64) for dim in ALL_DIMS}
    bit = 0
    temporal_pos = 0
    for step in evaluator.steps:
        if isinstance(step, Replicate):
            bit += 1
        elif isinstance(step, DimPartition):
            values[step.dim] = 2 * values[step.dim] + bits[:, bit]
            bit += 1
        else:
            side = step.side
            row = np.zeros(n_dev, dtype=np.int64)
            col = np.zeros(n_dev, dtype=np.int64)
            for j in range(step.k):
                row = (row << 1) | bits[:, bit + 2 * j]
                col = (col << 1) | bits[:, bit + 2 * j + 1]
            t_local = t_indices[temporal_pos]
            last = 1 if t_local == side - 1 else 0
            if phase is Phase.FORWARD:
                contrib = {
                    Dim.M: row % side,
                    Dim.N: (row + col + t_local) % side,
                    Dim.K: col % side,
                }
            elif phase is Phase.BACKWARD:
                contrib = {
                    Dim.M: row % side,
                    Dim.N: (row + col - 1) % side,
                    Dim.K: (col + t_local) % side,
                }
            else:
                contrib = {
                    Dim.M: (row + t_local) % side,
                    Dim.N: (row + col - 1 + last) % side,
                    Dim.K: (col - 1 + last) % side,
                }
            for dim, value in contrib.items():
                values[dim] = side * values[dim] + value
            bit += step.bits_consumed
            temporal_pos += 1
    return np.stack([values[dim] for dim in ALL_DIMS], axis=1)


def heap_id_matrix(
    op: OperatorSpec, spec: PartitionSpec, phase: Phase, t: int = 0
) -> np.ndarray:
    """One spec's per-axis heap ids on every rank: ``(n_devices, n_axes)``.

    Spec by spec and point by point: each dim's ``slice_ids`` of ``spec``
    alone, gathered by the dim's column of :func:`dsi_matrix`; axes are
    each dim's, dims in ``ALL_DIMS`` order.
    """
    dsis = dsi_matrix(evaluator(spec), phase, t)
    columns = []
    for dim in ALL_DIMS:
        if not op.dim_axes.get(dim):
            continue
        for ids, _ in slice_ids(op, [spec], dim).values():
            columns.append(ids[0, dsis[:, ALL_DIMS.index(dim)]])
    return np.stack(columns, axis=1)


def min_plus_strided(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``out[a,c] = min_b left[a,b] + right[b,c]`` and its first argmin.

    The ``(A x B x chunk)`` float64 broadcast takes as many output columns
    as fit in ``CHUNK_BYTES`` (at least one) and reduces over its strided
    middle axis.
    """
    n_a, n_b = left.shape
    n_b2, n_c = right.shape
    if n_b != n_b2:
        raise ValueError(f"shape mismatch {left.shape} x {right.shape}")
    out = np.empty((n_a, n_c))
    arg = np.empty((n_a, n_c), dtype=np.int32)
    chunk = max(1, CHUNK_BYTES // (n_a * n_b * out.itemsize))
    for lo in range(0, n_c, chunk):
        hi = min(lo + chunk, n_c)
        stacked = left[:, :, None] + right[None, :, lo:hi]
        arg[:, lo:hi] = stacked.argmin(axis=1)
        out[:, lo:hi] = np.take_along_axis(
            stacked, arg[:, lo:hi][:, None, :], axis=1
        )[:, 0, :]
    return out, arg


def group_indicator(
    evaluator: DsiEvaluator, phase: Phase, dims: Sequence[Dim]
) -> Tuple[int, ...]:
    """Device-id bit positions jointly influencing the DSIs of ``dims``.

    Walks the sequence as Alg. 1 does: a dim partition's bit feeds its
    dim; a primitive's row bits feed ``M`` and ``N``, its column bits
    ``N`` and ``K`` (paper Sec. 4.1).  The same in every ``phase``.
    """
    positions = set()
    bit = 0
    for step in evaluator.steps:
        if isinstance(step, DimPartition) and step.dim in dims:
            positions.add(bit)
        elif isinstance(step, TemporalPartition):
            rows = {bit + 2 * j for j in range(step.k)}
            cols = {bit + 2 * j + 1 for j in range(step.k)}
            if Dim.M in dims or Dim.N in dims:
                positions |= rows
            if Dim.N in dims or Dim.K in dims:
                positions |= cols
        bit += step.bits_consumed
    return tuple(sorted(positions))


def temporal_varying_dims(evaluator: DsiEvaluator, phase: Phase) -> Dict[Dim, bool]:
    """Whether each dim's DSI differs from step 0's at some later temporal
    step of ``phase`` on some rank."""
    first = dsi_matrix(evaluator, phase, 0)
    varying = np.zeros(len(ALL_DIMS), dtype=bool)
    for t in range(1, evaluator.total_steps):
        varying |= (dsi_matrix(evaluator, phase, t) != first).any(axis=0)
    return {dim: bool(v) for dim, v in zip(ALL_DIMS, varying)}
