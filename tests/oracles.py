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
  replaces by a min-plus vector fold.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis import RingTransfer
from repro.core.device import DeviceId
from repro.core.dims import Dim
from repro.core.layout import grid_events
from repro.core.optimizer.dp import min_plus
from repro.core.spec import PartitionSpec
from repro.graph.operators import OperatorSpec
from repro.graph.tensors import AxisInterval


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
