"""Logical axes and tensor size bookkeeping.

Operators map their canonical partition dimensions (``B/M/N/K``) onto
*logical axes* of the model — ``batch``, ``seq``, ``hidden``, ``heads``,
``embed``, ``ffn`` and so on.  Logical axes give edges between operators a
common coordinate system even across reshapes (e.g. a linear's output
``hidden`` axis splitting into ``(heads, embed)`` for attention), which the
inter-operator cost model (paper Eq. 8-9) uses to compute per-device tensor
overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

#: Bytes per element; the paper trains in fp16.
DTYPE_BYTES = 2


@dataclass(frozen=True)
class AxisInterval:
    """A half-open integer interval ``[start, stop)`` along one axis."""

    start: int
    stop: int

    @property
    def length(self) -> int:
        return max(self.stop - self.start, 0)


def flat_size(axes: Iterable[str], axis_sizes: Mapping[str, int]) -> int:
    """Product of axis sizes for a flattened canonical dimension."""
    size = 1
    for axis in axes:
        size *= axis_sizes[axis]
    return size


def decompose_interval(
    axes: Tuple[str, ...],
    axis_sizes: Mapping[str, int],
    start: int,
    stop: int,
) -> Dict[str, AxisInterval]:
    """Per-axis bounding box of a flat interval over flattened ``axes``.

    A flat slice of a canonical dimension whose layout is the row-major
    flattening of ``axes`` is, in general, not a box in axis space.  We
    return its *box hull*: exact whenever the slice aligns with minor-axis
    boundaries (the common case for power-of-two partitionings), a slight
    over-approximation otherwise — adequate for the Eq. 9 traffic estimate.
    """
    boxes: Dict[str, AxisInterval] = {}
    remaining = list(axes)
    lo, hi = start, stop
    while remaining:
        axis = remaining.pop(0)
        minor = flat_size(remaining, axis_sizes)
        axis_lo = lo // minor
        axis_hi = -(-hi // minor)  # ceil division
        boxes[axis] = AxisInterval(axis_lo, min(axis_hi, axis_sizes[axis]))
        if axis_hi - axis_lo == 1 and remaining:
            # The slice lives inside a single major index: recurse into the
            # minor axes with positions relative to that index.
            lo -= axis_lo * minor
            hi -= axis_lo * minor
        else:
            # The slice spans several major indices: minor axes are (hull-)
            # fully covered.
            for rest in remaining:
                boxes[rest] = AxisInterval(0, axis_sizes[rest])
            break
    return boxes


def slice_interval(total: int, n_slices: int, index: int) -> Tuple[int, int]:
    """Flat ``[start, stop)`` of slice ``index`` among ``n_slices`` equal parts.

    Sizes need not divide evenly; boundaries are spread as evenly as
    possible (the paper's models mostly divide exactly at the partition
    degrees evaluated).
    """
    base = total // n_slices
    extra = total % n_slices
    start = index * base + min(index, extra)
    stop = start + base + (1 if index < extra else 0)
    return start, stop
