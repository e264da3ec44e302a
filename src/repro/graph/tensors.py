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
from typing import Iterable, Mapping

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
