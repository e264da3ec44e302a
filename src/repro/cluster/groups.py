"""Grouping patterns derived from group indicators (paper Sec. 4.1, Fig. 5).

All-reduce and ring communications happen *in groups*.  A group indicator is
a subset of device-id bit positions; devices agreeing on all bits *outside*
the indicator and differing inside it form one group.  The latency of a
pattern is governed by the slowest group, which depends on which physical
links each group spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.device import all_devices


@dataclass(frozen=True)
class GroupingPattern:
    """Disjoint device groups induced by a group indicator.

    Attributes:
        indicator: Sorted device-id bit positions the groups vary over.
        groups: Tuple of groups; each group is a tuple of device ranks that
            share all non-indicator bits.
    """

    indicator: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]

    @property
    def group_size(self) -> int:
        return len(self.groups[0]) if self.groups else 1



def grouping_pattern(n_bits: int, indicator: Sequence[int]) -> GroupingPattern:
    """Build the grouping pattern for ``indicator`` over ``2**n_bits`` devices.

    Devices within a group share every bit outside the indicator and take
    all combinations of the indicator bits (paper Fig. 5).
    """
    indicator = tuple(sorted(indicator))
    outside = [b for b in range(n_bits) if b not in indicator]
    buckets = {}
    for device in all_devices(n_bits):
        key = device.sub_bits(outside)
        buckets.setdefault(key, []).append(device.rank)
    groups = tuple(tuple(sorted(ranks)) for _, ranks in sorted(buckets.items()))
    return GroupingPattern(indicator=indicator, groups=groups)


def ring_order(group: Sequence[int]) -> List[int]:
    """Canonical ring ordering of a group (rank order; ring closes around)."""
    return sorted(group)
