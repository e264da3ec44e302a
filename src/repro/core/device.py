"""Device identifiers.

PrimePar partitions over ``2**n`` homogeneous devices, each identified by a
**Device ID** bit-vector ``D = (d_1, ..., d_n)`` with ``d_i in {0, 1}``
(paper Sec. 3.1).  A partition sequence consumes device-id bits left to
right: a partition-by-dimension consumes one bit, the spatial-temporal
primitive ``P_{2^k x 2^k}`` consumes ``2k`` bits interleaved into row and
column coordinates of a logical ``2^k x 2^k`` square (paper Alg. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True, order=True)
class DeviceId:
    """A device identified by its bit-vector ``(d_1, ..., d_n)``."""

    bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"device id bits must be 0/1, got {self.bits}")

    @classmethod
    def from_rank(cls, rank: int, n_bits: int) -> "DeviceId":
        """Build a device id from its integer rank (``d_1`` most significant)."""
        if not 0 <= rank < (1 << n_bits):
            raise ValueError(f"rank {rank} out of range for {n_bits} bits")
        return cls(tuple((rank >> (n_bits - 1 - i)) & 1 for i in range(n_bits)))

    @property
    def rank(self) -> int:
        """Integer rank with ``d_1`` as the most significant bit."""
        value = 0
        for bit in self.bits:
            value = (value << 1) | bit
        return value

    @property
    def n_bits(self) -> int:
        return len(self.bits)

    def sub_bits(self, positions: Sequence[int]) -> Tuple[int, ...]:
        """Project the id onto a subset of bit positions (a group indicator)."""
        return tuple(self.bits[p] for p in positions)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_devices(n_bits: int) -> Tuple[DeviceId, ...]:
    """All ``2**n_bits`` device ids in rank order."""
    return tuple(DeviceId.from_rank(r, n_bits) for r in range(1 << n_bits))
