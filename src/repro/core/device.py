"""Device identifiers and logical device squares.

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

    def bit(self, index: int) -> int:
        """Return bit ``d_{index+1}`` (0-based indexing into the vector)."""
        return self.bits[index]

    def sub_bits(self, positions: Sequence[int]) -> Tuple[int, ...]:
        """Project the id onto a subset of bit positions (a group indicator)."""
        return tuple(self.bits[p] for p in positions)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_devices(n_bits: int) -> Tuple[DeviceId, ...]:
    """All ``2**n_bits`` device ids in rank order."""
    return tuple(DeviceId.from_rank(r, n_bits) for r in range(1 << n_bits))


def square_coordinates(device: DeviceId, start_bit: int, k: int) -> Tuple[int, int]:
    """Row/column of a device within the logical ``2^k x 2^k`` square.

    Per paper Alg. 1 lines 9-10, for a primitive starting at bit ``i``::

        r = 2^{k-1} d_i     + 2^{k-2} d_{i+2} + ... + 2^0 d_{i+2k-2}
        c = 2^{k-1} d_{i+1} + 2^{k-2} d_{i+3} + ... + 2^0 d_{i+2k-1}

    Args:
        device: The device id.
        start_bit: 0-based index of the first bit the primitive consumes.
        k: The primitive's ``k`` (square side is ``2**k``).

    Returns:
        ``(r, c)`` coordinates, each in ``[0, 2**k)``.
    """
    if start_bit + 2 * k > device.n_bits:
        raise ValueError(
            f"P_{{2^{k} x 2^{k}}} at bit {start_bit} needs {2 * k} bits, "
            f"device has {device.n_bits}"
        )
    row = 0
    col = 0
    for j in range(k):
        row = (row << 1) | device.bit(start_bit + 2 * j)
        col = (col << 1) | device.bit(start_bit + 2 * j + 1)
    return row, col
