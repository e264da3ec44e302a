"""Scalar Alg. 1 evaluator (test oracle).

:class:`DsiEvaluator` walks one partition sequence step by step for one
device and one temporal step at a time, exactly as paper Algorithm 1
reads.  The package evaluates DSIs in bulk
(:class:`repro.core.steps.DsiTable`); the suites check it, and the ring
sends and all-reduce groups derived from it, against this walk and the
schedule built on it (``tests/schedule_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Mapping, Sequence, Tuple

from repro.core.device import DeviceId
from repro.core.dims import ALL_DIMS, Dim, Phase
from repro.core.dsi import check_bits, sequence_slice_counts
from repro.core.partitions import (
    DimPartition,
    PartitionStep,
    Replicate,
    TemporalPartition,
    format_sequence,
)
from repro.core.spec import PartitionSpec


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
        row = (row << 1) | device.bits[start_bit + 2 * j]
        col = (col << 1) | device.bits[start_bit + 2 * j + 1]
    return row, col


@dataclass(frozen=True)
class DsiResult:
    """DSIs of one sub-operator ``(D, t)`` in one phase."""

    phase: Phase
    values: Mapping[Dim, int]

    def __getitem__(self, dim: Dim) -> int:
        return self.values[dim]


@dataclass
class _TemporalSlot:
    """Bookkeeping for one temporal primitive within a sequence."""

    step: TemporalPartition
    start_bit: int
    index: int  # position among temporal primitives, in sequence order


class DsiEvaluator:
    """Evaluates Alg. 1 DSI functions for a fixed partition sequence.

    Args:
        steps: The partition sequence ``P``.
        n_bits: Total device-id bits of the cluster (``2**n_bits`` devices).
            The sequence must consume exactly ``n_bits`` bits.

    Raises:
        ValueError: If the sequence does not consume exactly ``n_bits`` bits.
    """

    def __init__(self, steps: Sequence[PartitionStep], n_bits: int) -> None:
        self.steps: Tuple[PartitionStep, ...] = tuple(steps)
        self.n_bits = n_bits
        check_bits(self.steps, n_bits)
        self._temporal_slots: List[_TemporalSlot] = []
        bit = 0
        for step in self.steps:
            if isinstance(step, TemporalPartition):
                self._temporal_slots.append(
                    _TemporalSlot(step, bit, len(self._temporal_slots))
                )
            bit += step.bits_consumed
        self.total_steps = 1
        for slot in self._temporal_slots:
            self.total_steps *= slot.step.temporal_steps
        self._slice_counts = sequence_slice_counts(self.steps)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def n_devices(self) -> int:
        return 1 << self.n_bits

    @property
    def has_temporal(self) -> bool:
        return bool(self._temporal_slots)

    def slice_counts(self) -> Mapping[Dim, int]:
        """Number of slices each dimension is split into (phase-invariant)."""
        return dict(self._slice_counts)

    # ------------------------------------------------------------------
    # temporal step decomposition
    # ------------------------------------------------------------------

    def decompose_step(self, t: int) -> Tuple[int, ...]:
        """Split flat temporal step into per-primitive indices (outer first).

        Negative ``t`` indexes from the end (``-1`` is the last step), which
        the inter-operator cost model uses for Eq. 8's ``t = -1``.
        """
        t %= self.total_steps
        indices = [0] * len(self._temporal_slots)
        for pos in range(len(self._temporal_slots) - 1, -1, -1):
            radix = self._temporal_slots[pos].step.temporal_steps
            indices[pos] = t % radix
            t //= radix
        return tuple(indices)

    # ------------------------------------------------------------------
    # DSI evaluation (Algorithm 1)
    # ------------------------------------------------------------------

    def dsi(self, device: DeviceId, phase: Phase, t: int = 0) -> DsiResult:
        """Evaluate all DSIs of sub-operator ``(device, t)`` in ``phase``."""
        if device.n_bits != self.n_bits:
            raise ValueError(
                f"device has {device.n_bits} bits, evaluator expects {self.n_bits}"
            )
        t_indices = self.decompose_step(t)
        values = {dim: 0 for dim in ALL_DIMS}
        bit = 0
        temporal_pos = 0
        for step in self.steps:
            if isinstance(step, Replicate):
                bit += 1
            elif isinstance(step, DimPartition):
                values[step.dim] = 2 * values[step.dim] + device.bits[bit]
                bit += 1
            else:
                side = step.side
                row, col = square_coordinates(device, bit, step.k)
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
                else:  # Phase.GRADIENT
                    contrib = {
                        Dim.M: (row + t_local) % side,
                        Dim.N: (row + col - 1 + last) % side,
                        Dim.K: (col - 1 + last) % side,
                    }
                for dim, value in contrib.items():
                    values[dim] = side * values[dim] + value
                bit += step.bits_consumed
                temporal_pos += 1
        return DsiResult(phase=phase, values=values)

    def tensor_dsi(
        self, device: DeviceId, phase: Phase, t: int, dims: Sequence[Dim]
    ) -> Tuple[int, ...]:
        """DSI tuple of a tensor (one entry per tensor dim) at ``(device, t)``."""
        result = self.dsi(device, phase, t)
        return tuple(result[d] for d in dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DsiEvaluator({format_sequence(self.steps)}, n_bits={self.n_bits})"


@lru_cache(maxsize=None)
def evaluator(spec: PartitionSpec) -> DsiEvaluator:
    """``spec``'s evaluator, built once per spec."""
    return DsiEvaluator(spec.steps, spec.n_bits)
