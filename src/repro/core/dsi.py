"""Dimension Slice Index (DSI) evaluation — paper Algorithm 1.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from .device import DeviceId, square_coordinates
from .dims import ALL_DIMS, ALL_PHASES, Dim, Phase
from .partitions import DimPartition, PartitionStep, Replicate, TemporalPartition


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
        consumed = sum(s.bits_consumed for s in self.steps)
        if consumed != n_bits:
            raise ValueError(
                f"sequence consumes {consumed} bits but cluster has {n_bits}"
            )
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
        self._slice_counts = self._compute_slice_counts()
        self._bit_deps = self._compute_bit_dependencies()

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

    def _compute_slice_counts(self) -> Dict[Dim, int]:
        counts = {dim: 1 for dim in ALL_DIMS}
        for step in self.steps:
            if isinstance(step, DimPartition):
                counts[step.dim] *= 2
            elif isinstance(step, TemporalPartition):
                for dim in (Dim.M, Dim.N, Dim.K):
                    counts[dim] *= step.side
        return counts

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
                values[step.dim] = 2 * values[step.dim] + device.bit(bit)
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

    def dsi_matrix(self, phase: Phase, t: int = 0):
        """All devices' DSIs at once: ``(n_devices, 4)`` int array.

        Vectorised equivalent of :meth:`dsi` over the whole cluster; column
        order follows :data:`~repro.core.dims.ALL_DIMS`.  Results are cached
        per ``(phase, t mod total_steps)``; candidate builds seed the cache
        at the boundary points from their bulk pass
        (:func:`~repro.core.optimizer.candidates.boundary_matrices`).
        """
        import numpy as np

        cache = getattr(self, "_matrix_cache", None)
        if cache is None:
            cache = self._matrix_cache = {}
        t_norm = t % self.total_steps
        key = (phase, t_norm)
        if key in cache:
            return cache[key]
        n_dev = self.n_devices
        ranks = np.arange(n_dev, dtype=np.int64)
        bits = (ranks[:, None] >> (self.n_bits - 1 - np.arange(self.n_bits))) & 1
        t_indices = self.decompose_step(t_norm)
        values = {dim: np.zeros(n_dev, dtype=np.int64) for dim in ALL_DIMS}
        bit = 0
        temporal_pos = 0
        for step in self.steps:
            if isinstance(step, Replicate):
                bit += 1
            elif isinstance(step, DimPartition):
                values[step.dim] = 2 * values[step.dim] + bits[:, bit]
                bit += 1
            else:
                side = step.side
                k = step.k
                row = np.zeros(n_dev, dtype=np.int64)
                col = np.zeros(n_dev, dtype=np.int64)
                for j in range(k):
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
        matrix = np.stack([values[dim] for dim in ALL_DIMS], axis=1)
        cache[key] = matrix
        return matrix

    # ------------------------------------------------------------------
    # symbolic dependency analysis (for group indicators, paper Sec. 4.1)
    # ------------------------------------------------------------------

    def _compute_bit_dependencies(self) -> Dict[Tuple[Phase, Dim], Set[int]]:
        deps: Dict[Tuple[Phase, Dim], Set[int]] = {
            (phase, dim): set() for phase in ALL_PHASES for dim in ALL_DIMS
        }
        bit = 0
        for step in self.steps:
            if isinstance(step, Replicate):
                bit += 1
                continue
            if isinstance(step, DimPartition):
                for phase in ALL_PHASES:
                    deps[(phase, step.dim)].add(bit)
                bit += 1
            else:
                row_bits = {bit + 2 * j for j in range(step.k)}
                col_bits = {bit + 2 * j + 1 for j in range(step.k)}
                for phase in ALL_PHASES:
                    deps[(phase, Dim.M)] |= row_bits
                    deps[(phase, Dim.N)] |= row_bits | col_bits
                    deps[(phase, Dim.K)] |= col_bits
                bit += step.bits_consumed
        return deps

    def group_indicator(self, phase: Phase, dims: Sequence[Dim]) -> Tuple[int, ...]:
        """Bit positions jointly influencing the DSIs of ``dims`` in ``phase``."""
        positions: Set[int] = set()
        for dim in dims:
            positions |= self._bit_deps[(phase, dim)]
        return tuple(sorted(positions))

    def temporal_varying_dims(self, phase: Phase) -> Mapping[Dim, bool]:
        """Which dims' DSIs vary across temporal steps in ``phase``.

        Derived from Eq. 4-6: Forward varies ``N``; Backward varies ``K``;
        Gradient varies ``M`` every step and ``N``/``K`` only at the final
        step (the ``delta`` redistribution of ``dW``).
        """
        varying = {dim: False for dim in ALL_DIMS}
        if not self._temporal_slots:
            return varying
        if phase is Phase.FORWARD:
            varying[Dim.N] = True
        elif phase is Phase.BACKWARD:
            varying[Dim.K] = True
        else:
            varying[Dim.M] = True
            varying[Dim.N] = True
            varying[Dim.K] = True
        return varying

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        from .partitions import format_sequence

        return f"DsiEvaluator({format_sequence(self.steps)}, n_bits={self.n_bits})"
