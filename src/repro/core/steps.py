"""Stacked integer step tables: a whole spec list read at once.

Bulk passes over a candidate list (Eq. 7 pricing, ring sends, boundary
matrices) read every spec's partition sequence once into integer arrays,
then work on those with numpy instead of walking :class:`PartitionStep`
objects spec by spec.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from .dims import ALL_DIMS, ALL_PHASES, Dim, Phase
from .partitions import DimPartition, TemporalPartition

if TYPE_CHECKING:
    from .spec import PartitionSpec

#: Step code of the temporal primitive.  A dim partition's code is its
#: :data:`~repro.core.dims.ALL_DIMS` index; a replicate step or padding
#: is -1.
TEMPORAL = len(ALL_DIMS)

_DIM_CODE = {dim: i for i, dim in enumerate(ALL_DIMS)}

#: ``ALL_DIMS`` indices of the dims the primitive splits, ``M``, ``N``, ``K``.
MNK = tuple(ALL_DIMS.index(dim) for dim in (Dim.M, Dim.N, Dim.K))

#: Boundary points: (phase, temporal step index; -1 means the final step).
FWD_START = (Phase.FORWARD, 0)
FWD_END = (Phase.FORWARD, -1)
BWD_START = (Phase.BACKWARD, 0)
BWD_END = (Phase.BACKWARD, -1)
GRAD_END = (Phase.GRADIENT, -1)

#: The boundary points that determine every edge-observable layout, in
#: the order :func:`boundary_matrices` stacks them.
BOUNDARY_POINTS = (FWD_START, FWD_END, BWD_START, BWD_END, GRAD_END)


class StepTable:
    """Partition sequences of specs over one cluster, as integer arrays.

    Arrays are indexed ``[spec, slot]``: slot ``j`` is a spec's ``j``-th
    step, and shorter sequences are padded with code -1.

    Attributes:
        n_bits: Device-id bits every spec consumes.
        code: Step code (see :data:`TEMPORAL`).
        start: First device-id bit the step consumes.
        k: The primitive's ``k``; 0 for other steps.
        side: The primitive's ``2^k`` (its temporal steps); 1 otherwise.
        radix: ``[spec, slot, dim]`` factor the step splits each dim by:
            2 for a dim partition, ``2^k`` on ``M``/``N``/``K`` for the
            primitive, 1 otherwise.  Slice indices are mixed-radix numbers
            with these digits (Alg. 1's ``I <- s*I + digit``).
        total_steps: ``[spec]`` temporal steps per phase, the product of
            the primitives' sides (``PartitionSpec.total_steps``).
    """

    def __init__(self, specs: Sequence["PartitionSpec"]) -> None:
        self.n_bits = specs[0].n_bits if specs else 0
        n_slots = max((len(spec.steps) for spec in specs), default=0)
        rows = []
        for spec in specs:
            row = []
            bit = 0
            for step in spec.steps:
                if isinstance(step, DimPartition):
                    row.append((_DIM_CODE[step.dim], bit, 0))
                elif isinstance(step, TemporalPartition):
                    row.append((TEMPORAL, bit, step.k))
                else:
                    row.append((-1, bit, 0))
                bit += step.bits_consumed
            rows.append(row + [(-1, 0, 0)] * (n_slots - len(row)))
        fields = np.array(rows, dtype=np.int64).reshape(len(specs), n_slots, 3)
        self._set(fields[..., 0], fields[..., 1], fields[..., 2])

    def _set(self, code: np.ndarray, start: np.ndarray, k: np.ndarray) -> None:
        self.code = code
        self.start = start
        self.k = k
        self.side = 1 << k
        self.total_steps = self.side.prod(axis=1)
        radix = np.ones(code.shape + (len(ALL_DIMS),), dtype=np.int64)
        radix[code[..., None] == np.arange(len(ALL_DIMS))] = 2
        temporal = code == TEMPORAL
        for dim in MNK:
            radix[temporal, dim] = self.side[temporal]
        self.radix = radix

    def take(self, rows: np.ndarray) -> "StepTable":
        """The table of the specs at ``rows``."""
        table = object.__new__(StepTable)
        table.n_bits = self.n_bits
        table._set(self.code[rows], self.start[rows], self.k[rows])
        return table

    @property
    def n_specs(self) -> int:
        return self.code.shape[0]

    @property
    def has_temporal(self) -> np.ndarray:
        """``[spec]`` whether the spec uses the primitive."""
        return (self.code == TEMPORAL).any(axis=1)

    @cached_property
    def slice_counts(self) -> np.ndarray:
        """``[spec, dim]`` slice counts, as ``PartitionSpec.slice_counts``."""
        return self.radix.prod(axis=1)

    def place_values(self) -> np.ndarray:
        """``[spec, slot, dim]`` weight of each step's digit in a slice
        index: the product of the radices of the steps after it."""
        place = np.ones_like(self.radix)
        for j in range(self.radix.shape[1] - 2, -1, -1):
            place[:, j] = place[:, j + 1] * self.radix[:, j + 1]
        return place

    def local_steps(self, t: int) -> np.ndarray:
        """``[spec, slot]`` each primitive's own step index at flat step
        ``t`` (0 for other steps).  Earlier primitives are outer loops (the
        flat step is mixed-radix, see :mod:`repro.core.dsi`); ``t`` is
        taken modulo each spec's total steps, so -1 is the last step."""
        flat = t % self.total_steps
        inner = np.ones_like(self.side)
        for j in range(self.side.shape[1] - 2, -1, -1):
            inner[:, j] = inner[:, j + 1] * self.side[:, j + 1]
        return flat[:, None] // inner % self.side

    @cached_property
    def partition_bits(self) -> np.ndarray:
        """``[spec, dim]`` bit masks (``1 << bit``) of the device-id bits
        each dim's DSI depends on, in every phase (paper Sec. 4.1): a dim
        partition's bit, and a primitive's row bits on ``M``, column bits
        on ``K`` and both on ``N``."""
        onehot = self.code[..., None] == np.arange(len(ALL_DIMS))
        bits = (onehot * (1 << self.start)[..., None]).sum(axis=1)
        temporal = self.code == TEMPORAL
        rows = np.zeros_like(self.start)
        for j in range(int(self.k.max(initial=0))):
            rows += np.where(j < self.k, 1 << (self.start + 2 * j), 0)
        rows = (rows * temporal).sum(axis=1)
        cols = rows << 1
        m, n, kk = MNK
        bits[:, m] |= rows
        bits[:, n] |= rows | cols
        bits[:, kk] |= cols
        return bits

    def dim_bits(self, dims) -> np.ndarray:
        """``[spec]`` bit mask of the device-id bits the DSI of any of
        ``dims`` depends on: the union of their :attr:`partition_bits`."""
        columns = [ALL_DIMS.index(dim) for dim in dims]
        return np.bitwise_or.reduce(self.partition_bits[:, columns], axis=1)


class DsiTable:
    """Alg. 1 DSIs of a whole step table at any (phase, step) point.

    A DSI value is a mixed-radix number (Alg. 1's ``I <- s*I + digit``):
    the sum over slots of a digit times the slot's place value.  The
    digits of every device at every phase and primitive step are
    tabulated once (:func:`_digit_table`); a point then gathers each
    slot's digit row and sums, for all specs and ranks at once.
    """

    def __init__(self, table: StepTable) -> None:
        self.table = table
        n_bits = table.n_bits
        self.digits, column_of = _digit_table(n_bits)
        self.place = table.place_values()
        zero = self.digits.shape[1] - 1
        code, start, k = table.code, table.start, table.k
        #: ``[spec, slot, dim]`` digit row at local step 0 (the zero row
        #: where the slot does not split the dim).
        base = np.full(code.shape + (len(ALL_DIMS),), zero, dtype=np.int64)
        s_dim, j_dim = np.nonzero((code >= 0) & (code != TEMPORAL))
        base[s_dim, j_dim, code[s_dim, j_dim]] = start[s_dim, j_dim]
        temporal = code == TEMPORAL
        column = column_of[start[temporal], k[temporal]]
        for offset, dim in enumerate(MNK):
            base[temporal, dim] = column + offset
        self._base = base
        self._temporal = temporal

    def at(self, phase: Phase, t: int) -> np.ndarray:
        """DSIs at ``(phase, t)``, shape ``(n_specs, n_devices, 4)`` in
        int64, columns in :data:`~repro.core.dims.ALL_DIMS` order."""
        return self.at_points([(phase, t)])[:, 0]

    def at_points(self, points: Sequence[Tuple[Phase, int]]) -> np.ndarray:
        """DSIs at every ``(phase, t)`` of ``points``, shape ``(n_specs,
        len(points), n_devices, 4)`` in int64 (a strided view)."""
        zero = self.digits.shape[1] - 1
        rows = np.broadcast_to(self._base, (len(points),) + self._base.shape)
        if self._temporal.any():
            local = np.stack([self.table.local_steps(t) for _, t in points])
            rows = rows + (3 * local * self._temporal)[..., None] * (rows != zero)
        phases = np.array([ALL_PHASES.index(phase) for phase, _ in points])
        digits = self.digits[phases[:, None, None, None], rows]
        dsis = (digits * self.place[..., None]).sum(axis=2)
        return dsis.transpose(1, 0, 3, 2)


def boundary_matrices(specs: Sequence["PartitionSpec"]) -> np.ndarray:
    """Boundary DSI matrices of a whole spec list, in one pass.

    Returns:
        Shape ``(n_specs, len(BOUNDARY_POINTS), n_devices,
        len(ALL_DIMS))``, C-contiguous, in the smallest unsigned dtype
        that holds ``2^n_bits``; ``matrices[i, p, d]`` holds the DSIs of
        ``specs[i]``'s sub-operator on rank ``d`` at ``BOUNDARY_POINTS[p]``
        (Alg. 1), columns in :data:`~repro.core.dims.ALL_DIMS` order.
    """
    table = StepTable(specs)
    # Every DSI is below 2^n_bits, so all of it fits a compact dtype.
    return np.ascontiguousarray(
        DsiTable(table).at_points(BOUNDARY_POINTS),
        dtype=np.min_scalar_type(1 << table.n_bits),
    )


@lru_cache(maxsize=None)
def _digit_table(n_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Digit rows of every rank, ``(len(ALL_PHASES), rows, n_devices)``.

    Rows ``0..n_bits-1`` are the device-id bits (bit 0 the most
    significant).  Each primitive placement ``(start bit, k)`` adds three
    per primitive step ``t`` in ``[0, 2^k)``, its ``M``, ``N``, ``K``
    digits at ``t`` (paper Eq. 4-6).  The last row is all zeros.  Both
    arrays depend on ``n_bits`` alone, so they are built once, read-only.

    Returns:
        ``(table, column_of)``: ``column_of[bit, k]`` is the first row of
        placement ``(bit, k)``; step ``t``'s rows follow at ``+ 3 t``.
    """
    placements = [
        (bit, kk)
        for kk in range(1, n_bits // 2 + 1)
        for bit in range(n_bits - 2 * kk + 1)
    ]
    ranks = np.arange(1 << n_bits, dtype=np.int64)
    bits = (ranks >> (n_bits - 1 - np.arange(n_bits))[:, None]) & 1
    n_rows = n_bits + 3 * sum(1 << kk for _, kk in placements) + 1
    table = np.zeros((len(ALL_PHASES), n_rows, len(ranks)), dtype=np.int64)
    table[:, :n_bits] = bits
    column_of = np.zeros((max(n_bits, 1), n_bits // 2 + 1), dtype=np.int64)
    column = n_bits
    for bit, kk in placements:
        column_of[bit, kk] = column
        side = 1 << kk
        row = np.zeros_like(ranks)
        col = np.zeros_like(ranks)
        for j in range(kk):
            row = (row << 1) | bits[bit + 2 * j]
            col = (col << 1) | bits[bit + 2 * j + 1]
        for t in range(side):
            last = int(t == side - 1)
            table[:, column:column + 3] = [
                (row, (row + col + t) % side, col),  # FORWARD
                (row, (row + col - 1) % side, (col + t) % side),  # BACKWARD
                (  # GRADIENT
                    (row + t) % side,
                    (row + col - 1 + last) % side,
                    (col - 1 + last) % side,
                ),
            ]
            column += 3
    table.flags.writeable = False
    column_of.flags.writeable = False
    return table, column_of
