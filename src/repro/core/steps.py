"""Stacked integer step tables: a whole spec list read at once.

Bulk passes over a candidate list (boundary matrices, all-reduce pricing)
read every spec's partition sequence once into integer arrays, then work
on those with numpy instead of walking :class:`PartitionStep` objects spec
by spec.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .dims import ALL_DIMS, Dim, Phase
from .partitions import DimPartition, TemporalPartition
from .spec import PartitionSpec

#: Step code of the temporal primitive.  A dim partition's code is its
#: :data:`~repro.core.dims.ALL_DIMS` index; a replicate step or padding
#: is -1.
TEMPORAL = len(ALL_DIMS)

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
        radix: ``[spec, slot, dim]`` factor the step splits each dim by:
            2 for a dim partition, ``2^k`` on ``M``/``N``/``K`` for the
            primitive, 1 otherwise.  Slice indices are mixed-radix numbers
            with these digits (Alg. 1's ``I <- s*I + digit``).
    """

    def __init__(self, specs: Sequence[PartitionSpec]) -> None:
        self.n_bits = specs[0].n_bits if specs else 0
        n_specs = len(specs)
        n_slots = max((len(spec.steps) for spec in specs), default=0)
        code = np.full((n_specs, n_slots), -1, dtype=np.int64)
        start = np.zeros((n_specs, n_slots), dtype=np.int64)
        k = np.zeros((n_specs, n_slots), dtype=np.int64)
        for s, spec in enumerate(specs):
            bit = 0
            for j, step in enumerate(spec.steps):
                start[s, j] = bit
                if isinstance(step, DimPartition):
                    code[s, j] = ALL_DIMS.index(step.dim)
                elif isinstance(step, TemporalPartition):
                    code[s, j] = TEMPORAL
                    k[s, j] = step.k
                bit += step.bits_consumed
        self.code = code
        self.start = start
        self.k = k
        radix = np.ones((n_specs, n_slots, len(ALL_DIMS)), dtype=np.int64)
        radix[code[..., None] == np.arange(len(ALL_DIMS))] = 2
        temporal = code == TEMPORAL
        for dim in MNK:
            radix[temporal, dim] = 1 << k[temporal]
        self.radix = radix

    @property
    def n_specs(self) -> int:
        return self.code.shape[0]

    @property
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

    def partition_bits(self) -> np.ndarray:
        """``[spec, dim]`` bit masks (``1 << bit``) of the device-id bits
        dim partitions spend on each dim; the primitive's bits are not
        included.  For a purely spatial spec these are exactly the bit
        dependencies of every phase's DSI (paper Sec. 4.1)."""
        onehot = self.code[..., None] == np.arange(len(ALL_DIMS))
        return (onehot * (1 << self.start)[..., None]).sum(axis=1)


def boundary_matrices(specs: Sequence[PartitionSpec]) -> np.ndarray:
    """Boundary DSI matrices of a whole spec list, in one pass.

    The specs are read once into a :class:`StepTable`.  A DSI value is a
    mixed-radix number (Alg. 1's ``I <- s*I + digit``), so every boundary
    matrix is one product ``digits[p].T @ weights[s]``: ``digits[p]``
    holds digit vectors over ranks (one per device-id bit, and one per
    primitive placement and dim of ``M``/``N``/``K`` at point ``p``),
    ``weights[s]`` the place value spec ``s`` gives each of them.

    Returns:
        Shape ``(n_specs, len(BOUNDARY_POINTS), n_devices,
        len(ALL_DIMS))``, C-contiguous, in the smallest unsigned dtype
        that holds ``2^n_bits``; ``matrices[i, p, d]`` holds the DSIs of
        ``specs[i]``'s sub-operator on rank ``d`` at ``BOUNDARY_POINTS[p]``
        (Alg. 1), columns in :data:`~repro.core.dims.ALL_DIMS` order.
    """
    table = StepTable(specs)
    n_bits = table.n_bits
    code, start, k = table.code, table.start, table.k
    temporal = code == TEMPORAL
    place = table.place_values()
    # Every value below (DSIs, digits, place values) is at most 2^n_bits,
    # so all of it fits a compact dtype.
    dtype = np.min_scalar_type(1 << n_bits)

    # Digit columns: the device-id bits, then M/N/K per placement.
    placements = [
        (bit, kk)
        for kk in range(1, n_bits // 2 + 1)
        for bit in range(n_bits - 2 * kk + 1)
    ]
    column_of = np.zeros((max(n_bits, 1), n_bits // 2 + 1), dtype=np.int64)
    for i, (bit, kk) in enumerate(placements):
        column_of[bit, kk] = n_bits + 3 * i
    weights = np.zeros(
        (table.n_specs, n_bits + 3 * len(placements), len(ALL_DIMS)),
        dtype=dtype,
    )
    s_dim, j_dim = np.nonzero((code >= 0) & ~temporal)
    d_dim = code[s_dim, j_dim]
    weights[s_dim, start[s_dim, j_dim], d_dim] = place[s_dim, j_dim, d_dim]
    s_tmp, j_tmp = np.nonzero(temporal)
    column = column_of[start[s_tmp, j_tmp], k[s_tmp, j_tmp]]
    for offset, dim in enumerate(MNK):
        weights[s_tmp, column + offset, dim] = place[s_tmp, j_tmp, dim]
    digits = _digit_table(n_bits, placements).astype(dtype)
    # Digit sums never exceed the final DSI, so the product cannot wrap.
    return np.matmul(digits.transpose(0, 2, 1), weights[:, None])


def _digit_table(
    n_bits: int, placements: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Digit vectors, ``(len(BOUNDARY_POINTS), columns, n_devices)``.

    Columns ``0..n_bits-1`` are the device-id bits (bit 0 the most
    significant).  Each primitive placement ``(start bit, k)`` adds three,
    its ``M``, ``N``, ``K`` digits at each point (paper Eq. 4-6 with every
    primitive at ``t = 0`` at a start point, at ``t = 2^k - 1`` at an end).
    """
    ranks = np.arange(1 << n_bits, dtype=np.int64)
    bits = (ranks >> (n_bits - 1 - np.arange(n_bits))[:, None]) & 1
    table = np.empty(
        (len(BOUNDARY_POINTS), n_bits + 3 * len(placements), len(ranks)),
        dtype=np.int64,
    )
    table[:, :n_bits] = bits
    for i, (bit, kk) in enumerate(placements):
        side = 1 << kk
        last = side - 1
        row = np.zeros_like(ranks)
        col = np.zeros_like(ranks)
        for j in range(kk):
            row = (row << 1) | bits[bit + 2 * j]
            col = (col << 1) | bits[bit + 2 * j + 1]
        table[:, n_bits + 3 * i:n_bits + 3 * i + 3] = [
            (row, (row + col) % side, col),  # FWD_START
            (row, (row + col + last) % side, col),  # FWD_END
            (row, (row + col - 1) % side, col),  # BWD_START
            (row, (row + col - 1) % side, (col + last) % side),  # BWD_END
            ((row + last) % side, (row + col) % side, col),  # GRAD_END
        ]
    return table
