"""Stacked integer step tables: a whole spec list read at once.

Bulk passes over a candidate list (boundary matrices, all-reduce pricing)
read every spec's partition sequence once into integer arrays, then work
on those with numpy instead of walking :class:`PartitionStep` objects spec
by spec.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dims import ALL_DIMS, Dim
from .partitions import DimPartition, TemporalPartition
from .spec import PartitionSpec

#: Step code of the temporal primitive.  A dim partition's code is its
#: :data:`~repro.core.dims.ALL_DIMS` index; a replicate step or padding
#: is -1.
TEMPORAL = len(ALL_DIMS)

#: ``ALL_DIMS`` indices of the dims the primitive splits, ``M``, ``N``, ``K``.
MNK = tuple(ALL_DIMS.index(dim) for dim in (Dim.M, Dim.N, Dim.K))


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
