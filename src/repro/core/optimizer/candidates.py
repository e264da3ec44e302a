"""Per-operator candidate sets for the optimization algorithm.

A node's candidates are its enumerated partition space (paper Sec. 3) plus
the canonical baseline sequences (:mod:`.canonical`).  A canonical extra
that only respells an enumerated spec's grid axis (same steps, same grid
events on every dim) is that spec's *twin*: identical at every point an
edge can observe, so it is dropped in the twin's favour.  The enumerator
itself never yields two boundary-equivalent specs (EXPERIMENTS, "Collapse
census"), and were it to, a duplicate state would only enlarge the DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...graph.operators import OperatorSpec
from ...obs.metrics import counter
from ...obs.spans import span
from ..dims import ALL_DIMS, Dim
from ..layout import grid_events
from ..partitions import DimPartition
from ..spec import PartitionSpec
from ..space import enumerate_specs
from ..steps import MNK, TEMPORAL, StepTable
from .. import cost as _cost  # noqa: F401  (re-export convenience)
from ..cost.inter import (
    BWD_END,
    BWD_START,
    FWD_END,
    FWD_START,
    GRAD_END,
    SliceTables,
)
from ..cost.intra import IntraOperatorCostModel
from .canonical import canonical_specs

#: Boundary points that determine every edge-observable layout.
_BOUNDARY_POINTS = (FWD_START, FWD_END, BWD_START, BWD_END, GRAD_END)


@dataclass
class CandidateSet:
    """Candidate partition states of one operator.

    Attributes:
        op: The operator.
        specs: The enumerated specs, then the canonical extras that are not
            an earlier spec's twin (all of them, or a beam of them).
        intra: Eq. 7 totals per spec, shape ``(P,)``.
        raw_size: Enumerated specs plus every canonical extra not equal to
            one, twins included (paper's ``P``).

    Derived state (:attr:`tables`, :attr:`cache_token`) is built on first
    use and never pickled, so a priced set pickles to the bytes of a fresh
    one.
    """

    op: OperatorSpec
    specs: List[PartitionSpec]
    intra: np.ndarray
    raw_size: int

    def __len__(self) -> int:
        return len(self.specs)

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("_tables", None)
        state.pop("_cache_token", None)
        return state

    @property
    def tables(self) -> SliceTables:
        """The specs' boundary-box decoder, shared by every edge priced."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = self.__dict__["_tables"] = SliceTables(self.op, self.specs)
        return tables

    @property
    def cache_token(self) -> Tuple:
        """Hashable content identity: same token ⇒ same op type and specs.

        Memoization key material for edge cost matrices — two candidate
        sets with equal tokens produce identical inter-cost matrices for a
        structurally identical edge.
        """
        token = self.__dict__.get("_cache_token")
        if token is None:
            token = (
                type_key(self.op),
                self.specs[0].n_bits if self.specs else 0,
                tuple(spec.steps for spec in self.specs),
            )
            self.__dict__["_cache_token"] = token
        return token


def boundary_matrices(specs: Sequence[PartitionSpec]) -> np.ndarray:
    """Boundary DSI matrices of a whole spec list, in one pass.

    The specs are read once into a :class:`~repro.core.steps.StepTable`.
    A DSI value is a mixed-radix number (Alg. 1's ``I <- s*I + digit``),
    so every boundary matrix is one product ``digits[p].T @ weights[s]``:
    ``digits[p]`` holds digit vectors over ranks (one per device-id bit,
    and one per primitive placement and dim of ``M``/``N``/``K`` at point
    ``p``), ``weights[s]`` the place value spec ``s`` gives each of them.

    Returns:
        Shape ``(n_specs, len(_BOUNDARY_POINTS), n_devices,
        len(ALL_DIMS))``, in the smallest unsigned dtype that holds
        ``2^n_bits``; ``matrices[i, p]`` equals
        ``specs[i].evaluator.dsi_matrix(*_BOUNDARY_POINTS[p])``.
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
    """Digit vectors, ``(len(_BOUNDARY_POINTS), columns, n_devices)``.

    Columns ``0..n_bits-1`` are the device-id bits (bit 0 the most
    significant).  Each primitive placement ``(start bit, k)`` adds three,
    its ``M``, ``N``, ``K`` digits at each point (paper Eq. 4-6 with every
    primitive at ``t = 0`` at a start point, at ``t = 2^k - 1`` at an end).
    """
    ranks = np.arange(1 << n_bits, dtype=np.int64)
    bits = (ranks >> (n_bits - 1 - np.arange(n_bits))[:, None]) & 1
    table = np.empty(
        (len(_BOUNDARY_POINTS), n_bits + 3 * len(placements), len(ranks)),
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


def _spelling(spec: PartitionSpec) -> Tuple:
    """``spec``'s steps with every dim partition's explicit axis dropped."""
    return tuple(
        step.dim if isinstance(step, DimPartition) else step
        for step in spec.steps
    )


def _same_grid(op: OperatorSpec, a: PartitionSpec, b: PartitionSpec) -> bool:
    """Whether ``a`` and ``b`` have equal grid events on every dim."""
    return all(
        grid_events(op, a, dim) == grid_events(op, b, dim)
        for dim in op.dim_axes
    )


def inject_canonical(
    op: OperatorSpec,
    specs: List[PartitionSpec],
    extras: Sequence[PartitionSpec],
) -> Tuple[List[int], int]:
    """Append the ``extras`` to ``specs`` that no earlier spec stands for.

    An extra equal to an earlier spec, or its *twin* (the same steps up to
    axis spelling, and equal :func:`~repro.core.layout.grid_events` on
    every dim, hence the same boundary layouts and intra cost), is not
    appended; the earlier spec is protected in its place.

    Returns:
        ``(protected, twins)``: per extra, the index of the spec standing
        for it, and how many extras were twins.
    """
    by_spelling: Dict[Tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        by_spelling.setdefault(_spelling(spec), []).append(i)
    protected = []
    twins = 0
    for extra in extras:
        same = by_spelling.setdefault(_spelling(extra), [])
        match = next((i for i in same if specs[i] == extra), None)
        if match is None:
            match = next(
                (i for i in same if _same_grid(op, specs[i], extra)), None
            )
            twins += match is not None
        if match is None:
            match = len(specs)
            specs.append(extra)
            same.append(match)
        protected.append(match)
    return protected, twins


def operator_dim_limits(op: OperatorSpec) -> Dict[Dim, int]:
    """A dim cannot be split into more slices than its size."""
    return {dim: max(op.dim_size(dim), 1) for dim in Dim}


def build_candidates(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    beam: Optional[int] = None,
) -> CandidateSet:
    """Enumerate and cost one operator's partition space.

    Canonical extras join through :func:`inject_canonical`.  The kept
    specs' DSI-matrix caches come seeded with their boundary matrices, so
    edge pricing reads them instead of recomputing.

    Args:
        op: The operator node.
        n_bits: Cluster device-id bits.
        intra_model: Eq. 7 evaluator (carries the memory weight ``alpha``).
        include_temporal: Search-space switch; False reproduces the
            conventional (Megatron/Alpa) space.
        partition_batch: When False, the batch dim is excluded — the 3D
            parallelism mode of paper Sec. 6.4 where data parallelism is
            controlled externally.
        beam: Keep only the ``beam`` cheapest specs by intra cost (first
            listed on a tie), plus the canonical ones — an approximation
            used to bound search time on large clusters.
    """
    legal = list(op.legal_dims)
    if not partition_batch and Dim.B in legal:
        legal.remove(Dim.B)
    specs = enumerate_specs(
        n_bits,
        legal,
        allow_temporal=op.allow_temporal,
        include_temporal=include_temporal,
        dim_limits=operator_dim_limits(op),
        axis_options={dim: op.partition_axis_options(dim) for dim in legal},
        axis_capacities=op.axis_capacities(),
        include_replicate=not op.is_matmul_like,
    )
    extras = canonical_specs(
        op,
        n_bits,
        include_temporal=include_temporal,
        partition_batch=partition_batch,
    )
    protected, twins = inject_canonical(op, specs, extras)
    if not specs:
        raise ValueError(
            f"operator {op.name} admits no partitioning over {n_bits} bits"
        )
    raw_size = len(specs) + twins
    costs = np.array([c.total for c in intra_model.cost_batch(op, specs)])
    with span("candidates.classify", op=op.name, specs=raw_size):
        order = np.arange(len(specs))
        if beam is not None and len(specs) > beam:
            keep = set(np.argsort(costs, kind="stable")[:beam].tolist())
            # Canonical baseline specs survive the beam so the search is
            # never worse than the best Megatron configuration.
            keep.update(protected)
            order = np.array(sorted(keep))
        kept = [specs[i] for i in order]
        for spec, matrices in zip(kept, boundary_matrices(kept)):
            _seed_matrix_cache(spec, matrices)
    op_label = op.kind.name.lower()
    counter("candidates.builds", op=op_label).inc()
    counter("candidates.raw", op=op_label).inc(raw_size)
    counter("candidates.kept", op=op_label).inc(len(order))
    counter("candidates.pruned_equivalent", op=op_label).inc(twins)
    counter("candidates.beam_evicted", op=op_label).inc(len(specs) - len(order))
    return CandidateSet(
        op=op,
        specs=kept,
        intra=costs[order],
        raw_size=raw_size,
    )


def _seed_matrix_cache(spec: PartitionSpec, matrices: np.ndarray) -> None:
    """Store ``spec``'s boundary matrices in its ``dsi_matrix`` cache.

    Keys, insertion order and one array per key are exactly what calling
    ``dsi_matrix`` at each boundary point in turn leaves, so a pickled
    candidate set is byte-identical to one whose caches filled lazily.
    The slice counts are read for the same reason: they are pickled too.
    """
    spec.slice_counts
    evaluator = spec.evaluator
    cache = evaluator.__dict__.setdefault("_matrix_cache", {})
    for (phase, t), matrix in zip(_BOUNDARY_POINTS, matrices):
        key = (phase, t % evaluator.total_steps)
        if key not in cache:
            cache[key] = matrix.astype(np.int64)


def type_key(op: OperatorSpec) -> Tuple:
    """Nodes with equal type keys share candidate sets (stacked layers)."""
    return (
        op.kind,
        tuple(sorted((d.value, axes) for d, axes in op.dim_axes.items())),
        tuple(sorted(op.axis_sizes.items())),
        op.pointwise_flops,
        op.stash_inputs,
    )
