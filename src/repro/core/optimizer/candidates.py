"""Per-operator candidate sets for the optimization algorithm.

A node's raw partition space (paper Sec. 3) may contain many sequences that
are *boundary-equivalent*: they induce identical tensor layouts at every
point an edge can observe (Forward/Backward first and last steps, Gradient
last step).  Inter-operator costs depend only on those boundary layouts
(Eq. 8-9), so collapsing each equivalence class to its cheapest member is an
exact reduction of the DP state space — the search stays optimal while the
``O(P^3)`` Bellman products shrink substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...graph.operators import OperatorSpec
from ...obs.metrics import counter
from ...obs.spans import span
from ..dims import ALL_DIMS, Dim
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
    """Collapsed candidate partition states of one operator.

    Attributes:
        op: The operator.
        specs: One representative spec per boundary-equivalence class, the
            cheapest of its class under the intra-operator cost.
        intra: Eq. 7 totals per representative, shape ``(P,)``.
        raw_size: Size of the un-collapsed space (paper's ``P``).

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


def boundary_classes(
    op: OperatorSpec, specs: Sequence[PartitionSpec]
) -> Tuple[np.ndarray, np.ndarray]:
    """Boundary-equivalence class ids of a whole spec list, in one pass.

    Two specs share a class exactly when they agree on slice counts, on
    every dim's grid events (:func:`~repro.core.layout.grid_events`) and
    on the DSI matrices at all :data:`_BOUNDARY_POINTS`.

    The specs are read once into a :class:`~repro.core.steps.StepTable`.
    A DSI value is a mixed-radix number (Alg. 1's ``I <- s*I + digit``),
    so every boundary matrix is one product ``digits[p].T @ weights[s]``:
    ``digits[p]`` holds digit vectors over ranks (one per device-id bit,
    and one per primitive placement and dim of ``M``/``N``/``K`` at point
    ``p``), ``weights[s]`` the place value spec ``s`` gives each of them.
    Default grid axes are resolved slot by slot for all specs at once, and
    the ids come from one ``np.unique`` over the stacked rows.

    Returns:
        ``(ids, matrices)``: class ids, shape ``(n_specs,)``, and the
        boundary DSI matrices, shape ``(n_specs, len(_BOUNDARY_POINTS),
        n_devices, len(ALL_DIMS))``, in the smallest unsigned dtype that
        holds ``2^n_bits``; ``matrices[i, p]`` equals
        ``specs[i].evaluator.dsi_matrix(*_BOUNDARY_POINTS[p])``.
    """
    table = StepTable(specs)
    n_bits = table.n_bits
    n_specs = table.n_specs
    code, start, k = table.code, table.start, table.k
    temporal = code == TEMPORAL
    place = table.place_values()
    # Every value below (DSIs, digits, place values, slice counts, grid
    # factors) is at most 2^n_bits, so all of it fits a compact dtype.
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
        (n_specs, n_bits + 3 * len(placements), len(ALL_DIMS)), dtype=dtype
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
    matrices = np.matmul(digits.transpose(0, 2, 1), weights[:, None])

    parts = [table.slice_counts]
    for dim in Dim:
        if op.dim_axes.get(dim):
            parts.extend(_grid_events(op, dim, table))
    parts.append(matrices.reshape(n_specs, -1))
    rows = np.concatenate([part.astype(dtype) for part in parts], axis=1)
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))
    _, ids = np.unique(keys.ravel(), return_inverse=True)
    return ids.ravel(), matrices


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


def _grid_events(
    op: OperatorSpec, dim: Dim, table: StepTable
) -> List[np.ndarray]:
    """``dim``'s grid events for every spec, as ``[axis + 1, factor]`` rows.

    Resolves :func:`~repro.core.layout.default_axis` slot by slot for all
    specs at once, then moves each spec's events to the front in step
    order (zero padding), so equal rows mean equal event lists.
    """
    axes = tuple(op.dim_axes[dim])
    column = ALL_DIMS.index(dim)
    touches = table.code == column
    if column in MNK:
        touches |= table.code == TEMPORAL
    # Explicit axes as positions in ``axes``: -2 marks a foreign axis, and
    # the trailing -1 is what a default axis (index -1) looks up.
    position = np.array(
        [axes.index(name) if name in axes else -2 for name in table.axis_names]
        + [-1],
        dtype=np.int64,
    )
    explicit = np.where(touches, position[table.axis], -1)
    foreign = np.nonzero(explicit == -2)
    if len(foreign[0]):
        name = table.axis_names[table.axis[foreign][0]]
        raise ValueError(
            f"axis {name!r} not part of {op.name}'s {dim.value} (axes: {axes})"
        )
    sizes = np.array([op.axis_sizes[name] for name in axes], dtype=np.int64)
    radix = table.radix[:, :, column]
    factors = np.ones((table.n_specs, len(axes)), dtype=np.int64)
    chosen = np.zeros(touches.shape, dtype=np.int64)
    for j in range(touches.shape[1]):
        hit = np.nonzero(touches[:, j])[0]
        if not len(hit):
            continue
        multiplier = radix[hit, j]
        fits = factors[hit] * multiplier[:, None] <= sizes
        default = np.where(
            fits.any(axis=1),
            fits.argmax(axis=1),
            (sizes / factors[hit]).argmax(axis=1),
        )
        pick = np.where(explicit[hit, j] >= 0, explicit[hit, j], default)
        factors[hit, pick] *= multiplier
        chosen[hit, j] = pick + 1
    order = np.argsort(~touches, axis=1, kind="stable")
    return [
        np.take_along_axis(chosen, order, axis=1),
        np.take_along_axis(np.where(touches, radix, 0), order, axis=1),
    ]


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
    """Enumerate, cost and collapse one operator's partition space.

    Each boundary-equivalence class keeps its cheapest member (the first
    one on a cost tie).  The kept specs' DSI-matrix caches come seeded
    with their boundary matrices, so edge pricing reads them instead of
    recomputing.

    Args:
        op: The operator node.
        n_bits: Cluster device-id bits.
        intra_model: Eq. 7 evaluator (carries the memory weight ``alpha``).
        include_temporal: Search-space switch; False reproduces the
            conventional (Megatron/Alpa) space.
        partition_batch: When False, the batch dim is excluded — the 3D
            parallelism mode of paper Sec. 6.4 where data parallelism is
            controlled externally.
        beam: Keep only the ``beam`` cheapest classes by intra cost — an
            approximation used to bound search time on large clusters.
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
    protected = []
    for extra in extras:
        if extra not in specs:
            specs.append(extra)
        protected.append(specs.index(extra))
    if not specs:
        raise ValueError(
            f"operator {op.name} admits no partitioning over {n_bits} bits"
        )
    raw_size = len(specs)
    costs = np.array([c.total for c in intra_model.cost_batch(op, specs)])
    with span("candidates.classify", op=op.name, specs=raw_size):
        ids, matrices = boundary_classes(op, specs)
        # Per class id, its cheapest member: lexsort is stable, so the
        # first index wins a cost tie.
        by_class = np.lexsort((costs, ids))
        best = by_class[np.unique(ids[by_class], return_index=True)[1]]
        order = np.sort(best)
        n_classes = len(order)
        if beam is not None and len(order) > beam:
            by_cost = order[np.argsort(costs[order], kind="stable")]
            keep = set(by_cost[:beam].tolist())
            # Canonical baseline specs survive the beam so the search is
            # never worse than the best Megatron configuration.
            keep.update(best[ids[protected]].tolist())
            order = np.array(sorted(keep))
        kept = [specs[i] for i in order]
        for i, spec in zip(order, kept):
            _seed_matrix_cache(spec, matrices[i])
    op_label = op.kind.name.lower()
    counter("candidates.builds", op=op_label).inc()
    counter("candidates.raw", op=op_label).inc(raw_size)
    counter("candidates.kept", op=op_label).inc(len(order))
    counter("candidates.pruned_equivalent", op=op_label).inc(
        raw_size - n_classes
    )
    counter("candidates.beam_evicted", op=op_label).inc(n_classes - len(order))
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
