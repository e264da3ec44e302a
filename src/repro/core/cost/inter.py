"""Inter-operator redistribution cost — paper Eq. 8-9.

When consecutive operators are partitioned differently, each device must
fetch the part of its input it does not already hold.  Boundary layouts are
evaluated from the DSIs at the producer's final and the consumer's first
temporal steps (Eq. 8); per-device overlaps are intersected axis-wise in the
shared logical-axis coordinate system and the shortfall summed over devices
(Eq. 9).  Latency is a fitted linear function of the traffic (paper
Sec. 4.2), with the traffic split into an intra-node class (fetchable from a
same-node peer, e.g. the Cannon-style skew entering a temporal region) and a
cross-node class, each priced by its own profiled model.

The matrix API evaluates a whole (producer-candidates x consumer-candidates)
cost table at once — the hot path of the DP.  Every per-axis slice count is
a power of two, so ``count + index`` is a *heap id* naming one per-axis
interval whatever the spec.  :func:`boundary_ids` decodes a spec list once:
per dim it maps ``(spec, slice index)`` to heap ids (:func:`slice_ids`) and
gathers them by the DSIs of every rank at every boundary point, into one
compact array a candidate set keeps from its build on; each side's
:class:`SliceTables` only slices it.  One ``np.unique`` over the mixed-radix
combination of the per-axis heap ids numbers each side's joint boxes
(:func:`_joint_ids`).
``overlap / length`` is tabulated once per axis over the two sides' heap
ids, and the box-pair coverage table is the product of gathers from those
factor tables in a fixed axis order (:func:`_coverage`): every element
takes the same float ops as a per-rank evaluation.  Eq. 9 is then summed
over whole node blocks (:func:`_shortfall`), which reorders the per-rank
sums without moving a bit: both sides split an axis into power-of-two
parts, so each rank's ``v·own`` and ``v·node`` term is an integer element
count below 2^53 (``tests/test_cost_inter.py`` asserts it for every edge
of the six models), and integer sums below 2^53 are exact in any order.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...cluster.profiler import FabricProfiler
from ...graph.graph import ComputationGraph, Edge
from ...graph.operators import OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Dim, Phase
from ..layout import grid_events
from ..spec import PartitionSpec
from ..steps import (
    BOUNDARY_POINTS,
    BWD_START,
    FWD_END,
    FWD_START,
    boundary_matrices,
)

#: Byte budget of one chunk's float64 temporary in batched products (the
#: node-block coverage gather here, the min-plus broadcast in the DP); a
#: chunk holds at least one node block or column.  Small chunks stay in
#: cache and in the allocator's heap: on a 2-vCPU x86-64 host, 256 KiB ran
#: the exact 16-device OPT-175B DP and merge 1.5-1.8x faster than 1 MiB or
#: 32 MiB.
CHUNK_BYTES = 256 << 10

#: Per-axis ``(ids, intervals)`` pairs: heap ids and each heap id's interval.
Decoded = Dict[str, Tuple[np.ndarray, np.ndarray]]


def _heap_intervals(sizes: Sequence[int], n_heaps: int) -> np.ndarray:
    """``intervals[a, h]``: heap id ``h``'s half-open interval on an axis
    of size ``sizes[a]``, for ``h < n_heaps``.  Heap id ``h`` is part ``h
    - n`` of ``n``, ``n`` the largest power of two ``<= h``; row 0 is the
    whole axis."""
    heap = np.maximum(np.arange(n_heaps), 1)
    n = 1 << (np.frexp(heap)[1].astype(np.int64) - 1)
    j = heap - n
    base, extra = np.divmod(np.asarray(sizes, dtype=np.int64)[:, None], n)
    start = j * base + np.minimum(j, extra)
    return np.stack([start, start + base + (j < extra)], axis=-1)


def slice_ids(op: OperatorSpec, specs: Sequence[PartitionSpec], dim: Dim) -> Decoded:
    """Every slice of ``dim`` under each of ``specs``, as per-axis heap ids.

    Returns, for each logical axis of ``dim``, ``(ids, intervals)``:
    ``ids[s, i]`` is the heap id ``count + index`` of slice ``i`` under
    spec ``s`` (the spec splits the axis into ``count`` parts, the slice
    is part ``index``), and ``intervals[h]`` is heap id ``h``'s half-open
    interval in absolute axis units (row 0 is the whole axis).  A spec's
    ids past its own slice count are never read.  A slice index is a
    mixed-radix number whose digits are the spec's grid events (most
    significant first), peeled off for every spec and index together
    (fewer events pad with radix-1 digits) and folded into per-axis
    indices.  Part ``j`` of ``n`` over ``size`` starts at ``j * (size //
    n) + min(j, size % n)``, so a heap id names one interval whatever the
    spec only if every count is a power of two; ``ValueError`` otherwise.
    """
    axes = tuple(op.dim_axes[dim])
    n_specs = len(specs)
    events = [grid_events(op, spec, dim) for spec in specs]
    width = max(len(spec_events) for spec_events in events)
    factors = np.ones((n_specs, width), dtype=np.int64)
    owner = np.full((n_specs, width), -1)
    for s, spec_events in enumerate(events):
        for j, (axis, factor) in enumerate(spec_events):
            factors[s, j] = factor
            owner[s, j] = axes.index(axis)
    # hits[a, s, j]: event j of spec s splits axis a.
    hits = owner == np.arange(len(axes))[:, None, None]
    axis_factors = np.where(hits, factors, 1)
    total = factors.prod(axis=1)[:, None]
    n_slices = int(total.max())
    remainder = np.arange(n_slices)
    index = np.zeros((len(axes), n_specs, n_slices), dtype=np.int64)
    for j in range(width):
        total = total // factors[:, j, None]
        digit = remainder // total
        remainder = remainder % total
        index = index * axis_factors[:, :, j, None] + hits[:, :, j, None] * digit
    counts = axis_factors.prod(axis=2)
    uneven = counts & (counts - 1)
    if uneven.any():
        a, s = np.argwhere(uneven)[0]
        raise ValueError(
            f"{op.name}: {dim.value} splits axis {axes[a]!r} into "
            f"{counts[a, s]} slices under {specs[s]}, not a power of two"
        )
    ids = counts[:, :, None] + index
    intervals = _heap_intervals(
        [op.axis_sizes[a] for a in axes], 2 * int(counts.max())
    )
    return {axis: (ids[a], intervals[a]) for a, axis in enumerate(axes)}


def boundary_axes(op: OperatorSpec) -> Tuple[str, ...]:
    """``op``'s logical axes in :func:`boundary_ids` column order: each
    dim's axes, dims in :data:`~repro.core.dims.ALL_DIMS` order."""
    return tuple(axis for dim in ALL_DIMS for axis in op.dim_axes.get(dim, ()))


def boundary_ids(
    op: OperatorSpec,
    specs: Sequence[PartitionSpec],
    boundary: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Every spec's boundary layouts as per-axis heap ids, in one pass.

    ``ids[s, p, d, a]`` is the heap id of the slice of axis
    ``boundary_axes(op)[a]`` that rank ``d`` holds under ``specs[s]`` at
    ``BOUNDARY_POINTS[p]``, shape ``(n_specs, len(BOUNDARY_POINTS),
    n_devices, n_axes)`` in the smallest unsigned dtype that holds every
    heap id.  Each dim's :func:`slice_ids` is built once and gathered by
    spec and by the DSI column of ``boundary`` (the specs'
    :func:`~repro.core.steps.boundary_matrices`, computed when not
    given), one gather per axis for all five points.
    """
    if boundary is None:
        boundary = boundary_matrices(specs)
    rows = np.arange(len(specs))[:, None, None]
    gathered = []
    for dim in ALL_DIMS:
        if not op.dim_axes.get(dim):
            continue
        column = boundary[..., ALL_DIMS.index(dim)]
        for ids, _ in slice_ids(op, specs, dim).values():
            gathered.append(ids[rows, column])
    ids = np.stack(gathered, axis=-1)
    return ids.astype(np.min_scalar_type(int(ids.max())))


class SliceTables:
    """Per-axis heap ids of one operator's specs at every boundary point.

    Wraps :func:`boundary_ids`' array, plus ``intervals[a, h]``, heap id
    ``h``'s interval on axis ``a`` for every heap id up to the largest
    held (in closed form from the axis sizes, so never stored).  A
    candidate set decodes its specs once, at build, and keeps the array
    (:attr:`~repro.core.optimizer.candidates.CandidateSet.heap_ids`);
    its decoder (:attr:`~repro.core.optimizer.candidates.CandidateSet.
    tables`, never pickled) only slices it.  A priced plan decodes one
    spec per node through the same function (:meth:`decode`,
    :meth:`InterOperatorCostModel.plan_edge_costs`).
    """

    def __init__(self, op: OperatorSpec, ids: np.ndarray) -> None:
        self.op = op
        self.ids = ids
        self.columns = {axis: a for a, axis in enumerate(boundary_axes(op))}
        self.intervals = _heap_intervals(
            [op.axis_sizes[axis] for axis in self.columns], int(ids.max()) + 1
        )

    @classmethod
    def decode(
        cls,
        op: OperatorSpec,
        specs: Sequence[PartitionSpec],
        boundary: Optional[np.ndarray] = None,
    ) -> "SliceTables":
        """The decoder of ``specs``, by :func:`boundary_ids`."""
        return cls(op, boundary_ids(op, specs, boundary))

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def n_devices(self) -> int:
        return self.ids.shape[2]

    def axis_ids(self, point: Tuple[Phase, int], dims: Sequence[Dim]) -> Decoded:
        """Boundary layouts of the specs at ``point``, as heap ids.

        Returns, for each logical axis spanned by ``dims`` (in ``dims``
        order, then each dim's axes), ``(ids, intervals)``: ``ids`` is
        the ``(n_specs, n_devices)`` heap id of the slice each rank holds
        at ``point``, one of :data:`BOUNDARY_POINTS`.
        """
        at = self.ids[:, BOUNDARY_POINTS.index(point)]
        decoded: Decoded = {}
        for dim in dims:
            for axis in self.op.dim_axes.get(dim, ()):
                a = self.columns[axis]
                decoded[axis] = (at[..., a], self.intervals[a])
        return decoded


def _rename(decoded: Decoded, axis_map: Mapping[str, str]) -> Decoded:
    return {axis_map.get(axis, axis): pair for axis, pair in decoded.items()}


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer intersection lengths of broadcastable interval arrays ``[..., 2]``."""
    lo = np.maximum(a[..., 0], b[..., 0])
    hi = np.minimum(a[..., 1], b[..., 1])
    hi -= lo
    return np.maximum(hi, 0, out=hi)


def _length(intervals: np.ndarray) -> np.ndarray:
    return (intervals[:, 1] - intervals[:, 0]).astype(float)


def _joint_ids(
    decoded: Decoded, axes: Sequence[str], shape: Tuple[int, int]
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Joint box ids of every (spec, rank) over ``axes``.

    Returns ``(ids, heaps)``: ``ids`` has ``shape`` and numbers the
    distinct joint boxes densely; ``heaps[axis]`` is the heap id of each
    joint box on ``axis``.  The per-axis heap ids are read as the digits
    of one mixed-radix key (radix: the axis's heap-id count), and one
    ``np.unique`` over the keys groups equal boxes.
    """
    keys = np.zeros(shape, dtype=np.int64)
    for axis in axes:
        ids, intervals = decoded[axis]
        keys *= len(intervals)
        keys += ids
    boxes, joint = np.unique(keys.ravel(), return_inverse=True)
    heaps: Dict[str, np.ndarray] = {}
    for axis in reversed(axes):
        boxes, heaps[axis] = np.divmod(boxes, len(decoded[axis][1]))
    return joint.reshape(shape), heaps


def _coverage(
    held_ids: Decoded, held_axes: Sequence[str], held_shape: Tuple[int, int],
    need_ids: Decoded, need_axes: Sequence[str], need_shape: Tuple[int, int],
) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """``(held, held_heaps, need, table)``: joint boxes and their coverage.

    ``held`` / ``need`` are the sides' :func:`_joint_ids` over
    ``held_axes`` / ``need_axes``; ``table[i, j]`` is the share of needed
    box ``j`` that held box ``i`` covers.  Per axis of ``need_axes``, in
    order, ``overlap / length`` is tabulated over the two sides' heap ids
    (at most ``(2 * n_devices)**2`` entries) and gathered into the table.
    """
    held, held_heaps = _joint_ids(held_ids, held_axes, held_shape)
    need, need_heaps = _joint_ids(need_ids, need_axes, need_shape)
    table = np.ones((held.max() + 1, need.max() + 1))
    for axis in need_axes:
        held_iv, need_iv = held_ids[axis][1], need_ids[axis][1]
        factor = _overlap(held_iv[:, None], need_iv) / np.maximum(
            _length(need_iv), 1e-12
        )
        table *= factor[held_heaps[axis]][:, need_heaps[axis]]
    return held, held_heaps, need, table


def _shortfall(
    table: np.ndarray,
    held: np.ndarray,
    need: np.ndarray,
    v: np.ndarray,
    gpus_per_node: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 9 ``(intra, inter)`` shortfall in elements, shape (n_held, n_need).

    ``table[i, j]`` is the share of needed box ``j`` that held box ``i``
    covers, ``held`` / ``need`` give every (spec, rank) its box id, and
    ``v`` is the needed volume per (spec, rank).  Rank ``d`` covers
    ``own = table[held[h, d], need[n, d]]``; its node covers ``node``,
    the max of that over the XOR peers ``{d ^ m : m < gpn}`` (``gpn`` is
    ``gpus_per_node`` capped at ``n_devices``), which are exactly its
    aligned block, as ``n_devices`` is a power of two that ``gpn``
    divides.  Whole node blocks at a time, as many as fit
    :data:`CHUNK_BYTES` (at least one), the held rows are gathered once
    as ``(n_held, ranks, n_cols)`` and maxed over each block's slots, and
    one ``einsum`` each sums ``v·own`` and ``v·node`` over the ranks.  Then
    ``intra = Σ v·node − Σ v·own`` and ``inter = Σ v − Σ v·node``, exact
    as every term is an integer below 2^53.  No clip at 0 is needed: a
    rank is in its own block, so node >= own, and node <= 1.
    """
    n_h, n_dev = held.shape
    gpn = min(gpus_per_node, n_dev)
    n_cols = table.shape[1]
    widest = n_h * gpn * max(n_cols, len(need)) * table.itemsize
    step = gpn * max(1, CHUNK_BYTES // widest)
    own = np.zeros((n_h, len(need)))
    node = np.zeros((n_h, len(need)))
    for lo in range(0, n_dev, step):
        ranks = np.arange(min(step, n_dev - lo))[:, None]
        rows = table[held[:, lo : lo + step]]
        best = rows.reshape(n_h, -1, gpn, n_cols).max(axis=2)
        cols = need[:, lo : lo + step].T
        weight = v[:, lo : lo + step].T
        own += np.einsum("hrn,rn->hn", rows[:, ranks, cols], weight)
        node += np.einsum("hrn,rn->hn", best[:, ranks // gpn, cols], weight)
    intra = np.subtract(node, own, out=own)
    inter = np.subtract(v.sum(axis=1), node, out=node)
    return intra, inter


class InterOperatorCostModel:
    """Evaluates ``interC(n1, n2, P1, P2)`` — scalar and matrix forms."""

    def __init__(self, profiler: FabricProfiler) -> None:
        self.profiler = profiler
        self.intra_model = profiler.redistribution_model(intra_node=True)
        self.inter_model = profiler.redistribution_model(intra_node=False)

    # ------------------------------------------------------------------
    # traffic (elements)
    # ------------------------------------------------------------------

    def forward_traffic_matrix(
        self, edge: Edge, prod: SliceTables, cons: SliceTables
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9 forward traffic in elements, shape (n_prod, n_cons).

        Returns ``(intra, inter)``: bytes fetchable from a same-node peer
        versus bytes that must cross nodes.
        """
        slot = cons.op.slot(edge.slot)
        cons_ids = cons.axis_ids(FWD_START, slot.fwd_dims)
        prod_ids = _rename(prod.axis_ids(FWD_END, prod.op.output_dims), edge.axis_map)
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod.n_devices
        v = np.ones((len(cons), n_dev))
        for ids, intervals in cons_ids.values():
            v *= _length(intervals)[ids]
        # Coverage terms, in a fixed order: axes both sides hold (consumer
        # decode order), then producer-only axes.  Consumer-only axes
        # contribute nothing: the producer implicitly spans them.
        shared = [axis for axis in cons_ids if axis in prod_ids]
        prod_only = [axis for axis in prod_ids if axis not in cons_ids]
        pid, p_heaps, cid, table = _coverage(
            prod_ids, shared + prod_only, (len(prod), n_dev),
            cons_ids, shared, (len(cons), n_dev),
        )
        for axis in prod_only:
            interval = fixed.get(axis)
            window = np.array(
                [0, prod.op.axis_sizes.get(axis, 1)] if interval is None
                else [interval.start, interval.stop]
            )
            width = float(max(window[1] - window[0], 1))
            factor = _overlap(prod_ids[axis][1], window) / width
            table *= factor[p_heaps[axis]][:, None]
        # A consumer rank may read any same-node producer rank.
        return _shortfall(table, pid, cid, v, self.profiler.topology.gpus_per_node)

    def backward_traffic_matrix(
        self, edge: Edge, prod: SliceTables, cons: SliceTables
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-direction traffic: consumer's slot-grad -> producer's dO.

        Returns ``(intra, inter)`` element matrices like the forward case.
        """
        slot = cons.op.slot(edge.slot)
        holder_ids = cons.axis_ids((slot.grad_phase, -1), slot.fwd_dims)
        needed_ids = _rename(
            prod.axis_ids(BWD_START, prod.op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod.n_devices
        # This edge supplies only the src_fixed window of the producer's
        # gradient (the Q/K/V third); restrict the demand accordingly.
        v = np.ones((len(prod), n_dev))
        restricted: Decoded = {}
        for axis, (ids, intervals) in needed_ids.items():
            interval = fixed.get(axis)
            if interval is not None:
                lo = np.maximum(intervals[:, 0], interval.start)
                hi = np.minimum(intervals[:, 1], interval.stop)
                intervals = np.stack([lo, np.maximum(hi, lo)], axis=-1)
            restricted[axis] = (ids, intervals)
            v *= _length(intervals)[ids]
        terms = [axis for axis in restricted if axis in holder_ids]
        hid, _, nid, table = _coverage(
            holder_ids, terms, (len(cons), n_dev),
            restricted, terms, (len(prod), n_dev),
        )
        # A producer rank may read any same-node consumer rank.
        intra_elems, inter_elems = _shortfall(
            table, hid, nid, v, self.profiler.topology.gpus_per_node
        )
        return np.ascontiguousarray(intra_elems.T), np.ascontiguousarray(inter_elems.T)

    # ------------------------------------------------------------------
    # latency
    # ------------------------------------------------------------------

    def _predict(
        self, intra_elems: np.ndarray, inter_elems: np.ndarray, n_dev: int
    ) -> np.ndarray:
        """Latency matrices from per-class traffic element matrices.

        The fitted models take per-device payloads; Eq. 9's totals spread
        evenly over the devices' links in an SPMD redistribution.
        """
        latency = np.zeros(intra_elems.shape)
        for elems, model in (
            (intra_elems, self.intra_model), (inter_elems, self.inter_model)
        ):
            payload = elems * DTYPE_BYTES / n_dev
            latency += np.where(
                payload > 0, np.maximum(model.base + payload * model.per_byte, 0.0), 0.0
            )
        return latency

    def cost_matrix(
        self, edge: Edge, prod: SliceTables, cons: SliceTables
    ) -> np.ndarray:
        """``interC`` over all candidate pairs, shape (n_prod, n_cons)."""
        fwd_intra, fwd_inter = self.forward_traffic_matrix(edge, prod, cons)
        bwd_intra, bwd_inter = self.backward_traffic_matrix(edge, prod, cons)
        return self._predict(
            fwd_intra + bwd_intra, fwd_inter + bwd_inter, prod.n_devices
        )

    def edge_costs(
        self, edge: Edge, prod: SliceTables, cons: SliceTables
    ) -> Tuple[float, float, float]:
        """Scalar ``(interC, forward, backward)`` of one edge.

        ``prod`` and ``cons`` decode one spec each.  ``interC`` prices the
        summed traffic of both directions, exactly as :meth:`cost_matrix`
        does; ``forward`` and ``backward`` price each direction alone, for
        the engine to schedule at its actual point in the iteration.  Each
        direction's traffic is computed once and the three are priced in
        one elementwise :meth:`_predict`.
        """
        fwd_intra, fwd_inter = self.forward_traffic_matrix(edge, prod, cons)
        bwd_intra, bwd_inter = self.backward_traffic_matrix(edge, prod, cons)
        intra = np.concatenate([fwd_intra + bwd_intra, fwd_intra, bwd_intra], axis=1)
        inter = np.concatenate([fwd_inter + bwd_inter, fwd_inter, bwd_inter], axis=1)
        total, forward, backward = self._predict(
            intra, inter, prod.n_devices
        )[0].tolist()
        return total, forward, backward

    def plan_edge_costs(
        self, graph: ComputationGraph, plan: Mapping[str, PartitionSpec]
    ) -> Tuple[Tuple[Edge, float, float, float], ...]:
        """``(edge,) + edge_costs`` of every edge, in ``graph.edges`` order.

        Each node's spec gets one :class:`SliceTables`, shared by all of
        the node's edges and dropped on return; one
        :func:`~repro.core.steps.boundary_matrices` pass serves them all.
        """
        specs = [plan[node.name] for node in graph.nodes]
        boundary = boundary_matrices(specs)
        tables = {
            node.name: SliceTables.decode(
                node, specs[i : i + 1], boundary[i : i + 1]
            )
            for i, node in enumerate(graph.nodes)
        }
        return tuple(
            (edge,) + self.edge_costs(edge, tables[edge.src], tables[edge.dst])
            for edge in graph.edges
        )
