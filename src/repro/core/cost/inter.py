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
cost table at once — the hot path of the DP.  A slice's interval depends on
its spec, dim and index only, never on the boundary point, so each side's
:class:`SliceTables` maps ``(spec, slice index)`` to the interval on every
axis, built once per dim (:func:`slice_tables`) and kept for as long as the
spec list: a candidate set owns one for the whole search.  Decoding the
boundary boxes of every spec and rank at a point is then one gather per
axis, indexed by the stacked DSI matrices.  Each side then numbers its
distinct joint boxes (:func:`_box_ids`: a few hundred, since an axis holds
at most ``2 * n_devices - 1`` dyadic slices), and the per-axis coverage
fractions are multiplied once per *box pair* into a small table, in a fixed
axis order.  A rank's own coverage is a gather from that table.  Its best
same-node coverage is a gather from the per-node-block max of the table's
rows (:func:`_shortfall`): the XOR peers of a rank are exactly its aligned
block of ``gpus_per_node`` ranks.  Every element takes the same float ops
as a per-rank evaluation, so the matrices are exact.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...cluster.profiler import FabricProfiler
from ...graph.graph import ComputationGraph, Edge
from ...graph.operators import OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ...obs.metrics import counter
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
#: chunk holds at least one row or column.  Small chunks stay in cache and
#: in the allocator's heap: on a 2-vCPU x86-64 host, 256 KiB ran the exact
#: 16-device OPT-175B DP and merge 1.5-1.8x faster than 1 MiB or 32 MiB.
CHUNK_BYTES = 256 << 10


def slice_tables(
    op: OperatorSpec, specs: Sequence[PartitionSpec], dim: Dim
) -> Dict[str, np.ndarray]:
    """Every slice of ``dim`` under each of ``specs``, as axis intervals.

    Returns, for each logical axis of ``dim``, an ``(n_specs, n_slices,
    2)`` integer array: row ``[s, i]`` is the half-open interval, in
    absolute axis units, of slice ``i`` under spec ``s`` (the tests check
    it against a scalar per-slice oracle).  ``n_slices`` is the
    largest slice count of ``dim`` among the specs; a spec's rows past its
    own count are never read.  A slice index is a mixed-radix number whose
    digits are the spec's grid events (most significant first); the digits
    of every spec and index are peeled off together with integer ops
    (specs with fewer events are padded with radix-1 digits, which are
    always 0), folded into per-axis indices, and spread evenly: slice
    ``j`` of ``n`` over ``size`` starts at ``j * (size // n) + min(j,
    size % n)``.
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
    counts = axis_factors.prod(axis=2)[:, :, None]
    sizes = np.array([op.axis_sizes[axis] for axis in axes])[:, None, None]
    base = sizes // counts
    extra = sizes % counts
    start = index * base + np.minimum(index, extra)
    stop = start + base + (index < extra)
    return {
        axis: np.stack([start[a], stop[a]], axis=-1) for a, axis in enumerate(axes)
    }


class SliceTables:
    """Boundary-box decoder of one operator's spec list.

    Holds one :func:`slice_tables` per dim, built on first use and reused
    by every later decode; ``inter.decode_tables{outcome=build|reuse}``
    counts the two, once per decoded dim.  ``boundary`` is the specs'
    stacked :func:`~repro.core.steps.boundary_matrices`, computed here
    when not given.  A candidate set owns one decoder for the whole
    search, over its own boundary array (:attr:`~repro.core.optimizer.
    candidates.CandidateSet.tables`, never pickled); a priced plan gets a
    one-spec decoder per node, each over its row of one boundary pass for
    the plan (:meth:`InterOperatorCostModel.plan_edge_costs`).
    """

    def __init__(
        self,
        op: OperatorSpec,
        specs: Sequence[PartitionSpec],
        boundary: Optional[np.ndarray] = None,
    ) -> None:
        self.op = op
        self.specs = specs
        self.boundary = boundary_matrices(specs) if boundary is None else boundary
        self._tables: Dict[Dim, Dict[str, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def n_devices(self) -> int:
        return self.specs[0].n_devices

    def boxes(
        self, point: Tuple[Phase, int], dims: Sequence[Dim]
    ) -> Dict[str, np.ndarray]:
        """Boundary layouts of the specs at ``point``.

        Returns, for each logical axis spanned by ``dims``, an
        ``(n_specs, n_devices, 2)`` integer array of half-open intervals:
        rank by rank the slice at the rank's DSI.  Each axis is one gather
        from its table, by spec and by the rank's DSI (a slice of the
        boundary array at ``point``, one of :data:`BOUNDARY_POINTS`).
        """
        matrices = self.boundary[:, BOUNDARY_POINTS.index(point)]
        rows = np.arange(len(self.specs))[:, None]
        boxes: Dict[str, np.ndarray] = {}
        for dim in dims:
            if not self.op.dim_axes.get(dim):
                continue
            tables = self._tables.get(dim)
            counter(
                "inter.decode_tables",
                outcome="build" if tables is None else "reuse",
            ).inc()
            if tables is None:
                tables = self._tables[dim] = slice_tables(self.op, self.specs, dim)
            column = matrices[:, :, ALL_DIMS.index(dim)]
            for axis, table in tables.items():
                boxes[axis] = table[rows, column]
        return boxes


def _rename(boxes: Mapping[str, np.ndarray], axis_map: Mapping[str, str]) -> Dict[str, np.ndarray]:
    return {axis_map.get(axis, axis): box for axis, box in boxes.items()}


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer intersection lengths of broadcastable interval arrays ``[..., 2]``."""
    lo = np.maximum(a[..., 0], b[..., 0])
    hi = np.minimum(a[..., 1], b[..., 1])
    hi -= lo
    return np.maximum(hi, 0, out=hi)


def _box_ids(
    boxes: Mapping[str, np.ndarray], axes: Sequence[str], shape: Tuple[int, int]
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Joint box ids of every (spec, rank) over ``axes``.

    Returns ``(ids, intervals)``: ``ids`` has ``shape`` and numbers the
    distinct joint boxes densely; ``intervals[axis]`` is the
    ``(n_boxes, 2)`` interval of each joint box on ``axis``.  Each
    interval is keyed ``start * (max_stop + 1) + stop``, and one lexsort
    over the per-axis keys groups equal boxes.
    """
    n = shape[0] * shape[1]
    # Row 0 is a constant key, so there is one even without axes.
    keys = np.zeros((len(axes) + 1, n), dtype=np.int64)
    for row, axis in zip(keys[1:], axes):
        box = boxes[axis].reshape(-1, 2)
        np.multiply(box[:, 0], int(box[:, 1].max()) + 1, out=row)
        row += box[:, 1]
    order = np.lexsort(keys)
    ordered = keys[:, order]
    fresh = np.ones(n, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=fresh[1:])
    ids = np.empty(n, dtype=np.intp)
    ids[order] = np.cumsum(fresh) - 1
    first = order[fresh]
    intervals = {axis: boxes[axis].reshape(-1, 2)[first] for axis in axes}
    return ids.reshape(shape), intervals


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
    ``table[held[h, d], need[n, d]]`` itself; its node covers the max of
    that over the XOR peers ``{d ^ m : m < gpn}``, where ``gpn`` is
    ``gpus_per_node`` capped at ``n_devices``.  ``n_devices`` is a power of
    two and ``gpn`` divides it, so those peers are exactly the aligned
    block ``d // gpn``: one per-block max of the held rows serves every
    needed box.  It is gathered one block slot at a time, in chunks of
    held specs sized by :data:`CHUNK_BYTES`.
    """
    n_h, n_dev = held.shape
    gpn = min(gpus_per_node, n_dev)
    n_blocks = n_dev // gpn
    n_cols = table.shape[1]
    best = np.empty((n_h, n_blocks, n_cols))
    rows = max(1, CHUNK_BYTES // (n_blocks * n_cols * best.itemsize))
    for lo in range(0, n_h, rows):
        members = held[lo : lo + rows].reshape(-1, n_blocks, gpn)
        out = best[lo : lo + rows]
        out[...] = table[members[:, :, 0]]
        for slot in range(1, gpn):
            np.maximum(out, table[members[:, :, slot]], out=out)
    blocks = np.arange(n_dev) // gpn * n_cols
    own = table[held[:, None, :], need[None, :, :]]
    node = best.reshape(n_h, -1)[:, need + blocks]
    # v·(1 − node) and v·(node − own), computed in place so the tail
    # allocates no more (n_held, n_need, n_devices) arrays.  Neither needs
    # a clip at 0: a rank is in its own node block, so node >= own, and a
    # coverage is a product of overlap / length <= 1 factors, so node <= 1.
    intra = np.subtract(node, own, out=own)
    intra *= v
    inter = np.subtract(1.0, node, out=node)
    inter *= v
    return intra.sum(axis=2), inter.sum(axis=2)


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
        cons_boxes = cons.boxes(FWD_START, slot.fwd_dims)
        prod_boxes = _rename(prod.boxes(FWD_END, prod.op.output_dims), edge.axis_map)
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod.n_devices
        n_p = len(prod)
        n_c = len(cons)
        v = np.ones((n_c, n_dev))
        for box in cons_boxes.values():
            v *= (box[..., 1] - box[..., 0]).astype(float)
        # Coverage terms, in a fixed order: axes both sides hold (consumer
        # decode order), then producer-only axes.  Consumer-only axes
        # contribute nothing: the producer implicitly spans them.
        shared = [axis for axis in cons_boxes if axis in prod_boxes]
        prod_only = [axis for axis in prod_boxes if axis not in cons_boxes]
        pid, p_box = _box_ids(prod_boxes, shared + prod_only, (n_p, n_dev))
        cid, c_box = _box_ids(cons_boxes, shared, (n_c, n_dev))
        # table[i, j]: the share of consumer box j that producer box i holds.
        table = np.ones((pid.max() + 1, cid.max() + 1))
        for axis in shared:
            length = np.maximum(
                (c_box[axis][:, 1] - c_box[axis][:, 0]).astype(float), 1e-12
            )
            table *= _overlap(p_box[axis][:, None], c_box[axis]) / length
        for axis in prod_only:
            interval = fixed.get(axis)
            if interval is not None:
                window = np.array([interval.start, interval.stop])
            else:
                size = prod.op.axis_sizes.get(axis, 1)
                window = np.array([0, size])
            width = float(max(window[1] - window[0], 1))
            table *= (_overlap(p_box[axis], window) / width)[:, None]
        # A consumer rank may read any same-node producer rank.
        return _shortfall(table, pid, cid, v, self.profiler.topology.gpus_per_node)

    def backward_traffic_matrix(
        self, edge: Edge, prod: SliceTables, cons: SliceTables
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-direction traffic: consumer's slot-grad -> producer's dO.

        Returns ``(intra, inter)`` element matrices like the forward case.
        """
        slot = cons.op.slot(edge.slot)
        holder_boxes = cons.boxes((slot.grad_phase, -1), slot.fwd_dims)
        needed_boxes = _rename(
            prod.boxes(BWD_START, prod.op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_p = len(prod)
        n_c = len(cons)
        n_dev = prod.n_devices
        # This edge supplies only the src_fixed window of the producer's
        # gradient (the Q/K/V third); restrict the demand accordingly.
        v = np.ones((n_p, n_dev))
        restricted: Dict[str, np.ndarray] = {}
        for axis, box in needed_boxes.items():
            interval = fixed.get(axis)
            if interval is not None:
                window = np.array([interval.start, interval.stop])
                lo = np.maximum(box[..., 0], window[0])
                hi = np.minimum(box[..., 1], window[1])
                box = np.stack([lo, np.maximum(hi, lo)], axis=-1)
            restricted[axis] = box
            v *= (box[..., 1] - box[..., 0]).astype(float)
        terms = [axis for axis in restricted if axis in holder_boxes]
        nid, n_box = _box_ids(restricted, terms, (n_p, n_dev))
        hid, h_box = _box_ids(holder_boxes, terms, (n_c, n_dev))
        # table[i, j]: the share of needed box j that holder box i holds.
        table = np.ones((hid.max() + 1, nid.max() + 1))
        for axis in terms:
            length = np.maximum(
                (n_box[axis][:, 1] - n_box[axis][:, 0]).astype(float), 1e-12
            )
            table *= _overlap(h_box[axis][:, None], n_box[axis]) / length
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
        intra_bytes = intra_elems * DTYPE_BYTES / n_dev
        inter_bytes = inter_elems * DTYPE_BYTES / n_dev
        latency = np.zeros_like(intra_bytes)
        mask = intra_bytes > 0
        latency += np.where(
            mask,
            np.maximum(
                self.intra_model.base + intra_bytes * self.intra_model.per_byte,
                0.0,
            ),
            0.0,
        )
        mask = inter_bytes > 0
        latency += np.where(
            mask,
            np.maximum(
                self.inter_model.base + inter_bytes * self.inter_model.per_byte,
                0.0,
            ),
            0.0,
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
            node.name: SliceTables(node, specs[i : i + 1], boundary[i : i + 1])
            for i, node in enumerate(graph.nodes)
        }
        return tuple(
            (edge,) + self.edge_costs(edge, tables[edge.src], tables[edge.dst])
            for edge in graph.edges
        )
