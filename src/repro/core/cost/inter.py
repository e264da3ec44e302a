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
cost table at once — the hot path of the DP.  Every candidate's boundary
boxes are decoded in one batched integer pass (:func:`axis_boxes`).  Each
side then numbers its distinct joint boxes (:func:`_box_ids`: a few hundred,
since an axis holds at most ``2 * n_devices - 1`` dyadic slices), and the
per-axis coverage fractions are multiplied once per *box pair* into a small
table, in a fixed axis order.  A rank's own coverage is a gather from that
table.  Its best same-node coverage is a gather from the per-node-block max
of the table's rows (:func:`_shortfall`): the XOR peers of a rank are
exactly its aligned block of ``gpus_per_node`` ranks.  Every element takes
the same float ops as a per-rank evaluation, so the matrices are exact.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ...cluster.profiler import FabricProfiler
from ...graph.graph import Edge
from ...graph.operators import OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Dim, Phase
from ..layout import grid_events
from ..spec import PartitionSpec

#: Boundary points: (phase, temporal step index; -1 means the final step).
FWD_START = (Phase.FORWARD, 0)
FWD_END = (Phase.FORWARD, -1)
BWD_START = (Phase.BACKWARD, 0)
BWD_END = (Phase.BACKWARD, -1)
GRAD_END = (Phase.GRADIENT, -1)

#: Byte budget of one chunk's float64 temporary in batched products (the
#: node-block coverage gather here, the min-plus broadcast in the DP); a
#: chunk holds at least one row or column.  Small chunks stay in cache and
#: in the allocator's heap: on a 2-vCPU x86-64 host, 256 KiB ran the exact
#: 16-device OPT-175B DP and merge 1.5-1.8x faster than 1 MiB or 32 MiB.
CHUNK_BYTES = 256 << 10


def axis_boxes(
    op: OperatorSpec,
    specs: Sequence[PartitionSpec],
    point: Tuple[Phase, int],
    dims: Sequence[Dim],
) -> Dict[str, np.ndarray]:
    """Boundary layouts of ``specs`` at ``point``, decoded in one batch.

    Returns, for each logical axis spanned by ``dims``, an
    ``(n_specs, n_devices, 2)`` integer array of half-open intervals in
    absolute axis units — rank by rank what
    :func:`~repro.core.layout.axis_intervals` gives.  A dim's slice index
    is a mixed-radix number whose digits are the spec's grid events (most
    significant first); the digits of every spec and rank are peeled off
    together with integer ops (specs with fewer events are padded with
    radix-1 digits, which are always 0), folded into per-axis indices, and
    spread by :func:`~repro.graph.tensors.slice_interval`'s formula.
    """
    phase, t = point
    n_specs = len(specs)
    matrices = np.stack([spec.evaluator.dsi_matrix(phase, t) for spec in specs])
    boxes: Dict[str, np.ndarray] = {}
    for dim in dims:
        axes = tuple(op.dim_axes.get(dim, ()))
        if not axes:
            continue
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
        remainder = matrices[:, :, ALL_DIMS.index(dim)]
        total = factors.prod(axis=1)[:, None]
        index = np.zeros((len(axes),) + remainder.shape, dtype=np.int64)
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
        for a, axis in enumerate(axes):
            boxes[axis] = np.stack([start[a], stop[a]], axis=-1)
    return boxes


def decode_boxes(
    op: OperatorSpec,
    specs: Sequence[PartitionSpec],
    point: Tuple[Phase, int],
    dims: Sequence[Dim],
) -> Dict[str, np.ndarray]:
    """:func:`axis_boxes`, memoized on the DSI evaluator of a single spec.

    A candidate list is decoded in one batch.  A lone spec (a plan priced
    edge by edge) keeps its boxes; the key holds everything the decode
    reads from ``op`` (the dims' axes and sizes), so one spec priced
    against several operators stays exact.
    """
    if len(specs) != 1:
        return axis_boxes(op, specs, point, dims)
    (spec,) = specs
    phase, t = point
    layout = tuple(
        (dim, tuple((axis, op.axis_sizes[axis]) for axis in op.dim_axes.get(dim, ())))
        for dim in dims
    )
    key = (phase, t % spec.total_steps, layout)
    memo = spec.evaluator.box_memo
    boxes = memo.get(key)
    if boxes is None:
        boxes = memo[key] = axis_boxes(op, specs, point, dims)
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
    # allocates no more (n_held, n_need, n_devices) arrays.
    intra = np.subtract(node, own, out=own)
    intra *= v
    inter = np.subtract(1.0, node, out=node)
    inter *= v
    inter_elems = np.clip(inter, 0.0, None, out=inter).sum(axis=2)
    intra_elems = np.clip(intra, 0.0, None, out=intra).sum(axis=2)
    return intra_elems, inter_elems


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
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_specs: Sequence[PartitionSpec],
        cons_op: OperatorSpec,
        cons_specs: Sequence[PartitionSpec],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9 forward traffic in elements, shape (n_prod, n_cons).

        Returns ``(intra, inter)``: bytes fetchable from a same-node peer
        versus bytes that must cross nodes.
        """
        slot = cons_op.slot(edge.slot)
        cons_boxes = decode_boxes(cons_op, cons_specs, FWD_START, slot.fwd_dims)
        prod_boxes = _rename(
            decode_boxes(prod_op, prod_specs, FWD_END, prod_op.output_dims),
            edge.axis_map,
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod_specs[0].n_devices
        n_p = len(prod_specs)
        n_c = len(cons_specs)
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
                size = prod_op.axis_sizes.get(axis, 1)
                window = np.array([0, size])
            width = float(max(window[1] - window[0], 1))
            table *= (_overlap(p_box[axis], window) / width)[:, None]
        # A consumer rank may read any same-node producer rank.
        return _shortfall(table, pid, cid, v, self.profiler.topology.gpus_per_node)

    def backward_traffic_matrix(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_specs: Sequence[PartitionSpec],
        cons_op: OperatorSpec,
        cons_specs: Sequence[PartitionSpec],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-direction traffic: consumer's slot-grad -> producer's dO.

        Returns ``(intra, inter)`` element matrices like the forward case.
        """
        slot = cons_op.slot(edge.slot)
        grad_point = (slot.grad_phase, -1)
        holder_boxes = decode_boxes(cons_op, cons_specs, grad_point, slot.fwd_dims)
        needed_boxes = _rename(
            decode_boxes(prod_op, prod_specs, BWD_START, prod_op.output_dims),
            edge.axis_map,
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_p = len(prod_specs)
        n_c = len(cons_specs)
        n_dev = prod_specs[0].n_devices
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
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_specs: Sequence[PartitionSpec],
        cons_op: OperatorSpec,
        cons_specs: Sequence[PartitionSpec],
    ) -> np.ndarray:
        """``interC`` over all candidate pairs, shape (n_prod, n_cons)."""
        args = (edge, prod_op, prod_specs, cons_op, cons_specs)
        fwd_intra, fwd_inter = self.forward_traffic_matrix(*args)
        bwd_intra, bwd_inter = self.backward_traffic_matrix(*args)
        return self._predict(
            fwd_intra + bwd_intra, fwd_inter + bwd_inter, prod_specs[0].n_devices
        )

    def edge_costs(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_spec: PartitionSpec,
        cons_op: OperatorSpec,
        cons_spec: PartitionSpec,
    ) -> Tuple[float, float, float]:
        """Scalar ``(interC, forward, backward)`` of one edge.

        ``interC`` prices the summed traffic of both directions, exactly as
        :meth:`cost_matrix` does; ``forward`` and ``backward`` price each
        direction alone, for the engine to schedule at its actual point in
        the iteration.  Each direction's traffic is computed once and the
        three are priced in one elementwise :meth:`_predict`.  The specs'
        decoded boxes are memoized on their DSI evaluators, so replaying
        one plan decodes each spec once.
        """
        args = (edge, prod_op, [prod_spec], cons_op, [cons_spec])
        fwd_intra, fwd_inter = self.forward_traffic_matrix(*args)
        bwd_intra, bwd_inter = self.backward_traffic_matrix(*args)
        intra = np.concatenate([fwd_intra + bwd_intra, fwd_intra, bwd_intra], axis=1)
        inter = np.concatenate([fwd_inter + bwd_inter, fwd_inter, bwd_inter], axis=1)
        total, forward, backward = self._predict(
            intra, inter, prod_spec.n_devices
        )[0].tolist()
        return total, forward, backward
