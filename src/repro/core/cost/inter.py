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
boxes are decoded in one batched integer pass (:func:`axis_boxes`) and the
overlaps are intersected with numpy broadcasting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

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

#: ``(op, specs, point, dims) -> {axis: (n_specs, n_devices, 2) boxes}``.
BoxDecoder = Callable[..., Dict[str, np.ndarray]]


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


def memo_axis_boxes(
    op: OperatorSpec,
    specs: Sequence[PartitionSpec],
    point: Tuple[Phase, int],
    dims: Sequence[Dim],
) -> Dict[str, np.ndarray]:
    """:func:`axis_boxes` of a single spec, memoized on its DSI evaluator.

    The key holds everything the decode reads from ``op`` (the dims' axes
    and sizes), so one spec priced against several operators stays exact.
    """
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


class InterOperatorCostModel:
    """Evaluates ``interC(n1, n2, P1, P2)`` — scalar and matrix forms."""

    def __init__(self, profiler: FabricProfiler) -> None:
        self.profiler = profiler
        self.intra_model = profiler.redistribution_model(intra_node=True)
        self.inter_model = profiler.redistribution_model(intra_node=False)

    # ------------------------------------------------------------------
    # traffic (elements)
    # ------------------------------------------------------------------

    def _intra_node_permutations(self, n_dev: int) -> List[np.ndarray]:
        """Rank permutations reaching each same-node peer (XOR of low bits)."""
        gpn = min(self.profiler.topology.gpus_per_node, n_dev)
        ranks = np.arange(n_dev)
        return [ranks ^ mask for mask in range(1, gpn)]

    def forward_traffic_matrix(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_specs: Sequence[PartitionSpec],
        cons_op: OperatorSpec,
        cons_specs: Sequence[PartitionSpec],
        decode: BoxDecoder = axis_boxes,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9 forward traffic in elements, shape (n_prod, n_cons).

        Returns ``(intra, inter)``: bytes fetchable from a same-node peer
        versus bytes that must cross nodes.
        """
        slot = cons_op.slot(edge.slot)
        cons_boxes = decode(cons_op, cons_specs, FWD_START, slot.fwd_dims)
        prod_boxes = _rename(
            decode(prod_op, prod_specs, FWD_END, prod_op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod_specs[0].n_devices
        n_p = len(prod_specs)
        n_c = len(cons_specs)
        v = np.ones((n_c, n_dev))
        for box in cons_boxes.values():
            v *= (box[..., 1] - box[..., 0]).astype(float)
        # Per-axis coverage terms; only the producer side is permuted.
        # Consumer-only axes contribute nothing: the producer implicitly
        # spans them.
        terms = []
        for axis in set(cons_boxes) | set(prod_boxes):
            c_box = cons_boxes.get(axis)
            p_box = prod_boxes.get(axis)
            if c_box is not None and p_box is not None:
                length = np.maximum(
                    (c_box[..., 1] - c_box[..., 0]).astype(float), 1e-12
                )
                terms.append((p_box, c_box[None, :], length[None, :]))
            elif p_box is not None:
                interval = fixed.get(axis)
                if interval is not None:
                    window = np.array([interval.start, interval.stop])
                else:
                    size = prod_op.axis_sizes.get(axis, 1)
                    window = np.array([0, size])
                width = float(max(window[1] - window[0], 1))
                terms.append((_overlap(p_box, window) / width, None, None))

        def coverage(perm=None) -> np.ndarray:
            frac = np.ones((n_p, n_c, n_dev))
            for p_term, c_box, length in terms:
                if perm is not None:
                    p_term = p_term[:, perm]
                if c_box is None:
                    frac *= p_term[:, None, :]
                else:
                    frac *= _overlap(p_term[:, None], c_box) / length
            return frac

        own = coverage()
        node = own
        for perm in self._intra_node_permutations(n_dev):
            node = np.maximum(node, coverage(perm))
        inter_elems = np.clip(v[None, :, :] * (1.0 - node), 0.0, None).sum(axis=2)
        intra_elems = np.clip(v[None, :, :] * (node - own), 0.0, None).sum(axis=2)
        return intra_elems, inter_elems

    def backward_traffic_matrix(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_specs: Sequence[PartitionSpec],
        cons_op: OperatorSpec,
        cons_specs: Sequence[PartitionSpec],
        decode: BoxDecoder = axis_boxes,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-direction traffic: consumer's slot-grad -> producer's dO.

        Returns ``(intra, inter)`` element matrices like the forward case.
        """
        slot = cons_op.slot(edge.slot)
        grad_point = (slot.grad_phase, -1)
        holder_boxes = decode(cons_op, cons_specs, grad_point, slot.fwd_dims)
        needed_boxes = _rename(
            decode(prod_op, prod_specs, BWD_START, prod_op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_p = len(prod_specs)
        n_c = len(cons_specs)
        n_dev = prod_specs[0].n_devices
        # This edge supplies only the src_fixed window of the producer's
        # gradient (the Q/K/V third); restrict the demand accordingly.
        v = np.ones((n_p, n_dev))
        terms = []
        for axis, box in needed_boxes.items():
            interval = fixed.get(axis)
            if interval is not None:
                window = np.array([interval.start, interval.stop])
                lo = np.maximum(box[..., 0], window[0])
                hi = np.minimum(box[..., 1], window[1])
                box = np.stack([lo, np.maximum(hi, lo)], axis=-1)
            v *= (box[..., 1] - box[..., 0]).astype(float)
            h_box = holder_boxes.get(axis)
            if h_box is not None:
                length = np.maximum(
                    (box[..., 1] - box[..., 0]).astype(float), 1e-12
                )
                terms.append((box[:, None], h_box, length[:, None, :]))

        def coverage(perm=None) -> np.ndarray:
            frac = np.ones((n_p, n_c, n_dev))
            for n_box, h_box, length in terms:
                if perm is not None:
                    h_box = h_box[:, perm]
                frac *= _overlap(n_box, h_box[None, :]) / length
            return frac

        own = coverage()
        node = own
        for perm in self._intra_node_permutations(n_dev):
            node = np.maximum(node, coverage(perm))
        inter_elems = np.clip(v[:, None, :] * (1.0 - node), 0.0, None).sum(axis=2)
        intra_elems = np.clip(v[:, None, :] * (node - own), 0.0, None).sum(axis=2)
        return intra_elems, inter_elems

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
        decode: BoxDecoder = axis_boxes,
    ) -> np.ndarray:
        """``interC`` over all candidate pairs, shape (n_prod, n_cons)."""
        args = (edge, prod_op, prod_specs, cons_op, cons_specs, decode)
        fwd_intra, fwd_inter = self.forward_traffic_matrix(*args)
        bwd_intra, bwd_inter = self.backward_traffic_matrix(*args)
        return self._predict(
            fwd_intra + bwd_intra, fwd_inter + bwd_inter, prod_specs[0].n_devices
        )

    def cost(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_spec: PartitionSpec,
        cons_op: OperatorSpec,
        cons_spec: PartitionSpec,
    ) -> float:
        """Scalar ``interC(n1, n2, P1, P2)``."""
        matrix = self.cost_matrix(
            edge, prod_op, [prod_spec], cons_op, [cons_spec], memo_axis_boxes
        )
        return float(matrix[0, 0])

    def directional_costs(
        self,
        edge: Edge,
        prod_op: OperatorSpec,
        prod_spec: PartitionSpec,
        cons_op: OperatorSpec,
        cons_spec: PartitionSpec,
    ) -> Tuple[float, float]:
        """(forward, backward) redistribution latencies of one edge.

        Uses the same fitted linear model per direction; the execution
        simulator schedules the two directions at their actual points in
        the training iteration.  The specs' decoded boxes are memoized on
        their DSI evaluators, so replaying one plan decodes each spec once.
        """
        args = (edge, prod_op, [prod_spec], cons_op, [cons_spec], memo_axis_boxes)
        n_dev = prod_spec.n_devices
        fwd = float(self._predict(*self.forward_traffic_matrix(*args), n_dev)[0, 0])
        bwd = float(self._predict(*self.backward_traffic_matrix(*args), n_dev)[0, 0])
        return fwd, bwd
