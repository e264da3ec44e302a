"""Frozen copy of the per-rank Eq. 8-9 cost model (commit ce08c5e).

This module vendors ``repro.core.cost.inter`` as it was before boundary
boxes were decoded in bulk: ``NodeBoundary.axis_boxes`` walks the ranks
one at a time through the scalar ``axis_intervals`` (``tests/oracles.py``).  The
equivalence suite (``tests/test_cost_inter.py``) proves the batched model
prices every edge matrix to the same bytes.  Do not edit except to
re-freeze against a new baseline.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from dsi_oracle import evaluator  # scalar Alg. 1 walk, next to this file
from oracles import axis_intervals, dsi_matrix  # scalar oracles, next to this file
from repro.cluster.profiler import FabricProfiler
from repro.graph.graph import Edge
from repro.graph.operators import OperatorSpec
from repro.graph.tensors import DTYPE_BYTES
from repro.core.dims import ALL_DIMS, Dim, Phase
from repro.core.spec import PartitionSpec

#: Boundary points: (phase, temporal step index; -1 means the final step).
FWD_START = (Phase.FORWARD, 0)
FWD_END = (Phase.FORWARD, -1)
BWD_START = (Phase.BACKWARD, 0)
BWD_END = (Phase.BACKWARD, -1)
GRAD_END = (Phase.GRADIENT, -1)


class NodeBoundary:
    """Axis-box boundary layouts of one (operator, spec) pair.

    ``axis_boxes(point, dims)`` returns, for each logical axis spanned by
    ``dims``, an ``(n_devices, 2)`` integer array of half-open intervals in
    absolute axis units.
    """

    def __init__(self, op: OperatorSpec, spec: PartitionSpec) -> None:
        self.op = op
        self.spec = spec
        self._cache: Dict[Tuple, Mapping[str, np.ndarray]] = {}

    def axis_boxes(
        self, point: Tuple[Phase, int], dims: Sequence[Dim]
    ) -> Mapping[str, np.ndarray]:
        dims = tuple(d for d in dims if self.op.dim_axes.get(d))
        key = (point, dims)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        phase, t = point
        t = t % self.spec.total_steps
        n_dev = self.spec.n_devices
        matrix = dsi_matrix(evaluator(self.spec), phase, t)
        boxes: Dict[str, np.ndarray] = {}
        for dim in dims:
            axes = tuple(self.op.dim_axes[dim])
            column = ALL_DIMS.index(dim)
            for axis in axes:
                boxes[axis] = np.empty((n_dev, 2), dtype=np.int64)
            interval_cache: Dict[int, Mapping[str, object]] = {}
            for rank in range(n_dev):
                index = int(matrix[rank, column])
                intervals = interval_cache.get(index)
                if intervals is None:
                    intervals = axis_intervals(self.op, self.spec, dim, index)
                    interval_cache[index] = intervals
                for axis, interval in intervals.items():
                    boxes[axis][rank, 0] = interval.start
                    boxes[axis][rank, 1] = interval.stop
        self._cache[key] = boxes
        return boxes


def _rename(boxes: Mapping[str, np.ndarray], axis_map: Mapping[str, str]) -> Dict[str, np.ndarray]:
    return {axis_map.get(axis, axis): box for axis, box in boxes.items()}


def _stack(boundaries: Sequence[NodeBoundary], point, dims) -> Dict[str, np.ndarray]:
    """Stack per-candidate axis boxes into (n_candidates, n_dev, 2) arrays."""
    per_axis: Dict[str, List[np.ndarray]] = {}
    for boundary in boundaries:
        for axis, box in boundary.axis_boxes(point, dims).items():
            per_axis.setdefault(axis, []).append(box)
    return {axis: np.stack(stack) for axis, stack in per_axis.items()}


def _overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection lengths of broadcastable interval arrays ``[..., 2]``."""
    lo = np.maximum(a[..., 0], b[..., 0])
    hi = np.minimum(a[..., 1], b[..., 1])
    return np.clip(hi - lo, 0, None).astype(float)


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
        prod_boundaries: Sequence[NodeBoundary],
        cons_op: OperatorSpec,
        cons_boundaries: Sequence[NodeBoundary],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 9 forward traffic in elements, shape (n_prod, n_cons).

        Returns ``(intra, inter)``: bytes fetchable from a same-node peer
        versus bytes that must cross nodes.
        """
        slot = cons_op.slot(edge.slot)
        cons_boxes = _stack(cons_boundaries, FWD_START, slot.fwd_dims)
        prod_boxes = _rename(
            _stack(prod_boundaries, FWD_END, prod_op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_dev = prod_boundaries[0].spec.n_devices
        n_c = len(cons_boundaries)
        v = np.ones((n_c, n_dev))
        for box in cons_boxes.values():
            v *= (box[..., 1] - box[..., 0]).astype(float)

        def coverage(perm=None) -> np.ndarray:
            n_p = len(prod_boundaries)
            frac = np.ones((n_p, n_c, n_dev))
            for axis in set(cons_boxes) | set(prod_boxes):
                c_box = cons_boxes.get(axis)
                p_box = prod_boxes.get(axis)
                if p_box is not None and perm is not None:
                    p_box = p_box[:, perm]
                if c_box is not None and p_box is not None:
                    inter = _overlap(p_box[:, None], c_box[None, :])
                    length = np.maximum(
                        (c_box[..., 1] - c_box[..., 0]).astype(float), 1e-12
                    )
                    frac *= inter / length[None, :]
                elif p_box is not None:
                    interval = fixed.get(axis)
                    if interval is not None:
                        window = np.array([interval.start, interval.stop])
                    else:
                        size = prod_op.axis_sizes.get(axis, 1)
                        window = np.array([0, size])
                    inter = _overlap(p_box, window)
                    width = float(max(window[1] - window[0], 1))
                    frac *= (inter / width)[:, None, :]
                # Consumer-only axes: the producer implicitly spans them.
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
        prod_boundaries: Sequence[NodeBoundary],
        cons_op: OperatorSpec,
        cons_boundaries: Sequence[NodeBoundary],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient-direction traffic: consumer's slot-grad -> producer's dO.

        Returns ``(intra, inter)`` element matrices like the forward case.
        """
        slot = cons_op.slot(edge.slot)
        grad_point = (slot.grad_phase, -1)
        holder_boxes = _stack(cons_boundaries, grad_point, slot.fwd_dims)
        needed_boxes = _rename(
            _stack(prod_boundaries, BWD_START, prod_op.output_dims), edge.axis_map
        )
        fixed = {edge.map_axis(a): iv for a, iv in edge.src_fixed.items()}
        n_p = len(prod_boundaries)
        n_c = len(cons_boundaries)
        n_dev = prod_boundaries[0].spec.n_devices
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

        def coverage(perm=None) -> np.ndarray:
            frac = np.ones((n_p, n_c, n_dev))
            for axis, n_box in restricted.items():
                h_box = holder_boxes.get(axis)
                if h_box is None:
                    continue
                if perm is not None:
                    h_box = h_box[:, perm]
                inter = _overlap(n_box[:, None], h_box[None, :])
                length = np.maximum(
                    (n_box[..., 1] - n_box[..., 0]).astype(float), 1e-12
                )
                frac *= inter / length[:, None, :]
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
        prod_boundaries: Sequence[NodeBoundary],
        cons_op: OperatorSpec,
        cons_boundaries: Sequence[NodeBoundary],
    ) -> np.ndarray:
        """``interC`` over all candidate pairs, shape (n_prod, n_cons)."""
        n_dev = prod_boundaries[0].spec.n_devices
        fwd_intra, fwd_inter = self.forward_traffic_matrix(
            edge, prod_op, prod_boundaries, cons_op, cons_boundaries
        )
        bwd_intra, bwd_inter = self.backward_traffic_matrix(
            edge, prod_op, prod_boundaries, cons_op, cons_boundaries
        )
        return self._predict(
            fwd_intra + bwd_intra, fwd_inter + bwd_inter, n_dev
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
            edge,
            prod_op,
            [NodeBoundary(prod_op, prod_spec)],
            cons_op,
            [NodeBoundary(cons_op, cons_spec)],
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
        the training iteration.
        """
        prod_b = [NodeBoundary(prod_op, prod_spec)]
        cons_b = [NodeBoundary(cons_op, cons_spec)]
        n_dev = prod_spec.n_devices
        fwd_intra, fwd_inter = self.forward_traffic_matrix(
            edge, prod_op, prod_b, cons_op, cons_b
        )
        bwd_intra, bwd_inter = self.backward_traffic_matrix(
            edge, prod_op, prod_b, cons_op, cons_b
        )
        fwd = float(self._predict(fwd_intra, fwd_inter, n_dev)[0, 0])
        bwd = float(self._predict(bwd_intra, bwd_inter, n_dev)[0, 0])
        return fwd, bwd
