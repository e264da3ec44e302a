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

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...graph.operators import OperatorSpec
from ...obs.metrics import counter
from ..dims import ALL_DIMS, Dim
from ..spec import PartitionSpec
from ..space import enumerate_specs
from .. import cost as _cost  # noqa: F401  (re-export convenience)
from ..cost.inter import BWD_END, BWD_START, FWD_END, FWD_START, GRAD_END
from ..cost.intra import IntraOperatorCostModel
from ..layout import grid_signature
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
    """

    op: OperatorSpec
    specs: List[PartitionSpec]
    intra: np.ndarray
    raw_size: int

    def __len__(self) -> int:
        return len(self.specs)

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


def boundary_class_key(op: OperatorSpec, spec: PartitionSpec) -> bytes:
    """Hashable key of a spec's edge-observable boundary layouts.

    Encoded directly as packed binary (slice counts in fixed dim order, grid
    events as length-prefixed axis names + factors, DSI matrices via
    ``tobytes``) — no ``repr`` round-trips on the hot enumeration path.
    """
    counts = spec.slice_counts
    parts = [struct.pack(f"<{len(ALL_DIMS)}q", *(counts[d] for d in ALL_DIMS))]
    grid = bytearray()
    for dim_value, events in grid_signature(op, spec):
        label = dim_value.encode("ascii")
        grid += struct.pack("<B", len(label)) + label
        grid += struct.pack("<I", len(events))
        for axis, factor in events:
            name = axis.encode("ascii")
            grid += struct.pack("<B", len(name)) + name
            grid += struct.pack("<q", factor)
    parts.append(bytes(grid))
    for phase, t in _BOUNDARY_POINTS:
        parts.append(spec.evaluator.dsi_matrix(phase, t).tobytes())
    return b"|".join(parts)


def operator_dim_limits(op: OperatorSpec) -> Dict[Dim, int]:
    """A dim cannot be split into more slices than its size."""
    return {dim: max(op.dim_size(dim), 1) for dim in Dim}


def build_candidates(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    collapse: bool = True,
    beam: Optional[int] = None,
) -> CandidateSet:
    """Enumerate, cost and collapse one operator's partition space.

    Args:
        op: The operator node.
        n_bits: Cluster device-id bits.
        intra_model: Eq. 7 evaluator (carries the memory weight ``alpha``).
        include_temporal: Search-space switch; False reproduces the
            conventional (Megatron/Alpa) space.
        partition_batch: When False, the batch dim is excluded — the 3D
            parallelism mode of paper Sec. 6.4 where data parallelism is
            controlled externally.
        collapse: Collapse boundary-equivalence classes (exact reduction).
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
    if not collapse:
        order = np.arange(len(specs))
    else:
        best_by_class: Dict[bytes, int] = {}
        for i, spec in enumerate(specs):
            key = boundary_class_key(op, spec)
            current = best_by_class.get(key)
            if current is None or costs[i] < costs[current]:
                best_by_class[key] = i
        order = np.array(sorted(best_by_class.values()))
    n_classes = len(order)
    if beam is not None and len(order) > beam:
        by_cost = order[np.argsort(costs[order], kind="stable")]
        keep = set(by_cost[:beam].tolist())
        # Canonical baseline specs survive the beam so the search is never
        # worse than the best Megatron configuration.
        for index in protected:
            keep.add(
                index
                if not collapse
                else best_by_class[boundary_class_key(op, specs[index])]
            )
        order = np.array(sorted(keep))
    op_label = op.kind.name.lower()
    counter("candidates.builds", op=op_label).inc()
    counter("candidates.raw", op=op_label).inc(raw_size)
    counter("candidates.kept", op=op_label).inc(len(order))
    counter("candidates.pruned_equivalent", op=op_label).inc(
        raw_size - n_classes
    )
    counter("candidates.beam_evicted", op=op_label).inc(n_classes - len(order))
    kept = [specs[i] for i in order]
    return CandidateSet(
        op=op,
        specs=kept,
        intra=costs[order],
        raw_size=raw_size,
    )


def type_key(op: OperatorSpec) -> Tuple:
    """Nodes with equal type keys share candidate sets (stacked layers)."""
    return (
        op.kind,
        tuple(sorted((d.value, axes) for d, axes in op.dim_axes.items())),
        tuple(sorted(op.axis_sizes.items())),
        op.pointwise_flops,
        op.stash_inputs,
    )
