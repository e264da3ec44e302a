"""Frozen copy of the per-spec boundary-class collapse (commit 4026977).

This module vendors ``repro.core.optimizer.candidates`` as it was before
boundary classes were computed in bulk: ``boundary_class_key`` walks each
spec's DSI matrices with the scalar ``DsiEvaluator.dsi_matrix`` and packs
them, the slice counts and the grid signature into bytes, and
``build_candidates`` keeps each key's cheapest spec in a dict.  The
equivalence suite (``tests/test_candidates_bulk.py``) proves the twin-check
build keeps the same specs as this collapse, with byte-identical pickles.
Do not edit except to re-freeze against a new baseline.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost.inter import BWD_END, BWD_START, FWD_END, FWD_START, GRAD_END
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.dims import ALL_DIMS, Dim
from repro.core.optimizer.candidates import CandidateSet, operator_dim_limits
from repro.core.optimizer.canonical import canonical_specs
from repro.core.partitions import DimPartition, TemporalPartition
from repro.core.space import enumerate_specs
from repro.core.spec import PartitionSpec
from repro.graph.operators import OperatorSpec
from repro.obs.metrics import counter

#: Boundary points that determine every edge-observable layout.
BOUNDARY_POINTS = (FWD_START, FWD_END, BWD_START, BWD_END, GRAD_END)


def default_axis(
    axes: Sequence[str],
    axis_sizes: Mapping[str, int],
    factors: Mapping[str, int],
    multiplier: int,
) -> str:
    """The first axis (major to minor) that can absorb ``multiplier`` splits."""
    for axis in axes:
        if factors[axis] * multiplier <= axis_sizes[axis]:
            return axis
    return max(axes, key=lambda a: axis_sizes[a] / factors[a])


def grid_events(
    op: OperatorSpec, spec: PartitionSpec, dim: Dim
) -> List[Tuple[str, int]]:
    """Ordered (axis, factor) partition events of ``dim`` under ``spec``."""
    axes = tuple(op.dim_axes.get(dim, ()))
    if not axes:
        return []
    factors = {axis: 1 for axis in axes}
    events: List[Tuple[str, int]] = []

    def record(axis: str, multiplier: int) -> None:
        events.append((axis, multiplier))
        factors[axis] *= multiplier

    for step in spec.steps:
        if isinstance(step, DimPartition) and step.dim is dim:
            axis = step.axis
            if axis is None:
                axis = default_axis(axes, op.axis_sizes, factors, 2)
            elif axis not in axes:
                raise ValueError(
                    f"axis {axis!r} not part of {op.name}'s {dim.value} "
                    f"(axes: {axes})"
                )
            record(axis, 2)
        elif isinstance(step, TemporalPartition) and dim in (Dim.M, Dim.N, Dim.K):
            record(default_axis(axes, op.axis_sizes, factors, step.side), step.side)
    return events


def grid_signature(op: OperatorSpec, spec: PartitionSpec) -> Tuple:
    """Hashable description of all dims' grid events (for class keys)."""
    return tuple(
        (dim.value, tuple(grid_events(op, spec, dim)))
        for dim in Dim
        if op.dim_axes.get(dim)
    )


def boundary_class_key(op: OperatorSpec, spec: PartitionSpec) -> bytes:
    """Hashable key of a spec's edge-observable boundary layouts.

    Reads (and fills) ``spec``'s own ``dsi_matrix`` cache, as the build
    did: pass specs that no bulk build has seeded.
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
    for phase, t in BOUNDARY_POINTS:
        parts.append(spec.evaluator.dsi_matrix(phase, t).tobytes())
    return b"|".join(parts)


def build_candidates(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    beam: Optional[int] = None,
) -> CandidateSet:
    """The per-spec build: one key per spec, the cheapest spec per key."""
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
        for index in protected:
            keep.add(best_by_class[boundary_class_key(op, specs[index])])
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
