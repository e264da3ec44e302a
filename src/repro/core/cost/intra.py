"""Intra-operator cost — paper Eq. 7.

``intraC(n, P) = sum_t max(compute(n,P,t), ring(n,P,t)) + allreduce(n,P)
+ alpha * memory(n,P)``: ring communication overlaps with the computation
step it accompanies (double buffering), all-reduce is data-dependent and
serialises, and memory joins the objective through the adjustment
coefficient ``alpha``.

:meth:`IntraOperatorCostModel.price_batch` prices every term of a candidate
list at once (:class:`IntraTerms`, which a plan's price list keeps and the
event engine replays); :meth:`~IntraOperatorCostModel.fold` sums them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from ...cluster.profiler import FabricProfiler
from ...graph.operators import OperatorSpec
from ..dims import ALL_PHASES, Phase
from ..spec import PartitionSpec
from ..steps import DsiTable, StepTable
from .communication import CommunicationCostModel, RingSends
from .compute import ComputeCostModel
from .memory import MemoryCostModel


@dataclass(frozen=True)
class IntraCost:
    """Decomposed intra-operator cost of one (operator, spec) pair.

    All latencies are seconds per training iteration; memory is bytes.
    """

    compute_latency: float
    ring_latency: float
    ring_exposed: float
    allreduce_latency: float
    memory_bytes: float
    alpha: float

    @property
    def latency(self) -> float:
        """Critical-path latency: overlapped compute/ring + all-reduce."""
        return (
            self.compute_latency + self.ring_exposed + self.allreduce_latency
        )

    @property
    def total(self) -> float:
        """The Eq. 7 scalar objective."""
        return self.latency + self.alpha * self.memory_bytes


@dataclass(frozen=True)
class PhaseTerms:
    """One phase's Eq. 7 terms for every spec of a step table."""

    #: ``[spec]`` ``compute(n, P, t)`` of one temporal step.
    step_compute: np.ndarray
    #: The sized ring sends of the specs that use the primitive, in table
    #: order, or ``None`` if none does.
    sends: Optional[RingSends]
    #: ``[spec, step]`` ``ring(n, P, t)``: each step's sends on the fabric
    #: (0 where a step sends nothing).
    ring: np.ndarray
    #: ``allreduce(n, P)`` per spec.
    allreduce: List[float]


@dataclass(frozen=True)
class IntraTerms:
    """Every Eq. 7 term of a candidate list, before :meth:`~IntraOperatorCostModel.fold`."""

    table: StepTable
    phases: Mapping[Phase, PhaseTerms]
    #: Normalisation's extra all-reduces per spec (0 for other operators).
    layernorm_extras: List[float]
    #: ``[spec]`` local parameters and their gradients, in bytes.
    parameter_bytes: np.ndarray
    #: ``[spec]`` Forward tensors stashed for Backward/Gradient, in bytes.
    stash_bytes: np.ndarray
    #: ``[spec]`` the primitive's double buffers, in bytes.
    buffer_bytes: np.ndarray

    @property
    def memory_bytes(self) -> np.ndarray:
        """``[spec]`` ``memory(n, P)``."""
        return self.parameter_bytes + self.stash_bytes + self.buffer_bytes


class IntraOperatorCostModel:
    """Evaluates Eq. 7 for (operator, spec) pairs."""

    def __init__(self, profiler: FabricProfiler, alpha: float = 0.0) -> None:
        self.compute = ComputeCostModel(profiler.topology.device)
        self.communication = CommunicationCostModel(profiler)
        self.memory = MemoryCostModel()
        self.alpha = alpha

    def cost(self, op: OperatorSpec, spec: PartitionSpec) -> IntraCost:
        """``intraC(n, P)`` with its full breakdown."""
        return self.cost_batch(op, [spec])[0]

    def cost_batch(
        self, op: OperatorSpec, specs: Sequence[PartitionSpec]
    ) -> List[IntraCost]:
        """``intraC(n, P)`` over a whole candidate list."""
        if not specs:
            return []
        return self.fold(self.price_batch(op, specs))

    def price_batch(
        self, op: OperatorSpec, specs: Sequence[PartitionSpec]
    ) -> IntraTerms:
        """Every Eq. 7 term of a non-empty candidate list, from one step
        table.

        Compute per step comes from the slice counts, memory with the
        primitive's double buffers, all-reduce group indicators from the
        bits each dim's DSIs depend on, and each temporal step's ring sends
        are placed on the fabric (purely spatial specs have one step and no
        ring).
        """
        table = StepTable(specs)
        counts = table.slice_counts.astype(float)
        n_steps = int(table.total_steps.max())
        temporal = np.flatnonzero(table.has_temporal)
        if len(temporal):
            ring_table = table.take(temporal)
            ring_dsis = DsiTable(ring_table)
        phases = {}
        for phase in ALL_PHASES:
            ring = np.zeros((len(specs), n_steps))
            sends = None
            if len(temporal):
                sends = self.communication.ring_sends(
                    op, ring_table, ring_dsis, phase
                )
                latencies = self.communication.ring_latencies(sends)
                ring[temporal, : latencies.shape[1]] = latencies
            phases[phase] = PhaseTerms(
                step_compute=self.compute.step_latency_batch(
                    op, counts, phase
                ),
                sends=sends,
                ring=ring,
                allreduce=self.communication.allreduce_latency_batch(
                    op, table, phase
                ),
            )
        return IntraTerms(
            table=table,
            phases=phases,
            layernorm_extras=self.communication.layernorm_extras_batch(
                op, table
            ),
            parameter_bytes=self.memory.parameter_bytes_batch(op, counts),
            stash_bytes=self.memory.stash_bytes_batch(op, counts),
            buffer_bytes=self.memory.double_buffer_bytes_batch(
                op, counts, table.has_temporal
            ),
        )

    def fold(self, terms: IntraTerms) -> List[IntraCost]:
        """Sum ``terms`` into one :class:`IntraCost` per spec.

        Per phase, each temporal step adds its compute and its ring
        latency's excess over that compute, in step order; the phase's
        all-reduce follows, and normalisation's extras come last.
        """
        n_specs = terms.table.n_specs
        n_steps = terms.table.total_steps
        compute_total = np.zeros(n_specs)
        ring_total = np.zeros(n_specs)
        exposed_total = np.zeros(n_specs)
        allreduce_total = np.zeros(n_specs)
        for priced in terms.phases.values():
            step_compute = priced.step_compute
            for t in range(priced.ring.shape[1]):
                live = t < n_steps
                ring = priced.ring[:, t]
                compute_total = np.where(
                    live, compute_total + step_compute, compute_total
                )
                ring_total = np.where(live, ring_total + ring, ring_total)
                exposed_total = np.where(
                    live,
                    exposed_total + np.maximum(ring - step_compute, 0.0),
                    exposed_total,
                )
            allreduce_total = allreduce_total + np.array(priced.allreduce)
        allreduce_total = allreduce_total + np.array(terms.layernorm_extras)
        return [
            IntraCost(
                compute_latency=compute,
                ring_latency=ring,
                ring_exposed=exposed,
                allreduce_latency=allreduce,
                memory_bytes=memory_bytes,
                alpha=self.alpha,
            )
            for compute, ring, exposed, allreduce, memory_bytes in zip(
                compute_total.tolist(),
                ring_total.tolist(),
                exposed_total.tolist(),
                allreduce_total.tolist(),
                terms.memory_bytes.tolist(),
            )
        ]
