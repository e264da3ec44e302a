"""Intra-operator cost — paper Eq. 7.

``intraC(n, P) = sum_t max(compute(n,P,t), ring(n,P,t)) + allreduce(n,P)
+ alpha * memory(n,P)``: ring communication overlaps with the computation
step it accompanies (double buffering), all-reduce is data-dependent and
serialises, and memory joins the objective through the adjustment
coefficient ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ...cluster.profiler import FabricProfiler
from ...graph.operators import OperatorSpec
from ..dims import ALL_PHASES
from ..spec import PartitionSpec
from ..steps import DsiTable, StepTable
from .communication import CommunicationCostModel
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
        """``intraC(n, P)`` over a whole candidate list, from one step table.

        Every term is priced for all specs at once: compute per step from
        the slice counts, memory with the primitive's double buffers,
        all-reduce group indicators from the bits each dim's DSIs depend
        on, and each temporal step's ring sends on the fabric (purely
        spatial specs have one step and no ring).  Per phase, each
        temporal step adds its compute and its ring latency's excess over
        that compute, in step order.
        """
        if not specs:
            return []
        table = StepTable(specs)
        counts = table.slice_counts.astype(float)
        n_steps = table.total_steps
        rings = {
            phase: np.zeros((len(specs), int(n_steps.max())))
            for phase in ALL_PHASES
        }
        temporal = np.flatnonzero(table.has_temporal)
        if len(temporal):
            ring_table = table.take(temporal)
            ring_dsis = DsiTable(ring_table)
            for phase in ALL_PHASES:
                sends = self.communication.ring_sends(
                    op, ring_table, ring_dsis, phase
                )
                latencies = self.communication.ring_latencies(sends)
                rings[phase][temporal, : latencies.shape[1]] = latencies
        compute_total = np.zeros(len(specs))
        ring_total = np.zeros(len(specs))
        exposed_total = np.zeros(len(specs))
        allreduce_total = np.zeros(len(specs))
        for phase in ALL_PHASES:
            step_compute = self.compute.step_latency_batch(op, counts, phase)
            for t in range(rings[phase].shape[1]):
                live = t < n_steps
                ring = rings[phase][:, t]
                compute_total = np.where(
                    live, compute_total + step_compute, compute_total
                )
                ring_total = np.where(live, ring_total + ring, ring_total)
                exposed_total = np.where(
                    live,
                    exposed_total + np.maximum(ring - step_compute, 0.0),
                    exposed_total,
                )
            allreduce_total = allreduce_total + np.array(
                self.communication.allreduce_latency_batch(op, table, phase)
            )
        allreduce_total = allreduce_total + np.array(
            self.communication.layernorm_extras_batch(op, table)
        )
        memory = self.memory.operator_memory_batch(op, table)
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
                memory.tolist(),
            )
        ]
