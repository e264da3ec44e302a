"""Intra-operator cost — paper Eq. 7.

``intraC(n, P) = sum_t max(compute(n,P,t), ring(n,P,t)) + allreduce(n,P)
+ alpha * memory(n,P)``: ring communication overlaps with the computation
step it accompanies (double buffering), all-reduce is data-dependent and
serialises, and memory joins the objective through the adjustment
coefficient ``alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ...cluster.profiler import FabricProfiler
from ...graph.operators import OperatorSpec
from ..dims import ALL_PHASES
from ..spec import PartitionSpec
from ..steps import StepTable
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
    """Evaluates Eq. 7 for (operator, spec) pairs, with caching."""

    def __init__(self, profiler: FabricProfiler, alpha: float = 0.0) -> None:
        self.compute = ComputeCostModel(profiler.topology.device)
        self.communication = CommunicationCostModel(profiler)
        self.memory = MemoryCostModel()
        self.alpha = alpha
        self._cache: Dict[Tuple[str, Tuple, int], IntraCost] = {}

    def cost(self, op: OperatorSpec, spec: PartitionSpec) -> IntraCost:
        """``intraC(n, P)`` with its full breakdown."""
        key = (op.name, spec.steps, spec.n_bits)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        compute_total = 0.0
        ring_total = 0.0
        exposed_total = 0.0
        allreduce_total = 0.0
        for phase in ALL_PHASES:
            step_compute = self.compute.step_latency(op, spec, phase)
            rings = self.communication.ring_phase_latencies(op, spec, phase)
            for ring in rings:
                compute_total += step_compute
                ring_total += ring
                exposed_total += max(ring - step_compute, 0.0)
            allreduce_total += self.communication.allreduce_latency(op, spec, phase)
        allreduce_total += self.communication.layernorm_extras(op, spec)
        result = IntraCost(
            compute_latency=compute_total,
            ring_latency=ring_total,
            ring_exposed=exposed_total,
            allreduce_latency=allreduce_total,
            memory_bytes=self.memory.operator_memory(op, spec),
            alpha=self.alpha,
        )
        self._cache[key] = result
        return result

    def cost_batch(
        self, op: OperatorSpec, specs: Sequence[PartitionSpec]
    ) -> List[IntraCost]:
        """``intraC(n, P)`` over a whole candidate list.

        Purely spatial specs (the bulk of any candidate space) share one
        vectorized compute-latency evaluation and one step-table all-reduce
        pricing per phase; temporal specs need their per-step ring
        schedules and go through the scalar path.
        Every entry is bit-identical to ``cost(op, specs[i])``.
        """
        results: List[IntraCost] = [
            self._cache.get((op.name, spec.steps, spec.n_bits)) for spec in specs
        ]
        spatial = [
            i
            for i, cached in enumerate(results)
            if cached is None and not specs[i].has_temporal
        ]
        if spatial:
            batch = [specs[i] for i in spatial]
            table = StepTable(batch)
            step_compute = {
                phase: self.compute.step_latency_batch(op, batch, phase)
                for phase in ALL_PHASES
            }
            allreduce = {
                phase: self.communication.allreduce_latency_batch(
                    op, table, phase
                )
                for phase in ALL_PHASES
            }
            for j, i in enumerate(spatial):
                spec = specs[i]
                compute_total = 0.0
                allreduce_total = 0.0
                for phase in ALL_PHASES:
                    compute_total += float(step_compute[phase][j])
                    allreduce_total += allreduce[phase][j]
                allreduce_total += self.communication.layernorm_extras(op, spec)
                result = IntraCost(
                    compute_latency=compute_total,
                    ring_latency=0.0,
                    ring_exposed=0.0,
                    allreduce_latency=allreduce_total,
                    memory_bytes=self.memory.operator_memory(op, spec),
                    alpha=self.alpha,
                )
                self._cache[(op.name, spec.steps, spec.n_bits)] = result
                results[i] = result
        for i, cached in enumerate(results):
            if cached is None:
                results[i] = self.cost(op, specs[i])
        return results
