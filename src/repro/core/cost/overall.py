"""Overall plan cost — paper Eq. 10.

``C = sum_i intraC(n_i, P_i) + sum_(i,j) interC(n_i, n_j, P_i, P_j)`` over
a computation graph with one partition spec per node.  :class:`PlanCost` is
the one price list of a plan: ``explain`` reads its tables from it, and the
event engine (:meth:`~repro.sim.engine.EventDrivenSimulator.lower`)
replays its terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ...cluster.profiler import FabricProfiler
from ...graph.graph import ComputationGraph, Edge
from ..spec import PartitionSpec
from .inter import InterOperatorCostModel
from .intra import IntraCost, IntraOperatorCostModel, IntraTerms


@dataclass(frozen=True)
class PlanCost:
    """Decomposed cost of a full plan, per training iteration.

    The totals are folded left to right from the price list beside them:
    per-operator terms in graph order, then per-edge ``interC`` in edge
    order (floating-point addition is not associative, so the order is
    part of the contract).
    """

    compute_latency: float
    ring_exposed: float
    allreduce_latency: float
    inter_latency: float
    memory_bytes: float
    #: Each operator's :class:`IntraCost`, in ``graph.nodes`` order.
    operators: Tuple[IntraCost, ...]
    #: The one-row :class:`IntraTerms` each of ``operators`` folds.
    terms: Tuple[IntraTerms, ...] = field(compare=False)
    #: ``(edge, interC, forward, backward)`` per edge, in ``graph.edges``
    #: order (:meth:`InterOperatorCostModel.plan_edge_costs`).
    edges: Tuple[Tuple[Edge, float, float, float], ...]

    @property
    def latency(self) -> float:
        return (
            self.compute_latency
            + self.ring_exposed
            + self.allreduce_latency
            + self.inter_latency
        )

    def objective(self, alpha: float) -> float:
        """Eq. 10 scalar under memory weight ``alpha``."""
        return self.latency + alpha * self.memory_bytes


class OverallCostModel:
    """Evaluates Eq. 10 for explicit plans."""

    def __init__(self, profiler: FabricProfiler, alpha: float = 0.0) -> None:
        self.profiler = profiler
        self.alpha = alpha
        self.intra = IntraOperatorCostModel(profiler, alpha=alpha)
        self.inter = InterOperatorCostModel(profiler)

    def plan_cost(
        self, graph: ComputationGraph, plan: Mapping[str, PartitionSpec]
    ) -> PlanCost:
        """Cost of ``plan`` (node name -> spec) over ``graph``."""
        terms = tuple(
            self.intra.price_batch(node, [plan[node.name]])
            for node in graph.nodes
        )
        operators = tuple(self.intra.fold(priced)[0] for priced in terms)
        compute = ring = allreduce = memory = 0.0
        for cost in operators:
            compute += cost.compute_latency
            ring += cost.ring_exposed
            allreduce += cost.allreduce_latency
            memory += cost.memory_bytes
        edges = self.inter.plan_edge_costs(graph, plan)
        inter_total = 0.0
        for _, cost, _, _ in edges:
            inter_total += cost
        return PlanCost(
            compute_latency=compute,
            ring_exposed=ring,
            allreduce_latency=allreduce,
            inter_latency=inter_total,
            memory_bytes=memory,
            operators=operators,
            terms=terms,
            edges=edges,
        )
