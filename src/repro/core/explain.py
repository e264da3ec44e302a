"""Plan-cost explainability: *why* a plan costs what it costs.

A returned plan says what the partition is; this module decomposes its
predicted iteration cost so the decision is inspectable (paper Fig. 7/8's
spatial-temporal vs. spatial-only analysis, reproducible on demand):

* :func:`explain_plan` — Eq. 10's objective split per layer (operator) and
  per primitive sequence into compute / intra-operator communication
  (exposed ring) / all-reduce / inter-operator resharding / weighted
  memory, with optional per-link byte attribution replayed through the
  event engine.  It is a view of
  :meth:`~repro.core.cost.overall.OverallCostModel.plan_cost`'s price
  list: the tables are its per-operator and per-edge entries, and the
  top-level components are its totals, so folded in
  :data:`COMPONENT_ORDER` they reproduce the plan's
  :meth:`~repro.core.cost.overall.PlanCost.objective` **bit-exactly**.
* :func:`explain_pipeline` — a 3D configuration's iteration latency split
  into stage work / exposed stage-boundary communication / data-parallel
  all-reduce / pipeline bubble; the bubble is the fold's exact residual,
  so the same bit-exact component-sum contract holds for both the
  closed-form and the event-driven pipeline engines.

Both return schema-stable JSON-ready dicts (``EXPLAIN_SCHEMA``); rendering
to tables lives with the CLI.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

from ..cluster.profiler import FabricProfiler
from ..graph.graph import ComputationGraph
from .cost.overall import OverallCostModel
from .spec import PartitionSpec

#: Schema version of explanation documents.
EXPLAIN_SCHEMA = 1

#: Top-level cost components, in fold order.  The order is load-bearing:
#: summing them left-associatively reproduces the original cost fold bit
#: for bit (floating-point addition is not associative).
COMPONENT_ORDER = (
    "compute",
    "intra_comm",
    "allreduce",
    "inter_resharding",
    "memory_weighted",
    "pipeline_bubble",
)


def component_sum(components: Mapping[str, float]) -> float:
    """Left-associative fold of ``components`` in :data:`COMPONENT_ORDER`.

    This is *the* sanctioned way to total an explanation — any other
    summation order may differ in the last ulp and break the bit-exact
    contract with the plan's predicted cost.
    """
    total = 0.0
    for name in COMPONENT_ORDER:
        total += components.get(name, 0.0)
    return total


def _exact_residual(total: float, partial: float) -> float:
    """The float ``r`` with ``partial + r == total`` exactly.

    ``total - partial`` is correctly rounded but re-adding it may still
    miss ``total`` by an ulp; the fold ``partial + r`` is monotone in
    ``r``, so nudging by ulps converges in a couple of steps.
    """
    residual = total - partial
    for _ in range(8):
        folded = partial + residual
        if folded == total:
            return residual
        residual = math.nextafter(
            residual, math.inf if folded < total else -math.inf
        )
    return total - partial


def explain_plan(
    profiler: FabricProfiler,
    graph: ComputationGraph,
    plan: Mapping[str, PartitionSpec],
    alpha: float = 0.0,
    include_links: bool = False,
    global_batch: int = 1,
) -> Dict[str, object]:
    """Decompose Eq. 10's predicted cost of ``plan`` over ``graph``.

    Returns a schema-stable dict whose top-level ``components`` fold
    (:func:`component_sum`) equals ``OverallCostModel.plan_cost(graph,
    plan).objective(alpha)`` bit-exactly.  ``include_links`` additionally
    replays the plan through the event-driven engine for per-link byte
    attribution (``links``), pricing one layer.
    """
    priced = OverallCostModel(profiler, alpha=alpha).plan_cost(graph, plan)
    per_layer: List[Dict[str, object]] = []
    by_spec: Dict[str, Dict[str, object]] = {}
    for node, cost in zip(graph.nodes, priced.operators):
        spec = plan[node.name]
        entry = {
            "operator": node.name,
            "spec": str(spec),
            "temporal": spec.has_temporal,
            "compute": cost.compute_latency,
            "intra_comm": cost.ring_exposed,
            "ring_latency": cost.ring_latency,
            "allreduce": cost.allreduce_latency,
            "memory_bytes": cost.memory_bytes,
            "memory_weighted": alpha * cost.memory_bytes,
            "latency": cost.latency,
        }
        per_layer.append(entry)
        group = by_spec.get(entry["spec"])
        if group is None:
            group = by_spec[entry["spec"]] = {
                "spec": entry["spec"],
                "temporal": entry["temporal"],
                "operators": [],
                "compute": 0.0,
                "intra_comm": 0.0,
                "allreduce": 0.0,
                "memory_weighted": 0.0,
            }
        group["operators"].append(node.name)
        for key in ("compute", "intra_comm", "allreduce", "memory_weighted"):
            group[key] += entry[key]
    per_edge = [
        {
            "src": edge.src,
            "dst": edge.dst,
            "slot": edge.slot,
            "cost": cost,
            "forward": forward,
            "backward": backward,
        }
        for edge, cost, forward, backward in priced.edges
    ]
    components = {
        "compute": priced.compute_latency,
        "intra_comm": priced.ring_exposed,
        "allreduce": priced.allreduce_latency,
        "inter_resharding": priced.inter_latency,
        "memory_weighted": alpha * priced.memory_bytes,
        "pipeline_bubble": 0.0,
    }
    doc: Dict[str, object] = {
        "schema": EXPLAIN_SCHEMA,
        "kind": "plan",
        "alpha": alpha,
        "devices": profiler.topology.n_devices,
        "total_cost": component_sum(components),
        "components": components,
        "component_order": list(COMPONENT_ORDER),
        "memory_bytes": priced.memory_bytes,
        "per_layer": per_layer,
        "per_edge": per_edge,
        "by_primitive": [by_spec[key] for key in sorted(by_spec)],
    }
    if include_links:
        doc["links"] = _link_attribution(profiler, graph, plan, global_batch)
    return doc


def _link_attribution(
    profiler: FabricProfiler,
    graph: ComputationGraph,
    plan: Mapping[str, PartitionSpec],
    global_batch: int,
) -> Dict[str, object]:
    """Per-link byte attribution by replaying one layer event-driven."""
    from ..sim.engine import EventDrivenSimulator  # local: keep DAG shallow

    report = EventDrivenSimulator(profiler).run(graph, plan, global_batch)
    util = report.utilization or {}
    return {
        "engine": "event",
        "layers": report.layers_scaled,
        "link_bytes": dict(util.get("link_bytes", {})),
        "link_utilization": dict(util.get("link_utilization", {})),
    }


def explain_pipeline(result) -> Dict[str, object]:
    """Decompose a :class:`~repro.parallel3d.planner.Result3D`'s latency.

    ``total_cost`` is the configuration's iteration latency; the pipeline
    bubble is reported as the component fold's exact residual, so
    :func:`component_sum` reproduces it bit-exactly (the pipeline replay's
    makespan already *defines* the bubble as a residual).
    """
    pipe = result.pipeline
    total = result.iteration_latency
    work = pipe.iteration_latency - pipe.bubble_latency - pipe.communication_latency
    components = {
        "compute": work,
        "intra_comm": pipe.communication_latency,
        "allreduce": result.dp_allreduce_latency,
        "inter_resharding": 0.0,
        "memory_weighted": 0.0,
        "pipeline_bubble": 0.0,
    }
    components["pipeline_bubble"] = _exact_residual(
        total, component_sum(components)
    )
    return {
        "schema": EXPLAIN_SCHEMA,
        "kind": "pipeline",
        "config": str(result.config),
        "stages": result.config.pipeline,
        "data_parallel": result.config.data,
        "model_parallel": result.config.model,
        "total_cost": component_sum(components),
        "components": components,
        "component_order": list(COMPONENT_ORDER),
        "throughput": result.throughput,
        "stage_latency": pipe.stage_latency,
        "bubble_fraction": pipe.bubble_fraction,
        "plan": {name: str(spec) for name, spec in sorted(result.plan.items())},
    }
