"""Plan-cost explainability: the decomposition must be bit-exact.

The contract under test: an explanation's ``components``, folded
left-associatively in ``component_order``, reproduce the plan's predicted
cost *bit for bit* — for spatial-only (megatron) plans, spatial-temporal
(torus) plans, and 3D pipeline configurations under both pipeline engines.
Anything short of ``==`` on floats here would let the explanation drift
from the number the optimizer actually ranked plans by.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.baselines.megatron import best_megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.overall import OverallCostModel
from repro.core.explain import (
    COMPONENT_ORDER,
    EXPLAIN_SCHEMA,
    _exact_residual,
    component_sum,
    explain_pipeline,
    explain_plan,
)
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import MODELS_BY_KEY, OPT_175B
from repro.graph.transformer import build_block_graph
from repro.parallel3d.planner import Config3D, Planner3D
from repro.sim.engine import EventDrivenSimulator

ALPHA = 2e-11


@pytest.fixture(scope="module")
def setting8():
    profiler = FabricProfiler(v100_cluster(8))
    model = MODELS_BY_KEY["opt-6.7b"]
    graph = build_block_graph(model.block_shape(batch=8))
    return profiler, graph, model


@pytest.fixture(scope="module")
def torus16():
    """A 16-device OPT-175B search — the optimizer picks temporal specs."""
    profiler = FabricProfiler(v100_cluster(16))
    graph = build_block_graph(OPT_175B.block_shape(batch=16))
    result = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
    return profiler, graph, result


def _assert_bit_exact(profiler, graph, plan, alpha):
    doc = explain_plan(profiler, graph, plan, alpha=alpha)
    model = OverallCostModel(profiler, alpha=alpha)
    objective = model.plan_cost(graph, plan).objective(alpha)
    assert component_sum(doc["components"]) == doc["total_cost"]
    assert doc["total_cost"] == objective
    return doc


class TestExplainPlan:
    def test_megatron_plan_components_sum_bit_exactly(self, setting8):
        profiler, graph, model = setting8
        plan = best_megatron_plan(
            EventDrivenSimulator(profiler), graph, 8, model.n_layers
        ).plan
        doc = _assert_bit_exact(profiler, graph, plan, ALPHA)
        assert doc["schema"] == EXPLAIN_SCHEMA
        assert doc["kind"] == "plan"
        assert not any(entry["temporal"] for entry in doc["per_layer"])

    def test_searched_plan_components_sum_bit_exactly(self, setting8):
        profiler, graph, _ = setting8
        result = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
        _assert_bit_exact(profiler, graph, result.plan, ALPHA)

    def test_temporal_torus_plan_components_sum_bit_exactly(self, torus16):
        profiler, graph, result = torus16
        assert any(spec.has_temporal for spec in result.plan.values())
        doc = _assert_bit_exact(profiler, graph, result.plan, ALPHA)
        assert any(entry["temporal"] for entry in doc["per_layer"])

    def test_alpha_zero_drops_memory_component(self, setting8):
        profiler, graph, model = setting8
        plan = best_megatron_plan(
            EventDrivenSimulator(profiler), graph, 8, model.n_layers
        ).plan
        doc = _assert_bit_exact(profiler, graph, plan, 0.0)
        assert doc["components"]["memory_weighted"] == 0.0
        assert doc["memory_bytes"] > 0

    def test_per_layer_terms_match_components(self, setting8):
        """Per-layer columns re-fold (in node order) to the top components."""
        profiler, graph, _ = setting8
        result = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
        doc = explain_plan(profiler, graph, result.plan, alpha=ALPHA)
        for column, component in [
            ("compute", "compute"),
            ("intra_comm", "intra_comm"),
            ("allreduce", "allreduce"),
        ]:
            folded = 0.0
            for entry in doc["per_layer"]:
                folded += entry[column]
            assert folded == doc["components"][component]
        inter = 0.0
        for edge in doc["per_edge"]:
            inter += edge["cost"]
        assert inter == doc["components"]["inter_resharding"]

    def test_document_is_json_serializable_and_ordered(self, setting8):
        profiler, graph, model = setting8
        plan = best_megatron_plan(
            EventDrivenSimulator(profiler), graph, 8, model.n_layers
        ).plan
        doc = explain_plan(profiler, graph, plan, alpha=ALPHA)
        assert doc["component_order"] == list(COMPONENT_ORDER)
        round_tripped = json.loads(json.dumps(doc, sort_keys=True))
        assert round_tripped["total_cost"] == doc["total_cost"]

    def test_link_attribution_shape(self, setting8):
        profiler, graph, _ = setting8
        result = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
        doc = explain_plan(
            profiler, graph, result.plan, alpha=ALPHA,
            include_links=True, global_batch=8,
        )
        links = doc["links"]
        assert links["engine"] == "event"
        assert isinstance(links["link_bytes"], dict)


class TestExplainPipeline:
    def test_pipeline_components_sum_bit_exactly(self):
        planner = Planner3D(OPT_175B, n_devices=16, global_batch=32)
        result = planner.simulate(
            Config3D(pipeline=4, data=2, model=2), "primepar"
        )
        doc = explain_pipeline(result)
        assert doc["kind"] == "pipeline"
        assert component_sum(doc["components"]) == doc["total_cost"]
        assert doc["total_cost"] == result.iteration_latency
        assert doc["components"]["pipeline_bubble"] >= 0.0 or math.isclose(
            doc["components"]["pipeline_bubble"], 0.0, abs_tol=1e-12
        )


class TestExactResidual:
    @pytest.mark.parametrize(
        "total, partial",
        [
            (1.0, 0.3),
            (0.1312090713240831, 0.1),
            (1e-9, 9.999999e-10),
            (1e6, 1.0),
            (3.0, 3.0),
        ],
    )
    def test_fold_reproduces_total(self, total, partial):
        residual = _exact_residual(total, partial)
        assert partial + residual == total

    def test_residual_beyond_sterbenz_range(self):
        # bubble > half of total: naive total - partial may re-add inexactly
        total = 1.0 + 2**-52
        partial = 2**-30
        residual = _exact_residual(total, partial)
        assert partial + residual == total
