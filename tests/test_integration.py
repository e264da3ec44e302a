"""End-to-end integration: search -> simulate -> verify numerically."""

import pytest

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
    verify_spec,
)
from repro.baselines.megatron import best_megatron_plan
from repro.baselines.portfolio import portfolio
from repro.core.spec import PartitionSpec
from repro.graph.models import OPT_175B, OPT_6_7B
from repro.runtime.linear_exec import LinearShape


class TestSearchedPlansAreExecutable:
    def test_searched_linear_specs_verify_numerically(self, profiler8, large_block):
        """Every linear spec the optimizer picks trains exactly."""
        result = PrimeParOptimizer(profiler8, alpha=2e-11).optimize(large_block)
        for name, spec in result.plan.items():
            node = large_block.node(name)
            if node.kind.value != "linear":
                continue
            counts = spec.slice_counts
            shape = LinearShape(
                b=2 * counts[list(counts)[0]] * 4,
                m=16,
                n=16,
                k=16,
            )
            # use a safe divisible shape instead
            report = verify_spec(spec)
            assert report.passed, (name, str(spec), report.max_errors)


class TestHeadlineComparison:
    """The paper's headline shape: PrimePar >= Megatron ~= Alpa, with the
    gains concentrated on large models at larger clusters."""

    @pytest.fixture(scope="class")
    def setting16(self):
        topology = v100_cluster(16)
        profiler = FabricProfiler(topology)
        simulator = EventDrivenSimulator(profiler)
        graph = build_block_graph(OPT_175B.block_shape(batch=16))
        return profiler, simulator, graph

    def test_primepar_beats_megatron_on_175b_at_16(self, setting16):
        profiler, simulator, graph = setting16
        megatron = best_megatron_plan(simulator, graph, global_batch=16)
        result = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph)
        report = simulator.run_model(graph, result.plan, 16, 1)
        speedup = report.throughput / megatron.report.throughput
        assert speedup >= 1.05

    def test_primepar_uses_temporal_primitive_on_175b(self, setting16):
        profiler, _, graph = setting16
        result = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph)
        assert any(spec.has_temporal for spec in result.plan.values())

    def test_alpa_close_to_megatron(self, setting16):
        """Paper Sec. 6.1: the two conventional baselines perform closely."""
        profiler, simulator, graph = setting16
        plans = portfolio(
            profiler, graph, global_batch=16, n_layers=1, alpha=2e-11
        )
        report = simulator.run_model(graph, plans.conventional.plan, 16, 1)
        ratio = report.throughput / plans.megatron.report.throughput
        assert 0.9 <= ratio <= 1.35

    def test_collective_latency_reduced(self, setting16):
        """Fig. 9: PrimePar trades collective latency for overlapped rings."""
        profiler, simulator, graph = setting16
        megatron = best_megatron_plan(simulator, graph, global_batch=16)
        result = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph)
        report = simulator.run_model(graph, result.plan, 16, 1)
        assert report.breakdown.get("allreduce", 0) < megatron.report.breakdown.get(
            "allreduce", 0
        )


class TestSmallModelParity:
    def test_7b_models_at_small_scale_are_close(self, profiler8):
        """~7B models gain little (paper: 1.16-1.20x at most)."""
        graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
        simulator = EventDrivenSimulator(profiler8)
        megatron = best_megatron_plan(simulator, graph, global_batch=8)
        result = PrimeParOptimizer(profiler8, alpha=2e-11).optimize(graph)
        report = simulator.run_model(graph, result.plan, 8, 1)
        assert report.throughput >= megatron.report.throughput * 0.95
