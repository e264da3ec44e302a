"""Plan replay on the event engine: reports, breakdowns, model scaling."""

import pytest

from repro.baselines.megatron import megatron_plan
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.sim.engine import EventDrivenSimulator
from repro.sim.timeline import KernelRecord


class TestTimeline:
    def test_record_end(self):
        record = KernelRecord("a", "F", "compute", start=1.0, duration=0.5)
        assert record.end == 1.5


class TestSimulator:
    @pytest.fixture(scope="class")
    def report8(self, profiler8, large_block):
        simulator = EventDrivenSimulator(profiler8)
        plan = megatron_plan(large_block, 3, dp_degree=2)
        return simulator.run(large_block, plan, global_batch=8)

    def test_latency_positive(self, report8):
        assert report8.latency > 0
        assert report8.throughput == pytest.approx(8 / report8.latency)

    def test_breakdown_sums_to_latency(self, report8):
        visible = sum(
            v for k, v in report8.breakdown.items() if k != "ring-overlapped"
        )
        assert visible == pytest.approx(report8.latency, rel=1e-9)

    def test_megatron_has_allreduce(self, report8):
        assert report8.breakdown.get("allreduce", 0) > 0

    def test_timeline_is_ordered(self, report8):
        clocks = {}
        for record in report8.timeline.records:
            if not record.overlapped:
                clock = clocks.get(record.device, 0.0)
                assert record.start >= clock - 1e-12
                clocks[record.device] = record.end

    def test_memory_positive(self, report8):
        assert report8.peak_memory_bytes > 0

    def test_run_model_scales_linearly(self, profiler8, large_block):
        simulator = EventDrivenSimulator(profiler8)
        plan = megatron_plan(large_block, 3, dp_degree=2)
        one = simulator.run_model(large_block, plan, 8, n_layers=1)
        four = simulator.run_model(large_block, plan, 8, n_layers=4)
        assert four.latency == pytest.approx(4 * one.latency)
        assert four.peak_memory_bytes == pytest.approx(
            4 * one.peak_memory_bytes
        )
        assert four.throughput == pytest.approx(one.throughput / 4)

    def test_primepar_plan_has_overlapped_ring(self, profiler8, large_block):
        simulator = EventDrivenSimulator(profiler8)
        result = PrimeParOptimizer(profiler8, alpha=2e-11).optimize(large_block)
        report = simulator.run(large_block, result.plan, 8)
        if any(spec.has_temporal for spec in result.plan.values()):
            assert report.breakdown.get("ring-overlapped", 0) > 0

    def test_collective_latency_property(self, report8):
        assert report8.collective_latency == pytest.approx(
            report8.breakdown.get("allreduce", 0.0)
            + report8.breakdown.get("redistribute", 0.0)
        )
