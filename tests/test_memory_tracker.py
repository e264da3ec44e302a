"""The one memory model against the frozen memory playback.

Every per-device memory figure is ``MemoryCostModel``'s terms: the
lowering reads its peak and per-kind split from the plan's price list, and
the ideal bound of Fig. 2(b) is the same model at one device.  The frozen
playback (``tests/legacy_memory.py``) is what the engine once replayed;
its peak and makeup must come out unchanged, in values and key order.
"""

import sys
from pathlib import Path

import pytest

from repro.api import MAX_BATCH
from repro.baselines.ideal import global_footprint_bytes
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.overall import OverallCostModel
from repro.core.dims import Dim
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import MODELS_BY_KEY
from repro.graph.operators import OpKind
from repro.graph.tensors import DTYPE_BYTES
from repro.graph.transformer import build_block_graph
from repro.sim.engine import EventDrivenSimulator

sys.path.insert(0, str(Path(__file__).resolve().parent))
from legacy_memory import MemoryTimeline, track_iteration  # noqa: E402  (frozen playback)


class TestMemoryTimeline:
    """The frozen playback itself, as it was tested before freezing."""

    def test_peak_tracks_maximum(self):
        timeline = MemoryTimeline()
        timeline.record("a", "stash", 10)
        timeline.record("b", "stash", 5)
        timeline.record("a", "stash", -10)
        timeline.record("c", "stash", 3)
        assert timeline.peak == 15
        assert timeline.resident == 8

    def test_zero_delta_ignored(self):
        timeline = MemoryTimeline()
        timeline.record("a", "stash", 0)
        assert not timeline.events

    def test_composition_at_peak(self):
        timeline = MemoryTimeline()
        timeline.record("w", "parameters", 100)
        timeline.record("a", "stash", 50)
        timeline.record("a", "stash", -50)
        composition = timeline.composition_at_peak()
        assert composition == {"parameters": 100, "stash": 50}


def lowered(profiler, graph, plan):
    """``plan``'s lowering and the frozen playback of its price list."""
    priced = OverallCostModel(profiler).plan_cost(graph, plan)
    lowering = EventDrivenSimulator(profiler).lower(graph, plan)
    return lowering, track_iteration(graph, priced), priced


def assert_same_memory(lowering, timeline):
    assert lowering.plan_memory == timeline.peak
    assert list(lowering.memory_split.items()) == list(
        timeline.composition_at_peak().items()
    )


class TestTrackIteration:
    def test_peak_matches_static_model(self, profiler8, large_block):
        """Peak occurs at the end of Forward: all stashes live at once, so
        the playback peak equals the lowering's static sum bit for bit."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        lowering, timeline, _ = lowered(profiler8, large_block, plan)
        assert_same_memory(lowering, timeline)

    def test_iteration_ends_with_persistent_state_only(
        self, profiler8, large_block
    ):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        _, timeline, priced = lowered(profiler8, large_block, plan)
        persistent = sum(
            t.parameter_bytes[0] + t.buffer_bytes[0] for t in priced.terms
        )
        assert timeline.resident == pytest.approx(persistent)

    def test_peak_composition_includes_stash(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        lowering, _, _ = lowered(profiler8, large_block, plan)
        assert lowering.memory_split.get("stash", 0) > 0
        assert lowering.memory_split.get("parameters", 0) > 0


class TestMemoryIdentity:
    """The lowering's peak and split are the playback's, exactly."""

    @pytest.mark.parametrize("plan_kind", ["primepar", "megatron"])
    @pytest.mark.parametrize("n_devices", [4, 8])
    @pytest.mark.parametrize("model", sorted(MODELS_BY_KEY))
    def test_lowering_equals_playback(self, model, n_devices, plan_kind):
        profiler = FabricProfiler(v100_cluster(n_devices))
        graph = build_block_graph(MODELS_BY_KEY[model].block_shape(batch=8))
        if plan_kind == "primepar":
            plan = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph).plan
        else:
            plan = megatron_plan(graph, profiler.topology.n_bits, dp_degree=1)
        assert_same_memory(*lowered(profiler, graph, plan)[:2])

    def test_lowering_equals_playback_at_max_batch(self):
        """At the largest batch a request may ask for, byte counts stay
        far below 2**53, so the sums are still exact."""
        profiler = FabricProfiler(v100_cluster(8))
        graph = build_block_graph(
            MODELS_BY_KEY["opt-175b"].block_shape(batch=MAX_BATCH)
        )
        plan = PrimeParOptimizer(profiler, alpha=2e-11).optimize(graph).plan
        lowering, timeline, _ = lowered(profiler, graph, plan)
        assert_same_memory(lowering, timeline)
        assert global_footprint_bytes(graph) < 2**53 / 16


def parent_footprint_bytes(graph):
    """The ideal bound's footprint as it once copied the memory rules,
    plus the LayerNorm statistics (two fp32 per row) it left out."""
    total = 0.0
    for node in graph.nodes:
        params = node.parameter_elements()
        total += 2 * params * node.weight_dtype_bytes
        if not node.stash_inputs:
            continue
        if node.kind is OpKind.LINEAR:
            stash = (
                node.dim_size(Dim.B) * node.dim_size(Dim.M) * node.dim_size(Dim.N)
            )
        elif node.kind is OpKind.MATMUL:
            b, m = node.dim_size(Dim.B), node.dim_size(Dim.M)
            n, k = node.dim_size(Dim.N), node.dim_size(Dim.K)
            stash = b * m * n + b * n * k
        else:
            stash = node.output_elements()
        statistics = 0
        if node.kind is OpKind.LAYERNORM:
            statistics = 2 * 4 * node.dim_size(Dim.B) * node.dim_size(Dim.M)
        total += stash * DTYPE_BYTES + statistics
    return total


class TestIdealFootprint:
    @pytest.mark.parametrize("model", sorted(MODELS_BY_KEY))
    def test_footprint_is_parent_formula_plus_layernorm_stats(self, model):
        graph = build_block_graph(MODELS_BY_KEY[model].block_shape(batch=8))
        footprint = global_footprint_bytes(graph)
        assert footprint == parent_footprint_bytes(graph)
        assert any(node.kind is OpKind.LAYERNORM for node in graph.nodes)
