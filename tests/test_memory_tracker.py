"""Phase-resolved memory playback."""

import pytest

from repro.baselines.megatron import megatron_plan
from repro.core.cost.overall import OverallCostModel
from repro.sim.memory_tracker import MemoryTimeline, track_iteration


class TestMemoryTimeline:
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


def track(profiler, graph, plan):
    """The watermark of ``plan`` played from its price list."""
    priced = OverallCostModel(profiler).plan_cost(graph, plan)
    return track_iteration(graph, priced), priced


class TestTrackIteration:
    def test_peak_matches_static_model(self, profiler8, large_block):
        """Peak occurs at the end of Forward: all stashes live at once, so
        the playback peak equals the paper's static sum."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        timeline, priced = track(profiler8, large_block, plan)
        assert timeline.peak == pytest.approx(priced.memory_bytes)

    def test_iteration_ends_with_persistent_state_only(
        self, profiler8, large_block
    ):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        timeline, priced = track(profiler8, large_block, plan)
        persistent = sum(
            t.parameter_bytes[0] + t.buffer_bytes[0] for t in priced.terms
        )
        assert timeline.resident == pytest.approx(persistent)

    def test_peak_composition_includes_stash(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        timeline, _ = track(profiler8, large_block, plan)
        composition = timeline.composition_at_peak()
        assert composition.get("stash", 0) > 0
        assert composition.get("parameters", 0) > 0
