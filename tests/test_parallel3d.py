"""Pipeline schedules and 3D-parallelism composition."""

import pytest

from repro.cluster.links import INFINIBAND_100G, LinkSpec
from repro.graph.models import OPT_6_7B
from repro.parallel3d.pipeline import (
    PipelinePlan,
    PipelineSchedule,
    pipeline_iteration_events,
)
from repro.parallel3d.planner import Config3D, Planner3D, enumerate_configs

#: One byte per time unit: a ``boundary_bytes`` of 1 is a hop of 1.
UNIT_LINK = LinkSpec(name="unit", bandwidth=1.0, latency=0.0)


def replay(plan, boundary_bytes=0.0, link=INFINIBAND_100G):
    """``plan`` replayed with ``t_f = 1`` and ``t_b = 2``."""
    return pipeline_iteration_events(plan, 1.0, 2.0, boundary_bytes, link)


def peak_in_flight(report, stage=0):
    """Most micro-batches whose activations are live at once on ``stage``:
    from the start of a micro-batch's forward to the end of its backward."""
    steps = []
    for record in report.timeline.records:
        if record.device != stage:
            continue
        if record.kind == "forward":
            steps.append((record.start, 1))
        elif record.kind == "backward":
            steps.append((record.start + record.duration, -1))
    live = peak = 0
    for _, step in sorted(steps):
        live += step
        peak = max(peak, live)
    return peak


class TestPipelinePlan:
    def test_bubble_fraction(self):
        report = replay(PipelinePlan(n_stages=4, n_microbatches=12))
        assert report.bubble_fraction == pytest.approx(3 / 15)

    def test_single_stage_no_bubble(self):
        report = replay(PipelinePlan(n_stages=1, n_microbatches=8))
        assert report.bubble_fraction == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelinePlan(n_stages=0, n_microbatches=4)
        with pytest.raises(ValueError):
            PipelinePlan(n_stages=2, n_microbatches=0)

    def test_1f1b_bounds_in_flight(self):
        gpipe = replay(PipelinePlan(4, 16, schedule=PipelineSchedule.GPIPE))
        onef = replay(PipelinePlan(4, 16, schedule=PipelineSchedule.ONE_F_ONE_B))
        assert peak_in_flight(gpipe) == 16
        assert peak_in_flight(onef) == 4


class TestPipelineIteration:
    def test_critical_path(self):
        report = replay(PipelinePlan(n_stages=4, n_microbatches=8))
        assert report.iteration_latency == pytest.approx((8 + 3) * 3.0)
        assert report.bubble_latency == pytest.approx(3 * 3.0)

    def test_more_microbatches_lower_bubble_fraction(self):
        few = replay(PipelinePlan(4, 4))
        many = replay(PipelinePlan(4, 32))
        assert many.bubble_fraction < few.bubble_fraction

    def test_boundary_comm_exposed_on_ramps(self):
        plan = PipelinePlan(n_stages=4, n_microbatches=8)
        without = replay(plan)
        with_comm = replay(plan, 1 << 24)
        assert with_comm.iteration_latency > without.iteration_latency

    def test_single_stage_has_no_comm(self):
        report = replay(PipelinePlan(n_stages=1, n_microbatches=4), 1 << 24)
        assert report.communication_latency == 0.0

    @pytest.mark.parametrize("m,expected", [(4, 31.0), (8, 49.0)])
    def test_1f1b_hand_worked_oracle(self, m, expected):
        """1F1B at ``p = 4``, ``t_f = 1``, ``t_b = 2``, ``hop = 1``.

        Stage ``s`` warms up with ``3 - s`` forwards, then alternates
        F/B.  ``F(s, i)`` waits for ``F(s-1, i)`` plus a hop, ``B(s, i)``
        for ``B(s+1, i)`` plus a hop, and each stage runs its kernels in
        that order.  A micro-batch's trip from stage ``s`` to the last
        stage costs ``(4 - s)`` forwards and ``(3 - s)`` hops, its trip
        back to ``s`` ``(4 - s)`` backwards and ``(3 - s)`` hops.  The
        critical path chains such trips through the stage that is still
        busy with a backward when its next forward arrives:

        * ``m = 4``: F0 runs 0 → 3 (4 F + 3 hops = 7); B0 comes back to
          stage 1 (3 B + 2 hops = 8, t = 15), which only then starts F3;
          F3 runs stage 1 → 3 (3 F + 2 hops = 5, t = 20); B3 runs all
          the way back (4 B + 3 hops = 11).  7 + 8 + 5 + 11 = 31.
        * ``m = 8``: F0 runs down (7); B0 comes back to stage 0 (11,
          t = 18), which only then starts F4; F4 runs down (7, t = 25);
          B4 comes back to stage 1 (8, t = 33), which only then starts F7;
          F7 runs stage 1 → 3 (5, t = 38); B7 runs all the way back (11).
          7 + 11 + 7 + 8 + 5 + 11 = 49.

        The closed form ``(m + p - 1)(t_f + t_b) + 2 (p - 1) hop`` gives
        27 and 39: it assumes every send hides behind compute, and so
        under-prices 1F1B.
        """
        report = replay(PipelinePlan(n_stages=4, n_microbatches=m), 1.0, UNIT_LINK)
        assert report.iteration_latency == expected


class TestConfigEnumeration:
    def test_all_configs_cover_devices(self):
        for config in enumerate_configs(32):
            assert config.n_devices == 32
            assert config.pipeline > 1

    def test_pipeline_optional(self):
        configs = list(enumerate_configs(8, require_pipeline=False))
        assert Config3D(1, 1, 8) in configs

    def test_count_at_32(self):
        assert len(list(enumerate_configs(32))) == 15


class TestPlanner3D:
    @pytest.fixture(scope="class")
    def planner(self):
        return Planner3D(OPT_6_7B, n_devices=8, global_batch=8, microbatch=2)

    def test_simulate_megatron(self, planner):
        result = planner.simulate(Config3D(2, 2, 2), "megatron")
        assert result.throughput > 0
        assert result.dp_allreduce_latency > 0

    def test_no_dp_no_gradient_sync(self, planner):
        result = planner.simulate(Config3D(2, 1, 4), "megatron")
        assert result.dp_allreduce_latency == 0.0

    def test_device_count_checked(self, planner):
        with pytest.raises(ValueError):
            planner.simulate(Config3D(2, 2, 4), "megatron")

    def test_unknown_method_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.simulate(Config3D(2, 2, 2), "deepspeed")

    def test_sweep_respects_batch(self, planner):
        results = planner.sweep("megatron")
        assert results
        for result in results:
            assert result.config.data <= 8

    def test_microbatch_clamped_to_replica_batch(self):
        """At d = 16 a replica holds 2 of the 32 sequences, so a micro-batch
        of 4 is priced as one micro-batch of 2, not of 4."""
        config = Config3D(2, 16, 1)
        wide = Planner3D(OPT_6_7B, n_devices=32, global_batch=32, microbatch=4)
        exact = Planner3D(OPT_6_7B, n_devices=32, global_batch=32, microbatch=2)
        assert wide._microbatch_for(16) == 2
        result = wide.simulate(config, "megatron")
        forwards = [
            r for r in result.pipeline.timeline.records
            if r.device == 0 and r.kind == "forward"
        ]
        assert len(forwards) == 1
        assert (
            result.iteration_latency
            == exact.simulate(config, "megatron").iteration_latency
        )

    def test_indivisible_batch_skipped(self):
        from repro.obs.metrics import counter

        planner = Planner3D(OPT_6_7B, n_devices=8, global_batch=12, microbatch=4)
        with pytest.raises(ValueError):
            planner.simulate(Config3D(1, 8, 1), "megatron")  # 12 % 8
        with pytest.raises(ValueError):
            planner.simulate(Config3D(2, 2, 2), "megatron")  # 6 % 4
        skipped = counter("sweep.configs", outcome="skipped")
        before = skipped.value
        configs = {str(r.config) for r in planner.sweep("megatron")}
        assert configs == {
            str(Config3D(2, 1, 4)),
            str(Config3D(2, 4, 1)),
            str(Config3D(4, 1, 2)),
            str(Config3D(8, 1, 1)),
        }
        assert skipped.value - before == 2

    def test_primepar_never_slower_per_config(self, planner):
        """PrimePar's stage plans beat or match Megatron's per config."""
        for config in [Config3D(2, 1, 4), Config3D(2, 2, 2)]:
            meg = planner.simulate(config, "megatron")
            pp = planner.simulate(config, "primepar")
            assert pp.throughput >= meg.throughput * 0.98
