"""Discrete-event engine: event loop, cross-validation against Eq. 10's
predicted latency, link contention, and event-driven pipeline schedules."""

import pytest

from repro.baselines.megatron import megatron_plan
from repro.cluster.links import LinkSpec
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import torus_cluster, v100_cluster
from repro.core.cost.overall import OverallCostModel
from repro.core.dims import Dim
from repro.core.explain import explain_plan
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.graph.operators import OpKind, OperatorSpec
from repro.parallel3d.pipeline import (
    PipelinePlan,
    PipelineSchedule,
    pipeline_iteration_events,
)
from repro.sim.engine import EventDrivenSimulator, KernelGraph


def fc_graph():
    """A one-operator graph: a single linear layer named ``fc``."""
    fc = OperatorSpec(
        name="fc",
        kind=OpKind.LINEAR,
        dim_axes={
            Dim.B: ("batch",),
            Dim.M: ("seq",),
            Dim.K: ("hidden",),
            Dim.N: ("ffn",),
        },
        axis_sizes={"batch": 4, "seq": 128, "hidden": 1024, "ffn": 4096},
    )
    return ComputationGraph(nodes=[fc], edges=[])


def predicted(profiler, graph, plan):
    """Eq. 10's cost of ``plan`` at ``alpha = 0``: its predicted latency,
    plus the per-device memory the Eq. 7 terms price."""
    doc = explain_plan(profiler, graph, plan, alpha=0)
    return doc["total_cost"], doc["memory_bytes"], doc["components"]


#: Two nodes of two GPUs: a 0 -> 2 transfer crosses both NIC pools.
_NICS = v100_cluster(4, gpus_per_node=2)
_PATH = _NICS.path_resources(0, 2)


def _flapped(seconds, flaps):
    """A graph whose one transfer, 0 -> 2, takes ``seconds`` at full NIC
    bandwidth after its latency, run under ``flaps``; returns the
    graph and the transfer's end."""
    kg = KernelGraph()
    t = kg.add("t", transfer=(seconds * _PATH.stream_bandwidth, _PATH))
    kg.execute(flaps=flaps)
    assert kg.schedule == "events"
    return kg, kg.kernels[t].end_time


class TestSimulationEngine:
    """The event loop's clock contract (``KernelGraph.execute``): events
    fire in time order, equal timestamps in submission order, and nothing
    is scheduled before the current time.  NIC flaps are the events a
    caller times, so they probe it."""

    def test_events_fire_in_time_order(self):
        """Flaps listed late-first still stall the transfer in time order,
        and kernels on the streams keep their own times."""
        kg = KernelGraph()
        late = kg.add("late", streams=[kg.stream("dev0")], duration=2.0)
        early = kg.add("early", streams=[kg.stream("dev1")], duration=1.0)
        t = kg.add("t", transfer=(4.0 * _PATH.stream_bandwidth, _PATH))
        flaps = [("nic:node0", 2.0, 2.5, 0.0), ("nic:node1", 1.0, 1.5, 0.0)]
        assert kg.execute(flaps=flaps) == kg.kernels[t].end_time
        kernels = kg.kernels
        assert (kernels[early].end_time, kernels[late].end_time) == (1.0, 2.0)
        assert kernels[t].end_time == pytest.approx(_PATH.latency + 5.0)

    def test_ties_fire_in_submission_order(self):
        """A zero-length flap's start edge fires before its end edge, so
        it cuts nothing; back-to-back flaps stall as one window."""
        _, nominal = _flapped(1.0, [])
        _, instant = _flapped(1.0, [("nic:node0", 0.5, 0.5, 0.0)])
        assert instant == pytest.approx(nominal)
        _, joined = _flapped(1.0, [
            ("nic:node0", 0.5, 1.0, 0.0), ("nic:node0", 1.0, 1.5, 0.0),
        ])
        assert joined == pytest.approx(nominal + 1.0)

    def test_past_events_clamp_to_now(self):
        """An edge before the clock's start fires at 0.0: a flap already
        over is a no-op, and one still on stalls the transfer from its
        activation; the clock never runs backwards."""
        _, nominal = _flapped(1.0, [])
        _, over = _flapped(1.0, [("nic:node0", -2.0, -1.0, 0.0)])
        assert over == nominal
        _, stalled = _flapped(1.0, [("nic:node1", -1.0, 0.5, 0.0)])
        assert stalled == pytest.approx(1.5)
        kg = KernelGraph()
        s = kg.stream("dev0")
        a = kg.add("a", streams=[s], duration=5.0)
        back = kg.add("back", streams=[s], duration=-1.0)
        after = kg.add("after", streams=[s], duration=0.0)
        assert kg.execute(flaps=[("nic:node0", -1.0, 1.0, 0.0)]) == 5.0
        assert kg.schedule == "events"
        kernels = kg.kernels
        assert kernels[back].start_time == kernels[back].end_time == 5.0
        assert kernels[after].start_time == kernels[a].end_time == 5.0

    def test_perf_stats_pinned(self):
        """Engine telemetry keeps its meaning: one contended two-node DAG
        yields exactly the counts (and times) the closure-based engine
        reported for it."""
        topo = v100_cluster(4, gpus_per_node=2)
        kg = KernelGraph()
        s0, s1 = kg.stream("dev0"), kg.stream("dev1")
        a = kg.add("a", streams=[s0], duration=1e-3)
        t1 = kg.add("t1", deps=[a], transfer=(1e9, topo.path_resources(0, 2)))
        kg.add("t2", deps=[a], transfer=(5e8, topo.path_resources(1, 3)))
        kg.add("t3", deps=[a], transfer=(4e9, topo.path_resources(0, 1)))
        kg.add("b", streams=[s0, s1], deps=[t1], duration=2e-3)
        assert kg.execute() == 0.123008
        assert kg.perf_stats() == {
            "contention_flushes": 5,
            "rate_recomputes": 4,
            "rate_reuses": 3,
            "queue_pushes": 12,
            "queue_stale_drops": 4,
        }
        assert [k.end_time for k in kg.kernels] == [
            0.001, 0.121008, 0.08100800000000001, 0.027669666666666665,
            0.123008,
        ]
        assert kg.device_busy_seconds() == {0: 0.22968566666666668}


class TestKernelGraph:
    def test_stream_serialises_kernels(self):
        kg = KernelGraph()
        s = kg.stream("dev0")
        a = kg.add("a", streams=[s], duration=1.0)
        b = kg.add("b", streams=[s], duration=2.0)
        assert kg.execute() == pytest.approx(3.0)
        assert kg.kernels[a].end_time == pytest.approx(1.0)
        assert kg.kernels[b].start_time == pytest.approx(1.0)

    def test_independent_streams_run_concurrently(self):
        kg = KernelGraph()
        kg.add("a", streams=[kg.stream("dev0")], duration=2.0)
        kg.add("b", streams=[kg.stream("dev1")], duration=2.0)
        assert kg.execute() == pytest.approx(2.0)

    def test_dependency_delays_start(self):
        kg = KernelGraph()
        a = kg.add("a", streams=[kg.stream("dev0")], duration=1.5)
        b = kg.add("b", streams=[kg.stream("dev1")], duration=1.0, deps=[a])
        assert kg.execute() == pytest.approx(2.5)
        assert kg.kernels[b].start_time == pytest.approx(1.5)

    def test_multi_stream_kernel_is_a_barrier(self):
        kg = KernelGraph()
        s0, s1 = kg.stream("dev0"), kg.stream("dev1")
        kg.add("a", streams=[s0], duration=1.0)
        kg.add("sync", streams=[s0, s1], duration=0.0)
        tail = kg.add("b", streams=[s1], duration=1.0)
        kg.execute()
        assert kg.kernels[tail].start_time == pytest.approx(1.0)

    def test_deadlock_detected(self):
        kg = KernelGraph()
        s = kg.stream("dev0")
        a = kg.add("a", streams=[s], duration=1.0)
        b = kg.add("b", streams=[s], duration=1.0)
        # b precedes a on the stream only if submitted first; force a cycle:
        kg.add_dep(a, b)
        with pytest.raises(RuntimeError, match="deadlock"):
            kg.execute()

    def test_contended_flows_share_capacity(self):
        topo = v100_cluster(4, gpus_per_node=2)
        path02 = topo.path_resources(0, 2)
        path13 = topo.path_resources(1, 3)
        n_bytes = 1e9
        solo = KernelGraph()
        solo.add("t", transfer=(n_bytes, path02))
        solo_time = solo.execute()
        both = KernelGraph()
        both.add("t1", transfer=(n_bytes, path02))
        both.add("t2", transfer=(n_bytes, path13))
        shared_time = both.execute()
        # Two flows out of node0 into node1 share each NIC pool: 2x slower
        # (minus the unshared per-message latency prelude).
        assert shared_time == pytest.approx(
            2 * (solo_time - path02.latency) + path02.latency
        )

    def test_re_execution_repeats_the_first_run(self):
        """``execute`` resets the run state: a second run equals the
        first, clock to counters.  (A deadlocked graph raises on every
        run: see ``test_deadlock_after_compilation_names_first_stuck``.)"""
        topo = v100_cluster(4, gpus_per_node=2)
        kg = KernelGraph()
        s0, s1 = kg.stream("dev0"), kg.stream("dev1")
        a = kg.add("a", streams=[s0], duration=1e-3)
        t1 = kg.add("t1", deps=[a], transfer=(1e9, topo.path_resources(0, 2)))
        kg.add("t2", deps=[a], transfer=(1e9, topo.path_resources(1, 3)))
        kg.add("b", streams=[s0, s1], deps=[t1], duration=2e-3)

        def run():
            return (
                kg.execute(), kg.timeline(), kg.link_stats(),
                kg.device_busy_seconds(), kg.perf_stats(),
            )

        first = run()
        assert run() == first

    def test_add_after_execute_recompiles(self):
        """Kernels added after a run join the next one, which equals a
        fresh build of the grown DAG."""
        topo = v100_cluster(4, gpus_per_node=2)

        def base(kg):
            a = kg.add("a", streams=[kg.stream("dev0")], duration=1e-3)
            t1 = kg.add(
                "t1", deps=[a], transfer=(1e9, topo.path_resources(0, 2))
            )
            return a, t1

        def grow(kg, a, t1):
            s0, s1 = kg.stream("dev0"), kg.stream("dev1")
            t2 = kg.add(
                "t2", deps=[a], transfer=(1e9, topo.path_resources(1, 3))
            )
            kg.add("b", streams=[s0, s1], deps=[t1, t2], duration=2e-3)
            kg.add("c", streams=[s1], duration=1e-3)

        def run(kg):
            return (
                kg.execute(), kg.timeline(), kg.link_stats(),
                kg.device_busy_seconds(), kg.perf_stats(),
            )

        kg = KernelGraph()
        first = base(kg)
        small = run(kg)
        grow(kg, *first)
        fresh = KernelGraph()
        grow(fresh, *base(fresh))
        grown = run(kg)
        assert grown == run(fresh)
        assert grown[0] > small[0]
        assert grown[4]["contention_flushes"] > small[4]["contention_flushes"]

    def test_deadlock_after_compilation_names_first_stuck(self):
        """A compiled DAG that deadlocks raises on every run, naming the
        first kernels (in submission order) that never ran."""
        kg = KernelGraph()
        s = kg.stream("dev0")
        kg.add("ok", streams=[kg.stream("dev1")], duration=1.0)
        a = kg.add("a", streams=[s], duration=1.0)
        b = kg.add("b", streams=[s], duration=1.0)
        kg.add("c", deps=[b], duration=1.0)
        kg.add_dep(a, b)
        for _ in range(2):
            with pytest.raises(
                RuntimeError, match=r"3 kernels never ran \(first: \['a', 'b', 'c'\]\)"
            ):
                kg.execute()
            assert kg.kernels[0].end_time == 1.0
            assert kg.kernels[a].end_time is None

    def test_dedicated_paths_do_not_contend(self):
        topo = v100_cluster(4)  # single node -> NVLink, no shared NICs
        n_bytes = 1e9
        kg = KernelGraph()
        kg.add("t1", transfer=(n_bytes, topo.path_resources(0, 1)))
        kg.add("t2", transfer=(n_bytes, topo.path_resources(2, 3)))
        expected = topo.intra_link.transfer_time(n_bytes)
        assert kg.execute() == pytest.approx(expected)


class TestCrossValidation:
    """Event-driven latency matches Eq. 10's prediction on contention-free
    configurations (within 1% on at least three)."""

    def _compare(self, profiler, graph, plan, batch):
        latency, memory, components = predicted(profiler, graph, plan)
        event = EventDrivenSimulator(profiler).run(graph, plan, batch)
        assert event.latency == pytest.approx(latency, rel=0.01)
        assert event.peak_memory_bytes == pytest.approx(memory)
        visible = sum(
            v for k, v in event.breakdown.items() if k != "ring-overlapped"
        )
        assert visible == pytest.approx(event.latency, rel=1e-9)
        return components, event

    def test_megatron_plan_two_nodes(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        components, event = self._compare(profiler8, large_block, plan, 8)
        assert event.breakdown.get("allreduce", 0) == pytest.approx(
            components["allreduce"], rel=1e-9
        )

    def test_primepar_plan_single_node(self, profiler4, small_mlp):
        plan = PrimeParOptimizer(profiler4, alpha=2e-11).optimize(small_mlp).plan
        _, event = self._compare(profiler4, small_mlp, plan, 8)
        if any(spec.has_temporal for spec in plan.values()):
            assert event.breakdown.get("ring-overlapped", 0) > 0

    def test_temporal_plan_on_torus(self):
        # Torus neighbour links are dedicated in both models, so even the
        # temporal primitive's rings stay contention-free and exact.
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        profiler = FabricProfiler(torus_cluster(2, 2))
        self._compare(profiler, fc_graph(), plan, 4)

    def test_optimized_plan_on_torus(self, small_mlp):
        profiler = FabricProfiler(torus_cluster(2, 2))
        plan = PrimeParOptimizer(profiler).optimize(small_mlp).plan
        self._compare(profiler, small_mlp, plan, 8)

    def test_run_model_scales_like_analytic(self, profiler8, large_block):
        """Four layers take four times Eq. 10's one-layer prediction."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        latency, _, _ = predicted(profiler8, large_block, plan)
        event = EventDrivenSimulator(profiler8).run_model(
            large_block, plan, 8, n_layers=4
        )
        assert event.latency == pytest.approx(4 * latency, rel=0.01)
        assert event.layers_scaled == 4


class TestLowering:
    """A lowering is read from Eq. 10's price list, not re-priced."""

    @pytest.mark.parametrize(
        "spec, bits", [("P2x2", 2), ("N-P2x2", 3), ("B-K", 2)]
    )
    def test_lowering_replays_plan_cost(self, spec, bits):
        profiler = FabricProfiler(v100_cluster(1 << bits))
        graph = fc_graph()
        plan = {"fc": PartitionSpec.from_string(spec, bits)}
        lowering = EventDrivenSimulator(profiler).lower(graph, plan)
        priced = OverallCostModel(profiler).plan_cost(graph, plan)
        (terms,) = priced.terms
        assert lowering.plan_memory == priced.memory_bytes
        assert lowering.layernorm_extras == {"fc": terms.layernorm_extras[0]}
        for phase, phase_terms in terms.phases.items():
            lowered = lowering.phases["fc", phase]
            assert lowered.step_compute == phase_terms.step_compute[0]
            assert lowered.allreduce == phase_terms.allreduce[0]
            # The engine sends in exactly the steps Eq. 7 prices a ring for.
            rings = phase_terms.ring[0].tolist()
            assert sorted(lowered.ring) == [
                t for t, ring in enumerate(rings) if ring > 0
            ]
        assert lowering.edge_costs == {}


class TestContention:
    """A cross-node ring sharing node NICs must come out strictly slower
    event-driven than Eq. 10 predicts — the engine's reason to exist."""

    @pytest.fixture(scope="class")
    def contended(self):
        fc = OperatorSpec(
            name="fc",
            kind=OpKind.LINEAR,
            dim_axes={
                Dim.B: ("batch",),
                Dim.M: ("seq",),
                Dim.K: ("hidden",),
                Dim.N: ("ffn",),
            },
            axis_sizes={"batch": 2, "seq": 64, "hidden": 8192, "ffn": 8192},
        )
        graph = ComputationGraph(nodes=[fc], edges=[])
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        profiler = FabricProfiler(v100_cluster(4, gpus_per_node=2))
        latency, _, _ = predicted(profiler, graph, plan)
        event = EventDrivenSimulator(profiler).run(graph, plan, 2)
        return latency, event

    def test_event_strictly_slower(self, contended):
        latency, event = contended
        assert event.latency > latency * 1.05

    def test_excess_shows_as_exposed_ring(self, contended):
        _, event = contended
        assert event.breakdown.get("ring-exposed", 0) > 0

    def test_same_node_ring_stays_exact(self, small_mlp):
        # The identical plan inside one node (NVLink only) has no shared
        # resource on any path and must match Eq. 10's prediction.
        profiler = FabricProfiler(v100_cluster(4))
        plan = PrimeParOptimizer(profiler, alpha=2e-11).optimize(small_mlp).plan
        latency, _, _ = predicted(profiler, small_mlp, plan)
        event = EventDrivenSimulator(profiler).run(small_mlp, plan, 8)
        assert event.latency == pytest.approx(latency, rel=1e-6)


def closed_form(plan, stage_forward, stage_backward, boundary_bytes, link):
    """GPipe's oracle: ``(m + p - 1)(t_f + t_b) + 2 (p - 1) hop``.

    ``m`` slots of work plus ``p - 1`` slots of fill/drain bubble, with one
    boundary transfer per stage boundary exposed on each ramp.  1F1B meets
    it only when hops are free.
    """
    p, m = plan.n_stages, plan.n_microbatches
    hop = link.transfer_time(boundary_bytes) if p > 1 else 0.0
    return (m + p - 1) * (stage_forward + stage_backward) + 2 * (p - 1) * hop


class TestEventPipeline:
    LINK = LinkSpec(name="fast", bandwidth=300e9, latency=0.0)

    @pytest.mark.parametrize("schedule", list(PipelineSchedule))
    @pytest.mark.parametrize("p,m", [(2, 4), (4, 8), (4, 4), (8, 16)])
    def test_uniform_bubble_matches_closed_form(self, schedule, p, m):
        plan = PipelinePlan(n_stages=p, n_microbatches=m, schedule=schedule)
        closed = closed_form(plan, 1.5e-3, 1.5e-3, 0.0, self.LINK)
        event = pipeline_iteration_events(plan, 1.5e-3, 1.5e-3, 0.0, self.LINK)
        assert event.iteration_latency == pytest.approx(closed, rel=1e-9)
        assert event.bubble_fraction == pytest.approx(
            (p - 1) / (m + p - 1), rel=0.05
        )

    def test_gpipe_matches_with_communication(self):
        link = LinkSpec(name="ib", bandwidth=12.5e9, latency=5e-6)
        plan = PipelinePlan(
            n_stages=4, n_microbatches=8, schedule=PipelineSchedule.GPIPE
        )
        closed = closed_form(plan, 1e-3, 2e-3, 4e6, link)
        event = pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link)
        assert event.iteration_latency == pytest.approx(closed, rel=1e-9)

    def test_1f1b_send_stalls_never_undercut_closed_form(self):
        link = LinkSpec(name="ib", bandwidth=12.5e9, latency=5e-6)
        plan = PipelinePlan(
            n_stages=4, n_microbatches=8, schedule=PipelineSchedule.ONE_F_ONE_B
        )
        closed = closed_form(plan, 1e-3, 2e-3, 4e6, link)
        event = pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link)
        assert event.iteration_latency >= closed - 1e-12

    @pytest.mark.parametrize("boundary_bytes", [0.0, 4e6])
    @pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
    def test_closed_form_relation_per_schedule(self, p, boundary_bytes):
        """GPipe's replay equals ``(m+p-1)(t_f+t_b) + 2(p-1) hop``; 1F1B's
        never undercuts it and runs strictly longer once hops cost time
        (its interleaved sends stall stages the closed form overlaps)."""
        link = LinkSpec(name="ib", bandwidth=12.5e9, latency=0.0)
        latencies = {}
        for schedule in PipelineSchedule:
            plan = PipelinePlan(
                n_stages=p, n_microbatches=2 * p, schedule=schedule
            )
            closed = closed_form(plan, 1e-3, 2e-3, boundary_bytes, link)
            event = pipeline_iteration_events(
                plan, 1e-3, 2e-3, boundary_bytes, link
            ).iteration_latency
            latencies[schedule] = (closed, event)
        closed, event = latencies[PipelineSchedule.GPIPE]
        assert event == pytest.approx(closed, rel=1e-12, abs=0)
        closed, event = latencies[PipelineSchedule.ONE_F_ONE_B]
        if boundary_bytes:
            assert event > closed * 1.01
        else:
            assert event == pytest.approx(closed, rel=1e-12, abs=0)

    def test_event_timeline_has_one_track_per_stage(self):
        plan = PipelinePlan(n_stages=3, n_microbatches=4)
        event = pipeline_iteration_events(plan, 1e-3, 1e-3, 0.0, self.LINK)
        devices = {r.device for r in event.timeline.records}
        assert devices == {0, 1, 2}

    def test_planner3d_event_engine(self):
        from repro.graph.models import OPT_6_7B
        from repro.parallel3d.planner import Config3D, Planner3D

        planner = Planner3D(OPT_6_7B, n_devices=8, global_batch=8, microbatch=1)
        result = planner.simulate(
            Config3D(pipeline=2, data=2, model=2), "megatron"
        )
        assert result.iteration_latency > 0
        assert {r.device for r in result.pipeline.timeline.records} == {0, 1}


class TestRandomizedCrossValidation:
    """Seeded property test: event engine == Eq. 10, 50 random
    contention-free configurations.

    On a single node every transfer rides a dedicated NVLink path, so the
    fluid-contention machinery must be a no-op and the event-driven latency
    must reproduce Eq. 10's closed form to float precision.  The seed is
    fixed so failures replay exactly; each assertion carries its case index
    and generated plan for triage.
    """

    SPATIAL_DIMS = ("B", "M", "K", "N")

    def _random_case(self, rng):
        batch = rng.choice([4, 8])
        axis_sizes = {
            "batch": batch,
            "seq": rng.choice([32, 64, 128]),
            "hidden": rng.choice([256, 512, 1024, 2048]),
            "ffn": rng.choice([256, 512, 1024, 2048, 4096]),
        }
        fc = OperatorSpec(
            name="fc",
            kind=OpKind.LINEAR,
            dim_axes={
                Dim.B: ("batch",),
                Dim.M: ("seq",),
                Dim.K: ("hidden",),
                Dim.N: ("ffn",),
            },
            axis_sizes=axis_sizes,
        )
        graph = ComputationGraph(nodes=[fc], edges=[])
        spec_text = "-".join(
            rng.choice(self.SPATIAL_DIMS) for _ in range(2)
        )
        plan = {"fc": PartitionSpec.from_string(spec_text, 2)}
        return graph, plan, batch, spec_text

    @pytest.mark.usefixtures("no_disk_cache")
    def test_fifty_random_contention_free_configs(self):
        import random

        rng = random.Random(20260805)
        profiler = FabricProfiler(v100_cluster(4))
        event_sim = EventDrivenSimulator(profiler)
        for case in range(50):
            graph, plan, batch, spec_text = self._random_case(rng)
            latency, memory, _ = predicted(profiler, graph, plan)
            event = event_sim.run(graph, plan, batch)
            context = (case, spec_text, batch)
            assert event.latency == pytest.approx(latency, rel=1e-6), context
            assert event.peak_memory_bytes == memory, context

    @pytest.mark.usefixtures("no_disk_cache")
    def test_random_configs_are_deterministic(self):
        """Replaying one random config twice yields identical timelines."""
        import random

        rng = random.Random(20260805)
        profiler = FabricProfiler(v100_cluster(4))
        graph, plan, batch, _ = self._random_case(rng)
        first = EventDrivenSimulator(profiler).run(
            graph, plan, batch
        )
        second = EventDrivenSimulator(profiler).run(
            graph, plan, batch
        )
        assert first.timeline.records == second.timeline.records
        assert first.latency == second.latency
