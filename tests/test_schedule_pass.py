"""The one-pass schedule of transfer-free kernel DAGs.

``KernelGraph.execute`` skips the event loop when a DAG carries no
transfer and the run no NIC flap: each kernel then starts at the latest end
among its predecessors, which is the max and the add the loop does.  The
property tests hold the pass to ``_execute_events`` bit for bit on random
DAGs; the fallback tests pin which DAGs must take the loop, and hold
those to the frozen engines (``tests/legacy_engine.py`` and
``tests/legacy_faults.py``).
"""

import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_engine  # noqa: E402  (vendored baseline, lives next to this file)
import legacy_faults  # noqa: E402  (vendored baseline, lives next to this file)
from frozen_graphs import (  # noqa: E402
    LegacyFaultyKernelGraph,
    PerLayerSimulator,
    splice_walk,
)
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.graph.models import OPT_6_7B
from repro.graph.transformer import build_block_graph
from repro.obs.spans import SpanCollector, collecting
from repro.sim.engine import EventDrivenSimulator, KernelGraph
from repro.sim.kernel_graph import KernelBlock
from repro.sim.faults import FaultScenario, NicFlap, Straggler

#: Few distinct values, so ties between end times are common; zero too.
DURATIONS = (0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 1e-3, 0.7000000000000001)

N_DEVICES = 4


@st.composite
def dags(draw):
    """A random transfer-free DAG the one-pass schedule applies to.

    A recipe of ``(streams, deps, duration, device, busy)`` per kernel,
    with stream ``d`` standing for device ``d``'s compute stream: deps
    point at earlier kernels (sometimes the stream predecessor again),
    kernels may span several streams like a barrier, and a busy kernel
    runs on its device's stream, as every lowered plan's do.
    """
    recipe = []
    tails = {}
    for i in range(draw(st.integers(min_value=1, max_value=24))):
        streams = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=N_DEVICES - 1), max_size=3
        )))
        deps = draw(st.lists(
            st.integers(min_value=0, max_value=i - 1), max_size=3
        )) if i else []
        if streams and streams[0] in tails and draw(st.booleans()):
            deps.append(tails[streams[0]])
        for stream in streams:
            tails[stream] = i
        busy = bool(streams) and draw(st.booleans())
        device = draw(st.sampled_from(streams)) if busy else 0
        recipe.append((
            streams, deps, draw(st.sampled_from(DURATIONS)), device, busy,
        ))
    return recipe


def build(kg, recipe):
    """Add ``recipe``'s kernels to ``kg``; returns it."""
    kernels = []
    for i, (streams, deps, duration, device, busy) in enumerate(recipe):
        kernels.append(kg.add(
            f"k{i}",
            streams=[kg.stream(f"dev{s}") for s in streams],
            deps=[kernels[j] for j in deps],
            duration=duration,
            kind="compute",
            device=device,
            record=busy,
        ))
    return kg


def outcome(kg, makespan):
    """Everything an execution leaves behind, as bytes.

    Busy seconds are sorted by device: only their dict's insertion order
    may differ between the two schedules.
    """
    return pickle.dumps((
        makespan,
        [(k.start_time, k.end_time) for k in kg.kernels],
        sorted(kg.device_busy_seconds().items()),
        kg.perf_stats(),
        kg.link_stats(),
    ))


def both_schedules(kg, **faults):
    """``(pass outcome, loop outcome)`` of one graph under ``faults``, pass
    first; each run's splice check must equal the kernel walk's."""
    makespan = kg.execute(**faults)
    assert kg.schedule == "pass"
    assert kg.spliceable(makespan) == splice_walk(kg.kernels, makespan)
    fast = outcome(kg, makespan)
    makespan = kg._execute_events(**faults)
    assert kg.spliceable(makespan) == splice_walk(kg.kernels, makespan)
    return fast, outcome(kg, makespan)


class TestPassEqualsLoop:
    @settings(max_examples=150, deadline=None)
    @given(recipe=dags())
    def test_random_dag(self, recipe):
        fast, loop = both_schedules(build(KernelGraph(), recipe))
        assert fast == loop

    @settings(max_examples=60, deadline=None)
    @given(
        recipe=dags(),
        stragglers=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N_DEVICES - 1),
                st.sampled_from((1.25, 1.6, 1.8, 3.0)),
            ),
            min_size=2, max_size=4,
        ),
    )
    def test_retimed_fault_graph(self, recipe, stragglers):
        """One graph build, executed under each straggler scenario."""
        topology = v100_cluster(N_DEVICES)
        kg = build(KernelGraph(), recipe)
        for index, (device, slowdown) in enumerate(stragglers):
            scenario = FaultScenario(
                index, 0, stragglers=(Straggler(device, slowdown),)
            )
            fast, loop = both_schedules(kg, **scenario.engine_args(topology))
            assert fast == loop

    @settings(max_examples=60, deadline=None)
    @given(recipe=dags())
    def test_random_dag_matches_frozen_engine(self, recipe):
        kg = build(KernelGraph(), recipe)
        frozen = build(legacy_engine.KernelGraph(), recipe)
        assert kg.execute() == frozen.execute()
        assert kg.schedule == "pass"
        assert [(k.start_time, k.end_time) for k in kg.kernels] == [
            (k.start_time, k.end_time) for k in frozen.kernels
        ]

    def test_counts_what_the_loop_counts(self):
        kg = KernelGraph()
        s0, s1 = kg.stream("dev0"), kg.stream("dev1")
        a = kg.add("a", streams=[s0], duration=1.0)
        kg.add("b", streams=[s1], duration=2.0, device=1)
        kg.add("sync", streams=[s0, s1], deps=[a], record=False)
        assert kg.execute() == 2.0
        assert kg.schedule == "pass"
        assert kg.perf_stats() == {
            "contention_flushes": 0,
            "rate_recomputes": 0,
            "rate_reuses": 0,
            "queue_pushes": 3,
            "queue_stale_drops": 0,
        }
        assert kg.device_busy_seconds() == {0: 1.0, 1: 2.0}
        assert kg.link_stats() == {}

    def test_megatron_fault_dag_matches_frozen(self):
        """A lowered Megatron plan has no transfers: its straggler replays
        take the pass and equal the frozen fault graph's."""
        profiler = FabricProfiler(v100_cluster(8, gpus_per_node=4))
        topology = profiler.topology
        graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
        plan = megatron_plan(graph, topology.n_bits, dp_degree=2)
        live = EventDrivenSimulator(profiler)
        lowering = live.lower(graph, plan)
        kg = live.build(graph, lowering, 2)
        for scenario in (
            FaultScenario(0, 0, stragglers=(Straggler(3, 1.8),)),
            FaultScenario(1, 0, stragglers=(
                Straggler(0, 1.25), Straggler(5, 1.6),
            )),
        ):
            makespan = kg.execute(**scenario.engine_args(topology))
            assert kg.schedule == "pass"
            frozen = PerLayerSimulator(
                profiler,
                graph_factory=lambda: LegacyFaultyKernelGraph(
                    scenario, topology
                ),
            ).build(graph, lowering, 2)
            assert outcome(kg, makespan) == outcome(frozen, frozen.execute())


def assert_frozen_equal(kg, frozen, **faults):
    """``kg`` took the loop under ``faults`` and matches the frozen
    engine's execution."""
    makespan = kg.execute(**faults)
    assert kg.schedule == "events"
    assert makespan == frozen.execute()
    assert [(k.start_time, k.end_time) for k in kg.kernels] == [
        (k.start_time, k.end_time) for k in frozen.kernels
    ]
    return makespan


class TestFallsBackToLoop:
    """DAGs the pass must leave to the event loop."""

    def test_positive_byte_transfer(self):
        topology = v100_cluster(4, gpus_per_node=2)

        def recipe(kg):
            s0, s2 = kg.stream("dev0"), kg.stream("dev2")
            a = kg.add("a", streams=[s0], duration=1e-3)
            t = kg.add(
                "t", deps=[a], transfer=(1e8, topology.path_resources(0, 2)),
                overlapped=True,
            )
            kg.add("b", streams=[s2], deps=[t], duration=2e-3, device=2)
            return kg

        kg = recipe(KernelGraph())
        frozen = recipe(legacy_faults.KernelGraph())
        assert_frozen_equal(kg, frozen)
        assert kg.perf_stats() == frozen.perf_stats()
        assert kg.device_busy_seconds() == frozen.device_busy_seconds()
        assert kg.link_stats() == frozen.link_stats()

    def test_dep_outside_the_graph_is_refused(self):
        """A dependency names an earlier kernel of the same graph: an
        index the graph never returned is refused when it is added (the
        frozen engine, whose handles were objects, deadlocked at run
        time instead)."""
        kg = KernelGraph()
        a = kg.add("a", streams=[kg.stream("dev0")], duration=1.0)
        for stranger in (a + 1, -1):
            with pytest.raises(IndexError, match="not an earlier kernel"):
                kg.add("b", deps=[stranger], duration=1.0)
        assert len(kg) == 1

    def test_nic_flap(self):
        """A flap sends the run through the loop even where no transfer
        feels it."""
        profiler = FabricProfiler(v100_cluster(4, gpus_per_node=2))
        topology = profiler.topology
        graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
        plan = megatron_plan(graph, topology.n_bits, dp_degree=2)
        scenario = FaultScenario(
            0, 0,
            stragglers=(Straggler(1, 1.6),),
            nic_flaps=(NicFlap(0, 1e-4, 1e-3, 0.0),),
        )

        lowering = EventDrivenSimulator(profiler).lower(graph, plan)
        kg = EventDrivenSimulator(profiler).build(graph, lowering, 1)
        frozen = PerLayerSimulator(
            profiler,
            graph_factory=lambda: LegacyFaultyKernelGraph(scenario, topology),
        ).build(graph, lowering, 1)
        assert_frozen_equal(kg, frozen, **scenario.engine_args(topology))
        assert kg.perf_stats() == frozen.perf_stats()
        assert kg.device_busy_seconds() == frozen.device_busy_seconds()

    def test_busy_kernels_off_their_device_stream(self):
        """Stream-less busy kernels finish out of kernel order, and the
        loop's busy sum follows finish order: (0.1 + 0.2) + 0.3 is not
        (0.3 + 0.2) + 0.1."""
        kg = KernelGraph()
        for duration in (0.3, 0.2, 0.1):
            kg.add(f"k{duration}", duration=duration)
        assert kg.execute() == 0.3
        assert kg.schedule == "events"
        assert kg.device_busy_seconds() == {0: (0.1 + 0.2) + 0.3}
        assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


class TestVerdictFollowsGrowth:
    """The schedule is decided when a graph executes, so a graph that
    grows after running is decided anew."""

    @staticmethod
    def _transfer_free():
        kg = KernelGraph()
        s0, s1 = kg.stream("dev0"), kg.stream("dev1")
        a = kg.add("a", streams=[s0], duration=1.0)
        kg.add("b", streams=[s1], deps=[a], duration=0.5, device=1)
        return kg

    def test_add_of_a_transfer(self):
        topology = v100_cluster(4, gpus_per_node=2)
        kg = self._transfer_free()
        assert kg.execute() == 1.5
        assert kg.schedule == "pass"
        kg.add(
            "t", deps=[1], transfer=(1e8, topology.path_resources(0, 2)),
            overlapped=True,
        )
        kg.execute()
        assert kg.schedule == "events"

    def test_append_block_holding_a_transfer(self):
        topology = v100_cluster(4, gpus_per_node=2)
        source = KernelGraph()
        lane = (source.stream("dev0"),)
        a = source.add("a", streams=lane, duration=1e-3)
        source.add(
            "t", deps=[a], transfer=(1e8, topology.path_resources(0, 2)),
            overlapped=True,
        )
        block = KernelBlock(source, 0, len(source))
        kg = KernelGraph()
        kg.add("x", streams=[kg.stream("dev1")], duration=1.0, device=1)
        kg.execute()
        assert kg.schedule == "pass"
        kg.append_block(block, "L1.")
        kg.execute()
        assert kg.schedule == "events"

    def test_rerun_of_an_unchanged_graph(self):
        topology = v100_cluster(4, gpus_per_node=2)
        passing = self._transfer_free()
        looping = self._transfer_free()
        looping.add(
            "t", deps=[0], transfer=(1e8, topology.path_resources(0, 2)),
            overlapped=True,
        )
        for kg, schedule in ((passing, "pass"), (looping, "events")):
            first = outcome(kg, kg.execute())
            assert kg.schedule == schedule
            assert outcome(kg, kg.execute()) == first
            assert kg.schedule == schedule


def test_execute_span_names_the_schedule():
    profiler = FabricProfiler(v100_cluster(4))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    simulator = EventDrivenSimulator(profiler)
    lowering = simulator.lower(graph, megatron_plan(graph, 2, dp_degree=2))
    collector = SpanCollector()
    with collecting(collector):
        simulator.execute(simulator.build(graph, lowering, 1), lowering, 1)
    (span,) = [s for s in collector.export() if s["name"] == "sim.execute"]
    assert span["attrs"]["schedule"] == "pass"
