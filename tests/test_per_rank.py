"""The bulk per-rank append and the one-pass schedule's busy seconds.

``KernelGraph.add_per_rank`` appends one kernel per rank in bulk; it must
leave every column and execution table exactly as one ``add`` per rank
would.  The one-pass schedule computes only start and end times, and
``device_busy_seconds`` sums that run's busy seconds on demand: the same
adds in kernel order, so the same bits, and never a stale sum.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frozen_graphs import (  # noqa: E402
    PerLayerSimulator,
    PerRankAdds,
    TABLES,
    tables,
)
from repro.api import SearchRequest
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.serve.service import PlanService, _setting, plan_from_json
from repro.sim.engine import EventDrivenSimulator, KernelGraph
from repro.sim.faults import FaultScenario, Straggler

class PerKernelGraph(PerRankAdds, KernelGraph):
    """The live graph with its per-rank groups added one kernel at a
    time: the reference the bulk append is held to."""


def assert_same_graph(bulk, reference):
    assert len(bulk) == len(reference)
    mine, theirs = tables(bulk), tables(reference)
    for table in TABLES:
        assert mine[table] == theirs[table], table


# ----------------------------------------------------------------------
# lowered plans
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def perfbench_plan():
    """The plan perfbench's ``robustness`` workload scores: the searched
    OPT-175B plan at 8 devices, batch 16."""
    request = SearchRequest.from_json(
        {"model": "opt-175b", "devices": 8, "batch": 16}
    )
    searched = PlanService().search(request)
    _, topology, graph = _setting(request)
    return (
        FabricProfiler(topology), graph,
        plan_from_json(searched["plan"], topology.n_bits),
    )


@pytest.fixture(scope="module")
def megatron_setting(small_block):
    profiler = FabricProfiler(v100_cluster(8, gpus_per_node=4))
    plan = megatron_plan(small_block, profiler.topology.n_bits, dp_degree=2)
    return profiler, small_block, plan


def _builds(profiler, graph, plan, n_layers):
    """``(bulk, per-kernel)`` builds of one lowering, as a fault sweep
    builds them; the per-kernel graph lowers every layer
    (``per_layer_build``)."""
    lowering = EventDrivenSimulator(profiler).lower(graph, plan)
    return (
        EventDrivenSimulator(profiler).build(graph, lowering, n_layers),
        PerLayerSimulator(profiler, graph_factory=PerKernelGraph).build(
            graph, lowering, n_layers
        ),
    )


def _straggling(*stragglers):
    """``KernelGraph.execute``'s arguments for ``stragglers``, as
    ``(device, slowdown)`` pairs (stragglers need no topology)."""
    scenario = FaultScenario(0, 0, stragglers=tuple(
        Straggler(device, slowdown) for device, slowdown in stragglers
    ))
    return scenario.engine_args(v100_cluster(8))


class TestLoweredPlans:
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("setting", ["perfbench_plan", "megatron_setting"])
    def test_bulk_build_equals_per_kernel_adds(
        self, request, setting, n_layers
    ):
        bulk, reference = _builds(*request.getfixturevalue(setting), n_layers)
        assert_same_graph(bulk, reference)
        faults = _straggling((3, 1.6))
        assert bulk.execute(**faults) == reference.execute(**faults)
        assert bulk.schedule == reference.schedule == "pass"
        assert bulk.device_busy_seconds() == reference.device_busy_seconds()
        assert bulk.timeline() == reference.timeline()


# ----------------------------------------------------------------------
# hand-built graphs
# ----------------------------------------------------------------------

N_STREAMS = 4
DURATIONS = (0.0, -1.0, 0.1, 0.25, 1e-3)


@st.composite
def recipes(draw):
    """Steps mixing single kernels and per-rank groups.

    ``("add", streams, deps, duration, device, record, overlapped,
    transfer)`` adds one kernel (deps as earlier kernel indices, a
    multi-stream one is a barrier); ``("group", lanes, duration)`` appends
    a per-rank group.
    """
    steps = []
    n = 0
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        choice = draw(st.sampled_from(("add", "add", "group")))
        if choice == "group":
            lanes = draw(st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=N_STREAMS - 1),
                    min_size=1, max_size=2, unique=True,
                ),
                min_size=1, max_size=N_STREAMS,
            ))
            steps.append(("group", lanes, draw(st.sampled_from(DURATIONS))))
            n += len(lanes)
        else:
            streams = draw(st.lists(
                st.integers(min_value=0, max_value=N_STREAMS - 1),
                max_size=3, unique=True,
            ))
            deps = draw(st.lists(
                st.integers(min_value=0, max_value=n - 1), max_size=3
            )) if n else []
            transfer = not streams and bool(deps) and draw(st.booleans())
            steps.append((
                "add", streams, deps, draw(st.sampled_from(DURATIONS)),
                draw(st.integers(min_value=0, max_value=N_STREAMS - 1)),
                draw(st.booleans()), transfer, transfer,
            ))
            n += 1
    return steps


def build(kg, steps, topology):
    """Apply ``steps`` to ``kg``; returns it."""
    streams = [kg.stream(f"dev{s}") for s in range(N_STREAMS)]
    for step in steps:
        if step[0] == "group":
            _, lanes, duration = step
            kg.add_per_rank(
                "g", [tuple(streams[s] for s in lane) for lane in lanes],
                duration, "compute", "op", "F",
            )
        else:
            _, on, deps, duration, device, record, overlapped, transfer = step
            kg.add(
                "k", streams=[streams[s] for s in on], deps=deps,
                duration=duration, kind="compute", device=device,
                record=record, overlapped=overlapped,
                transfer=(
                    (1e6, topology.path_resources(0, 2)) if transfer else None
                ),
            )
    return kg


def run(kg):
    """What one execution leaves: times, busy seconds and counters."""
    makespan = kg.execute()
    return (
        makespan, kg.schedule,
        [(k.start_time, k.end_time) for k in kg.kernels],
        kg.device_busy_seconds(), kg.perf_stats(), kg.link_stats(),
    )


class TestHandBuiltGraphs:
    @settings(max_examples=200, deadline=None)
    @given(steps=recipes())
    def test_mixed_graph_equals_per_kernel_adds(self, steps):
        topology = v100_cluster(4, gpus_per_node=2)
        bulk = build(KernelGraph(), steps, topology)
        reference = build(PerKernelGraph(), steps, topology)
        assert_same_graph(bulk, reference)
        assert run(bulk) == run(reference)

    def test_group_behind_a_multi_stream_barrier(self):
        """Each rank's kernel wakes from the barrier behind the next
        kernels already added on the barrier's earlier streams."""
        topology = v100_cluster(4)
        steps = [
            ("add", [0, 1, 2], [], 0.0, 0, False, False, False),
            ("add", [1], [], 0.5, 1, True, False, False),
            ("group", [[0], [1], [2], [3]], 0.25),
            ("group", [[0, 1], [2]], 0.1),
        ]
        bulk = build(KernelGraph(), steps, topology)
        reference = build(PerKernelGraph(), steps, topology)
        assert_same_graph(bulk, reference)
        # Reversed: stream 0's next kernel pops first, then 1's, then 2's.
        assert bulk._wakes[0] == [4, 1, 2]
        assert run(bulk) == run(reference)

    def test_negative_duration_clamps_and_is_not_stretchable(self):
        kg = KernelGraph()
        lanes = [(kg.stream("dev0"),), (kg.stream("dev1"),)]
        kg.add_per_rank("neg", lanes, -1.0, "compute", "op", "F")
        kg.add_per_rank("zero", lanes, 0.0, "compute", "op", "F")
        assert kg._durations == [0.0] * 4
        assert kg._by_kind == {}
        assert [k.name for k in kg.kernels] == [
            "neg[0]", "neg[1]", "zero[0]", "zero[1]",
        ]
        assert kg.execute() == 0.0
        assert kg.device_busy_seconds() == {}


# ----------------------------------------------------------------------
# busy seconds on demand
# ----------------------------------------------------------------------


def kernel_order_sum(kg):
    """Each device's recorded, non-overlapped kernels' run time, added in
    kernel order."""
    busy = {}
    for k in kg.kernels:
        if k.record and not k.overlapped:
            elapsed = k.end_time - k.start_time
            if elapsed > 0:
                busy[k.device] = busy.get(k.device, 0.0) + elapsed
    return busy


class TestBusySecondsOnDemand:
    def test_empty_before_any_execute(self, megatron_setting):
        bulk, _ = _builds(*megatron_setting, 1)
        assert bulk.device_busy_seconds() == {}

    def test_one_pass_sum_is_the_kernel_order_sum(self, megatron_setting):
        kg, _ = _builds(*megatron_setting, 2)
        kg.execute(**_straggling((1, 1.25), (6, 1.8)))
        assert kg.schedule == "pass"
        busy = kg.device_busy_seconds()
        assert busy == kernel_order_sum(kg)
        assert list(busy) == sorted(busy)
        assert kg.device_busy_seconds() == busy

    def test_alternating_scenarios_never_read_a_stale_sum(
        self, megatron_setting
    ):
        """Re-executing one graph under another scenario gives each run its
        own busy seconds, whether or not the previous run's were read."""
        kg, _ = _builds(*megatron_setting, 2)
        scenarios = [_straggling((3, 1.8)), _straggling((0, 1.6))]
        expected = []
        for faults in scenarios:
            fresh, _ = _builds(*megatron_setting, 2)
            fresh.execute(**faults)
            expected.append(fresh.device_busy_seconds())
        assert expected[0] != expected[1]
        for round_ in range(4):
            index = round_ % 2
            if round_ == 2:
                # Skip reading one run: the next run's sum is its own.
                kg.execute(**scenarios[index])
                index = 1 - index
            kg.execute(**scenarios[index])
            assert kg.schedule == "pass"
            assert kg.device_busy_seconds() == expected[index]
        # The event loop's online sum, then the pass again.
        kg._execute_events(**scenarios[0])
        assert kg.device_busy_seconds() == expected[0]
        kg.execute(**scenarios[1])
        assert kg.device_busy_seconds() == expected[1]
