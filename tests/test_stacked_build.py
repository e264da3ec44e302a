"""Stacked layers against the per-layer build.

``EventDrivenSimulator.build`` lowers one layer and appends copies of its
forward and backward blocks (``KernelGraph.append_block``), lowering a
block kernel by kernel only where the previous block left a different
number of transfers pending on some rank.  This suite holds every stacked
graph to ``frozen_graphs.per_layer_build`` — the build that lowered every
layer — column for column and table for table, and its executions to the
per-layer graph's: makespan, schedule, ``timeline()``, busy seconds and
the splice check.  The block copy itself is held to one ``add`` per
kernel on hand-built graphs with multi-stream barriers, per-rank groups,
transfers and entry dependencies.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frozen_graphs import PerLayerSimulator  # noqa: E402
from test_golden_engine import _TEMPORAL_PLAN, contended_case  # noqa: E402
from test_per_rank import assert_same_graph, run, tables  # noqa: E402
from repro.api import SearchRequest
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.spec import PartitionSpec
from repro.graph.models import OPT_6_7B
from repro.graph.transformer import build_block_graph
from repro.serve.service import PlanService, _setting, plan_from_json
from repro.sim.engine import EventDrivenSimulator
from repro.sim.kernel_graph import KernelBlock, KernelGraph, StreamResource
from repro.sim.faults import FaultScenario, NicFlap, Straggler

# ----------------------------------------------------------------------
# lowered plans
# ----------------------------------------------------------------------


def _perfbench():
    """perfbench ``robustness``'s plan: the searched OPT-175B plan at 8
    devices, batch 16 (transfer-free)."""
    request = SearchRequest.from_json(
        {"model": "opt-175b", "devices": 8, "batch": 16}
    )
    searched = PlanService().search(request)
    _, topology, graph = _setting(request)
    return (
        FabricProfiler(topology), graph,
        plan_from_json(searched["plan"], topology.n_bits),
    )


def _megatron():
    profiler = FabricProfiler(v100_cluster(8, gpus_per_node=4))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    return profiler, graph, megatron_plan(graph, 3, dp_degree=2)


def _temporal():
    """P2x2 rings across two-GPU nodes: every block carries transfers."""
    profiler = FabricProfiler(v100_cluster(4, gpus_per_node=2))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=16))
    plan = {
        name: PartitionSpec.from_string(text, 2)
        for name, text in _TEMPORAL_PLAN.items()
    }
    return profiler, graph, plan


def _pending():
    """One P2x2 operator with no all-reduce after its gradient phase: the
    backward block leaves one ring transfer pending per rank, so every
    later backward block is entered otherwise than its source."""
    profiler, graph, plan, _ = contended_case()
    return profiler, graph, plan


SETTINGS = {
    "megatron": _megatron,
    "perfbench": _perfbench,
    "temporal": _temporal,
    "pending": _pending,
}


@pytest.fixture(scope="module")
def setting():
    made = {}

    def get(label):
        if label not in made:
            profiler, graph, plan = SETTINGS[label]()
            lowering = EventDrivenSimulator(profiler).lower(graph, plan)
            made[label] = profiler, graph, lowering
        return made[label]

    return get


def _builds(profiler, graph, lowering, n_layers, monkeypatch):
    """``(stacked, per-layer, prefixes of the blocks the stack lowered)``."""
    lowered = []
    for name in ("_lower_forward", "_lower_backward"):
        method = getattr(EventDrivenSimulator, name)

        def spy(self, kg, streams, tails, graph, lowering, prefix,
                method=method):
            if prefix:
                lowered.append(prefix)
            return method(self, kg, streams, tails, graph, lowering, prefix)

        monkeypatch.setattr(EventDrivenSimulator, name, spy)

    stacked = EventDrivenSimulator(profiler).build(graph, lowering, n_layers)
    reference = PerLayerSimulator(profiler).build(graph, lowering, n_layers)
    return stacked, reference, lowered


def _scenarios(nominal):
    return (
        FaultScenario(0, 0),
        FaultScenario(1, 0, stragglers=(Straggler(1, 1.7),)),
        FaultScenario(2, 0, nic_flaps=(
            NicFlap(0, 0.2 * nominal, 0.3 * nominal, 0.25),
        )),
    )


@pytest.mark.parametrize("n_layers", [1, 2, 3, 8])
@pytest.mark.parametrize("label", list(SETTINGS))
def test_stack_equals_per_layer_build(setting, label, n_layers, monkeypatch):
    profiler, graph, lowering = setting(label)
    stacked, reference, lowered = _builds(
        profiler, graph, lowering, n_layers, monkeypatch
    )
    assert_same_graph(stacked, reference)
    assert [k.name for k in stacked.kernels] == [
        k.name for k in reference.kernels
    ]
    if label == "pending" and n_layers > 1:
        # Every backward block below the top one is entered with one
        # pending transfer per rank; its source was entered with none.
        assert lowered == [f"L{k}." for k in reversed(range(n_layers - 1))]
    else:
        assert lowered == []
    nominal = reference.execute()
    for scenario in _scenarios(nominal):
        faults = scenario.engine_args(profiler.topology)
        makespan = stacked.execute(**faults)
        assert makespan == reference.execute(**faults)
        assert stacked.schedule == reference.schedule
        assert stacked.timeline() == reference.timeline()
        assert (stacked.device_busy_seconds()
                == reference.device_busy_seconds())
        assert (stacked.spliceable(makespan)
                == reference.spliceable(makespan))
        assert stacked.perf_stats() == reference.perf_stats()


def test_sweep_stacks_its_probe_layer(setting, monkeypatch):
    """A fault sweep copies the one-layer DAG it probes with: it lowers
    one layer, whichever replay comes first."""
    from repro.sim.faults import FaultSweep

    profiler, graph, lowering = setting("megatron")
    calls = []
    original = EventDrivenSimulator.build_layer

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(EventDrivenSimulator, "build_layer", counted)
    sweep = FaultSweep(profiler, graph, {}, 4, lowering)
    flap = FaultScenario(0, 0, nic_flaps=(NicFlap(0, 1e-4, 1e-3, 0.5),))
    sweep.latency(flap)  # the full stack first
    sweep.latency(FaultScenario(1, 0))  # then the probe
    assert len(calls) == 1
    assert sweep._dag(1) is sweep._layer.kg


# ----------------------------------------------------------------------
# hand-built blocks
# ----------------------------------------------------------------------

N_STREAMS = 4
DURATIONS = (0.0, -1.0, 0.1, 0.25, 1e-3)
KINDS = ("compute", "allreduce")
TAGGED = ("allreduce",)


@st.composite
def steps(draw, entries, max_steps=8):
    """Kernels to add after ``entries`` earlier kernels of the graph.

    ``("add", streams, deps, duration, device, record, kind, transfer)``
    adds one kernel, a dependency ``d >= 0`` naming the ``d``-th kernel
    these steps add and ``d < 0`` the earlier kernel ``-1 - d``;
    ``("group", lanes, duration)`` appends a per-rank group.
    """
    out = []
    n = 0
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        choice = draw(st.sampled_from(("add", "add", "group")))
        if choice == "group":
            lanes = draw(st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=N_STREAMS - 1),
                    min_size=1, max_size=2, unique=True,
                ),
                min_size=1, max_size=N_STREAMS,
            ))
            out.append(("group", lanes, draw(st.sampled_from(DURATIONS))))
            n += len(lanes)
        else:
            streams = draw(st.lists(
                st.integers(min_value=0, max_value=N_STREAMS - 1),
                max_size=3, unique=True,
            ))
            deps = draw(st.lists(
                st.integers(min_value=-entries, max_value=n - 1), max_size=3
            )) if n + entries else []
            transfer = not streams and bool(deps) and draw(st.booleans())
            out.append((
                "add", streams, deps, draw(st.sampled_from(DURATIONS)),
                draw(st.integers(min_value=0, max_value=N_STREAMS - 1)),
                draw(st.booleans()), draw(st.sampled_from(KINDS)), transfer,
            ))
            n += 1
    return out


def apply(kg, recipe, streams, topology, entry=(), prefix=""):
    """Add ``recipe``'s kernels to ``kg``: its earlier kernel ``j`` is
    ``entry[j]`` (``j`` itself without ``entry``), names and tagged ops
    get ``prefix``.  Returns the index of the first kernel added."""
    base = len(kg)
    for step in recipe:
        if step[0] == "group":
            _, lanes, duration = step
            kg.add_per_rank(
                prefix + "g",
                [tuple(streams[s] for s in lane) for lane in lanes],
                duration, "compute", "op", "F",
            )
        else:
            _, on, deps, duration, device, record, kind, transfer = step
            kg.add(
                prefix + "k", streams=[streams[s] for s in on],
                deps=[
                    base + d if d >= 0
                    else entry[-1 - d] if entry else -1 - d
                    for d in deps
                ],
                duration=duration, kind=kind,
                op=(prefix if kind in TAGGED else "") + "op",
                device=device, record=record, overlapped=transfer,
                transfer=(
                    (1e6, topology.path_resources(0, 2)) if transfer else None
                ),
            )
    return base


@st.composite
def copies(draw):
    """``(source prefix, block, source suffix, target prefix, entry)``."""
    head = draw(steps(0))
    n_head = _count(head)
    block = draw(steps(n_head))
    tail = draw(steps(n_head + _count(block), max_steps=4))
    target = draw(steps(0))
    n_target = _count(target)
    entry = [
        draw(st.integers(min_value=0, max_value=n_target - 1))
        if n_target else None
        for _ in range(n_head)
    ]
    return head, block, tail, target, entry


def _count(recipe):
    return sum(
        len(step[1]) if step[0] == "group" else step[0] == "add"
        for step in recipe
    )


def _entries_used(block):
    return {
        -1 - d for step in block if step[0] == "add" for d in step[2] if d < 0
    }


class TestHandBuiltBlocks:
    @settings(max_examples=250, deadline=None)
    @given(case=copies())
    def test_copy_equals_per_kernel_adds(self, case):
        head, block, tail, target, entry = case
        topology = v100_cluster(4, gpus_per_node=2)
        streams = [StreamResource(f"dev{s}") for s in range(N_STREAMS)]
        used = _entries_used(block)
        if any(entry[j] is None for j in used):
            return  # no target kernel to stand in for an entry
        source = KernelGraph()
        apply(source, head, streams, topology)
        start = apply(source, block, streams, topology)
        end = len(source)
        apply(source, tail, streams, topology)
        # Kernels after the block waiting on it, and the block's own
        # stream tails, must not leak into the copy.
        copy = KernelGraph()
        apply(copy, target, streams, topology)
        shift = copy.append_block(
            KernelBlock(source, start, end), "L1.",
            {j: entry[j] for j in used}, TAGGED,
        )
        reference = KernelGraph()
        apply(reference, target, streams, topology)
        assert shift == len(reference) - start
        apply(reference, block, streams, topology, entry=entry, prefix="L1.")
        assert_same_graph(copy, reference)
        assert run(copy) == run(reference)

    def test_block_behind_a_multi_stream_barrier(self):
        """The copy's first kernels wake from a barrier behind the next
        kernels already queued on its earlier streams."""
        topology = v100_cluster(4)
        streams = [StreamResource(f"dev{s}") for s in range(N_STREAMS)]
        barrier = [("add", [0, 1, 2], [], 0.0, 0, False, "compute", False)]
        block = [
            ("add", [1], [], 0.5, 1, True, "allreduce", False),
            ("group", [[0], [1], [2], [3]], 0.25),
            ("add", [0, 1, 2, 3], [1, 2], 0.0, 0, False, "compute", False),
        ]
        source = KernelGraph()
        apply(source, barrier, streams, topology)
        start = apply(source, block, streams, topology)
        copy = KernelGraph()
        apply(copy, barrier, streams, topology)
        copy.append_block(
            KernelBlock(source, start, len(source)), "L1.", {}, TAGGED
        )
        reference = KernelGraph()
        apply(reference, barrier, streams, topology)
        apply(reference, block, streams, topology, prefix="L1.")
        assert_same_graph(copy, reference)
        # Reversed: stream 0's next kernel pops first, then 1's, then 2's.
        assert copy._wakes[0] == [4, 1, 2]
        assert [k.op for k in copy.kernels] == ["op", "L1.op"] + ["op"] * 5
        assert run(copy) == run(reference)

    def test_missing_entry_and_later_dependency_raise(self):
        kg = KernelGraph()
        lane = (kg.stream("dev0"),)
        first = kg.add("a", streams=lane)
        kg.add("b", deps=[first])
        kg.add("c", streams=lane)
        with pytest.raises(ValueError, match="no entry kernel"):
            KernelGraph().append_block(KernelBlock(kg, 1, 3))
        with pytest.raises(IndexError):
            KernelBlock(kg, 2, 9)

    def test_entry_kernel_outside_the_graph_raises(self):
        """An entry kernel must be one this graph already has, as a
        dependency passed to ``add`` must: the copy waits only on earlier
        kernels, so the DAG stays acyclic."""
        source = KernelGraph()
        lane = (source.stream("dev0"),)
        first = source.add("a", streams=lane)
        source.add("b", deps=[first])
        block = KernelBlock(source, 1, 2)
        target = KernelGraph()
        target.add("x", duration=1.0)
        for stranger in (1, 5, -1):
            with pytest.raises(IndexError, match="not a kernel of this graph"):
                target.append_block(block, entry={first: stranger})
        assert len(target) == 1
        target.append_block(block, entry={first: 0})
        assert target.kernels[1].deps == (0,)

    def test_stream_of_another_graph_raises(self):
        source = KernelGraph()
        source.add("a", streams=[source.stream("dev0")])
        target = KernelGraph()
        target.stream("dev0")
        with pytest.raises(ValueError, match="another stream named 'dev0'"):
            target.append_block(KernelBlock(source, 0, 1))

    def test_tables_of_an_empty_block(self):
        source = KernelGraph()
        source.add("a", streams=[source.stream("dev0")])
        copy = KernelGraph()
        assert copy.append_block(KernelBlock(source, 1, 1), "L0.") == -1
        assert tables(copy) == tables(KernelGraph())
