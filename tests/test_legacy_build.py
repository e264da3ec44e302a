"""The plan build against its frozen marker-emitting copy.

:meth:`EventDrivenSimulator._lower_phase` adds a step-begin marker only
where it constrains the schedule: it waits on inbound ring transfers, or
ring sends leave that step.  A marker with neither has no dependency and
no duration, so it ends when its stream predecessor does, and leaving it
out moves no other kernel.  This suite holds the build to the frozen
build of ``tests/legacy_build.py`` on six models at 4, 8 and 16 devices
(and at 8 devices with two GPUs per node), PrimePar and Megatron plans,
one and two layers, zero-fault, straggler, degrade and flap scenarios,
under both the one-pass schedule and the event loop:

* every kept kernel's ``(start, end)`` equals the frozen build's kernel
  of the same name, and the dropped kernels are exactly the frozen
  markers that wait on nothing and start no send;
* ``IterationReport`` pickles and ``RobustnessReport`` JSON are
  byte-equal;
* every emitted marker has dependencies or ring sends.
"""

import json
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_build  # noqa: E402  (vendored baseline, lives next to this file)
from frozen_graphs import splice_walk  # noqa: E402
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import BENCHMARK_MODELS
from repro.graph.transformer import build_block_graph
from repro.sim.engine import EventDrivenSimulator
from repro.sim.faults import (
    DegradedLink,
    FaultModel,
    FaultScenario,
    NicFlap,
    Straggler,
    evaluate_robustness,
)

BATCH = 16

SCENARIOS = {
    "zero": FaultScenario(index=0, seed=0),
    "straggler": FaultScenario(
        index=1, seed=0, stragglers=(Straggler(device=1, slowdown=1.7),)
    ),
    "degrade": FaultScenario(
        index=2, seed=0, degraded_links=(DegradedLink(node=0, factor=0.5),)
    ),
    "flap": FaultScenario(
        index=3, seed=0,
        nic_flaps=(NicFlap(node=0, start=1e-3, duration=2e-3,
                           reroute_factor=0.25),),
    ),
}

FAULTS = FaultModel.from_spec(
    "straggler=0.5:1.7,degrade=0.5:0.5,flap=0.5:0.002:0.25"
)

#: ``(devices, GPUs per node)``: the stock clusters, plus two GPUs per node
#: at 8 devices, whose shared NICs expose ring sends past their steps, so
#: the markers' waits on inbound transfers bind.
CLUSTERS = ((4, 4), (8, 4), (16, 4), (8, 2))

CASES = [
    pytest.param(
        model, cluster,
        id=f"{model.name.replace(' ', '-')}-{cluster[0]}x{cluster[1]}",
    )
    for cluster in CLUSTERS
    for model in BENCHMARK_MODELS
]


@pytest.fixture(scope="module")
def plans():
    """``(profiler, graph, {label: plan})`` per case, searched once."""
    found = {}

    def get(model, cluster):
        if (model, cluster) not in found:
            profiler = FabricProfiler(v100_cluster(*cluster))
            graph = build_block_graph(model.block_shape(batch=BATCH))
            # Beam 48 keeps the searches cheap; the build is under test.
            searched = PrimeParOptimizer(profiler, beam=48).optimize(
                graph, n_layers=2
            )
            found[model, cluster] = profiler, graph, {
                "primepar": dict(searched.plan),
                "megatron": megatron_plan(graph, profiler.topology.n_bits, 1),
            }
        return found[model, cluster]

    return get


def _times(kg):
    return {k.name: (k.start_time, k.end_time) for k in kg.kernels}


def _unanchored_markers(kg):
    """Names of ``kg``'s step-begin markers that wait on nothing and start
    no ring send."""
    kernels = kg.kernels
    anchors = {dep for k in kernels if k.transfer for dep in k.deps}
    return {
        k.name for i, k in enumerate(kernels)
        if ".begin" in k.name and not k.deps and i not in anchors
    }


@pytest.mark.parametrize("model,cluster", CASES)
def test_kept_kernels_keep_their_times(plans, model, cluster):
    profiler, graph, by_label = plans(model, cluster)
    topology = profiler.topology
    simulator = EventDrivenSimulator(profiler)
    schedules = set()
    for plan in by_label.values():
        lowering = simulator.lower(graph, plan)
        for n_layers in (1, 2):
            kept = simulator.build(graph, lowering, n_layers)
            with legacy_build.marker_build():
                frozen = simulator.build(graph, lowering, n_layers)
            assert not _unanchored_markers(kept)
            dropped = _unanchored_markers(frozen)
            assert [k.name for k in kept.kernels] == [
                k.name for k in frozen.kernels if k.name not in dropped
            ]
            for scenario in SCENARIOS.values():
                faults = scenario.engine_args(topology)
                for run in ("execute", "_execute_events"):
                    makespan = getattr(kept, run)(**faults)
                    assert makespan == getattr(frozen, run)(**faults)
                    if run == "execute":
                        schedules.add(kept.schedule)
                    times = _times(frozen)
                    assert _times(kept) == {
                        name: times[name] for name in _times(kept)
                    }
                    assert (kept.device_busy_seconds()
                            == frozen.device_busy_seconds())
                    assert kept.spliceable(makespan) == splice_walk(
                        kept.kernels, makespan
                    )
    # Megatron plans take the pass, and every flap the loop.
    assert schedules == {"pass", "events"}


@pytest.mark.parametrize("model,cluster", CASES)
def test_reports_are_byte_equal(plans, model, cluster, no_disk_cache):
    profiler, graph, by_label = plans(model, cluster)
    for plan in by_label.values():
        for n_layers in (1, 2):
            report = EventDrivenSimulator(profiler).run_model(
                graph, plan, BATCH, n_layers
            )
            with legacy_build.marker_build():
                frozen = EventDrivenSimulator(profiler).run_model(
                    graph, plan, BATCH, n_layers
                )
            assert pickle.dumps(report) == pickle.dumps(frozen)
        robustness = evaluate_robustness(
            profiler, graph, plan, 2, FAULTS, scenarios=4, seed=7,
        )
        with legacy_build.marker_build():
            frozen = evaluate_robustness(
                profiler, graph, plan, 2, FAULTS, scenarios=4, seed=7,
            )
        assert json.dumps(robustness.to_json()) == json.dumps(frozen.to_json())
