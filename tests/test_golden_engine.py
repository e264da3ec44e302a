"""Golden equivalence: optimised event engine vs the frozen pre-PR engine.

The perf work in ``repro.sim.engine`` (batched incremental contention,
indexed event queue, verified layer splicing, disk-cached reports) promises
*bit-identical* ``IterationReport``s.  This suite holds it to that: every
scenario runs once on the optimised :class:`KernelGraph` and once on the
verbatim pre-optimisation engine vendored in ``tests/legacy_engine.py``
(swapped in via ``graph_factory``), and the two reports must agree
float-for-float — timestamps, throughput, peak memory, utilization — not
merely to a tolerance.
"""

import json
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frozen_graphs import (  # noqa: E402  (vendored baselines, next to this file)
    LegacyFaultyKernelGraph,
    OrderedLegacyKernelGraph,
    PerLayerSimulator,
)
from repro.baselines.megatron import megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import torus_cluster, v100_cluster
from repro.core.dims import Dim
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.graph.models import OPT_6_7B
from repro.graph.operators import OpKind, OperatorSpec
from repro.graph.transformer import build_block_graph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel3d.pipeline import (
    PipelinePlan,
    PipelineSchedule,
    pipeline_iteration_events,
)
from repro.sim import faults
from repro.sim.engine import EventDrivenSimulator


def assert_reports_identical(golden, candidate):
    """Float-for-float equality of two IterationReports."""
    assert candidate.latency == golden.latency
    assert candidate.throughput == golden.throughput
    assert candidate.peak_memory_bytes == golden.peak_memory_bytes
    assert candidate.breakdown == golden.breakdown
    assert candidate.layers_scaled == golden.layers_scaled
    assert candidate.timeline.clock == golden.timeline.clock
    assert candidate.timeline.records == golden.timeline.records
    assert candidate.utilization == golden.utilization
    # Belt and braces: identical pickled bytes (catches 0.0 vs -0.0 and
    # container-ordering drift that == would forgive).
    assert pickle.dumps(candidate) == pickle.dumps(golden)


def simulators(profiler):
    golden = PerLayerSimulator(
        profiler,
        graph_factory=OrderedLegacyKernelGraph,
    )
    candidate = EventDrivenSimulator(profiler)
    return golden, candidate


def contended_case():
    """P2x2 plan whose cross-node ring shares one NIC pool per node."""
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
    return profiler, graph, plan, 2


@pytest.mark.usefixtures("no_disk_cache")
class TestGoldenSingleIteration:
    def test_megatron_two_nodes_cross_node_nic(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, candidate = simulators(profiler8)
        assert_reports_identical(
            golden.run(large_block, plan, 8), candidate.run(large_block, plan, 8)
        )

    def test_contention_free_single_node(self, profiler4, small_mlp):
        plan = {
            node.name: PartitionSpec.from_string("B-B", 2)
            for node in small_mlp.nodes
        }
        golden, candidate = simulators(profiler4)
        assert_reports_identical(
            golden.run(small_mlp, plan, 8), candidate.run(small_mlp, plan, 8)
        )

    def test_shared_nic_contention(self):
        profiler, graph, plan, batch = contended_case()
        golden, candidate = simulators(profiler)
        report_golden = golden.run(graph, plan, batch)
        report_new = candidate.run(graph, plan, batch)
        # The scenario must actually exercise the fluid-contention path.
        assert report_golden.breakdown.get("ring-exposed", 0.0) > 0
        assert_reports_identical(report_golden, report_new)

    def test_temporal_plan_on_torus(self):
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
        graph = ComputationGraph(nodes=[fc], edges=[])
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        profiler = FabricProfiler(torus_cluster(2, 2))
        golden, candidate = simulators(profiler)
        assert_reports_identical(
            golden.run(graph, plan, 4), candidate.run(graph, plan, 4)
        )


class TestGoldenRunModel:
    @pytest.mark.usefixtures("no_disk_cache")
    def test_spliced_run_model_matches_legacy_tiling(
        self, profiler8, large_block
    ):
        """The pre-PR engine always tiled; the new engine must verify the
        boundary and then tile to the identical report."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, candidate = simulators(profiler8)
        legacy_scaled = golden.run(large_block, plan, 8).scaled_to_layers(4, 8)
        with use_registry(MetricsRegistry()) as registry:
            new_scaled = candidate.run_model(large_block, plan, 8, n_layers=4)
            snapshot = registry.snapshot()
        assert_reports_identical(legacy_scaled, new_scaled)
        spliced = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "sim.splice"
            and entry["labels"].get("outcome") == "spliced"
        ]
        assert spliced and spliced[0]["value"] == 1

    def test_warm_cache_returns_identical_report(
        self, profiler8, large_block
    ):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, _ = simulators(profiler8)
        legacy_scaled = golden.run(large_block, plan, 8).scaled_to_layers(4, 8)
        cached_sim = EventDrivenSimulator(profiler8)
        cold = cached_sim.run_model(large_block, plan, 8, n_layers=4)
        with use_registry(MetricsRegistry()) as registry:
            warm = cached_sim.run_model(large_block, plan, 8, n_layers=4)
            snapshot = registry.snapshot()
        assert_reports_identical(legacy_scaled, cold)
        assert_reports_identical(legacy_scaled, warm)
        hits = [
            entry
            for entry in snapshot["counters"]
            if entry["name"] == "cache.hits"
            and entry["labels"].get("kind") == "simreport"
        ]
        assert hits and hits[0]["value"] >= 1

    def test_warm_cache_replays_telemetry(self, profiler8, large_block):
        """A cache hit must re-emit the same sim.* metrics as a cold run."""
        plan = megatron_plan(large_block, 3, dp_degree=2)

        def run_and_snapshot():
            sim = EventDrivenSimulator(profiler8)
            with use_registry(MetricsRegistry()) as registry:
                sim.run_model(large_block, plan, 8, n_layers=4)
                return registry.snapshot()

        cold = run_and_snapshot()   # first call in this cache dir: miss
        warm = run_and_snapshot()   # second: disk hit, telemetry replayed

        # A hit skips lowering the plan, so only the cold run counts one.
        def sim_series(snapshot):
            return {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for kind in ("counters", "gauges")
                for e in snapshot[kind]
                if e["name"].startswith("sim.")
                and e["name"] != "sim.lowerings"
            }

        assert sim_series(warm) == sim_series(cold)


class TestGoldenPipeline:
    CASES = [
        (PipelineSchedule.GPIPE, 4, 8),
        (PipelineSchedule.ONE_F_ONE_B, 4, 8),
        (PipelineSchedule.GPIPE, 3, 5),
        (PipelineSchedule.ONE_F_ONE_B, 3, 5),
    ]

    @pytest.mark.parametrize("schedule,p,m", CASES)
    def test_pipeline_events_match_legacy(self, schedule, p, m, monkeypatch):
        link = v100_cluster(8, gpus_per_node=2).inter_link
        plan = PipelinePlan(n_stages=p, n_microbatches=m, schedule=schedule)
        golden = pipeline_iteration_events(
            plan, 1e-3, 2e-3, 4e6, link,
            graph_factory=OrderedLegacyKernelGraph,
        )
        with monkeypatch.context() as cold:
            cold.setenv("PRIMEPAR_CACHE", "off")
            candidate = pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link)
        warm_seed = pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link)
        warm = pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link)
        for report in (candidate, warm_seed, warm):
            assert report.iteration_latency == golden.iteration_latency
            assert report.bubble_latency == golden.bubble_latency
            assert (
                report.communication_latency == golden.communication_latency
            )
            assert report.timeline.clock == golden.timeline.clock
            assert report.timeline.records == golden.timeline.records


class TestGoldenZeroFault:
    """The fault layer's empty scenario is a pass-through: bit-identical to
    the *frozen pre-PR* engine, not merely to today's optimised engine, so
    zero-fault robustness runs inherit the full golden guarantee."""

    @staticmethod
    def zero_fault_simulator(profiler):
        from repro.sim.faults import FaultScenario, FaultyKernelGraph

        topology = profiler.topology
        scenario = FaultScenario(index=0, seed=0)
        assert scenario.is_nominal
        return EventDrivenSimulator(
            profiler,
            graph_factory=lambda: FaultyKernelGraph(scenario, topology),
        )

    def test_zero_fault_megatron_matches_legacy(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, _ = simulators(profiler8)
        faulty = self.zero_fault_simulator(profiler8)
        assert_reports_identical(
            golden.run(large_block, plan, 8),
            faulty.run(large_block, plan, 8),
        )

    def test_zero_fault_contended_matches_legacy(self):
        profiler, graph, plan, batch = contended_case()
        golden, _ = simulators(profiler)
        faulty = self.zero_fault_simulator(profiler)
        report_golden = golden.run(graph, plan, batch)
        report_faulty = faulty.run(graph, plan, batch)
        # The scenario must exercise the fluid-contention override.
        assert report_golden.breakdown.get("ring-exposed", 0.0) > 0
        assert_reports_identical(report_golden, report_faulty)

    def test_zero_fault_run_model_matches_legacy(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, _ = simulators(profiler8)
        legacy_scaled = golden.run(large_block, plan, 8).scaled_to_layers(4, 8)
        faulty = self.zero_fault_simulator(profiler8)
        assert_reports_identical(
            legacy_scaled,
            faulty.run_model(large_block, plan, 8, n_layers=4),
        )


@pytest.mark.usefixtures("no_disk_cache")
class TestOnlineStatsMatchScan:
    def test_busy_fractions_equal_timeline_scan(self):
        """Online per-device busy accumulation == the post-hoc scan."""
        from repro.sim.executor import device_busy_fractions

        profiler, graph, plan, batch = contended_case()
        candidate = EventDrivenSimulator(profiler)
        report = candidate.run(graph, plan, batch)
        scanned = device_busy_fractions(report.timeline)
        online = {
            int(dev): frac
            for dev, frac in report.utilization["device_busy_fraction"].items()
        }
        assert online == scanned

    def test_link_stats_match_legacy(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, candidate = simulators(profiler8)
        a = golden.run(large_block, plan, 8).utilization
        b = candidate.run(large_block, plan, 8).utilization
        assert a.get("link_bytes") == b.get("link_bytes")
        assert a.get("link_utilization") == b.get("link_utilization")


#: Flap-heavy fault models: every node flaps about twice per iteration,
#: stalling (reroute 0) or throttling (0.25) its NIC pool, on top of
#: degraded links and stragglers.
FLAP_MODELS = (
    "straggler=0.3:1.6,degrade=0.5:0.5,flap=2:0.003:0",
    "straggler=0.3:1.6,degrade=0.5:0.5,flap=2:0.003:0.25",
)

#: One OPT-6.7B layer on 4 devices with temporal (P2x2) linear operators;
#: wider clusters add data-parallel bits in front.
_TEMPORAL_PLAN = {
    "input": "M-K", "L0.ln1": "M-K", "L0.qkv": "P2x2",
    "L0.scores": "B[batch]-B[heads]", "L0.softmax": "B[batch]-B[heads]",
    "L0.context": "B[batch]-B[heads]", "L0.out_proj": "P2x2",
    "L0.add1": "M-K", "L0.ln2": "M-K", "L0.fc1": "P2x2", "L0.act": "M-K",
    "L0.fc2": "P2x2", "L0.add2": "M-K",
}


def _fresh_legacy_dag_per_replay(monkeypatch):
    """Replay every fault scenario on a frozen fault graph built for it.

    The frozen graph stretches durations as kernels are added and runs
    once, so each replay builds its own through ``graph_factory``.
    """

    def fresh_dag(sweep, scenario, n_layers):
        topology = sweep.simulator.topology
        simulator = PerLayerSimulator(
            sweep.simulator.profiler,
            graph_factory=lambda: LegacyFaultyKernelGraph(scenario, topology),
        )
        return simulator.build(sweep.graph, sweep.lowering, n_layers)

    monkeypatch.setattr(faults.FaultSweep, "_dag", fresh_dag)


class TestGoldenFaultedReplays:
    """Flaps cut a link's ``available`` bandwidth under the base engine's
    one fair-share flush, and faults stretch durations by one rule as
    kernels start on a DAG built once per sweep; the frozen fault graph
    kept its own flush copy and stretched kernels as it built a fresh DAG
    per replay.  Both must yield the same robustness reports, byte for
    byte."""

    @pytest.mark.parametrize("n_devices, gpus_per_node", [(4, 2), (8, 2), (16, 4)])
    @pytest.mark.parametrize("spec", FLAP_MODELS)
    def test_robustness_reports_match_frozen(
        self, spec, n_devices, gpus_per_node, monkeypatch
    ):
        from repro.sim.faults import FaultModel, evaluate_robustness

        monkeypatch.setenv("PRIMEPAR_CACHE", "off")
        profiler = FabricProfiler(v100_cluster(n_devices, gpus_per_node))
        n_bits = n_devices.bit_length() - 1
        prefix = "B-" * (n_bits - 2)
        plan = {
            name: PartitionSpec.from_string(prefix + text, n_bits)
            for name, text in _TEMPORAL_PLAN.items()
        }
        graph = build_block_graph(OPT_6_7B.block_shape(batch=16))
        model = FaultModel.from_spec(spec)

        def report():
            return evaluate_robustness(
                profiler, graph, plan, 16, 2, model, scenarios=4, seed=5
            )

        candidate = report()
        _fresh_legacy_dag_per_replay(monkeypatch)
        golden = report()
        # The flaps must actually slow the replays down.
        assert any(o.nic_flaps and o.link_delay > 0 for o in golden.outcomes)
        assert json.dumps(candidate.to_json(), sort_keys=True) == json.dumps(
            golden.to_json(), sort_keys=True
        )

    @pytest.mark.usefixtures("no_disk_cache")
    @pytest.mark.parametrize("factor", [0.0, 0.25])
    def test_link_opened_mid_flap_matches_frozen(self, factor):
        """A NIC pool first used while its flap is on starts throttled."""
        from repro.sim.faults import FaultScenario, NicFlap

        profiler, graph, plan, batch = contended_case()
        nominal = EventDrivenSimulator(profiler).run(
            graph, plan, batch
        )
        flaps = tuple(
            NicFlap(node, 0.0, nominal.latency / 2, factor)
            for node in range(profiler.topology.n_nodes)
        )
        scenario = FaultScenario(index=0, seed=0, nic_flaps=flaps)

        def replay(graph_cls, simulator_cls=EventDrivenSimulator):
            return simulator_cls(
                profiler,
                graph_factory=lambda: graph_cls(scenario, profiler.topology),
            ).run(graph, plan, batch)

        golden = replay(LegacyFaultyKernelGraph, PerLayerSimulator)
        assert golden.latency > nominal.latency
        assert_reports_identical(golden, replay(faults.FaultyKernelGraph))


class TestRetimedTemplate:
    """One built fault graph, re-timed per scenario, equals a graph freshly
    built for each scenario through ``graph_factory`` — makespan, kernel
    records, link bytes, busy seconds and engine counters, byte for byte —
    whatever scenario it ran before."""

    @staticmethod
    def _run(kg):
        makespan = kg.execute()
        return pickle.dumps((
            makespan, kg.timeline(), kg.link_stats(),
            kg.device_busy_seconds(), kg.perf_stats(),
        ))

    #: Two GPUs per node, so the temporal rings cross NICs and flaps bite.
    @pytest.mark.parametrize(
        "n_devices, gpus_per_node", [(4, 2), (8, 2), (16, 2)]
    )
    def test_interleaved_scenarios_match_fresh_builds(
        self, n_devices, gpus_per_node
    ):
        from repro.sim.faults import (
            DegradedLink,
            FaultScenario,
            FaultyKernelGraph,
            NicFlap,
            Straggler,
        )

        profiler = FabricProfiler(v100_cluster(n_devices, gpus_per_node))
        topology = profiler.topology
        n_bits = n_devices.bit_length() - 1
        prefix = "B-" * (n_bits - 2)
        plan = {
            name: PartitionSpec.from_string(prefix + text, n_bits)
            for name, text in _TEMPORAL_PLAN.items()
        }
        graph = build_block_graph(OPT_6_7B.block_shape(batch=16))
        empty = FaultScenario(index=0, seed=0)
        simulator = EventDrivenSimulator(
            profiler, graph_factory=lambda: FaultyKernelGraph(empty, topology)
        )
        lowering = simulator.lower(graph, plan)

        for n_layers in (1, 2):
            template = simulator.build(graph, lowering, n_layers)
            nominal = template.execute()

            def flap(factor):
                return (NicFlap(0, 0.2 * nominal, 0.3 * nominal, factor),)

            sequence = [
                empty,
                FaultScenario(0, 0, stragglers=(Straggler(1, 1.7),)),
                FaultScenario(0, 0, degraded_links=(DegradedLink(0, 0.5),)),
                FaultScenario(0, 0, nic_flaps=flap(0.0)),
                FaultScenario(0, 0, nic_flaps=flap(0.25)),
                empty,
            ]
            latencies = []
            for scenario in sequence:
                template.retime(scenario)
                retimed = self._run(template)
                fresh = EventDrivenSimulator(
                    profiler,
                    graph_factory=lambda: FaultyKernelGraph(
                        scenario, topology
                    ),
                ).build(graph, lowering, n_layers)
                assert retimed == self._run(fresh), scenario
                latencies.append(pickle.loads(retimed)[0])
            # Every fault bites, and the last empty run is the first one.
            assert all(latency > nominal for latency in latencies[1:5])
            assert latencies[0] == latencies[-1] == nominal
