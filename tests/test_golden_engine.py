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

import hashlib
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
    """The fault layer's empty scenario is a pass-through: a sweep's
    nominal replay (``FaultSweep.latency`` of the empty scenario, the path
    every robustness request takes) is bit-identical to the *frozen pre-PR*
    engine's latency, not merely to today's optimised engine, so
    zero-fault robustness runs inherit the full golden guarantee."""

    @staticmethod
    def nominal_latency(profiler, graph, plan, n_layers=1):
        """The empty scenario's latency, replayed by a fresh sweep."""
        scenario = faults.FaultScenario(index=0, seed=0)
        assert scenario.engine_args(profiler.topology) == {}
        sweep = faults.FaultSweep(profiler, graph, plan, n_layers)
        return sweep.latency(scenario)

    def test_zero_fault_megatron_matches_legacy(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, _ = simulators(profiler8)
        assert self.nominal_latency(profiler8, large_block, plan) == (
            golden.run(large_block, plan, 8).latency
        )

    def test_zero_fault_contended_matches_legacy(self):
        profiler, graph, plan, batch = contended_case()
        golden, _ = simulators(profiler)
        report_golden = golden.run(graph, plan, batch)
        # The scenario must exercise the fluid-contention override.
        assert report_golden.breakdown.get("ring-exposed", 0.0) > 0
        assert self.nominal_latency(profiler, graph, plan) == (
            report_golden.latency
        )

    def test_zero_fault_run_model_matches_legacy(self, profiler8, large_block):
        plan = megatron_plan(large_block, 3, dp_degree=2)
        golden, _ = simulators(profiler8)
        legacy_scaled = golden.run(large_block, plan, 8).scaled_to_layers(4, 8)
        assert self.nominal_latency(
            profiler8, large_block, plan, n_layers=4
        ) == legacy_scaled.latency


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
    once, so each replay builds its own through ``graph_factory``, and it
    ignores the scenario's engine arguments the sweep passes it.
    """
    latency = faults.FaultSweep.latency

    def frozen_latency(sweep, scenario):
        topology = sweep.simulator.topology
        simulator = PerLayerSimulator(
            sweep.simulator.profiler,
            graph_factory=lambda: LegacyFaultyKernelGraph(scenario, topology),
        )
        sweep._dag = lambda n_layers: simulator.build(
            sweep.graph, sweep.lowering, n_layers
        )
        return latency(sweep, scenario)

    monkeypatch.setattr(faults.FaultSweep, "latency", frozen_latency)


def _executed(kg, **faults):
    """One execution of ``kg`` under ``faults`` — makespan, kernel records,
    link bytes, busy seconds and engine counters — as bytes."""
    makespan = kg.execute(**faults)
    return pickle.dumps((
        makespan, kg.timeline(), kg.link_stats(),
        kg.device_busy_seconds(), kg.perf_stats(),
    ))


class TestGoldenFaultedReplays:
    """Flaps cut a link's ``available`` bandwidth under the engine's one
    fair-share flush, and faults stretch durations as an execution starts
    on a DAG built once per sweep; the frozen fault graph kept its own
    flush copy and stretched kernels as it built a fresh DAG per
    replay.  Both must yield the same robustness reports, byte for
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
                profiler, graph, plan, 2, model, scenarios=4, seed=5
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
        topology = profiler.topology
        lowering = EventDrivenSimulator(profiler).lower(graph, plan)
        frozen = PerLayerSimulator(
            profiler,
            graph_factory=lambda: LegacyFaultyKernelGraph(scenario, topology),
        ).build(graph, lowering, 1)
        golden = _executed(frozen)
        assert pickle.loads(golden)[0] > nominal.latency
        live = EventDrivenSimulator(profiler).build(graph, lowering, 1)
        assert _executed(live, **scenario.engine_args(topology)) == golden


#: SHA-256 of ``evaluate_robustness`` report bytes (sorted-key JSON) for
#: ``_TEMPORAL_PLAN`` on two and four nodes of four GPUs under stragglers,
#: degraded links, flaps (stalling and throttling) and outages: the
#: stretch, capacity and flap arguments of ``KernelGraph.execute`` all
#: shape them, so any drift in how a scenario is applied changes a hash.
PINNED_REPORTS = {
    (8, "0"):
        "6e3f11e3124d8879bdff7a73f57111fa743c4d2b5cc660711d41bee16d861986",
    (8, "0.25"):
        "e04ccda94a63150e4162155a70febc8f99de5e84d5cdf59678af1803cf96ffb2",
    (16, "0"):
        "ec2fa9db83eec004d191f9304a80ffd041cc7038cd15fcb3a76513bb3b55fdd7",
    (16, "0.25"):
        "253c5de11c6beafd8c123c1fdb1def9627d5b163a997838cf2afd8404c13fbef",
}


@pytest.mark.parametrize("n_devices, reroute", sorted(PINNED_REPORTS))
def test_robustness_report_bytes_pinned(n_devices, reroute, monkeypatch):
    """Every fault class bites, and the report is the pinned bytes."""
    from repro.sim.faults import FaultModel, evaluate_robustness

    monkeypatch.setenv("PRIMEPAR_CACHE", "off")
    profiler = FabricProfiler(v100_cluster(n_devices, gpus_per_node=4))
    n_bits = n_devices.bit_length() - 1
    plan = {
        name: PartitionSpec.from_string("B-" * (n_bits - 2) + text, n_bits)
        for name, text in _TEMPORAL_PLAN.items()
    }
    graph = build_block_graph(OPT_6_7B.block_shape(batch=16))
    model = FaultModel.from_spec(
        f"straggler=0.3:1.6,degrade=0.5:0.5,flap=2:0.003:{reroute},"
        "outage=0.5"
    )
    report = evaluate_robustness(
        profiler, graph, plan, 2, model, scenarios=8, seed=11
    )
    outcomes = report.outcomes
    assert any(o.stragglers and o.compute_delay > 0 for o in outcomes)
    assert any(o.nic_flaps and o.link_delay > 0 for o in outcomes)
    assert any(o.outage for o in outcomes)
    assert any(o.degraded_links for o in outcomes)
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_REPORTS[
        n_devices, reroute
    ]


class TestRetimedTemplate:
    """One built graph, executed under each scenario in turn, equals a
    graph freshly built for each scenario — makespan, kernel records, link
    bytes, busy seconds and engine counters, byte for byte — whatever
    scenario it ran before."""

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
        simulator = EventDrivenSimulator(profiler)
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
                args = scenario.engine_args(topology)
                rerun = _executed(template, **args)
                fresh = simulator.build(graph, lowering, n_layers)
                assert rerun == _executed(fresh, **args), scenario
                latencies.append(pickle.loads(rerun)[0])
            # Every fault bites, and the last empty run is the first one.
            assert all(latency > nominal for latency in latencies[1:5])
            assert latencies[0] == latencies[-1] == nominal
