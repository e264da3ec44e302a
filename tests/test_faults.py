"""Fault injection and robustness scoring (:mod:`repro.sim.faults`).

The contracts under test:

* **Determinism** — same ``(seed, plan, fault model)`` reproduces the
  :class:`RobustnessReport` bit-identically, serial or under any ``jobs``
  fan-out (seeded per-scenario draws + submission-order merge).
* **Attribution** — every scenario outcome decomposes exactly as
  ``latency == nominal + compute_delay + link_delay + recovery_delay``.
* **Monotonicity** — link slowdowns can never make an iteration faster
  (seeded property over many scenarios).
* **Zero faults** — the empty scenario is a pass-through of the stock
  engine (the frozen-legacy half of this lives in
  ``test_golden_engine.py``).
* **Lower once, build once** — a sweep prices the plan once, builds each
  kernel-DAG shape once and executes it per scenario, byte-identically to
  replays that lower the plan and build a fresh DAG themselves; a plan
  already lowered loads its lowering from the disk cache and prices
  nothing, with the same report bytes as pricing from scratch.
* **One sweep per request** — the nominal latency is a replay of the
  empty scenario on the sweep's own DAGs, bit for bit ``run_model``'s
  latency, with no report, no ``run_model`` call and no ``simreport``
  entry read.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from frozen_graphs import (  # noqa: E402  (vendored baselines, next to this file)
    LegacyFaultyKernelGraph,
    PerLayerSimulator,
)
from repro import EventDrivenSimulator, PrimeParOptimizer, ValidationError
from repro import cache as diskcache
from repro.baselines.megatron import best_megatron_plan, megatron_plan
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.cost.inter import InterOperatorCostModel
from repro.core.spec import PartitionSpec
from repro.graph.models import OPT_6_7B
from repro.graph.transformer import build_block_graph
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import SpanCollector, use_collector
from repro.sim import faults
from repro.sim.engine import (
    LOWERING_KIND,
    REPORT_KIND,
    KernelGraph,
    PlanLowering,
)
from repro.sim.faults import (
    DegradedLink,
    FaultModel,
    FaultScenario,
    FaultSweep,
    NicFlap,
    RecoveryModel,
    Straggler,
    evaluate_robustness,
    robust_search,
    scenario_seed,
    simulate_scenario,
)

MIXED = FaultModel.from_spec(
    "straggler=0.5:1.7,degrade=0.4:0.5,flap=0.5:0.002:0.25,outage=0.2"
)


@pytest.fixture(scope="module")
def setting():
    """A two-node cluster (so link faults bite) with a searched plan."""
    profiler = FabricProfiler(v100_cluster(4, gpus_per_node=2))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    plan = PrimeParOptimizer(profiler).optimize(graph, n_layers=4).plan
    return profiler, graph, plan


class TestScenarioSampling:
    def test_scenario_seed_is_pure(self):
        assert scenario_seed(3, 7) == scenario_seed(3, 7)
        assert scenario_seed(3, 7) != scenario_seed(3, 8)
        assert scenario_seed(4, 7) != scenario_seed(3, 7)

    def test_sampling_is_deterministic(self, setting):
        profiler, _, _ = setting
        a = MIXED.scenarios(profiler.topology, 8, seed=5, horizon=0.5)
        b = MIXED.scenarios(profiler.topology, 8, seed=5, horizon=0.5)
        assert a == b

    def test_different_seeds_differ(self, setting):
        profiler, _, _ = setting
        a = MIXED.scenarios(profiler.topology, 8, seed=5, horizon=0.5)
        b = MIXED.scenarios(profiler.topology, 8, seed=6, horizon=0.5)
        assert a != b

    def test_zero_model_samples_nominal(self, setting):
        profiler, _, _ = setting
        model = FaultModel.from_spec("")
        for scenario in model.scenarios(profiler.topology, 4, 0, 0.5):
            assert scenario.is_nominal


class TestFaultModelSpec:
    def test_from_spec_parses_all_clauses(self):
        model = FaultModel.from_spec(
            "straggler=0.2:1.8,degrade=0.3:0.5,flap=0.5:0.002:0.25,"
            "outage=0.05,ckpt=32,restart=60,replan=9"
        )
        assert model.straggler_rate == 0.2
        assert model.straggler_slowdown == 1.8
        assert model.degrade_rate == 0.3
        assert model.degrade_factor == 0.5
        assert model.flap_rate == 0.5
        assert model.flap_duration == 0.002
        assert model.flap_reroute == 0.25
        assert model.outage_rate == 0.05
        assert model.recovery == RecoveryModel(32, 60.0, 9.0)

    def test_round_trip_and_canonical(self):
        payload = json.loads(json.dumps(MIXED.to_json()))
        clone = FaultModel.from_json(payload)
        assert clone == MIXED
        assert clone.canonical() == MIXED.canonical()

    def test_bad_spec_raises_with_field(self):
        with pytest.raises(ValidationError):
            FaultModel.from_spec("straggler=0.2:0.5")  # slowdown < 1
        with pytest.raises(ValidationError):
            FaultModel.from_spec("nonsense=1")
        with pytest.raises(ValidationError):
            FaultModel.from_json({"straggler_rate": 0.1, "typo_key": 1})

    @pytest.mark.parametrize("via", ["fault_model", "service"])
    @pytest.mark.parametrize(
        "body, field",
        [
            ({"checkpoint_interval": 16.7}, "checkpoint_interval"),
            ({"checkpoint_interval": True}, "checkpoint_interval"),
            ({"restart_seconds": "30"}, "restart_seconds"),
            ({"recovery": {"replan_seconds": "5"}}, "replan_seconds"),
            ({"recovery": 5}, "recovery"),
        ],
    )
    def test_recovery_fields_are_validated_not_coerced(self, body, field, via):
        from repro.serve.service import PlanService

        with pytest.raises(ValidationError) as excinfo:
            if via == "fault_model":
                FaultModel.from_json(body)
            else:
                PlanService().robustness_from_request({"faults": body})
        assert excinfo.value.field == f"faults.{field}"
        assert field in str(excinfo.value)


def _below(x):
    return x - 1 if isinstance(x, int) else math.nextafter(x, -math.inf)


def _above(x):
    return x + 1 if isinstance(x, int) else math.nextafter(x, math.inf)


#: Every fault field: its lowest and highest accepted values, and the
#: spec clause that spells it (``{}`` marks the field's position).
FIELD_RULES = {
    "straggler_rate": (0.0, 1.0, "straggler={}"),
    "straggler_slowdown": (1.0, 100.0, "straggler=0:{}"),
    "degrade_rate": (0.0, 1.0, "degrade={}"),
    "degrade_factor": (_above(0.0), 1.0, "degrade=0:{}"),
    "flap_rate": (0.0, 64.0, "flap={}"),
    "flap_duration": (0.0, 3600.0, "flap=0:{}"),
    "flap_reroute": (0.0, 1.0, "flap=0:0:{}"),
    "outage_rate": (0.0, 1.0, "outage={}"),
    "checkpoint_interval": (1, 10**6, "ckpt={}"),
    "restart_seconds": (0.0, 86_400.0, "restart={}"),
    "replan_seconds": (0.0, 86_400.0, "replan={}"),
}

RECOVERY_FIELDS = {f.name for f in dataclasses.fields(RecoveryModel)}


def _build_directly(name, value):
    if name in RECOVERY_FIELDS:
        return FaultModel(recovery=RecoveryModel(**{name: value}))
    return FaultModel(**{name: value})


_VIAS = {
    "from_json": lambda name, value: FaultModel.from_json({name: value}),
    "from_spec": lambda name, value: FaultModel.from_spec(
        FIELD_RULES[name][2].format(value)
    ),
    "direct": _build_directly,
}


def _field_value(model, name):
    return getattr(model.recovery if name in RECOVERY_FIELDS else model, name)


class TestFaultFieldRules:
    """Each fault field is checked by the rules declared on it."""

    def test_table_covers_every_field(self):
        declared = {
            f.name for f in dataclasses.fields(FaultModel)
        } - {"recovery"} | RECOVERY_FIELDS
        assert declared == set(FIELD_RULES)

    @pytest.mark.parametrize("via", sorted(_VIAS))
    @pytest.mark.parametrize("name", sorted(FIELD_RULES))
    def test_edges_accepted_and_just_past_rejected(self, name, via):
        lo, hi, _ = FIELD_RULES[name]
        build = _VIAS[via]
        for value in (lo, hi):
            assert _field_value(build(name, value), name) == value
        low = 0.0 if name == "degrade_factor" else _below(lo)
        for value in (low, _above(hi)):
            with pytest.raises(ValidationError) as err:
                build(name, value)
            assert err.value.field == f"faults.{name}", value
            assert name in str(err.value)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValidationError) as err:
            FaultModel(
                straggler_rate=5.0,
                recovery=RecoveryModel(checkpoint_interval=0),
            )
        assert err.value.field.startswith("faults.")

    def test_unbounded_flap_rate_rejected(self, capsys):
        """``flap=1e12`` would draw flaps for ever; every door refuses it.

        ``from_spec`` goes first, so a lost bound fails here rather than
        hanging the sampling behind the service and the CLI.
        """
        from repro.cli import main
        from repro.serve.service import PlanService

        for build in (
            lambda: FaultModel.from_spec("flap=1e12"),
            lambda: PlanService().robustness_from_request(
                {"faults": "flap=1e12"}
            ),
        ):
            with pytest.raises(ValidationError) as err:
                build()
            assert err.value.field == "faults.flap_rate"
        argv = ["faults", "--devices", "4", "--faults", "flap=1e12"]
        assert main(argv) == 2
        assert "flap_rate" in capsys.readouterr().err

    def test_overflowing_slowdown_rejected(self):
        with pytest.raises(ValidationError) as err:
            FaultModel.from_spec("straggler=1:1.7e308")
        assert err.value.field == "faults.straggler_slowdown"

    def test_int_past_float_range_rejected_not_raised(self):
        with pytest.raises(ValidationError) as err:
            FaultModel.from_json({"straggler_slowdown": 10**400})
        assert err.value.field == "faults.straggler_slowdown"

    def test_upper_bound_model_reports_finite_json(self):
        from repro.serve.service import PlanService

        faults = {name: hi for name, (_, hi, _) in FIELD_RULES.items()}
        out = PlanService().robustness_from_request(
            {
                "model": "opt-6.7b", "devices": 4, "faults": faults,
                "scenarios": 2, "layers": 1,
            }
        )
        json.dumps(out["report"], allow_nan=False)


class TestAttribution:
    @pytest.mark.usefixtures("no_disk_cache")
    def test_identity_holds_exactly(self, setting):
        profiler, graph, plan = setting
        nominal = EventDrivenSimulator(profiler)
        nominal_latency = nominal.run_model(graph, plan, 8, 4).latency
        sweep = FaultSweep(profiler, graph, plan, 4)
        for scenario in MIXED.scenarios(
            profiler.topology, 8, seed=2, horizon=nominal_latency
        ):
            outcome = simulate_scenario(
                sweep, scenario, MIXED.recovery, nominal_latency,
            )
            assert outcome.latency == (
                outcome.nominal_latency + outcome.compute_delay
                + outcome.link_delay + outcome.recovery_delay
            )
            assert outcome.compute_delay >= 0.0
            # Flap scenarios force a full multi-layer replay whose float
            # accumulation differs from the spliced nominal by at most an
            # ulp; the identity above still holds exactly.
            assert outcome.link_delay >= -1e-9
            assert outcome.recovery_delay >= 0.0


class TestLinkSlowdownsNeverHelp:
    """Seeded property: degraded links can only increase iteration time."""

    @pytest.mark.usefixtures("no_disk_cache")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degraded_links_monotone(self, setting, seed):
        profiler, graph, plan = setting
        nominal = EventDrivenSimulator(profiler).run_model(
            graph, plan, 8, 4
        ).latency
        link_only = FaultModel.from_spec("degrade=1.0:0.4")
        sweep = FaultSweep(profiler, graph, plan, 4)
        for scenario in link_only.scenarios(
            profiler.topology, 4, seed=seed, horizon=nominal
        ):
            outcome = simulate_scenario(
                sweep, scenario, link_only.recovery, nominal,
            )
            assert outcome.latency >= nominal
            if scenario.degraded_links:
                assert outcome.latency > nominal

    @pytest.mark.usefixtures("no_disk_cache")
    def test_flap_stall_delays_completion(self):
        """A hard NIC outage mid-iteration parks in-flight ring flows.

        Flaps modulate fabric-flow capacity, so the plan must actually
        push flows through the flapped NIC pool — a cross-node P2x2 ring
        (the golden suite's contended case), not a collective-only plan.
        """
        from repro.core.dims import Dim
        from repro.core.spec import PartitionSpec
        from repro.graph.graph import ComputationGraph
        from repro.graph.operators import OpKind, OperatorSpec

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
        stock = EventDrivenSimulator(profiler)
        report = stock.run_model(graph, plan, 2, 1)
        assert report.breakdown.get("ring-exposed", 0.0) > 0
        nominal = report.latency
        scenario = FaultScenario(
            index=0, seed=0,
            nic_flaps=(NicFlap(node=0, start=nominal * 0.25,
                               duration=nominal, reroute_factor=0.0),),
        )
        outcome = simulate_scenario(
            FaultSweep(profiler, graph, plan, 1), scenario,
            RecoveryModel(), nominal,
        )
        assert outcome.latency > nominal
        assert outcome.link_delay > 0.0


class TestDeterminism:
    def test_serial_equals_parallel_bit_identical(self, setting):
        profiler, graph, plan = setting
        serial = evaluate_robustness(
            profiler, graph, plan, 4, MIXED,
            scenarios=8, seed=3, jobs=1,
        )
        parallel = evaluate_robustness(
            profiler, graph, plan, 4, MIXED,
            scenarios=8, seed=3, jobs=2,
        )
        assert serial == parallel
        assert json.dumps(serial.to_json(), sort_keys=True) == json.dumps(
            parallel.to_json(), sort_keys=True
        )

    def test_zero_fault_report_matches_stock_engine(self, setting):
        profiler, graph, plan = setting
        report = evaluate_robustness(
            profiler, graph, plan, 4, FaultModel.from_spec(""),
            scenarios=3, seed=0,
        )
        stock = EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)
        assert report.nominal_latency == stock.latency
        assert report.p50 == stock.latency
        assert report.p99 == stock.latency
        assert report.attribution == {
            "compute": 0.0, "link": 0.0, "recovery": 0.0
        }

    def test_report_round_trip(self, setting):
        """The ``/v1/robustness`` report document survives the JSON wire."""
        profiler, graph, plan = setting
        report = evaluate_robustness(
            profiler, graph, plan, 4, MIXED, scenarios=4, seed=1
        )
        doc = report.to_json()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["kind"] == "robustness_report"
        assert doc["fault_model"] == MIXED.to_json()
        assert [o["index"] for o in doc["outcomes"]] == [0, 1, 2, 3]


def _report_bytes(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _per_replay_lowering(monkeypatch):
    """Make every fault replay price the plan and build a fresh kernel DAG
    itself (the from-scratch reference path).  Each lowering runs with the
    disk cache off, so it is priced, never loaded."""

    def fresh_dag(sweep, n_layers):
        simulator = EventDrivenSimulator(sweep.simulator.profiler)
        with mock.patch.dict(os.environ, {"PRIMEPAR_CACHE": "off"}):
            lowering = simulator.lower(sweep.graph, sweep.plan)
        return simulator.build(sweep.graph, lowering, n_layers)

    monkeypatch.setattr(faults.FaultSweep, "_dag", fresh_dag)


class TestSharedLowering:
    """One lowering and one kernel DAG per shape per sweep must not change
    a single bit of any report."""

    #: Flap rate 1.0 gives every node one flap per scenario, so every
    #: mixed replay takes the forced full-stack path.
    SPECS = {
        "compute": "straggler=0.6:1.8",
        "link": "degrade=0.6:0.5",
        "mixed_flaps": "straggler=0.5:1.7,degrade=0.4:0.5,flap=1.0:0.002:0.25",
        "outage": "outage=0.5",
    }

    @pytest.fixture(scope="class")
    def shared_reports(self, setting):
        profiler, graph, plan = setting
        return {
            (label, jobs): _report_bytes(evaluate_robustness(
                profiler, graph, plan, 4, FaultModel.from_spec(spec),
                scenarios=6, seed=4, jobs=jobs,
            ))
            for label, spec in self.SPECS.items()
            for jobs in (1, 2)
        }

    @pytest.mark.parametrize("label", sorted(SPECS))
    def test_reports_match_per_replay_lowering(
        self, setting, shared_reports, monkeypatch, label
    ):
        profiler, graph, plan = setting
        _per_replay_lowering(monkeypatch)
        model = FaultModel.from_spec(self.SPECS[label])
        reference = _report_bytes(evaluate_robustness(
            profiler, graph, plan, 4, model, scenarios=6, seed=4, jobs=1,
        ))
        assert shared_reports[label, 1] == reference
        assert shared_reports[label, 2] == reference

    def test_direct_scenario_shares_one_lowering(self, setting, monkeypatch):
        profiler, graph, plan = setting
        nominal = EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)
        model = FaultModel.from_spec(self.SPECS["mixed_flaps"])
        drawn = model.scenarios(profiler.topology, 8, 4, nominal.latency)
        scenario = next(
            s for s in drawn if s.has_compute_faults and s.has_link_faults
        )
        shared = simulate_scenario(
            FaultSweep(profiler, graph, plan, 4), scenario, model.recovery,
            nominal.latency,
        )
        _per_replay_lowering(monkeypatch)
        reference = simulate_scenario(
            FaultSweep(profiler, graph, plan, 4), scenario, model.recovery,
            nominal.latency,
        )
        assert shared == reference

    def test_sweep_builds_each_dag_shape_once(self, setting):
        """The probe and the full stack are built once each, then re-run."""
        from repro.obs.spans import SpanCollector, use_collector

        profiler, graph, plan = setting
        EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)  # warm
        model = FaultModel.from_spec(self.SPECS["mixed_flaps"])
        with use_collector(SpanCollector()) as collector:
            evaluate_robustness(
                profiler, graph, plan, 4, model, scenarios=6, seed=4,
            )
            spans = collector.export()
        builds = [
            s["attrs"]["layers"] for s in spans if s["name"] == "sim.build"
        ]
        executions = [s for s in spans if s["name"] == "sim.execute"]
        assert sorted(builds) == [1, 4]
        assert len(executions) > len(builds)

    def test_lowering_pickles(self, setting):
        profiler, graph, plan = setting
        lowering = EventDrivenSimulator(profiler).lower(graph, plan)
        clone = pickle.loads(pickle.dumps(lowering))
        assert isinstance(clone, PlanLowering)
        assert clone == lowering
        simulator = EventDrivenSimulator(profiler)

        def replay(priced):
            kg = simulator.build(graph, priced, 4)
            return simulator.execute(kg, priced, 4), kg.timeline()

        assert replay(clone) == replay(lowering)


class TestPriceOnce:
    """A sweep prices the plan's edges once, and only if it replays."""

    @staticmethod
    def _count_pricing(monkeypatch):
        calls = []
        price = InterOperatorCostModel.edge_costs

        def counted(self, edge, *args):
            calls.append(edge.key())
            return price(self, edge, *args)

        monkeypatch.setattr(
            InterOperatorCostModel, "edge_costs", counted
        )
        return calls

    def _sweep(self, setting, monkeypatch):
        """Count edge pricings and metrics of one faulted sweep."""
        profiler, graph, plan = setting
        calls = self._count_pricing(monkeypatch)
        with use_registry(MetricsRegistry()) as registry:
            evaluate_robustness(
                profiler, graph, plan, 4, MIXED, scenarios=6, seed=3,
            )
            return calls, registry.snapshot()

    def test_faulted_sweep_prices_each_edge_once(
        self, setting, monkeypatch, tmp_path
    ):
        """A cached report but no cached lowering: the sweep prices every
        edge once, and stores the lowering it priced."""
        profiler, graph, plan = setting
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)  # warm
        for path in tmp_path.glob("lowering-*.pkl"):
            path.unlink()
        calls, snapshot = self._sweep(setting, monkeypatch)
        assert sorted(calls) == sorted(edge.key() for edge in graph.edges)
        assert _counted(snapshot, "sim.lowerings") == 1
        assert _counted(snapshot, "cache.stores", kind="lowering") == 1
        assert len(list(tmp_path.glob("lowering-*.pkl"))) == 1

    def test_warm_sweep_loads_the_lowering(
        self, setting, monkeypatch, tmp_path
    ):
        """After a warm ``run_model`` the sweep prices no edge: it loads
        the lowering the nominal replay stored."""
        profiler, graph, plan = setting
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)  # warm
        calls, snapshot = self._sweep(setting, monkeypatch)
        assert calls == []
        assert _counted(snapshot, "sim.lowerings") == 0
        assert _counted(snapshot, "cache.hits", kind="lowering") == 1

    def test_cold_nominal_lowering_is_reused(self, setting, monkeypatch):
        profiler, graph, plan = setting
        monkeypatch.setenv("PRIMEPAR_CACHE", "off")
        calls = self._count_pricing(monkeypatch)
        evaluate_robustness(
            profiler, graph, plan, 4, MIXED, scenarios=6, seed=3,
        )
        assert len(calls) == len(graph.edges)

    def test_outage_only_sweep_never_lowers(self, setting, monkeypatch):
        profiler, graph, plan = setting
        EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)  # warm
        calls = self._count_pricing(monkeypatch)
        with use_registry(MetricsRegistry()) as registry:
            report = evaluate_robustness(
                profiler, graph, plan, 4,
                FaultModel.from_spec("outage=1.0"), scenarios=4, seed=0,
            )
            snapshot = registry.snapshot()
        assert report.outage_scenarios == 4
        assert calls == []
        assert _counted(snapshot, "sim.lowerings") == 0


#: One OPT-6.7B layer on 4 devices with temporal (P2x2) linear operators:
#: ring sends cross the two nodes' NICs.
TEMPORAL_PLAN = {
    "input": "M-K", "L0.ln1": "M-K", "L0.qkv": "P2x2",
    "L0.scores": "B[batch]-B[heads]", "L0.softmax": "B[batch]-B[heads]",
    "L0.context": "B[batch]-B[heads]", "L0.out_proj": "P2x2",
    "L0.add1": "M-K", "L0.ln2": "M-K", "L0.fc1": "P2x2", "L0.act": "M-K",
    "L0.fc2": "P2x2", "L0.add2": "M-K",
}


class TestOneSweepPerRequest:
    """``evaluate_robustness`` replays the nominal on its fault sweep."""

    @pytest.fixture(scope="class")
    def plans(self, setting):
        profiler, graph, _ = setting
        return {
            "megatron": megatron_plan(graph, 2, dp_degree=2),
            "temporal": {
                name: PartitionSpec.from_string(text, 2)
                for name, text in TEMPORAL_PLAN.items()
            },
        }

    @pytest.mark.usefixtures("no_disk_cache")
    @pytest.mark.parametrize("n_layers", [1, 4])
    @pytest.mark.parametrize("label", ["megatron", "temporal"])
    def test_nominal_is_run_model_latency(
        self, setting, plans, label, n_layers
    ):
        """A transfer-free plan and a ring-transfer plan, spliced or not."""
        profiler, graph, _ = setting
        plan = plans[label]
        lowering = EventDrivenSimulator(profiler).lower(graph, plan)
        rings = any(phase.ring for phase in lowering.phases.values())
        assert rings == (label == "temporal")
        report = evaluate_robustness(
            profiler, graph, plan, n_layers,
            FaultModel.from_spec("straggler=0.5:1.5,degrade=0.5:0.5"),
            scenarios=3, seed=1,
        )
        expected = EventDrivenSimulator(profiler).run_model(
            graph, plan, 8, n_layers
        )
        assert report.nominal_latency.hex() == expected.latency.hex()

    @pytest.mark.parametrize("label", ["megatron", "temporal"])
    def test_one_request_builds_lowers_and_reads_once(
        self, setting, plans, label, monkeypatch, tmp_path
    ):
        """Each DAG shape is built once, one lowering is priced or
        loaded, and no report is simulated, loaded or stored, even with a
        ``simreport`` entry for the plan on disk."""
        profiler, graph, _ = setting
        plan = plans[label]
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)
        assert list(tmp_path.glob(f"{REPORT_KIND}-*.pkl"))

        def no_report(*args, **kwargs):
            raise AssertionError("a robustness sweep ran run_model")

        monkeypatch.setattr(EventDrivenSimulator, "run_model", no_report)
        with use_registry(MetricsRegistry()) as registry:
            with use_collector(SpanCollector()) as collector:
                evaluate_robustness(
                    profiler, graph, plan, 4, MIXED, scenarios=6, seed=3,
                )
                spans = collector.export()
            snapshot = registry.snapshot()
        builds = [s["attrs"]["layers"] for s in spans if s["name"] == "sim.build"]
        assert sorted(builds) == [1, 4]
        assert _counted(snapshot, "sim.lowerings") == 0
        assert _counted(snapshot, "cache.hits", kind=LOWERING_KIND) == 1
        for outcome in ("hits", "misses", "stores"):
            assert _counted(snapshot, f"cache.{outcome}", kind=REPORT_KIND) == 0


def _counted(snapshot, name: str, **labels: str) -> float:
    return sum(
        e["value"] for e in snapshot["counters"]
        if e["name"] == name
        and all(e["labels"].get(k) == v for k, v in labels.items())
    )


class TestLoweringCache:
    """``lowering`` disk entries: one simulator stores, a fresh one loads,
    and a loaded lowering replays to the bytes of a priced one."""

    def test_loaded_lowering_report_matches_cache_off(
        self, setting, monkeypatch, tmp_path
    ):
        profiler, graph, plan = setting
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        EventDrivenSimulator(profiler).lower(graph, plan)  # stores
        assert len(list(tmp_path.glob("lowering-*.pkl"))) == 1
        with use_registry(MetricsRegistry()) as registry:
            loaded = _report_bytes(evaluate_robustness(
                profiler, graph, plan, 4, MIXED, scenarios=6, seed=3,
            ))
            snapshot = registry.snapshot()
        assert _counted(snapshot, "cache.hits", kind="lowering") == 1
        assert _counted(snapshot, "sim.lowerings") == 0
        monkeypatch.setenv("PRIMEPAR_CACHE", "off")
        priced = _report_bytes(evaluate_robustness(
            profiler, graph, plan, 4, MIXED, scenarios=6, seed=3,
        ))
        assert loaded == priced

    @pytest.mark.parametrize("cause", ["corrupt", "stale", "foreign"])
    def test_bad_entry_is_repriced(
        self, setting, monkeypatch, tmp_path, cause
    ):
        """A corrupt or stale entry is discarded, and one holding no
        ``PlanLowering`` is a miss; each is priced again."""
        profiler, graph, plan = setting
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        reference = EventDrivenSimulator(profiler).lower(graph, plan)
        (path,) = tmp_path.glob("lowering-*.pkl")
        path.write_bytes({
            "corrupt": b"not a pickle at all",
            "stale": pickle.dumps(
                {"version": diskcache.CACHE_VERSION - 1, "value": reference}
            ),
            "foreign": pickle.dumps(
                {"version": diskcache.CACHE_VERSION, "value": {"not": 1}}
            ),
        }[cause])
        with use_registry(MetricsRegistry()) as registry:
            lowering = EventDrivenSimulator(profiler).lower(graph, plan)
            snapshot = registry.snapshot()
        assert lowering == reference
        assert _counted(snapshot, "sim.lowerings") == 1
        assert _counted(
            snapshot, "cache.discards", kind="lowering", cause=cause
        ) == (cause != "foreign")
        assert EventDrivenSimulator(profiler).lower(graph, plan) == reference


class TestZeroFaultGraphPassThrough:
    """A scenario reaches the engine only as ``KernelGraph.execute``'s
    arguments (``FaultScenario.engine_args``)."""

    @pytest.mark.usefixtures("no_disk_cache")
    def test_empty_scenario_is_identity(self, setting):
        """The empty scenario passes nothing, so a sweep's nominal replay
        is the stock engine's run."""
        profiler, graph, plan = setting
        assert FaultScenario(index=0, seed=0).engine_args(
            profiler.topology
        ) == {}
        stock = EventDrivenSimulator(profiler)
        sweep = FaultSweep(profiler, graph, plan, 4)
        assert sweep.latency(FaultScenario(index=0, seed=0)) == (
            stock.run_model(graph, plan, 8, 4).latency
        )

    @pytest.mark.usefixtures("no_disk_cache")
    def test_straggler_slows_only_compute(self, setting):
        profiler, graph, plan = setting
        scenario = FaultScenario(
            index=0, seed=0, stragglers=(Straggler(device=0, slowdown=2.0),)
        )
        assert scenario.engine_args(profiler.topology) == {
            "stretch": {
                (kind, 0): 2.0 for kind in ("compute", "forward", "backward")
            },
        }
        stock = EventDrivenSimulator(profiler)
        assert (
            FaultSweep(profiler, graph, plan, 4).latency(scenario)
            > stock.run_model(graph, plan, 8, 4).latency
        )

    def test_custom_graph_bypasses_report_cache(
        self, setting, monkeypatch, tmp_path
    ):
        """A stock report in the cache never answers a ``run_model`` on a
        simulator built with another ``graph_factory`` (the frozen
        engines' seam): here the frozen fault graph under a straggler."""
        profiler, graph, plan = setting
        topology = profiler.topology
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
        scenario = FaultScenario(
            index=0, seed=0, stragglers=(Straggler(device=0, slowdown=2.0),)
        )
        stock = EventDrivenSimulator(profiler).run_model(graph, plan, 8, 4)
        assert list(tmp_path.glob(f"{REPORT_KIND}-*.pkl"))
        with use_registry(MetricsRegistry()) as registry:
            faulty = PerLayerSimulator(
                profiler,
                graph_factory=lambda: LegacyFaultyKernelGraph(
                    scenario, topology
                ),
            ).run_model(graph, plan, 8, 4)
            snapshot = registry.snapshot()
        assert faulty.latency > stock.latency
        for outcome in ("hits", "misses", "stores"):
            assert _counted(snapshot, f"cache.{outcome}", kind=REPORT_KIND) == 0

    def test_degraded_link_scales_capacity(self, setting):
        """A degraded node's NIC pool opens at its factor of the bandwidth,
        and the node's collectives stretch by its inverse."""
        profiler, _, _ = setting
        topology = profiler.topology
        scenario = FaultScenario(
            index=0, seed=0,
            degraded_links=(DegradedLink(node=0, factor=0.5),),
        )
        args = scenario.engine_args(topology)
        assert args["capacity"] == {"nic:node0": 0.5}
        assert args["stretch"] == {
            (kind, device): 2.0
            for device in (0, 1) for kind in ("redistribute", "allreduce")
        }
        kg = KernelGraph()
        kg.add("t", transfer=(1e6, topology.path_resources(0, 2)))
        kg.execute(capacity=args["capacity"])
        stats = kg.link_stats()
        assert stats["nic:node0"][1] == pytest.approx(
            0.5 * stats["nic:node1"][1]
        )

    @pytest.mark.parametrize("factor", [0.0, 0.25])
    def test_flap_before_first_transfer_cuts_link_when_it_opens(
        self, setting, factor
    ):
        """A flap on a NIC pool no transfer has used yet throttles the pool
        from the moment its first transfer opens it until the flap ends."""
        profiler, _, _ = setting
        path = profiler.topology.path_resources(0, 2)
        seconds = 1.0  # the transfer's bytes at full bandwidth

        def transfer_end(scenario):
            kg = KernelGraph()
            a = kg.add("a", streams=[kg.stream("dev0")], duration=1.0)
            t = kg.add(
                "t", deps=[a],
                transfer=(seconds * path.stream_bandwidth, path),
            )
            kg.execute(**scenario.engine_args(profiler.topology))
            return kg.kernels[t].end_time

        opened = 1.0 + path.latency
        assert transfer_end(FaultScenario(0, 0)) == pytest.approx(
            opened + seconds
        )
        flap = NicFlap(node=0, start=0.5, duration=1.5, reroute_factor=factor)
        cut = transfer_end(FaultScenario(0, 0, nic_flaps=(flap,)))
        # Throttled from its opening until the flap ends at 2.0, then at
        # full bandwidth for the bytes left.
        done = (2.0 - opened) * factor
        assert cut == pytest.approx(2.0 + (seconds - done))


class TestRobustSearch:
    def test_portfolio_ranked_and_serializable(self, setting):
        profiler, graph, _ = setting
        result = robust_search(
            profiler, graph, global_batch=8, n_layers=4,
            fault_model=MIXED, objective="p99", scenarios=4, seed=0,
        )
        assert result.candidates
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores)
        assert result.best.label == result.candidates[0].label
        doc = json.loads(json.dumps(result.to_json()))
        assert doc["kind"] == "robust_search"
        assert doc["best"] == result.best.label
        # Megatron's degree follows the one rule the service and
        # ``compare`` use.
        (megatron,) = (c for c in result.candidates if c.label == "megatron")
        assert megatron.plan == best_megatron_plan(
            EventDrivenSimulator(profiler), graph, 8, 4
        ).plan

    def test_objective_validation(self, setting):
        profiler, graph, plan = setting
        report = evaluate_robustness(
            profiler, graph, plan, 4, MIXED, scenarios=2, seed=0
        )
        with pytest.raises(ValidationError):
            report.score("p42")
        blended = report.score("blend", blend=0.25)
        assert blended == pytest.approx(
            0.75 * report.nominal_latency + 0.25 * report.p99
        )
