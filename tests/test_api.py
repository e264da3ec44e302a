"""The unified request/response API (:mod:`repro.api`).

Request contracts: frozen dataclasses, field-path validation errors
(non-finite numbers included), schema_version stamping, and a
``cache_key`` that excludes the deadline (two requests differing only in
budget share a plan).  :class:`ServeConfig` is checked by the same rules.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import (
    MAX_ALPHA,
    MAX_LAYERS,
    OBJECTIVES,
    SCHEMA_VERSION,
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    ServeConfig,
    SimulateRequest,
    ValidationError,
    plan_from_json,
    plan_to_json,
    stamp,
)


class TestSearchRequest:
    def test_defaults_round_trip(self):
        request = SearchRequest.from_json({})
        clone = SearchRequest.from_json(json.loads(json.dumps(request.to_json())))
        assert clone == request

    def test_to_json_carries_schema_version(self):
        assert SearchRequest().to_json()["schema_version"] == SCHEMA_VERSION

    def test_schema_version_mismatch_rejected(self):
        with pytest.raises(ValidationError) as err:
            SearchRequest.from_json({"schema_version": 99})
        assert err.value.field == "schema_version"

    def test_batch_zero_canonicalizes(self):
        assert SearchRequest.from_json({"devices": 64}).batch == 32
        assert SearchRequest.from_json({"devices": 4}).batch == 8
        assert SearchRequest.from_json({"devices": 4, "batch": 5}).batch == 5

    def test_devices_validation_message(self):
        with pytest.raises(ValidationError, match="power of two"):
            SearchRequest.from_json({"devices": 6})
        with pytest.raises(ValidationError):
            SearchRequest.from_json({"devices": 8192})

    def test_field_errors_carry_paths(self):
        cases = {
            "model": {"model": "not-a-model"},
            "alpha": {"alpha": -1.0},
            "beam": {"beam": -2},
            "deadline": {"deadline": -1.0},
            "batch": {"batch": "eight"},
        }
        for field, body in cases.items():
            with pytest.raises(ValidationError) as err:
                SearchRequest.from_json(body)
            assert err.value.field == field, body

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["alpha", "deadline"])
    def test_non_finite_numbers_rejected(self, field, value):
        """``json.loads`` accepts NaN and Infinity; validation must not."""
        body = json.loads(f'{{"{field}": {value}}}')
        with pytest.raises(ValidationError) as err:
            SearchRequest.from_json(body)
        assert err.value.field == field
        assert "finite" in str(err.value)

    def test_alpha_bounded(self):
        """The bound keeps every plan cost finite; 1e300 overflowed it."""
        assert SearchRequest.from_json({"alpha": MAX_ALPHA}).alpha == MAX_ALPHA
        for alpha in (math.nextafter(MAX_ALPHA, math.inf), 1e300):
            with pytest.raises(ValidationError) as err:
                SearchRequest.from_json({"alpha": alpha})
            assert err.value.field == "alpha"

    def test_cache_key_excludes_deadline(self):
        base = SearchRequest.from_json({"devices": 8, "batch": 8})
        hurried = SearchRequest.from_json(
            {"devices": 8, "batch": 8, "deadline": 5.0}
        )
        assert base.cache_key() == hurried.cache_key()
        other = SearchRequest.from_json({"devices": 8, "batch": 16})
        assert base.cache_key() != other.cache_key()

    def test_frozen(self):
        with pytest.raises(Exception):
            SearchRequest().devices = 4


class TestNestedRequests:
    def test_simulate_round_trip(self):
        request = SimulateRequest(
            search=SearchRequest(devices=4, batch=8), layers=2,
        )
        clone = SimulateRequest.from_json(
            json.loads(json.dumps(request.to_json()))
        )
        assert clone == request

    def test_simulate_engine_validated(self):
        """The retired engine choice is an unknown field, not ignored."""
        with pytest.raises(ValidationError) as err:
            SimulateRequest.from_json({"engine": "quantum"})
        assert err.value.field == "engine"

    def test_explain_round_trip(self):
        request = ExplainRequest(
            search=SearchRequest(devices=4, batch=8), links=True
        )
        clone = ExplainRequest.from_json(
            json.loads(json.dumps(request.to_json()))
        )
        assert clone == request

    def test_robustness_round_trip_with_spec_string(self):
        request = RobustnessRequest(
            search=SearchRequest(devices=4, batch=8),
            faults="straggler=0.2:1.8", scenarios=8, seed=3,
            objective="blend", blend=0.25, layers=4,
        )
        clone = RobustnessRequest.from_json(
            json.loads(json.dumps(request.to_json()))
        )
        assert clone == request

    def test_robustness_accepts_json_fault_model(self):
        request = RobustnessRequest.from_json(
            {"faults": {"straggler_rate": 0.2, "straggler_slowdown": 1.5}}
        )
        assert request.faults == {
            "straggler_rate": 0.2, "straggler_slowdown": 1.5
        }

    def test_robustness_validation(self):
        for field, body in (
            ("faults", {"faults": 7}),
            ("scenarios", {"scenarios": 0}),
            ("scenarios", {"scenarios": 5000}),
            ("seed", {"seed": -1}),
            ("objective", {"objective": "p42"}),
            ("blend", {"blend": 1.5}),
            ("layers", {"layers": -1}),
        ):
            with pytest.raises(ValidationError) as err:
                RobustnessRequest.from_json(body)
            assert err.value.field == field, body

    @pytest.mark.parametrize(
        "faults, field",
        [
            (
                {"straggler_rate": 1, "straggler_slowdown": float("nan")},
                "faults.straggler_slowdown",
            ),
            ({"restart_seconds": float("inf")}, "faults.restart_seconds"),
            ({"recovery": {"replan_seconds": float("nan")}},
             "faults.replan_seconds"),
            ("straggler=0.5:nan", "faults.straggler_slowdown"),
            ("flap=inf", "faults.flap_rate"),
        ],
    )
    def test_non_finite_fault_model_rejected(self, faults, field):
        """A NaN severity must not score as a perfect plan."""
        request = RobustnessRequest.from_json({"faults": faults})
        with pytest.raises(ValidationError) as err:
            request.fault_model()
        assert err.value.field == field

    @pytest.mark.parametrize("cls", [SimulateRequest, RobustnessRequest])
    def test_layers_bounded(self, cls):
        """Replay time grows with depth: a huge ``layers`` is a 400."""
        assert cls.from_json({"layers": MAX_LAYERS}).n_layers == MAX_LAYERS
        for layers in (MAX_LAYERS + 1, 10**7):
            with pytest.raises(ValidationError) as err:
                cls.from_json({"layers": layers})
            assert err.value.field == "layers"

    def test_objectives_closed_set(self):
        assert "p99" in OBJECTIVES
        assert "nominal" in OBJECTIVES


class TestServeConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline", -1.0),
            ("jobs", -2),
            ("lru_size", 0),
            ("max_concurrent", 0),
            ("queue_depth", -1),
            ("trace_store_size", 0),
            ("flight_size", 0),
            ("slo_window", 0),
            ("drain_timeout", float("nan")),
            ("drain_timeout", -1.0),
            ("port", -1),
            ("port", 65536),
            ("port", 70000),
            ("flight_snapshot_interval", -1.0),
            ("slo_p95_ms", -1.0),
        ],
    )
    def test_out_of_range_knobs_rejected(self, field, value):
        with pytest.raises(ValidationError) as err:
            ServeConfig(**{field: value})
        assert err.value.field == field

    def test_bounds_admit_their_edges(self):
        config = ServeConfig(
            deadline=0, jobs=0, queue_depth=0, lru_size=1,
            max_concurrent=1, trace_store_size=1, flight_size=1,
            slo_window=1, port=0, drain_timeout=0,
            flight_snapshot_interval=0, slo_p95_ms=0,
        )
        assert config.deadline == 0 and config.jobs == 0
        assert config.port == 0 and config.drain_timeout == 0
        assert ServeConfig(port=65535).port == 65535


class TestEnvelopes:
    def test_stamp_and_check(self):
        doc = stamp("thing", {"a": 1})
        assert doc == {"schema_version": SCHEMA_VERSION, "kind": "thing", "a": 1}

    def test_plan_round_trip(self):
        from repro import PartitionSpec

        plan = {
            "qkv": PartitionSpec.from_string("P2x2", 2),
            "out": PartitionSpec.from_string("B-B", 2),
        }
        payload = json.loads(json.dumps(plan_to_json(plan)))
        assert plan_from_json(payload, 2) == plan


class TestResultRoundTrips:
    """Each result's one wire shape survives ``json.dumps``/``json.loads``."""

    @pytest.fixture(scope="class")
    def setting(self, profiler4, small_block):
        from repro import PrimeParOptimizer

        result = PrimeParOptimizer(profiler4).optimize(
            small_block, n_layers=4
        )
        return profiler4, small_block, result

    @staticmethod
    def wire(payload):
        return json.loads(json.dumps(payload, sort_keys=True))

    def test_search_result(self, setting):
        """The searched plan survives the plan store's wire shape."""
        _, _, result = setting
        n_bits = next(iter(result.plan.values())).n_bits
        payload = self.wire(plan_to_json(result.plan))
        assert plan_from_json(payload, n_bits) == result.plan

    def test_robustness_report(self, setting):
        """The ``/v1/robustness`` report is a stamped JSON fixed point."""
        from repro.sim.faults import FaultModel, evaluate_robustness

        profiler, graph, result = setting
        report = evaluate_robustness(
            profiler, graph, result.plan, 8, 4,
            FaultModel.from_spec("straggler=0.5:1.6,outage=0.3"),
            scenarios=4, seed=0,
        )
        doc = report.to_json()
        assert self.wire(doc) == doc
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "robustness_report"
