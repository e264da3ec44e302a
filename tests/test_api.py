"""The unified request/response API (:mod:`repro.api`).

Request contracts: frozen dataclasses, field-path validation errors,
schema_version stamping, and a ``cache_key`` that excludes the deadline
(two requests differing only in budget share a plan).  Response contract:
every report type round-trips ``to_json -> json.dumps -> json.loads ->
from_json`` to an equal object (the four-way property test at the bottom).
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    OBJECTIVES,
    SCHEMA_VERSION,
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
    check_schema,
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

    def test_objectives_closed_set(self):
        assert "p99" in OBJECTIVES
        assert "nominal" in OBJECTIVES


class TestEnvelopes:
    def test_stamp_and_check(self):
        doc = stamp("thing", {"a": 1})
        assert doc["schema_version"] == SCHEMA_VERSION
        assert check_schema(doc, "thing")["a"] == 1
        with pytest.raises(ValidationError):
            check_schema(doc, "other")
        with pytest.raises(ValidationError):
            check_schema({**doc, "schema_version": 0}, "thing")

    def test_unstamped_payload_tolerated(self):
        assert check_schema({"a": 1}, "thing")["a"] == 1

    def test_plan_round_trip(self):
        from repro import PartitionSpec

        plan = {
            "qkv": PartitionSpec.from_string("P2x2", 2),
            "out": PartitionSpec.from_string("B-B", 2),
        }
        payload = json.loads(json.dumps(plan_to_json(plan)))
        assert plan_from_json(payload, 2) == plan


class TestResultRoundTrips:
    """The four-way property: every report type survives the JSON wire."""

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
        from repro import SearchResult

        _, _, result = setting
        clone = SearchResult.from_json(self.wire(result.to_json()))
        assert clone.plan == result.plan
        assert clone.cost == result.cost
        assert clone.elapsed == result.elapsed
        assert clone.candidate_sizes == result.candidate_sizes
        # Serializing again is a fixed point.
        assert self.wire(clone.to_json()) == self.wire(result.to_json())

    def test_iteration_report(self, setting):
        from repro import EventDrivenSimulator, IterationReport

        profiler, graph, result = setting
        report = EventDrivenSimulator(profiler).run_model(
            graph, result.plan, 8, 4
        )
        clone = IterationReport.from_json(self.wire(report.to_json()))
        assert clone == report
        assert self.wire(clone.to_json()) == self.wire(report.to_json())

    def test_pipeline_report(self):
        from repro.cluster.topology import v100_cluster
        from repro.parallel3d.pipeline import (
            PipelinePlan,
            PipelineReport,
            pipeline_iteration,
            pipeline_iteration_events,
        )

        link = v100_cluster(8, gpus_per_node=2).inter_link
        plan = PipelinePlan(n_stages=4, n_microbatches=8)
        for report in (
            pipeline_iteration(plan, 1e-3, 2e-3, 4e6, link),
            pipeline_iteration_events(plan, 1e-3, 2e-3, 4e6, link),
        ):
            clone = PipelineReport.from_json(self.wire(report.to_json()))
            assert clone == report
            assert self.wire(clone.to_json()) == self.wire(report.to_json())

    def test_robustness_report(self, setting):
        from repro.sim.faults import (
            FaultModel,
            RobustnessReport,
            evaluate_robustness,
        )

        profiler, graph, result = setting
        report = evaluate_robustness(
            profiler, graph, result.plan, 8, 4,
            FaultModel.from_spec("straggler=0.5:1.6,outage=0.3"),
            scenarios=4, seed=0,
        )
        clone = RobustnessReport.from_json(self.wire(report.to_json()))
        assert clone == report
        assert self.wire(clone.to_json()) == self.wire(report.to_json())
