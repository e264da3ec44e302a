"""Chrome trace export: structural validation of the emitted JSON."""

import json
from dataclasses import replace

import pytest

from repro.baselines.megatron import megatron_plan
from repro.cluster.topology import v100_cluster
from repro.core.dims import Dim
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.graph.operators import OpKind, OperatorSpec
from repro.sim.engine import EventDrivenSimulator
from repro.sim.timeline import Timeline
from repro.sim.trace import timeline_to_trace, write_trace


@pytest.fixture(scope="module")
def event_report(profiler4):
    # A P2x2-partitioned linear guarantees temporal ring traffic in the
    # exported trace (the overlap assertions below depend on it).
    fc = OperatorSpec(
        name="fc",
        kind=OpKind.LINEAR,
        dim_axes={
            Dim.B: ("batch",),
            Dim.M: ("seq",),
            Dim.K: ("hidden",),
            Dim.N: ("ffn",),
        },
        axis_sizes={"batch": 8, "seq": 256, "hidden": 2048, "ffn": 8192},
    )
    graph = ComputationGraph(nodes=[fc], edges=[])
    plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
    return EventDrivenSimulator(profiler4).run(graph, plan, 8), plan


@pytest.fixture(scope="module")
def trace_doc(event_report, topo4):
    report, _ = event_report
    return timeline_to_trace(report.timeline, topo4)


def _complete_events(doc):
    return [e for e in doc["traceEvents"] if e["ph"] == "X"]


class TestStructure:
    def test_document_shape(self, trace_doc):
        assert isinstance(trace_doc["traceEvents"], list)
        assert trace_doc["traceEvents"], "trace must not be empty"

    def test_required_fields_present(self, trace_doc):
        for event in _complete_events(trace_doc):
            assert set(("name", "ph", "ts", "dur", "pid", "tid")) <= set(event)

    def test_no_negative_timestamps_or_durations(self, trace_doc):
        for event in _complete_events(trace_doc):
            assert event["ts"] >= 0
            assert event["dur"] > 0

    def test_metadata_names_every_track(self, trace_doc):
        tracks = {(e["pid"], e["tid"]) for e in _complete_events(trace_doc)}
        named = {
            (e["pid"], e["tid"])
            for e in trace_doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks <= named

    def test_one_compute_track_per_device(self, trace_doc, topo4):
        compute_tids = {
            e["tid"]
            for e in _complete_events(trace_doc)
            if not e["args"]["overlapped"]
        }
        # Compute tracks are the even tids, one per simulated device.
        assert compute_tids == {2 * d for d in range(topo4.n_devices)}

    def test_pid_is_node_index(self, trace_doc, topo4):
        for event in _complete_events(trace_doc):
            device = event["tid"] // 2
            assert event["pid"] == topo4.node_of(device)


class TestOverlap:
    def test_ring_events_on_comm_tracks(self, trace_doc):
        for event in _complete_events(trace_doc):
            if event["args"]["overlapped"]:
                assert event["tid"] % 2 == 1

    def test_rings_run_concurrently_with_compute(self, event_report, trace_doc):
        report, plan = event_report
        if not any(s.has_temporal for s in plan.values()):
            pytest.skip("searched plan has no temporal primitive")
        events = _complete_events(trace_doc)
        rings = [e for e in events if e["args"]["overlapped"]]
        assert rings, "temporal plan must emit ring transfers"
        computes = [
            e
            for e in events
            if e["args"]["kind"] == "compute" and e["tid"] % 2 == 0
        ]
        overlapping = 0
        for ring in rings:
            ring_end = ring["ts"] + ring["dur"]
            device = ring["tid"] // 2
            for comp in computes:
                if comp["tid"] // 2 != device:
                    continue
                if comp["ts"] < ring_end and ring["ts"] < comp["ts"] + comp["dur"]:
                    overlapping += 1
                    break
        assert overlapping > 0


class TestWriteTrace:
    def test_round_trips_through_json(self, event_report, topo4, tmp_path):
        report, _ = event_report
        path = tmp_path / "trace.json"
        write_trace(str(path), report.timeline, topo4)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert _complete_events(doc)


class TestSplicedTrace:
    @pytest.mark.usefixtures("no_disk_cache")
    def test_exported_trace_tiles_the_layer_record_for_record(
        self, profiler8, large_block
    ):
        """A spliced whole-model report keeps one layer and exports all of
        them: the trace equals the layer tiled along the clock."""
        plan = megatron_plan(large_block, 3, dp_degree=2)
        sim = EventDrivenSimulator(profiler8)
        layer = sim.run(large_block, plan, 8).timeline
        whole = sim.run_model(large_block, plan, 8, n_layers=4)
        assert whole.tiles == 4
        assert whole.timeline.records == layer.records
        span = layer.clock
        tiled = Timeline(
            records=[
                replace(record, start=record.start + i * span)
                for i in range(4)
                for record in layer.records
            ],
            clock=4 * span,
        )
        exported = whole.full_timeline()
        assert exported.records == tiled.records
        assert exported.clock == tiled.clock
        topology = v100_cluster(8)
        assert timeline_to_trace(exported, topology) == timeline_to_trace(
            tiled, topology
        )


class TestByteStability:
    @pytest.mark.usefixtures("no_disk_cache")
    def test_identical_runs_write_identical_bytes(self, profiler4, topo4, tmp_path):
        """Two fresh simulations of one scenario must serialise to the same
        bytes — the engine is deterministic (events tie-break by submission
        order, flows by activation order) and the exporter adds nothing
        run-dependent."""
        fc = OperatorSpec(
            name="fc",
            kind=OpKind.LINEAR,
            dim_axes={
                Dim.B: ("batch",),
                Dim.M: ("seq",),
                Dim.K: ("hidden",),
                Dim.N: ("ffn",),
            },
            axis_sizes={"batch": 8, "seq": 256, "hidden": 2048, "ffn": 8192},
        )
        graph = ComputationGraph(nodes=[fc], edges=[])
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        paths = []
        for run in range(2):
            sim = EventDrivenSimulator(profiler4)
            report = sim.run(graph, plan, 8)
            path = tmp_path / f"trace{run}.json"
            write_trace(str(path), report.timeline, topo4)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
