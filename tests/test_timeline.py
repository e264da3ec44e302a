"""Direct unit tests for the timeline substrate (``repro.sim.timeline``)."""

import pytest

from repro.sim.executor import replicate_timeline, samples_per_second
from repro.sim.timeline import KernelRecord, Timeline


def _one_layer(*records: KernelRecord) -> Timeline:
    """A timeline of ``records`` whose clock is the last record's end."""
    return Timeline(
        records=list(records), clock=max(r.end for r in records)
    )


COMPUTE = KernelRecord("a", "F", "compute", start=0.0, duration=0.25)
RING = KernelRecord(
    "a", "F", "ring", start=0.0, duration=0.1, overlapped=True
)


class TestReplication:
    def test_replicate_tiles_clock_and_records(self):
        timeline = _one_layer(COMPUTE, RING)
        tiled = replicate_timeline(timeline, 3)
        assert tiled.clock == pytest.approx(3 * 0.25)
        assert len(tiled.records) == 3 * len(timeline.records)
        starts = [r.start for r in tiled.records if r.kind == "compute"]
        assert starts == pytest.approx([0.0, 0.25, 0.5])

    def test_replicate_single_layer_is_identity(self):
        timeline = _one_layer(COMPUTE)
        assert replicate_timeline(timeline, 1) is timeline

    def test_replicate_preserves_record_fields(self):
        timeline = _one_layer(RING)
        tiled = replicate_timeline(timeline, 2)
        assert all(r.overlapped for r in tiled.records)
        assert all(r.op == "a" for r in tiled.records)


class TestThroughputGuard:
    def test_positive_latency(self):
        assert samples_per_second(8, 2.0) == pytest.approx(4.0)

    def test_zero_latency_is_infinite_not_an_error(self):
        assert samples_per_second(8, 0.0) == float("inf")

    def test_record_end(self):
        record = KernelRecord("a", "F", "compute", start=1.0, duration=0.5)
        assert record.end == pytest.approx(1.5)
