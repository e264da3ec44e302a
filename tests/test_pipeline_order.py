"""The pipeline replay built in dependency order against its frozen
two-pass build.

:func:`~repro.parallel3d.pipeline.pipeline_iteration_events` adds each
stage kernel after the boundary send it waits on, so the kernel DAG is
append-only.  The frozen build of ``tests/legacy_pipeline.py`` added every
stage kernel first and patched the waits in afterwards with ``add_dep``.
A transfer-free DAG's start times are ``max(pred ends)`` in any
submission order, so the report must not move: this suite holds the
live build on the live engine to the frozen build on the frozen engine,
pickled ``PipelineReport`` bytes equal, over both schedules, 1 to 16
stages, 1 to 64 micro-batches, and zero and non-zero hops.

Stage times are positive, as ``Planner3D``'s always are.  With a zero
backward time a stage's forward and backward sends may start at one
instant; the timeline lists such ties in submission order, which the two
builds do not share.
"""

import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_pipeline  # noqa: E402  (vendored baseline, lives next to this file)
from frozen_graphs import OrderedLegacyKernelGraph  # noqa: E402
from repro.cluster.topology import v100_cluster
from repro.parallel3d.pipeline import (
    PipelinePlan,
    PipelineSchedule,
    pipeline_iteration_events,
)

CLUSTER = v100_cluster(8, gpus_per_node=2)
LINKS = (CLUSTER.inter_link, CLUSTER.intra_link)
TIMES = [(1e-3, 2e-3), (1.5e-3, 1.5e-3)]


@pytest.mark.parametrize("schedule", list(PipelineSchedule))
@pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("boundary_bytes", [0.0, 4e6])
def test_reports_match_two_pass_build(schedule, p, boundary_bytes, no_disk_cache):
    for m in (1, 2, 5, 8, 64):
        plan = PipelinePlan(n_stages=p, n_microbatches=m, schedule=schedule)
        for forward, backward in TIMES:
            for link in LINKS:
                frozen = legacy_pipeline.two_pass_replay(
                    plan, forward, backward, boundary_bytes, link,
                    OrderedLegacyKernelGraph(),
                )
                live = pipeline_iteration_events(
                    plan, forward, backward, boundary_bytes, link
                )
                assert pickle.dumps(live) == pickle.dumps(frozen), (
                    schedule, p, m, forward, backward, boundary_bytes,
                )

