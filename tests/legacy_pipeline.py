"""Frozen copy of the two-pass pipeline replay build (commit 2bc1083).

Up to that commit :func:`~repro.parallel3d.pipeline.pipeline_iteration_events`
added every stage's kernels first, in schedule order, then each boundary
send, patching the stage kernel that waits on it with ``add_dep`` — a
wait on a kernel added later.  The replay now adds kernels in dependency
order; ``tests/test_pipeline_order.py`` holds its reports to this copy,
byte for byte.  Do not edit except to re-freeze against a new baseline.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.parallel3d.pipeline import (
    PipelinePlan,
    PipelineReport,
    _stage_order,
)


def two_pass_replay(
    plan: PipelinePlan,
    stage_forward: float,
    stage_backward: float,
    boundary_bytes: float,
    link,
    kg,
) -> PipelineReport:
    """The replay's report, built on ``kg`` (a frozen engine with
    ``add_dep``) in the two-pass order."""
    p, m = plan.n_stages, plan.n_microbatches
    hop = link.transfer_time(boundary_bytes) if p > 1 else 0.0
    streams = [kg.stream(f"stage{s}") for s in range(p)]
    work: Dict[Tuple[str, int, int], object] = {}
    # Pass 1: enqueue stage kernels in schedule order (stream order is
    # submission order, so this pins each stage's execution sequence).
    for s in range(p):
        for phase, i in _stage_order(plan, s):
            duration = stage_forward if phase == "F" else stage_backward
            work[(phase, s, i)] = kg.add(
                f"{phase}{i}@stage{s}",
                streams=[streams[s]],
                duration=duration,
                kind="forward" if phase == "F" else "backward",
                op=f"mb{i}",
                phase=phase,
                device=s,
            )
    # Pass 2: boundary sends and cross-stage dependencies (created after
    # pass 1 because a backward depends on the *next* stage's kernel).
    for s in range(p - 1):
        for i in range(m):
            fsend = kg.add(
                f"fsend{i}@stage{s}",
                deps=[work[("F", s, i)]],
                duration=hop,
                kind="pipe-send",
                op=f"mb{i}",
                phase="F",
                device=s,
            )
            kg.add_dep(work[("F", s + 1, i)], fsend)
            bsend = kg.add(
                f"bsend{i}@stage{s + 1}",
                deps=[work[("B", s + 1, i)]],
                duration=hop,
                kind="pipe-send",
                op=f"mb{i}",
                phase="B",
                device=s + 1,
            )
            kg.add_dep(work[("B", s, i)], bsend)
    makespan = kg.execute()
    slot = stage_forward + stage_backward
    exposed_comm = 2 * (p - 1) * hop
    return PipelineReport(
        iteration_latency=makespan,
        bubble_latency=makespan - m * slot - exposed_comm,
        communication_latency=exposed_comm,
        stage_latency=slot,
        timeline=kg.timeline(),
    )
