"""Pipeline-parallel schedule models (GPipe and 1F1B).

Pipeline parallelism splits the layer stack into ``p`` stages executed over
micro-batches; periodic flushes leave bubbles of idle time (paper Sec. 1).
:func:`pipeline_iteration_events` prices one iteration by replaying the
schedule — per-micro-batch stage kernels and the point-to-point activation
traffic between stages — on the discrete-event engine, the quantity needed
to compose 3D parallelism (paper Sec. 6.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cluster.links import LinkSpec
from ..sim.timeline import Timeline


class PipelineSchedule(enum.Enum):
    """Supported micro-batch schedules."""

    GPIPE = "gpipe"
    ONE_F_ONE_B = "1f1b"


@dataclass(frozen=True)
class PipelinePlan:
    """Static pipeline configuration.

    Attributes:
        n_stages: Pipeline depth ``p``.
        n_microbatches: Micro-batches per iteration (flush granularity).
        schedule: Micro-batch schedule.  GPipe keeps all ``m`` micro-batches'
            activations live on the first stage, 1F1B at most ``p``.  With
            free stage-to-stage sends both take ``(m + p - 1)(t_f + t_b)``;
            once sends take time 1F1B runs longer than GPipe, because its
            interleaved sends stall stages between forward and backward.
    """

    n_stages: int
    n_microbatches: int
    schedule: PipelineSchedule = PipelineSchedule.ONE_F_ONE_B

    def __post_init__(self) -> None:
        if self.n_stages < 1:
            raise ValueError("pipeline needs at least one stage")
        if self.n_microbatches < 1:
            raise ValueError("need at least one micro-batch")


@dataclass(frozen=True)
class PipelineReport:
    """Latency accounting of one pipelined training iteration.

    ``timeline`` holds the replay's kernels, one track per stage.
    """

    iteration_latency: float
    bubble_latency: float
    communication_latency: float
    stage_latency: float
    timeline: Timeline

    @property
    def bubble_fraction(self) -> float:
        if self.iteration_latency <= 0:
            return 0.0
        return self.bubble_latency / self.iteration_latency


def _stage_order(
    plan: PipelinePlan, stage: int
) -> List[Tuple[str, int]]:
    """Per-stage stream submission order as ``(phase, microbatch)`` pairs.

    GPipe runs every forward, then every backward.  1F1B warms up with
    ``min(m, p - 1 - s)`` forwards, alternates one-forward-one-backward in
    steady state, and drains the remaining backwards (PipeDream-Flush).
    """
    p, m = plan.n_stages, plan.n_microbatches
    if plan.schedule is PipelineSchedule.GPIPE:
        return [("F", i) for i in range(m)] + [("B", i) for i in range(m)]
    warmup = min(m, p - 1 - stage)
    order = [("F", i) for i in range(warmup)]
    next_f, next_b = warmup, 0
    while next_f < m:
        order.append(("F", next_f))
        order.append(("B", next_b))
        next_f += 1
        next_b += 1
    order.extend(("B", i) for i in range(next_b, m))
    return order


def pipeline_iteration_events(
    plan: PipelinePlan,
    stage_forward: float,
    stage_backward: float,
    boundary_bytes: float,
    link: LinkSpec,
    graph_factory=None,
) -> PipelineReport:
    """Event-driven replay of a pipeline schedule on the simulation engine.

    Builds the schedule's kernel DAG — forward/backward micro-batch kernels
    on one stream per stage, activation/gradient sends between neighbouring
    stages — in dependency order, each kernel after the send it waits on,
    and measures the iteration latency as the DAG's makespan.
    GPipe's makespan is ``(m + p - 1)(t_f + t_b) + 2 (p - 1) hop`` to
    float rounding, and so is 1F1B's when ``hop`` is zero.  With a nonzero
    hop 1F1B runs longer than that: its interleaved boundary sends stall
    stages between forward and backward (+4% to +13% for ``t_f = 1 ms``,
    ``t_b = 2 ms``, 4 MB hops over 12.5 GB/s and ``m = 2p``,
    ``p = 2 … 32``).  The report carries a per-stage :class:`Timeline`.

    The replay is a pure function of its arguments, so the report is
    memoized through :func:`repro.cache.memoize` (``PRIMEPAR_CACHE*``
    knobs apply); a pickled report round-trips bit-exactly.
    ``graph_factory`` swaps in an alternative kernel-DAG executor (the
    golden regression suite passes the frozen pre-optimisation engine) and
    disables memoization.
    """
    from ..sim.kernel_graph import KernelGraph  # local: keep DAG shallow
    from .. import cache as diskcache

    p, m = plan.n_stages, plan.n_microbatches
    hop = link.transfer_time(boundary_bytes) if p > 1 else 0.0

    def replay(kg) -> PipelineReport:
        streams = [kg.stream(f"stage{s}") for s in range(p)]
        orders = [_stage_order(plan, s) for s in range(p)]
        done = [0] * p
        # Sends by the ``(phase, stage, microbatch)`` of the kernel waiting.
        sends: Dict[Tuple[str, int, int], int] = {}
        # Sweep the stages, adding each one's kernels in schedule order (a
        # stream runs in submission order) until the next waits on a send
        # not yet added; a kernel's own send follows it.  The schedule is
        # deadlock-free, so every sweep adds a kernel.
        while any(d < len(order) for d, order in zip(done, orders)):
            for s, order in enumerate(orders):
                while done[s] < len(order):
                    phase, i = order[done[s]]
                    forward = phase == "F"
                    waits = s > 0 if forward else s < p - 1
                    if waits and (phase, s, i) not in sends:
                        break
                    kernel = kg.add(
                        f"{phase}{i}@stage{s}", streams=[streams[s]],
                        deps=[sends[phase, s, i]] if waits else [],
                        duration=stage_forward if forward else stage_backward,
                        kind="forward" if forward else "backward",
                        op=f"mb{i}", phase=phase, device=s,
                    )
                    done[s] += 1
                    to = s + 1 if forward else s - 1
                    if 0 <= to < p:
                        sends[phase, to, i] = kg.add(
                            f"{phase.lower()}send{i}@stage{s}", deps=[kernel],
                            duration=hop, kind="pipe-send", op=f"mb{i}",
                            phase=phase, device=s,
                        )
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

    if graph_factory is not None:
        return replay(graph_factory())
    report, _ = diskcache.memoize(
        "pipesim",
        ("pipesim", 1, plan, stage_forward, stage_backward, boundary_bytes,
         link),
        lambda: replay(KernelGraph()),
        PipelineReport,
    )
    return report
