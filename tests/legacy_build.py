"""Frozen copy of the marker-emitting plan build (commit 9388c83).

Up to that commit :meth:`EventDrivenSimulator._lower_phase` added a
zero-duration step-begin marker on every rank at every temporal step,
whether or not it anchored a ring send or waited on one.  The build now
emits only the markers that constrain the schedule;
``tests/test_legacy_build.py`` holds it to this copy, kernel by kernel.
:func:`marker_build` swaps the frozen method in.  Do not edit except to
re-freeze against a new baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

from repro.core.dims import Phase
from repro.sim.engine import (
    EventDrivenSimulator,
    KernelGraph,
    PhaseLowering,
    SimKernel,
    StreamResource,
)


def _lower_phase(
    self,
    kg: KernelGraph,
    streams: Sequence[StreamResource],
    tails: Dict[int, List[SimKernel]],
    op: str,
    name: str,
    priced: PhaseLowering,
    phase: Phase,
) -> None:
    """Per-device compute steps with overlapped ring sends on links.

    ``op`` names the operator on the kernel records; ``name`` prefixes
    the kernel names (it carries the layer tag in multi-layer replays).
    """
    step_compute = priced.step_compute
    ring_schedule = priced.ring
    if step_compute <= 0 and not ring_schedule:
        return
    n_ranks = len(streams)
    phase_tag = phase.value
    inbound_prev: Dict[int, List[SimKernel]] = {r: [] for r in range(n_ranks)}
    for t in range(priced.total_steps):
        # Step-begin markers: device r enters step t once its previous
        # step's compute (stream FIFO) and inbound double-buffer
        # transfers are done.  Ring sends overlapping step t start here.
        markers: List[SimKernel] = []
        for rank, stream in enumerate(streams):
            if t == 0:
                deps = tails[rank]
                tails[rank] = []
            else:
                deps = inbound_prev[rank]
            markers.append(
                kg.add(
                    f"{name}.{phase_tag}.begin{t}[{rank}]",
                    streams=[stream],
                    deps=deps,
                    record=False,
                )
            )
        inbound_now: Dict[int, List[SimKernel]] = {r: [] for r in range(n_ranks)}
        for tensor, src, dst, n_bytes in ring_schedule.get(t, ()):
            transfer = kg.add(
                f"{name}.{phase_tag}.ring{t}.{tensor}[{src}->{dst}]",
                deps=[markers[src]],
                transfer=(n_bytes, self.topology.path_resources(src, dst)),
                kind="ring",
                op=op,
                phase=phase_tag,
                device=src,
                overlapped=True,
            )
            inbound_now[dst].append(transfer)
        if step_compute > 0:
            for rank, stream in enumerate(streams):
                kg.add(
                    f"{name}.{phase_tag}.step{t}[{rank}]",
                    streams=[stream],
                    duration=step_compute,
                    kind="compute",
                    op=op,
                    phase=phase_tag,
                    device=rank,
                )
        inbound_prev = inbound_now
    for rank in range(n_ranks):
        tails[rank].extend(inbound_prev[rank])
    self._collective(
        kg, streams, tails, name, phase_tag, "allreduce",
        priced.allreduce,
    )


@contextmanager
def marker_build() -> Iterator[None]:
    """Every :class:`EventDrivenSimulator` builds with the frozen
    ``_lower_phase`` inside the block."""
    current = EventDrivenSimulator._lower_phase
    EventDrivenSimulator._lower_phase = _lower_phase
    try:
        yield
    finally:
        EventDrivenSimulator._lower_phase = current
