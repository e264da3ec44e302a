"""The frozen engines behind the live kernel-graph protocol.

The live :class:`~repro.sim.engine.KernelGraph` keeps its DAG in columns:
``len(kg)`` is its kernel count, ``kg.add_per_rank(...)`` appends one
kernel per rank in bulk, ``kg.add_dep(kernel, dep)`` goes through the
graph, and ``kg.spliceable(makespan)`` answers the splice check from its
per-stream tails.  The frozen engines (``legacy_engine``,
``legacy_faults``) keep one object per kernel.  :class:`FrozenProtocol`
gives them the same four calls over those objects (``add_per_rank`` as
one frozen ``add`` per rank), so the simulator and
the pipeline replay drive them unchanged, and :func:`splice_walk` — the
kernel walk the simulator ran before the engine kept columns — is the
splice oracle the live check is held to.
"""

from __future__ import annotations

from typing import Dict, Iterable

import legacy_engine
import legacy_faults


def splice_walk(kernels: Iterable, makespan: float) -> bool:
    """Whether a one-layer schedule may be tiled exactly, from its executed
    kernels: every stream's latest end is the makespan (a stream whose
    kernels all end at 0 does not count) and no streamless kernel outlasts
    it."""
    if makespan <= 0:
        return True
    last_end: Dict[str, float] = {}
    stream_max = 0.0
    for kernel in kernels:
        end = kernel.end_time
        for stream in kernel.streams:
            prev = last_end.get(stream.name, 0.0)
            if end > prev:
                last_end[stream.name] = end
        if not kernel.streams and end is not None and end > stream_max:
            stream_max = end
    if not last_end:
        return True
    if any(end != makespan for end in last_end.values()):
        return False
    return stream_max <= makespan


class PerRankAdds:
    """``add_per_rank`` as one ``add`` per rank: what the live graph's
    bulk append must equal, and the frozen engines' per-rank append."""

    def add_per_rank(self, name, lanes, duration, kind, op, phase) -> None:
        for rank, lane in enumerate(lanes):
            self.add(
                f"{name}[{rank}]", streams=lane, duration=duration,
                kind=kind, op=op, phase=phase, device=rank,
            )


class FrozenProtocol(PerRankAdds):
    """The live graph's kernel count, per-rank append, ``add_dep`` and
    splice check, over a frozen engine's kernel objects."""

    def __len__(self) -> int:
        return len(self.kernels)

    def add_dep(self, kernel, dep) -> None:
        kernel.add_dep(dep)

    def spliceable(self, makespan: float) -> bool:
        return splice_walk(self.kernels, makespan)


class _OrderedFlowSet:
    """Set API over an insertion-ordered dict (activation order)."""

    def __init__(self):
        self._flows = {}

    def add(self, flow):
        self._flows[flow] = None

    def discard(self, flow):
        self._flows.pop(flow, None)

    def __iter__(self):
        return iter(self._flows)

    def __contains__(self, flow):
        return flow in self._flows

    def __len__(self):
        return len(self._flows)

    def __bool__(self):
        return bool(self._flows)


class LegacyKernelGraph(FrozenProtocol, legacy_engine.KernelGraph):
    """The frozen pre-PR engine."""


class OrderedLegacyKernelGraph(LegacyKernelGraph):
    """The frozen pre-PR engine with its one unordered choice pinned.

    The pre-PR ``_rebalance`` iterates ``_active_flows`` — a plain ``set``,
    ordered by object id — when scheduling completions, so among flows that
    complete at the *same* timestamp the set's arbitrary permutation decides
    which finishes first and which absorbs a 1-ulp residual reschedule.
    Every permutation is a legal pre-PR execution; runs differ only by
    allocator layout.  For a reproducible golden baseline we pin that
    iteration to activation order (the deterministic order the optimised
    engine specifies), leaving every float operation of the frozen engine
    untouched.
    """

    def __init__(self):
        super().__init__()
        self._active_flows = _OrderedFlowSet()


class LegacyFaultyKernelGraph(
    FrozenProtocol, legacy_faults.FaultyKernelGraph
):
    """The frozen fault graph (stretches kernels as they are added, and
    runs once)."""
