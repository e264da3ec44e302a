"""Frozen copy of the pre-PR discrete-event engine core (commit 577cee8).

This module vendors the PRE-optimisation ``SimulationEngine`` /
``KernelGraph`` fluid-contention machinery verbatim so the golden
regression suite (``tests/test_golden_engine.py``) can prove the optimised
engine in ``repro.sim.engine`` emits bit-identical ``IterationReport``s.
Do not edit except to re-freeze against a new baseline.
"""


from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import PathResources
from repro.core.dims import Phase
from repro.core.cost.communication import CommunicationCostModel
from repro.core.cost.compute import ComputeCostModel
from repro.core.cost.inter import InterOperatorCostModel
from repro.core.cost.memory import MemoryCostModel
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.obs.metrics import counter, gauge
from repro.obs.spans import span
from repro.sim.executor import IterationReport, build_utilization, samples_per_second
from repro.sim.timeline import KernelRecord, Timeline


class SimulationEngine:
    """A deterministic discrete-event loop: event heap + simulated clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``when`` (clamped to now)."""
        heapq.heappush(self._heap, (max(when, self.now), next(self._seq), callback))

    def run(self) -> None:
        """Drain the event heap, advancing the clock monotonically."""
        while self._heap:
            when, _, callback = heapq.heappop(self._heap)
            self.now = when
            callback()


class StreamResource:
    """A serial FIFO execution stream (device compute stream, pipeline stage).

    Kernels run in submission order; the stream is busy while one executes.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: deque = deque()
        self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamResource({self.name!r}, depth={len(self.queue)})"


class _SharedLink:
    """A bandwidth-sharing fabric resource (e.g. one node's NIC pool)."""

    __slots__ = ("key", "capacity", "flows", "bytes_total")

    def __init__(self, key: str, capacity: float) -> None:
        self.key = key
        self.capacity = capacity
        self.flows: set = set()
        #: Bytes of every transfer routed through this resource.
        self.bytes_total = 0.0


class _Flow:
    """One in-flight transfer draining through shared link resources."""

    __slots__ = (
        "kernel", "remaining", "rate", "peak_rate", "resources",
        "last_update", "generation",
    )

    def __init__(
        self,
        kernel: "SimKernel",
        n_bytes: float,
        peak_rate: float,
        resources: Sequence[_SharedLink],
    ) -> None:
        self.kernel = kernel
        self.remaining = n_bytes
        self.peak_rate = peak_rate
        self.resources = tuple(resources)
        self.rate = 0.0
        self.last_update = 0.0
        self.generation = 0


class SimKernel:
    """A dependency-driven task on the simulated cluster.

    A kernel starts once every dependency has finished and it is at the head
    of each of its streams; it then either runs for a fixed ``duration`` or,
    if it carries a ``transfer``, drains through the fabric's shared link
    resources at whatever bandwidth contention leaves it.
    """

    __slots__ = (
        "name", "kind", "op", "phase", "device", "duration", "overlapped",
        "record", "transfer", "deps", "streams", "started", "finished",
        "start_time", "end_time", "_succs", "_pending",
    )

    def __init__(
        self,
        name: str,
        *,
        duration: float = 0.0,
        kind: str = "",
        op: str = "",
        phase: str = "-",
        device: int = 0,
        overlapped: bool = False,
        record: bool = True,
        transfer: Optional[Tuple[float, PathResources]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.op = op
        self.phase = phase
        self.device = device
        self.duration = duration
        self.overlapped = overlapped
        self.record = record
        self.transfer = transfer
        self.deps: List[SimKernel] = []
        self.streams: List[StreamResource] = []
        self.started = False
        self.finished = False
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._succs: List[SimKernel] = []
        self._pending = 0

    def add_dep(self, other: "SimKernel") -> None:
        """Require ``other`` to finish before this kernel may start."""
        self.deps.append(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimKernel({self.name!r})"


class KernelGraph:
    """Builds a kernel DAG over streams/links and executes it to completion."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.kernels: List[SimKernel] = []
        self._streams: Dict[str, StreamResource] = {}
        self._links: Dict[str, _SharedLink] = {}
        self._active_flows: set = set()
        self._executed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def stream(self, name: str) -> StreamResource:
        """Get or create the serial stream named ``name``."""
        if name not in self._streams:
            self._streams[name] = StreamResource(name)
        return self._streams[name]

    def add(
        self,
        name: str,
        *,
        streams: Sequence[StreamResource] = (),
        deps: Sequence[SimKernel] = (),
        duration: float = 0.0,
        transfer: Optional[Tuple[float, PathResources]] = None,
        kind: str = "",
        op: str = "",
        phase: str = "-",
        device: int = 0,
        overlapped: bool = False,
        record: bool = True,
    ) -> SimKernel:
        """Create a kernel, enqueue it on its streams, wire its deps."""
        kernel = SimKernel(
            name,
            duration=duration,
            kind=kind,
            op=op,
            phase=phase,
            device=device,
            overlapped=overlapped,
            record=record,
            transfer=transfer,
        )
        kernel.streams = list(streams)
        kernel.deps = list(deps)
        for stream in kernel.streams:
            stream.queue.append(kernel)
        self.kernels.append(kernel)
        return kernel

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self) -> float:
        """Run every kernel; returns the makespan (last finish time).

        Raises:
            RuntimeError: If the DAG deadlocks (a dependency cycle, or
                stream submission orders inconsistent with the deps).
        """
        if self._executed:
            raise RuntimeError("KernelGraph.execute() may only run once")
        self._executed = True
        for kernel in self.kernels:
            kernel._pending = len(kernel.deps)
            for dep in kernel.deps:
                dep._succs.append(kernel)
        for kernel in self.kernels:
            self._maybe_start(kernel)
        self.engine.run()
        stuck = [k.name for k in self.kernels if not k.finished]
        if stuck:
            raise RuntimeError(
                f"kernel DAG deadlocked; {len(stuck)} kernels never ran "
                f"(first: {stuck[:5]})"
            )
        return max((k.end_time for k in self.kernels), default=0.0)

    def timeline(self) -> Timeline:
        """The executed schedule as a :class:`Timeline` (per-device records)."""
        records = [
            KernelRecord(
                op=k.op,
                phase=k.phase,
                kind=k.kind,
                start=k.start_time,
                duration=k.end_time - k.start_time,
                overlapped=k.overlapped,
                device=k.device,
            )
            for k in self.kernels
            if k.record and k.finished and k.end_time > k.start_time
        ]
        records.sort(key=lambda r: (r.start, r.device, r.kind))
        makespan = max((k.end_time for k in self.kernels if k.finished), default=0.0)
        return Timeline(records=records, clock=makespan)

    def link_stats(self) -> Dict[str, Tuple[float, float]]:
        """Per shared-link ``(bytes transferred, capacity bytes/s)``."""
        return {
            key: (link.bytes_total, link.capacity)
            for key, link in self._links.items()
        }

    # ------------------------------------------------------------------
    # kernel lifecycle
    # ------------------------------------------------------------------

    def _maybe_start(self, kernel: SimKernel) -> None:
        if kernel.started or kernel._pending:
            return
        for stream in kernel.streams:
            if stream.busy or not stream.queue or stream.queue[0] is not kernel:
                return
        kernel.started = True
        kernel.start_time = self.engine.now
        for stream in kernel.streams:
            stream.busy = True
        if kernel.transfer is not None:
            self._start_transfer(kernel)
        else:
            self.engine.schedule(
                self.engine.now + kernel.duration, lambda: self._finish(kernel)
            )

    def _finish(self, kernel: SimKernel) -> None:
        kernel.finished = True
        kernel.end_time = self.engine.now
        candidates: List[SimKernel] = []
        for stream in kernel.streams:
            stream.busy = False
            head = stream.queue.popleft()
            assert head is kernel, "stream FIFO corrupted"
            if stream.queue:
                candidates.append(stream.queue[0])
        for succ in kernel._succs:
            succ._pending -= 1
            candidates.append(succ)
        for candidate in candidates:
            self._maybe_start(candidate)

    # ------------------------------------------------------------------
    # fluid transfers over shared links
    # ------------------------------------------------------------------

    def _link(self, key: str, capacity: float) -> _SharedLink:
        if key not in self._links:
            self._links[key] = _SharedLink(key, capacity)
        return self._links[key]

    def _start_transfer(self, kernel: SimKernel) -> None:
        n_bytes, path = kernel.transfer
        if n_bytes <= 0:
            self._finish(kernel)
            return
        resources = [self._link(key, cap) for key, cap in path.shared]
        for resource in resources:
            resource.bytes_total += n_bytes
        flow = _Flow(kernel, n_bytes, path.stream_bandwidth, resources)
        # The per-message latency is a serial prelude before bytes flow.
        self.engine.schedule(
            self.engine.now + path.latency, lambda: self._activate(flow)
        )

    def _activate(self, flow: _Flow) -> None:
        flow.last_update = self.engine.now
        self._active_flows.add(flow)
        for resource in flow.resources:
            resource.flows.add(flow)
        self._rebalance()

    def _rebalance(self) -> None:
        """Re-share link bandwidth among active flows; reschedule finishes."""
        now = self.engine.now
        for flow in self._active_flows:
            flow.remaining = max(
                flow.remaining - flow.rate * (now - flow.last_update), 0.0
            )
            flow.last_update = now
        for flow in self._active_flows:
            rate = flow.peak_rate
            for resource in flow.resources:
                rate = min(rate, resource.capacity / len(resource.flows))
            flow.rate = rate
            flow.generation += 1
            generation = flow.generation
            self.engine.schedule(
                now + flow.remaining / rate,
                lambda f=flow, g=generation: self._flow_done(f, g),
            )

    def _flow_done(self, flow: _Flow, generation: int) -> None:
        if flow.generation != generation or flow not in self._active_flows:
            return
        self._active_flows.discard(flow)
        for resource in flow.resources:
            resource.flows.discard(flow)
        self._finish(flow.kernel)
        if self._active_flows:
            self._rebalance()


