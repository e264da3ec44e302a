"""Frozen copy of the fault-injecting kernel graph (commit b516239).

This module vendors ``repro.sim.faults.FaultyKernelGraph`` as it was while
it kept its own copy of the fair-share flush, reading flap-modulated
capacity through ``_capacity`` and parking zero-rate flows at ``inf``
behind an explicit ``rate <= 0`` test.  The golden suite
(``tests/test_golden_engine.py``) proves that the base engine's single
flush, driven by each link's ``available`` bandwidth, emits byte-identical
robustness reports.

The fault graph overrides the engine's private flush state, so the engine
core it subclasses (event queue, streams, shared links, flows, kernels and
``KernelGraph``) is vendored here too, verbatim from the same commit less
unused methods and reprs, together with the fault-kind constants.  The
reference therefore does not move when ``repro.sim.engine`` does.  The
live ``EventDrivenSimulator`` drives it through ``graph_factory`` and the
graph's public surface (``stream``, ``add``, ``kernels``, ``execute``,
``timeline``, ``link_stats``, ``device_busy_seconds``, ``perf_stats``);
if that surface changes, re-freeze this module against the new baseline.
Do not edit it otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterTopology, PathResources
from repro.sim.faults import FaultScenario, NicFlap
from repro.sim.timeline import KernelRecord, Timeline

COMPUTE_KINDS = frozenset({"compute", "forward", "backward"})
LINK_KINDS = frozenset({"redistribute", "allreduce"})

_Callback = Callable[[], None]


class IndexedEventQueue:
    """A binary heap of ``(when, seq, slot)`` with O(log n) reschedule.

    Attributes:
        pushes: Total heap insertions (telemetry).
        stale_drops: Superseded entries dropped on surfacing (telemetry).
    """

    __slots__ = (
        "_heap", "_seq", "_live", "_callbacks", "_free", "_next_slot",
        "pushes", "stale_drops",
    )

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = itertools.count()
        #: slot -> live ``(when, seq)`` key, or absent when cancelled/fired.
        self._live: dict = {}
        self._callbacks: dict = {}
        self._free: List[int] = []
        self._next_slot = 0
        self.pushes = 0
        self.stale_drops = 0

    def _claim_slot(self) -> int:
        if self._free:
            return self._free.pop()
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def schedule(self, when: float, callback: _Callback) -> int:
        """Enqueue ``callback`` at ``when``; returns the slot token."""
        slot = self._claim_slot()
        key = (when, next(self._seq))
        self._live[slot] = key
        self._callbacks[slot] = callback
        heapq.heappush(self._heap, (when, key[1], slot))
        self.pushes += 1
        return slot

    def reschedule(self, slot: int, when: float) -> None:
        """Move a pending event to ``when`` (new seq: orders as a fresh
        submission among equal timestamps, matching the pre-PR engine's
        last-reschedule-wins generation semantics)."""
        if slot not in self._live:
            raise KeyError(f"slot {slot} has no pending event")
        key = (when, next(self._seq))
        self._live[slot] = key
        heapq.heappush(self._heap, (when, key[1], slot))
        self.pushes += 1

    def peek_time(self) -> Optional[float]:
        """Earliest live event time, or ``None`` when empty."""
        while self._heap:
            when, seq, slot = self._heap[0]
            if self._live.get(slot) == (when, seq):
                return when
            heapq.heappop(self._heap)
            self.stale_drops += 1
        return None

    def pop(self) -> Tuple[float, _Callback]:
        """Remove and return the earliest live ``(when, callback)``."""
        while self._heap:
            when, seq, slot = heapq.heappop(self._heap)
            if self._live.get(slot) == (when, seq):
                callback = self._callbacks.pop(slot)
                del self._live[slot]
                self._free.append(slot)
                return when, callback
            self.stale_drops += 1
        raise IndexError("pop from an empty event queue")


class SimulationEngine:
    """A deterministic discrete-event loop: indexed event queue + clock.

    Determinism contract: events with equal timestamps run in submission
    order (ties broken by a monotonic sequence number, never by object
    identity), so a fixed scenario yields byte-identical traces across
    runs and Python versions.

    A *batch hook* may be installed with :meth:`set_batch_hook`; the run
    loop invokes it whenever the clock is about to advance past the
    current timestamp (or the queue drains).  The hook returns ``True``
    if it scheduled new work, in which case the queue is re-examined at
    the current time before the clock moves.  :class:`KernelGraph` uses
    this to flush deferred link-contention updates once per distinct
    timestamp.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.queue = IndexedEventQueue()
        self._batch_hook: Optional[Callable[[], bool]] = None

    def set_batch_hook(self, hook: Optional[Callable[[], bool]]) -> None:
        """Install ``hook`` to run before each clock advance (see class doc)."""
        self._batch_hook = hook

    def schedule(self, when: float, callback: Callable[[], None]) -> int:
        """Run ``callback`` at simulated time ``when`` (clamped to now)."""
        return self.queue.schedule(max(when, self.now), callback)

    def reschedule(self, slot: int, when: float) -> None:
        """Re-time a pending event (clamped to now); see the queue's doc."""
        self.queue.reschedule(slot, max(when, self.now))

    def run(self) -> None:
        """Drain the event queue, advancing the clock monotonically."""
        queue = self.queue
        while True:
            when = queue.peek_time()
            if when is None or when > self.now:
                if self._batch_hook is not None and self._batch_hook():
                    continue
                if when is None:
                    break
            when, callback = queue.pop()
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


class _SharedLink:
    """A bandwidth-sharing fabric resource (e.g. one node's NIC pool)."""

    __slots__ = ("key", "capacity", "flows", "bytes_total")

    def __init__(self, key: str, capacity: float) -> None:
        self.key = key
        self.capacity = capacity
        #: Active flows keyed by flow id — insertion-ordered, so iteration
        #: is deterministic (activation order), unlike a set of objects.
        self.flows: Dict[int, "_Flow"] = {}
        #: Bytes of every transfer routed through this resource.
        self.bytes_total = 0.0


class _Flow:
    """One in-flight transfer draining through shared link resources."""

    __slots__ = (
        "fid", "kernel", "remaining", "rate", "peak_rate", "resources",
        "last_update", "slot",
    )

    def __init__(
        self,
        fid: int,
        kernel: "SimKernel",
        n_bytes: float,
        peak_rate: float,
        resources: Sequence[_SharedLink],
    ) -> None:
        self.fid = fid
        self.kernel = kernel
        self.remaining = n_bytes
        self.peak_rate = peak_rate
        self.resources = tuple(resources)
        self.rate = 0.0
        self.last_update = 0.0
        #: Live completion-event slot in the indexed queue, or ``None``.
        self.slot: Optional[int] = None


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


class KernelGraph:
    """Builds a kernel DAG over streams/links and executes it to completion."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.kernels: List[SimKernel] = []
        self._streams: Dict[str, StreamResource] = {}
        self._links: Dict[str, _SharedLink] = {}
        #: Active flows in activation order (fid is monotonic).
        self._active: Dict[int, _Flow] = {}
        self._next_fid = 0
        self._executed = False
        # Deferred-contention state: links whose flow set changed and flows
        # activated since the last flush.
        self._dirty = False
        self._dirty_links: Dict[str, _SharedLink] = {}
        self._pending_rates: Dict[int, None] = {}
        # Online accumulators (replace post-hoc timeline scans).
        self._busy: Dict[int, float] = {}
        # Perf telemetry.
        self.flushes = 0
        self.rate_recomputes = 0
        self.rate_reuses = 0

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
        self.engine.set_batch_hook(self._flush_contention)
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

    def device_busy_seconds(self) -> Dict[int, float]:
        """Per-device occupied stream seconds, accumulated as kernels finish.

        Each device's recorded non-overlapped kernels run serially on its
        stream, so they finish in ``start`` order and this online sum adds
        the same durations in the same order as the post-hoc scan in
        :func:`~repro.sim.executor.device_busy_fractions` — the totals are
        bit-identical, without a pass over the timeline.
        """
        return dict(self._busy)

    def perf_stats(self) -> Dict[str, int]:
        """Engine work counters for this execution (see ``PERF_STAT_KEYS``)."""
        return {
            "contention_flushes": self.flushes,
            "rate_recomputes": self.rate_recomputes,
            "rate_reuses": self.rate_reuses,
            "queue_pushes": self.engine.queue.pushes,
            "queue_stale_drops": self.engine.queue.stale_drops,
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
        if kernel.record and not kernel.overlapped:
            elapsed = kernel.end_time - kernel.start_time
            if elapsed > 0:
                device = kernel.device
                self._busy[device] = self._busy.get(device, 0.0) + elapsed
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
        fid = self._next_fid
        self._next_fid += 1
        flow = _Flow(fid, kernel, n_bytes, path.stream_bandwidth, resources)
        # The per-message latency is a serial prelude before bytes flow.
        self.engine.schedule(
            self.engine.now + path.latency, lambda: self._activate(flow)
        )

    def _activate(self, flow: _Flow) -> None:
        """Join the fabric: update occupancy now, defer the rate solve."""
        flow.last_update = self.engine.now
        self._active[flow.fid] = flow
        for resource in flow.resources:
            resource.flows[flow.fid] = flow
            self._dirty_links[resource.key] = resource
        self._pending_rates[flow.fid] = None
        self._dirty = True

    def _flush_contention(self) -> bool:
        """Apply deferred occupancy changes: one fair-share solve per batch.

        Equivalent, bit for bit, to the cascade of global rebalances the
        original engine ran within one timestamp: same-timestamp rebalances
        are idempotent after the last one (zero-dt advances are exact
        no-ops, rates are pure functions of final occupancy, and the last
        completion reschedule wins), so a single flush at the batch
        boundary reproduces the final state.  Every active flow is advanced
        and its completion re-timed — the re-timed finish ``now + rem/rate``
        is what the original engine emitted even for flows whose rate did
        not change — but the fair-share minimisation itself runs only for
        flows on links whose occupancy changed.
        """
        if not self._dirty:
            return False
        self._dirty = False
        now = self.engine.now
        affected = self._pending_rates
        for link in self._dirty_links.values():
            for fid in link.flows:
                affected[fid] = None
        self._dirty_links = {}
        self._pending_rates = {}
        engine = self.engine
        for fid, flow in self._active.items():
            flow.remaining = max(
                flow.remaining - flow.rate * (now - flow.last_update), 0.0
            )
            flow.last_update = now
            if fid in affected:
                rate = flow.peak_rate
                for resource in flow.resources:
                    rate = min(rate, resource.capacity / len(resource.flows))
                flow.rate = rate
                self.rate_recomputes += 1
            else:
                self.rate_reuses += 1
            when = now + flow.remaining / flow.rate
            if flow.slot is None:
                flow.slot = engine.schedule(
                    when, lambda f=flow: self._flow_fired(f)
                )
            else:
                engine.reschedule(flow.slot, when)
        self.flushes += 1
        return True

    def _flow_fired(self, flow: _Flow) -> None:
        flow.slot = None
        if self._dirty:
            # Occupancy changed at this timestamp after the completion was
            # timed: the original engine's intervening rebalance would have
            # superseded this event.  Flush instead — it re-times this flow
            # (and everyone else) at the recomputed finish.
            self._flush_contention()
            return
        self._flow_done(flow)

    def _flow_done(self, flow: _Flow) -> None:
        del self._active[flow.fid]
        for resource in flow.resources:
            del resource.flows[flow.fid]
            self._dirty_links[resource.key] = resource
        self._dirty = True
        self._finish(flow.kernel)


class FaultyKernelGraph(KernelGraph):
    """A :class:`KernelGraph` executing under one :class:`FaultScenario`.

    * Stragglers stretch compute-kind kernel durations on their device.
    * Degraded links scale the capacity of the node's shared NIC pool and
      stretch bandwidth-bound collective kernels on the node's devices by
      ``1 / factor`` (see ``LINK_KINDS``).
    * NIC flaps schedule capacity-change events: while active, the pool
      runs at ``reroute_factor`` of (possibly already degraded) capacity;
      at factor ``0`` in-flight flows stall (completion parked at ``inf``)
      until the restore event re-times them.

    With an empty scenario every path below is a bit-exact pass-through of
    the base class — asserted against the frozen legacy engine by the
    golden suite.
    """

    def __init__(
        self, scenario: FaultScenario, topology: ClusterTopology
    ) -> None:
        super().__init__()
        self.scenario = scenario
        self._slowdown = {s.device: s.slowdown for s in scenario.stragglers}
        self._degraded = {
            f"nic:node{d.node}": d.factor for d in scenario.degraded_links
        }
        #: Degraded-node collective stretch per device (multi-node only:
        #: single-node clusters have no NIC in any collective's path).
        self._link_stretch: Dict[int, float] = {}
        if topology.n_nodes > 1:
            by_node = {d.node: d.factor for d in scenario.degraded_links}
            for device in range(topology.n_devices):
                factor = by_node.get(topology.node_of(device))
                if factor is not None:
                    self._link_stretch[device] = 1.0 / factor
        #: Active flap factors per link key (a list: flaps may overlap).
        self._flap_active: Dict[str, List[float]] = {}
        self._flaps = [
            (f"nic:node{f.node}", f) for f in scenario.nic_flaps
        ]

    # -- construction overrides ----------------------------------------

    def add(self, name, **kwargs):
        kind = kwargs.get("kind", "")
        duration = kwargs.get("duration", 0.0)
        if duration > 0:
            device = kwargs.get("device", 0)
            if kind in COMPUTE_KINDS:
                slow = self._slowdown.get(device)
                if slow is not None:
                    kwargs = {**kwargs, "duration": duration * slow}
            elif kind in LINK_KINDS:
                stretch = self._link_stretch.get(device)
                if stretch is not None:
                    kwargs = {**kwargs, "duration": duration * stretch}
        return super().add(name, **kwargs)

    def _link(self, key: str, capacity: float) -> _SharedLink:
        factor = self._degraded.get(key)
        if factor is not None and key not in self._links:
            capacity = capacity * factor
        return super()._link(key, capacity)

    # -- execution overrides -------------------------------------------

    def execute(self) -> float:
        for key, flap in self._flaps:
            self.engine.schedule(
                flap.start, lambda k=key, f=flap: self._flap_edge(k, f, True)
            )
            self.engine.schedule(
                flap.start + flap.duration,
                lambda k=key, f=flap: self._flap_edge(k, f, False),
            )
        return super().execute()

    def _flap_edge(self, key: str, flap: NicFlap, starting: bool) -> None:
        active = self._flap_active.setdefault(key, [])
        if starting:
            active.append(flap.reroute_factor)
        else:
            active.remove(flap.reroute_factor)
        link = self._links.get(key)
        if link is not None:
            self._dirty_links[key] = link
            self._dirty = True

    def _capacity(self, resource: _SharedLink) -> float:
        active = self._flap_active.get(resource.key)
        if not active:
            return resource.capacity
        return resource.capacity * min(active)

    def _flush_contention(self) -> bool:
        """The base flush, with flap-aware capacity and stall handling.

        Identical to :meth:`KernelGraph._flush_contention` except that the
        fair-share solve reads :meth:`_capacity` (so active flaps modulate
        the pool) and a zero rate parks the completion at ``inf`` — always
        superseded, because the flap's restore event is already scheduled
        and re-times every affected flow.
        """
        if not self._dirty:
            return False
        self._dirty = False
        now = self.engine.now
        affected = self._pending_rates
        for link in self._dirty_links.values():
            for fid in link.flows:
                affected[fid] = None
        self._dirty_links = {}
        self._pending_rates = {}
        engine = self.engine
        for fid, flow in self._active.items():
            flow.remaining = max(
                flow.remaining - flow.rate * (now - flow.last_update), 0.0
            )
            flow.last_update = now
            if fid in affected:
                rate = flow.peak_rate
                for resource in flow.resources:
                    rate = min(
                        rate, self._capacity(resource) / len(resource.flows)
                    )
                flow.rate = rate
                self.rate_recomputes += 1
            else:
                self.rate_reuses += 1
            if flow.rate <= 0.0:
                when = math.inf
            else:
                when = now + flow.remaining / flow.rate
            if flow.slot is None:
                flow.slot = engine.schedule(
                    when, lambda f=flow: self._flow_fired(f)
                )
            else:
                engine.reschedule(flow.slot, when)
        self.flushes += 1
        return True
