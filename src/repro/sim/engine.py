"""Discrete-event simulation engine with per-device streams and link contention.

The repo's one plan simulator.  Kernels are priced by the paper's cost
models (Eq. 7–9); this module replays them on the simulated cluster:

* :class:`SimulationEngine` — an indexed event queue and a simulated clock;
* :class:`StreamResource` — a serial FIFO execution stream (one per device
  compute stream, one per pipeline stage);
* shared fabric links (node NIC pools from
  :meth:`~repro.cluster.topology.ClusterTopology.path_resources`) modelled as
  bandwidth-sharing fluid resources — concurrent transfers touching a node's
  NIC pool, in either direction, divide its capacity;
* :class:`SimKernel` — a dependency-driven task occupying streams and/or
  carrying a point-to-point transfer;
* :class:`KernelGraph` — builds a kernel DAG and executes it to completion;
* :class:`EventDrivenSimulator` — lowers a partition plan to a kernel DAG
  (per-device compute steps, overlapped ring sends on real link resources,
  all-reduce/redistribution barrier kernels) and produces an
  :class:`~repro.sim.executor.IterationReport`.

On contention-free fabrics (intra-node NVLink rings, torus neighbours, plans
without the temporal primitive) the replayed latency equals Eq. 10's
predicted latency (``explain_plan(..., alpha=0)["total_cost"]``).  Where
cross-node rings share a NIC the fluid model counts *both* directions
against the pool — Eq. 7 prices only ``max(out, in)`` — so genuinely
contended plans come out strictly slower, which is the fidelity gap this
engine exists to expose.

Performance model (everything below preserves emitted timestamps bit for
bit; ``tests/test_golden_engine.py`` holds the engine to that against a
frozen copy of the original implementation):

* **Batched incremental contention.**  The original engine re-solved the
  max-min fair-share allocation globally on every flow arrival and
  departure.  Arrivals and departures now only mark their links dirty; the
  allocation is flushed once per distinct timestamp (and, exactly as the
  old per-event rebalance did, before a flow completion may fire after a
  same-timestamp occupancy change).  Within a flush, every active flow's
  residual bytes are advanced and its completion re-timed — both are
  mandatory for bit-exact timestamps — but the fair-share rate itself is
  recomputed only for flows touching a dirty link; unaffected flows keep
  their rate, which a global recompute would reproduce bit-identically
  anyway (it is a pure function of unchanged link occupancy).
* **Indexed event queue.**  Completion re-timing goes through
  :class:`~repro.sim.eventq.IndexedEventQueue` — a lazy-deletion heap with
  one live entry per flow — instead of per-flow generation counters
  filtering an ever-growing heap.
* **Determinism.**  Equal-timestamp events fire in submission order
  (monotonic sequence numbers); flows are iterated in activation order
  (insertion-ordered dicts keyed by a monotonic flow id), never in set
  order.  Traces for a fixed scenario are byte-stable across runs and
  Python versions.
* **Verified layer splicing and report memoization.**
  :meth:`EventDrivenSimulator.run_model` simulates one transformer layer
  and splices it ``n_layers`` times only after verifying the layer
  boundary is synchronising (every device stream ends exactly at the
  makespan, so no contention or slack crosses the boundary); otherwise it
  falls back to replaying the full layer stack through the event engine.
  A spliced report keeps the one-layer timeline and tiles it only on
  demand (:meth:`~repro.sim.executor.IterationReport.full_timeline`).
  Reports are additionally memoized on disk through :mod:`repro.sim.simcache`
  (the ``PRIMEPAR_CACHE*`` knobs apply), with cached hits re-emitting the
  telemetry of the run they replace.
* **Lower once, build once, re-time per scenario.**  Every cost term a
  replay needs (Eq. 7 step compute, sized ring transfers, all-reduce and
  layernorm extras, Eq. 8–9 redistribution, the memory terms) depends only
  on the graph, the plan and the fabric, so :meth:`EventDrivenSimulator.lower`
  prices them once into a picklable :class:`PlanLowering`, and
  :meth:`EventDrivenSimulator.build` turns it into a kernel DAG whose
  kernels keep their priced durations.  Faults change durations and link
  capacities, not the DAG's shape: :meth:`KernelGraph.execute` resets the
  run state and applies the graph's one duration rule
  (:meth:`KernelGraph.run_duration`) as kernels start, so the fault layer
  builds each DAG shape once per sweep and re-executes it per scenario.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..cluster.profiler import FabricProfiler
from ..cluster.topology import PathResources
from ..core.dims import ALL_PHASES, Phase
from ..core.cost.communication import CommunicationCostModel
from ..core.cost.compute import ComputeCostModel
from ..core.cost.inter import InterOperatorCostModel
from ..core.cost.memory import MemoryCostModel
from ..core.spec import PartitionSpec
from ..graph.graph import ComputationGraph
from ..obs.metrics import counter, gauge
from ..obs.reqtrace import trace_event
from ..obs.spans import span
from . import simcache
from .eventq import IndexedEventQueue
from .executor import (
    IterationReport,
    build_utilization,
    record_utilization_metrics,
    samples_per_second,
)
from .memory_tracker import track_iteration
from .timeline import KernelRecord, Timeline

_R = TypeVar("_R")

#: Perf-stat keys every optimised KernelGraph reports (see ``perf_stats``).
PERF_STAT_KEYS = (
    "contention_flushes",
    "rate_recomputes",
    "rate_reuses",
    "queue_pushes",
    "queue_stale_drops",
)


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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamResource({self.name!r}, depth={len(self.queue)})"


class _SharedLink:
    """A bandwidth-sharing fabric resource (e.g. one node's NIC pool)."""

    __slots__ = ("key", "capacity", "available", "flows", "bytes_total")

    def __init__(self, key: str, capacity: float) -> None:
        self.key = key
        self.capacity = capacity
        #: Bandwidth the fair-share solve divides: ``capacity`` unless a
        #: fault (see :class:`~repro.sim.faults.FaultyKernelGraph`) cuts it.
        self.available = capacity
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
    of each of its streams; it then either runs for its graph's
    :meth:`~KernelGraph.run_duration` of the priced ``duration`` or, if it
    carries a ``transfer``, drains through the fabric's shared link
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
    """Builds a kernel DAG over streams/links and executes it to completion.

    The DAG (kernels, their deps and stream order) is built once; each
    :meth:`execute` starts from a fresh run state, so a graph may be
    executed again — e.g. after a fault graph is re-timed for another
    scenario — and yields what a freshly built copy would.
    """

    def __init__(self) -> None:
        self.kernels: List[SimKernel] = []
        self._streams: Dict[str, StreamResource] = {}
        self._reset()

    def _reset(self) -> None:
        """Fresh run state: clock and queue, links, flows and counters."""
        self.engine = SimulationEngine()
        self._links: Dict[str, _SharedLink] = {}
        #: Active flows in activation order (fid is monotonic).
        self._active: Dict[int, _Flow] = {}
        self._next_fid = 0
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
        """Create a kernel on its streams (in submission order), with deps."""
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
        self.kernels.append(kernel)
        return kernel

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self) -> float:
        """Run every kernel from a fresh run state; returns the makespan.

        Resets the clock, event queue, links, flows and counters, every
        kernel's start/finish/pending/successor state and the stream
        FIFOs (refilled in submission order), so a re-execution equals the
        first run of a freshly built graph.

        Raises:
            RuntimeError: If the DAG deadlocks (a dependency cycle, or
                stream submission orders inconsistent with the deps).
        """
        self._reset()
        self.engine.set_batch_hook(self._flush_contention)
        for stream in self._streams.values():
            stream.queue.clear()
            stream.busy = False
        for kernel in self.kernels:
            kernel.started = kernel.finished = False
            kernel.start_time = kernel.end_time = None
            kernel._pending = len(kernel.deps)
            kernel._succs = []
            for stream in kernel.streams:
                stream.queue.append(kernel)
        for kernel in self.kernels:
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

    def run_duration(self, kernel: SimKernel) -> float:
        """The duration rule: how long ``kernel`` runs in this execution.

        The stock graph runs every kernel for its priced ``duration``; a
        fault graph stretches it (see
        :class:`~repro.sim.faults.FaultyKernelGraph`).
        """
        return kernel.duration

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
                self.engine.now + self.run_duration(kernel),
                lambda: self._finish(kernel),
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
        flows on links whose occupancy or available bandwidth changed.  A
        flow whose link has no bandwidth left (a fault's zero rate) parks
        its completion at ``inf`` until a later flush re-times it.
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
                    rate = min(rate, resource.available / len(resource.flows))
                flow.rate = rate
                self.rate_recomputes += 1
            else:
                self.rate_reuses += 1
            try:
                when = now + flow.remaining / flow.rate
            except ZeroDivisionError:
                when = math.inf
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


@dataclass(frozen=True)
class PhaseLowering:
    """The priced terms of one ``(operator, phase)``.

    ``ring`` maps a temporal step to the real point-to-point sends that
    overlap it, ``(tensor, src rank, dst rank, bytes)`` — zero-byte and
    self sends are dropped here, exactly as kernel emission skips them.
    """

    step_compute: float
    total_steps: int
    ring: Mapping[int, Tuple[Tuple[str, int, int, float], ...]]
    allreduce: float


@dataclass(frozen=True)
class PlanLowering:
    """Every cost term an event replay of one ``(graph, plan)`` reads.

    Built by :meth:`EventDrivenSimulator.lower`.  The terms depend only on
    the graph, the plan and the fabric (not on faults, which act on kernel
    durations and link capacities after pricing), so one lowering serves
    every replay of a robustness sweep and pickles into worker payloads.
    """

    #: ``edge.key() -> (forward, backward)`` redistribution seconds.
    edge_costs: Mapping[Tuple[str, str, str], Tuple[float, float]]
    phases: Mapping[Tuple[str, Phase], PhaseLowering]
    layernorm_extras: Mapping[str, float]
    #: One layer's static per-device memory (``MemoryCostModel.plan_memory``).
    plan_memory: float
    #: One layer's tracked watermark (``track_iteration``) and its makeup.
    watermark_peak: float
    watermark_composition: Mapping[str, float]


class EventDrivenSimulator:
    """Replays partition plans on the simulated cluster.

    Lowers a partition plan to a kernel DAG — per-device compute step
    kernels, ring sends on the topology's link resources, all-reduce and
    redistribution barrier kernels — executes it on the discrete-event
    engine, and reports the same :class:`IterationReport` quantities.

    Args:
        profiler: Fabric profiler providing the cluster and cost models.
        graph_factory: Constructor for the kernel-DAG executor; the golden
            regression suite swaps in the frozen pre-optimisation engine,
            the fault layer a fault-injecting graph.
        use_disk_cache: Memoize :class:`IterationReport` results through
            :mod:`repro.sim.simcache` (stock :class:`KernelGraph` only: a
            custom graph's reports are not the stock ones).
    """

    def __init__(
        self,
        profiler: FabricProfiler,
        graph_factory: Callable[[], KernelGraph] = KernelGraph,
        use_disk_cache: bool = True,
    ) -> None:
        self.profiler = profiler
        self.topology = profiler.topology
        self.compute = ComputeCostModel(profiler.topology.device)
        self.communication = CommunicationCostModel(profiler)
        self.inter = InterOperatorCostModel(profiler)
        self.memory = MemoryCostModel()
        self.graph_factory = graph_factory
        self.use_disk_cache = use_disk_cache
        #: The last lowering built, as ``(graph, specs in node order,
        #: lowering)``; see :meth:`lower`.
        self._lowered: Optional[
            Tuple[ComputationGraph, Tuple[PartitionSpec, ...], PlanLowering]
        ] = None

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def lower(
        self, graph: ComputationGraph, plan: Mapping[str, PartitionSpec]
    ) -> PlanLowering:
        """Price every cost term a replay of ``plan`` on ``graph`` reads.

        The last lowering is kept: calling again with the same graph object
        and equal specs returns it without re-pricing, so a fault sweep
        whose nominal replay missed the report cache reuses the nominal's
        lowering.
        """
        specs = tuple(plan[node.name] for node in graph.nodes)
        if self._lowered is not None:
            last_graph, last_specs, lowering = self._lowered
            if last_graph is graph and last_specs == specs:
                return lowering
        started = time.perf_counter()
        with span("sim.lower", ops=len(graph.nodes), edges=len(graph.edges)):
            edge_costs = {
                edge.key(): self.inter.edge_costs(
                    edge,
                    graph.node(edge.src),
                    plan[edge.src],
                    graph.node(edge.dst),
                    plan[edge.dst],
                )[1:]
                for edge in graph.edges
            }
            phases: Dict[Tuple[str, Phase], PhaseLowering] = {}
            extras: Dict[str, float] = {}
            for node in graph.nodes:
                spec = plan[node.name]
                for phase in ALL_PHASES:
                    phases[node.name, phase] = self._price_phase(
                        node, spec, phase
                    )
                extras[node.name] = self.communication.layernorm_extras(
                    node, spec
                )
            watermark = track_iteration(graph, plan)
            lowering = PlanLowering(
                edge_costs=edge_costs,
                phases=phases,
                layernorm_extras=extras,
                plan_memory=self.memory.plan_memory(zip(graph.nodes, specs)),
                watermark_peak=watermark.peak,
                watermark_composition=watermark.composition_at_peak(),
            )
        counter("sim.lowerings").inc()
        trace_event(
            "sim.lower", ops=len(graph.nodes),
            seconds=time.perf_counter() - started,
        )
        self._lowered = (graph, specs, lowering)
        return lowering

    def _price_phase(
        self, node, spec: PartitionSpec, phase: Phase
    ) -> PhaseLowering:
        """Step compute, real ring sends and all-reduce of one phase."""
        step_compute = self.compute.step_latency(node, spec, phase)
        ring = {}
        for step, entries in self.communication.ring_phase_transfers(
            node, spec, phase
        ).items():
            sends = tuple(e for e in entries if e[3] > 0 and e[1] != e[2])
            if sends:
                ring[step] = sends
        # A phase with neither compute nor ring traffic emits no kernels,
        # so its all-reduce is never priced (nor its profiler model fitted).
        allreduce = (
            self.communication.allreduce_latency(node, spec, phase)
            if step_compute > 0 or ring else 0.0
        )
        return PhaseLowering(step_compute, spec.total_steps, ring, allreduce)

    # ------------------------------------------------------------------
    # single iteration
    # ------------------------------------------------------------------

    def run(
        self,
        graph: ComputationGraph,
        plan: Mapping[str, PartitionSpec],
        global_batch: int,
    ) -> IterationReport:
        """Simulate one iteration of ``graph`` under ``plan`` event-driven."""
        with span("sim.run", devices=self.topology.n_devices):
            report, _ = self._replay(graph, plan, global_batch, 1)
            return report

    def run_model(
        self,
        graph: ComputationGraph,
        plan: Mapping[str, PartitionSpec],
        global_batch: int,
        n_layers: int,
    ) -> IterationReport:
        """Scale a one-layer event-driven simulation to ``n_layers`` layers.

        The one-layer schedule is spliced (tiled with time offsets) only
        when its boundary is verified synchronising — every device stream
        ends exactly at the makespan, so neither slack nor link contention
        can couple adjacent layers.  Otherwise the full layer stack is
        replayed through the event engine (see :meth:`run_layers`).  The
        plan is lowered on the first replay that misses the report cache.
        """
        return self.run_layers(
            n_layers,
            lambda layers: self._replay(graph, plan, global_batch, layers),
            lambda single: single.scaled_to_layers(n_layers, global_batch),
        )

    def run_layers(
        self,
        n_layers: int,
        replay: Callable[[int], Tuple[_R, bool]],
        tile: Callable[[_R], _R],
        force_replay: bool = False,
    ) -> _R:
        """The splice policy of :meth:`run_model`, over any replay result.

        ``replay(k)`` replays ``k`` layers and returns ``(result,
        spliceable)``; ``tile(result)`` scales a spliceable one-layer result
        to ``n_layers``.  ``force_replay`` skips the one-layer probe and
        replays the full stack — the fault layer needs this whenever
        time-varying faults (NIC flaps) make the one-layer schedule
        non-representative.  :meth:`run_model` replays into reports, the
        fault layer into bare makespans: one policy, one ``sim.splice``
        count.
        """
        with span("sim.run", devices=self.topology.n_devices):
            if force_replay and n_layers > 1:
                counter("sim.splice", outcome="forced_replay").inc()
            else:
                single, spliceable = replay(1)
                if n_layers <= 1:
                    return single
                if spliceable:
                    counter("sim.splice", outcome="spliced").inc()
                    return tile(single)
                counter("sim.splice", outcome="replayed").inc()
            return replay(n_layers)[0]

    # ------------------------------------------------------------------
    # cached entry points
    # ------------------------------------------------------------------

    def _cache_key(self, graph, plan, global_batch, n_layers) -> Optional[str]:
        if not self.use_disk_cache or self.graph_factory is not KernelGraph:
            return None
        return simcache.report_key(
            self.profiler, graph, plan, global_batch, n_layers
        )

    def _replay(
        self,
        graph: ComputationGraph,
        plan: Mapping[str, PartitionSpec],
        global_batch: int,
        n_layers: int,
    ) -> Tuple[IterationReport, bool]:
        """``n_layers`` replayed through the engine, via the report cache.

        Returns ``(report, spliceable)``; only a one-layer replay can be
        spliceable.
        """
        key = self._cache_key(graph, plan, global_batch, n_layers)
        if key is not None:
            entry = simcache.load(key)
            if entry is not None:
                report = entry["report"]
                self._replay_telemetry(report, entry["stats"])
                return report, entry["spliceable"]
        report, spliceable, stats = self._simulate(
            graph, self.lower(graph, plan), global_batch, n_layers
        )
        if key is not None:
            simcache.store(key, report, spliceable, stats)
        return report, spliceable

    @staticmethod
    def _replay_telemetry(report: IterationReport, stats: Mapping) -> None:
        """Re-emit the metrics a cached run would have recorded live."""
        counter("sim.kernels_executed").inc(stats.get("kernels", 0))
        for name in PERF_STAT_KEYS:
            if name in stats:
                counter(f"sim.{name}").inc(stats[name])
        gauge("sim.peak_memory_bytes").track_max(report.peak_memory_bytes)
        if report.utilization is not None:
            record_utilization_metrics(report.utilization)

    # ------------------------------------------------------------------
    # simulation proper
    # ------------------------------------------------------------------

    def build(
        self,
        graph: ComputationGraph,
        lowering: PlanLowering,
        n_layers: int,
    ) -> KernelGraph:
        """``n_layers`` of ``graph``'s kernel DAG on a new ``graph_factory()``.

        Kernel durations and transfers are read from ``lowering`` (see
        :meth:`lower`); the graph is ready to :meth:`execute`, as often as
        its caller re-times it.
        """
        with span("sim.build", layers=n_layers):
            kg = self.graph_factory()
            n_devices = self.topology.n_devices
            streams = [kg.stream(f"dev{r}") for r in range(n_devices)]
            tails: Dict[int, List[SimKernel]] = {
                r: [] for r in range(n_devices)
            }
            edge_costs = lowering.edge_costs
            phases = lowering.phases

            def tag(name: str, layer: int) -> str:
                return name if n_layers == 1 else f"L{layer}.{name}"

            # ---- Forward -----------------------------------------------
            for layer in range(n_layers):
                for node in graph.nodes:
                    for edge in graph.in_edges(node.name):
                        fwd, _ = edge_costs[edge.key()]
                        self._collective(
                            kg, streams, tails, tag(node.name, layer), "-",
                            "redistribute", fwd,
                        )
                    self._lower_phase(
                        kg, streams, tails, node.name, tag(node.name, layer),
                        phases[node.name, Phase.FORWARD], Phase.FORWARD,
                    )

            # ---- Backward + Gradient (reverse order) --------------------
            for layer in reversed(range(n_layers)):
                for node in reversed(graph.nodes):
                    for edge in graph.out_edges(node.name):
                        _, bwd = edge_costs[edge.key()]
                        self._collective(
                            kg, streams, tails, tag(node.name, layer), "-",
                            "redistribute", bwd,
                        )
                    for phase in (Phase.BACKWARD, Phase.GRADIENT):
                        self._lower_phase(
                            kg, streams, tails, node.name,
                            tag(node.name, layer), phases[node.name, phase],
                            phase,
                        )
                    self._collective(
                        kg, streams, tails, tag(node.name, layer), "G",
                        "allreduce", lowering.layernorm_extras[node.name],
                    )
            return kg

    def execute(
        self, kg: KernelGraph, lowering: PlanLowering, n_layers: int
    ) -> Tuple[float, bool, Dict[str, int]]:
        """Execute ``kg`` (an ``n_layers`` :meth:`build` of ``lowering``).

        Records the run's telemetry (``sim.kernels_executed``, the
        ``PERF_STAT_KEYS`` counters, ``sim.peak_memory_bytes``) and returns
        ``(makespan, spliceable, stats)``; only a one-layer run can be
        spliceable.
        """
        with span("sim.execute", kernels=len(kg.kernels)):
            latency = kg.execute()
        spliceable = n_layers == 1 and self._spliceable(kg, latency)
        counter("sim.kernels_executed").inc(len(kg.kernels))
        stats: Dict[str, int] = {"kernels": len(kg.kernels)}
        perf = getattr(kg, "perf_stats", None)
        if perf is not None:
            stats.update(perf())
            for name in PERF_STAT_KEYS:
                counter(f"sim.{name}").inc(stats[name])
        gauge("sim.peak_memory_bytes").track_max(
            n_layers * lowering.plan_memory
        )
        return latency, spliceable, stats

    def _simulate(
        self,
        graph: ComputationGraph,
        lowering: PlanLowering,
        global_batch: int,
        n_layers: int,
    ) -> Tuple[IterationReport, bool, Dict[str, int]]:
        kg = self.build(graph, lowering, n_layers)
        latency, spliceable, stats = self.execute(kg, lowering, n_layers)
        timeline = kg.timeline()
        peak = n_layers * lowering.plan_memory
        busy_getter = getattr(kg, "device_busy_seconds", None)
        report = IterationReport(
            latency=latency,
            throughput=samples_per_second(global_batch, latency),
            peak_memory_bytes=peak,
            breakdown=self._breakdown(timeline, latency),
            timeline=timeline,
            layers_scaled=n_layers,
            utilization=build_utilization(
                timeline,
                latency,
                link_stats=kg.link_stats(),
                memory_watermark={
                    "peak_bytes": lowering.watermark_peak * n_layers,
                    "composition": {
                        k: v * n_layers
                        for k, v in lowering.watermark_composition.items()
                    },
                },
                busy_seconds=busy_getter() if busy_getter else None,
            ),
        )
        return report, spliceable, stats

    @staticmethod
    def _spliceable(kg: KernelGraph, makespan: float) -> bool:
        """Whether the one-layer schedule may be tiled exactly.

        Tiling a layer is exact iff the layer boundary synchronises every
        device: each stream's last kernel must end at the makespan (so the
        next layer starts cold on every stream at one instant) and no
        streamless kernel — an in-flight transfer — may outlast the
        streams.  Computed from the executed kernels only, so it works on
        any graph implementation, including the frozen pre-PR engine.
        """
        if makespan <= 0:
            return True
        last_end: Dict[str, float] = {}
        stream_max = 0.0
        for kernel in kg.kernels:
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

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def _collective(
        self,
        kg: KernelGraph,
        streams: Sequence[StreamResource],
        tails: Dict[int, List[SimKernel]],
        op_name: str,
        phase: str,
        kind: str,
        duration: float,
    ) -> None:
        """A cluster-wide collective: barrier, then one kernel per rank.

        The cost models already price the collective's internal rounds
        (including NIC sharing among its own concurrent groups), so the
        event engine schedules it as a synchronising kernel of that
        duration on every device stream.
        """
        if duration <= 0:
            return
        deps: List[SimKernel] = []
        for rank in range(len(streams)):
            deps.extend(tails[rank])
            tails[rank] = []
        barrier = kg.add(
            f"{op_name}.{phase}.{kind}.barrier",
            streams=streams,
            deps=deps,
            record=False,
        )
        for rank, stream in enumerate(streams):
            kg.add(
                f"{op_name}.{phase}.{kind}[{rank}]",
                streams=[stream],
                duration=duration,
                kind=kind,
                op=op_name,
                phase=phase,
                device=rank,
            )
        del barrier

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

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @staticmethod
    def _breakdown(timeline: Timeline, latency: float) -> Dict[str, float]:
        """Per-kind visible time on one representative device stream.

        The schedule is SPMD, so rank 0's stream sees every kernel kind;
        overlapped ring traffic is summed across all links, and any stream
        idle time (waiting on ring transfers that outlast their compute
        step) surfaces as ``ring-exposed``.  ``ring-overlapped`` is the
        sum of every rank's ring sends, not one SPMD stream's per-step ring
        latency (that per-operator figure is ``explain_plan``'s
        ``ring_latency``).
        """
        breakdown: Dict[str, float] = {}
        visible = 0.0
        overlapped_total = 0.0
        for record in timeline.records:
            if record.overlapped:
                overlapped_total += record.duration
            elif record.device == 0:
                breakdown[record.kind] = (
                    breakdown.get(record.kind, 0.0) + record.duration
                )
                visible += record.duration
        exposed = latency - visible
        if exposed > 1e-15:
            breakdown["ring-exposed"] = breakdown.get("ring-exposed", 0.0) + exposed
        breakdown["ring-overlapped"] = overlapped_total
        return breakdown
