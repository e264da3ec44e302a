"""Discrete-event simulation engine with per-device streams and link contention.

The repo's one plan simulator.  Kernels are priced by the paper's cost
models (Eq. 7–9, one price list per plan); this module replays them on the
simulated cluster:

* :class:`StreamResource` — a serial FIFO execution stream (one per device
  compute stream, one per pipeline stage);
* shared fabric links (node NIC pools from
  :meth:`~repro.cluster.topology.ClusterTopology.path_resources`) modelled as
  bandwidth-sharing fluid resources — concurrent transfers touching a node's
  NIC pool, in either direction, divide its capacity;
* :class:`KernelGraph` — builds a kernel DAG (dependency-driven tasks
  occupying streams and/or carrying a point-to-point transfer) and
  executes it to completion in one discrete-event loop with a simulated
  clock (or, for a DAG without transfers, in one topological pass);
  :class:`SimKernel` is one kernel as a record, made on demand;
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
* **A DAG built as integer tables, and one flat event loop.**
  :meth:`KernelGraph.add` appends a kernel's columns (duration, device,
  transfer, labels) and returns its index, the handle dependants name it
  by; as it appends it fills the execution tables: per kernel a count of
  what it waits for (its dependencies plus its predecessor on each
  stream, so a stream FIFO is just more edges) and the kernels its
  finish wakes, in the order the original engine tried them, plus the
  roots, the one-pass predecessors, each stream's last kernel and the
  kernels a duration rule may stretch.  No kernel object is built and
  no compile pass walks the DAG again; a :class:`SimKernel` record is
  made only when a report or test asks (:attr:`KernelGraph.kernels`).
  An execution copies the counts and runs one loop over a
  single ``(when, seq, code)`` heap that carries every event type —
  kernel finishes, flow activations and completions, and the graph's own
  timed events (a fault graph's NIC flaps) — with no callback per event.
  A flow's completion is the only event ever re-timed, and a flow keeps
  only its earliest entry in the heap: a re-timing to a later time leaves
  that entry to surface first and re-queues it at the live time then, and
  only a re-timing to an earlier time pushes.  Pop order is still exactly
  the order of the live ``(when, seq)`` keys, while a contention flush
  pushes far fewer entries; ``queue_pushes`` and ``queue_stale_drops``
  keep counting what the closure engine's queue did (one push per
  re-timing, one stale drop per superseded one).
* **Per-rank kernels appended in bulk.**  The lowered DAG is SPMD: every
  compute step and every collective adds the same kernel once per rank.
  :meth:`KernelGraph.add_per_rank` appends such a group as one call: the
  label, duration, dependency, transfer and busy-device columns grow by
  list extension, and only the stream wiring, the stretch index and the
  one-pass check walk the ranks (through the helpers :meth:`KernelGraph.add`
  uses, so the tables are those of one ``add`` per rank).  Markers,
  barriers and ring transfers stay on ``add``.
* **One pass for transfer-free DAGs.**  The loop exists for fluid link
  contention between flows.  A DAG without transfers (every Megatron
  plan's, and a PrimePar plan's whose specs send no ring traffic) and
  without timed events has none, and there each kernel starts the moment
  its last wait finishes; the clock never runs backwards, so that is the
  latest end among its predecessors.  :meth:`KernelGraph.execute` then
  computes the schedule in one pass in submission order, ``start[i] =
  max(end[p] for p in preds[i])`` (``0.0`` for a root) and ``end[i] =
  start[i] + duration``: the same max and the same IEEE add as the loop's
  ``now + durations[i]``, so every timestamp is bit-identical by
  construction, not by tolerance.  The pass applies only while every
  wait is on a kernel of the graph submitted before its waiter and each
  device's busy kernels share a stream in turn: they then finish in
  kernel order, which is the order the loop adds their busy seconds in.
  The counters are the loop's (one queue push per kernel, nothing else)
  and no link opens.  The pass computes only start and end times: a
  fault replay reads just the makespan, so the busy seconds are summed
  on demand, in kernel order, by the first
  :meth:`KernelGraph.device_busy_seconds` call after the run — the same
  adds in the same order as the loop's online sum.  Any other DAG, and
  any graph with timed events (a fault graph's NIC flaps), takes the
  loop.  The run's times stay in two lists (no per-kernel write-back).
* **Only kernels that shape the schedule.**  A lowered DAG holds each
  rank's compute steps, the real ring sends, and per collective a barrier
  plus one kernel per rank.  A step-begin marker (zero duration, on its
  rank's stream, never recorded) is added only where it constrains the
  schedule: it waits on the ring transfers its rank received in the
  previous step, or ring sends leave its rank at that step and start from
  it.  A marker with neither has no dependency, so it would end exactly
  when its stream predecessor does.  Leaving it out moves no other kernel
  in the one-pass schedule, by construction, and none in the event loop
  on ``tests/test_legacy_build.py``'s grid, which holds every kept
  kernel's times to the frozen build that emitted a marker per rank and
  step.  A transfer-free DAG holds ~43% fewer kernels to build, compile,
  re-time and replay.
* **Determinism.**  Equal-timestamp events fire in submission order
  (``seq`` is one monotonic counter; a re-timing draws a fresh value, so
  it orders as a new submission); flows are iterated in activation order
  (insertion-ordered dicts), never in set order.  Traces for a fixed
  scenario are byte-stable across runs and Python versions.
* **Verified layer splicing and report memoization.**
  :meth:`EventDrivenSimulator.run_model` simulates one transformer layer
  and splices it ``n_layers`` times only after verifying the layer
  boundary is synchronising (every device stream ends exactly at the
  makespan, so no contention or slack crosses the boundary; the graph
  reads it off each stream's last kernel, :meth:`KernelGraph.spliceable`);
  otherwise it falls back to replaying the full layer stack through the
  event engine.
  A spliced report keeps the one-layer timeline and tiles it only on
  demand (:meth:`~repro.sim.executor.IterationReport.full_timeline`).
  Reports are additionally memoized on disk through
  :func:`repro.cache.memoize` (``simreport`` entries; the ``PRIMEPAR_CACHE*``
  knobs apply), with cached hits re-emitting the telemetry of the run they
  replace.  The ``simreport`` and ``lowering`` keys splice in one
  canonical encoding of the graph, made once per simulator and graph
  (:func:`repro.cache.encoded`), with the digests of plain keys.
* **Lower once, build once, re-time per scenario.**  Every cost term a
  replay needs (Eq. 7 step compute, sized ring transfers, all-reduce and
  layernorm extras, Eq. 8–9 redistribution, the memory terms) depends only
  on the graph, the plan and the fabric.  :meth:`EventDrivenSimulator.lower`
  reads them from the plan's one price list
  (:meth:`~repro.core.cost.overall.OverallCostModel.plan_cost`, the list
  ``explain`` shows) into a picklable :class:`PlanLowering`, pricing
  nothing itself (memoized on disk as ``lowering`` entries, so a later
  request replaying the same plan loads it instead), and
  :meth:`EventDrivenSimulator.build` turns it into a kernel DAG whose
  kernels keep their priced durations.  Faults change durations and link
  capacities, not the DAG's shape: each :meth:`KernelGraph.execute` takes
  its kernel durations from the graph's one duration rule
  (:meth:`KernelGraph.run_durations`), so the fault layer builds each DAG
  shape once per robustness request and re-executes it per scenario, the
  nominal (empty) scenario included.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .. import cache as diskcache
from ..cluster.profiler import FabricProfiler
from ..cluster.topology import PathResources
from ..core.dims import ALL_PHASES, Phase
from ..core.cost.intra import PhaseTerms
from ..core.cost.overall import OverallCostModel
from ..core.spec import PartitionSpec
from ..graph.graph import ComputationGraph
from ..obs.metrics import counter, gauge
from ..obs.reqtrace import trace_event
from ..obs.spans import span
from .executor import (
    IterationReport,
    build_utilization,
    record_utilization_metrics,
    samples_per_second,
)
from .memory_tracker import track_iteration
from .timeline import KernelRecord, Timeline

_R = TypeVar("_R")

#: Bump when report layout or engine semantics change meaning.
SIM_SCHEMA = 3

#: Cache kind of iteration reports (file prefix in the cache directory).
REPORT_KIND = "simreport"

#: Bump when :class:`PlanLowering`'s layout or pricing changes meaning.
LOWERING_SCHEMA = 1

#: Cache kind of plan lowerings.
LOWERING_KIND = "lowering"

#: Perf-stat keys every optimised KernelGraph reports (see ``perf_stats``).
PERF_STAT_KEYS = (
    "contention_flushes",
    "rate_recomputes",
    "rate_reuses",
    "queue_pushes",
    "queue_stale_drops",
)


class StreamResource:
    """A serial FIFO execution stream (device compute stream, pipeline stage).

    Kernels on a stream run one at a time, in submission order.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamResource({self.name!r})"


class _SharedLink:
    """A bandwidth-sharing fabric resource (e.g. one node's NIC pool)."""

    __slots__ = ("key", "capacity", "available", "flows", "bytes_total")

    def __init__(self, key: str, capacity: float) -> None:
        self.key = key
        self.capacity = capacity
        #: Bandwidth the fair-share solve divides: ``capacity`` unless a
        #: fault (see :class:`~repro.sim.faults.FaultyKernelGraph`) cuts it.
        self.available = capacity
        #: Active flows keyed by kernel index — insertion-ordered, so
        #: iteration is deterministic (activation order).
        self.flows: Dict[int, "_Flow"] = {}
        #: Bytes of every transfer routed through this resource.
        self.bytes_total = 0.0


class _Flow:
    """One in-flight transfer draining through shared link resources."""

    __slots__ = (
        "remaining", "rate", "peak_rate", "resources", "last_update",
        "seq", "due", "queued_seq", "queued_when",
    )

    def __init__(
        self,
        n_bytes: float,
        peak_rate: float,
        resources: Sequence[_SharedLink],
    ) -> None:
        self.remaining = n_bytes
        self.peak_rate = peak_rate
        self.resources = tuple(resources)
        self.rate = 0.0
        self.last_update = 0.0
        #: The live completion ``(due, seq)``; ``seq`` is ``-1`` if none.
        self.due = 0.0
        self.seq = -1
        #: The flow's earliest entry in the heap (``-1``: none).  It is
        #: never later than ``(due, seq)``; see :meth:`KernelGraph.execute`.
        self.queued_seq = -1
        self.queued_when = 0.0


class SimKernel(NamedTuple):
    """One kernel of a :class:`KernelGraph`, as a report or test reads it.

    Made on demand by :attr:`KernelGraph.kernels` from the graph's columns;
    the graph keeps none.  ``deps`` name kernels by index; ``start_time``
    and ``end_time`` hold the last execution's times (``None`` if it never
    ran).
    """

    name: str
    kind: str
    op: str
    phase: str
    device: int
    duration: float
    overlapped: bool
    record: bool
    transfer: Optional[Tuple[float, PathResources]]
    deps: Tuple[int, ...]
    streams: Tuple[StreamResource, ...]
    start_time: Optional[float]
    end_time: Optional[float]


class KernelGraph:
    """Builds a kernel DAG over streams/links and executes it to completion.

    A kernel starts once every dependency has finished and it is at the
    head of each of its streams; it then either runs for its
    :meth:`run_durations` entry or, if it carries a ``transfer``, drains
    through the fabric's shared link resources at whatever bandwidth
    contention leaves it.

    Kernels are numbered by submission order: :meth:`add` returns the
    index, which is the handle a dependant names it by, and
    :meth:`add_per_rank` appends one dependency-free kernel per rank, as
    that many ``add`` calls would.  Each kernel is one entry in each
    per-kernel column — ``_durations`` (priced), ``_flows`` (a transfer's
    bytes, latency, peak rate and links), ``_busy_device``, ``_deps``, and
    ``_labels`` (name, kind, op, phase, device, flags, raw transfer and
    streams: what only a record or the timeline reads) — and both fill
    the execution tables as they append (see the module doc):

    * ``_waits[i]`` counts what kernel ``i`` waits for: its dependencies
      plus its predecessor on each of its streams;
    * ``_wakes[i]`` lists, *reversed*, the kernels whose count ``i``'s
      finish decrements — the next kernel on each of its streams (in its
      stream order), then its dependants (ascending) — so it goes straight
      onto the loop's LIFO stack and pops in the original engine's order;
    * ``_roots`` lists the kernels that wait for nothing, and ``_preds[i]``
      the same waits as ``_waits[i]`` as kernel indices (ascending,
      duplicates kept), which the one-pass schedule reads while
      ``_one_pass`` holds;
    * ``_tails`` maps each stream to its last kernel, ``_multi`` the
      kernels on several streams to those streams, ``_floating`` lists the
      kernels on no stream, and ``_by_kind`` the stretchable kernels by
      ``(kind, device)``.

    Each execution starts from a fresh run state, so a graph may be
    executed again — e.g. after a fault graph is re-timed for another
    scenario — and yields what a freshly built copy would.
    """

    def __init__(self) -> None:
        self._streams: Dict[str, StreamResource] = {}
        # ---- per-kernel columns
        #: ``(name, kind, op, phase, device, overlapped, record, transfer,
        #: streams)``: what only a record or the timeline reads.
        self._labels: List[Tuple[Any, ...]] = []
        #: Priced durations, clamped at zero: the clock never runs
        #: backwards.
        self._durations: List[float] = []
        self._deps: List[Tuple[int, ...]] = []
        #: ``(bytes, latency, peak rate, shared links)`` of a transfer.
        self._flows: List[
            Optional[Tuple[float, float, float, Tuple[Tuple[str, float], ...]]]
        ] = []
        #: Device whose busy time a kernel's run adds to, or ``None``.
        self._busy_device: List[Optional[int]] = []
        # ---- execution tables (see the class doc)
        self._waits: List[int] = []
        self._wakes: List[List[int]] = []
        self._roots: List[int] = []
        self._preds: List[List[int]] = []
        self._one_pass = True
        self._tails: Dict[StreamResource, int] = {}
        self._multi: Dict[int, Tuple[StreamResource, ...]] = {}
        self._floating: List[int] = []
        self._by_kind: Dict[Tuple[str, int], List[int]] = {}
        # Each device's last busy kernel's streams (the one-pass check).
        self._busy_streams: Dict[int, Tuple[StreamResource, ...]] = {}
        # ---- the last execution's times, links, busy seconds and counters
        self._start: List[Optional[float]] = []
        self._end: List[Optional[float]] = []
        self._links: Dict[str, _SharedLink] = {}
        #: ``None`` after a one-pass run until :meth:`device_busy_seconds`
        #: sums it.
        self._busy: Optional[Dict[int, float]] = {}
        self._perf: Dict[str, int] = dict.fromkeys(PERF_STAT_KEYS, 0)
        #: How the last :meth:`execute` scheduled the DAG: ``"pass"`` or
        #: ``"events"`` (``None`` before the first).
        self.schedule: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def stream(self, name: str) -> StreamResource:
        """Get or create the serial stream named ``name``."""
        if name not in self._streams:
            self._streams[name] = StreamResource(name)
        return self._streams[name]

    def __len__(self) -> int:
        """The number of kernels added."""
        return len(self._durations)

    def add(
        self,
        name: str,
        *,
        streams: Sequence[StreamResource] = (),
        deps: Sequence[int] = (),
        duration: float = 0.0,
        kind: str = "",
        op: str = "",
        phase: str = "-",
        device: int = 0,
        overlapped: bool = False,
        record: bool = True,
        transfer: Optional[Tuple[float, PathResources]] = None,
    ) -> int:
        """Append a kernel on ``streams`` (queued in submission order) that
        waits for ``deps``, indices this graph's ``add`` returned; returns
        the new kernel's index.

        A ``record=False`` kernel (a barrier or marker) stays off the
        timeline and the busy seconds, and so does an ``overlapped`` one's
        busy time.
        """
        i = len(self._durations)
        streams = tuple(streams)
        deps = tuple(deps)
        for j in deps:
            if not 0 <= j < i:
                raise IndexError(
                    f"kernel {name!r} waits for {j!r}, which is not an "
                    "earlier kernel of this graph"
                )
        self._labels.append((
            name, kind, op, phase, device, overlapped, record, transfer,
            streams,
        ))
        self._durations.append(0.0 if duration < 0.0 else duration)
        self._deps.append(deps)
        wakes = self._wakes
        wakes.append([])
        preds = list(deps)
        for j in deps:
            wakes[j].insert(0, i)
        self._enqueue(i, (streams,), (preds,))
        if transfer is None:
            self._flows.append(None)
            if duration > 0:
                self._stretchable(kind, (device,), i)
        else:
            path = transfer[1]
            self._flows.append((
                transfer[0], max(path.latency, 0.0), path.stream_bandwidth,
                path.shared,
            ))
            self._one_pass = False
        if record and not overlapped:
            self._busy_device.append(device)
            if self._one_pass:
                self._check_busy((device,), (streams,))
        else:
            self._busy_device.append(None)
        return i

    def add_per_rank(
        self,
        name: str,
        lanes: Sequence[Tuple[StreamResource, ...]],
        duration: float,
        kind: str,
        op: str,
        phase: str,
    ) -> None:
        """Append one kernel per rank: kernel ``r`` runs on ``lanes[r]``,
        named ``f"{name}[{r}]"``, on device ``r``, with no dependencies.

        The same kernels, in the same order, as one :meth:`add` per rank
        with those arguments (recorded, not overlapped, no transfer), but
        the columns grow in bulk: only the stream wiring, the stretch index
        and the one-pass check walk the ranks.
        """
        first = len(self._durations)
        n = len(lanes)
        ranks = range(n)
        self._labels.extend([
            (f"{name}[{r}]", kind, op, phase, r, False, True, None, lane)
            for r, lane in enumerate(lanes)
        ])
        self._durations.extend([0.0 if duration < 0.0 else duration] * n)
        self._deps.extend([()] * n)
        self._flows.extend([None] * n)
        self._busy_device.extend(ranks)
        self._wakes.extend([[] for _ in ranks])
        self._enqueue(first, lanes, [[] for _ in ranks])
        if duration > 0:
            self._stretchable(kind, ranks, first)
        if self._one_pass:
            self._check_busy(ranks, lanes)

    def _enqueue(
        self,
        first: int,
        lanes: Sequence[Tuple[StreamResource, ...]],
        waiting: Sequence[List[int]],
    ) -> None:
        """Queue kernels ``first, first + 1, ...`` on ``lanes[0], lanes[1],
        ...``: kernel ``first + k`` waits for the kernels ``waiting[k]``
        lists and, on each of its streams, for that stream's previous
        kernel.  Fills the waits, wakes, roots, preds and stream tables
        (see the class doc)."""
        wakes = self._wakes
        tails = self._tails
        multi = self._multi
        waits = self._waits
        for i, (streams, preds) in enumerate(zip(lanes, waiting), first):
            if len(streams) > 1:
                multi[i] = streams
            elif not streams:
                self._floating.append(i)
            for stream in streams:
                prev = tails.get(stream)
                tails[stream] = i
                if prev is None:
                    continue
                preds.append(prev)
                theirs = multi.get(prev)
                if theirs is None:
                    wakes[prev].append(i)
                    continue
                # Behind the next kernels already added on ``prev``'s
                # earlier streams (the reversed list ends with them).
                filled = 0
                for other in theirs:
                    if other is stream:
                        break
                    if tails[other] != prev:
                        filled += 1
                wakes[prev].insert(len(wakes[prev]) - filled, i)
            waits.append(len(preds))
            if not preds:
                self._roots.append(i)
            elif len(preds) > 1:
                preds.sort()
        self._preds.extend(waiting)

    def _stretchable(
        self, kind: str, devices: Sequence[int], first: int
    ) -> None:
        """Index kernels ``first, first + 1, ...``, one per entry of
        ``devices``, under ``(kind, device)`` for a duration rule."""
        by_kind = self._by_kind
        for i, device in enumerate(devices, first):
            stretchable = by_kind.get((kind, device))
            if stretchable is None:
                by_kind[kind, device] = [i]
            else:
                stretchable.append(i)

    def _check_busy(
        self,
        devices: Sequence[int],
        lanes: Sequence[Tuple[StreamResource, ...]],
    ) -> None:
        """The one-pass check for busy kernels, the next of ``devices`` on
        the next of ``lanes`` each.

        A device's busy kernels must share a stream in turn to finish in
        kernel order (see the module doc): a busy kernel on no stream, or
        on none of its device's previous busy kernel's, ends the pass.
        """
        busy_streams = self._busy_streams
        for device, streams in zip(devices, lanes):
            prior = busy_streams.get(device, streams)
            busy_streams[device] = streams
            if not streams or (streams != prior and not any(
                stream in prior for stream in streams
            )):
                self._one_pass = False
                return

    def add_dep(self, kernel: int, dep: int) -> None:
        """Make ``kernel`` also wait for ``dep`` (both indices of this
        graph); ``dep`` may be a kernel added after it."""
        n = len(self._durations)
        if not (0 <= kernel < n and 0 <= dep < n):
            raise IndexError(f"no kernel {kernel!r} or {dep!r} in this graph")
        self._deps[kernel] += (dep,)
        if not self._waits[kernel]:
            self._roots.remove(kernel)
        self._waits[kernel] += 1
        insort(self._preds[kernel], dep)
        if dep >= kernel:
            self._one_pass = False
        # Among ``dep``'s dependants (the head of its reversed wakes, in
        # descending order), ahead of the next kernels on its streams.
        woken = self._wakes[dep]
        streams = self._labels[dep][-1]
        dependants = len(woken) - sum(
            1 for s in streams if self._tails[s] != dep
        )
        at = 0
        while at < dependants and woken[at] > kernel:
            at += 1
        woken.insert(at, kernel)

    @property
    def kernels(self) -> List[SimKernel]:
        """Every kernel as a :class:`SimKernel` record, made on each call
        (times ``None`` for kernels added since the last execution)."""
        unrun = [None] * (len(self._durations) - len(self._end))
        return [
            SimKernel(
                name, kind, op, phase, device, duration, overlapped, record,
                transfer, deps, streams, started, ended,
            )
            for (
                name, kind, op, phase, device, overlapped, record, transfer,
                streams,
            ), duration, deps, started, ended in zip(
                self._labels, self._durations, self._deps,
                self._start + unrun, self._end + unrun,
            )
        ]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_durations(self) -> List[float]:
        """The duration rule: how long each kernel runs this execution.

        Indexed by kernel (transfers' entries are unused).  The stock
        graph runs every kernel for its priced duration; a fault graph
        stretches some (see :class:`~repro.sim.faults.FaultyKernelGraph`).
        The list is only read.
        """
        return self._durations

    def _timed_events(self) -> List[float]:
        """Reset the graph's own timed events; returns their times.

        The loop fires event ``i`` at ``times[i]`` through
        :meth:`_fire_timed`, ordered before any kernel event of the same
        timestamp.  The stock graph has none.
        """
        return []

    def _fire_timed(self, index: int) -> Optional[_SharedLink]:
        """Fire timed event ``index``; returns the link whose available
        bandwidth it changed (``None`` if that link is not open yet)."""
        raise IndexError(index)

    def _link(self, key: str, capacity: float) -> _SharedLink:
        """The shared link ``key``, opened on its first transfer of a run."""
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _SharedLink(key, capacity)
        return link

    def execute(self) -> float:
        """Run every kernel from a fresh run state; returns the makespan.

        Resets the clock, event heap, links, flows and counters and every
        kernel's start and end times, so a re-execution equals the first
        run of a freshly built graph.  A DAG with neither transfers nor
        timed events is scheduled in one pass (see the module doc), any
        other through the event loop; :attr:`schedule` says which ran.

        Raises:
            RuntimeError: If the DAG deadlocks (a dependency cycle, or
                stream submission orders inconsistent with the deps).
        """
        if not self._one_pass or self._timed_events():
            self.schedule = "events"
            return self._execute_events()
        self.schedule = "pass"
        durations = self.run_durations()
        n = len(durations)
        start = [0.0] * n
        end = [0.0] * n
        for i, mine in enumerate(self._preds):
            if not mine:
                begin = 0.0
            elif len(mine) == 1:
                begin = end[mine[0]]
            else:
                begin = max([end[j] for j in mine])
            start[i] = begin
            end[i] = begin + durations[i]
        self._links = {}
        self._busy = None  # summed on demand (device_busy_seconds)
        self._perf = dict.fromkeys(PERF_STAT_KEYS, 0)
        self._perf["queue_pushes"] = n
        self._start = start
        self._end = end
        return max(end, default=0.0)

    def _execute_events(self) -> float:
        """:meth:`execute` through the event loop, for any DAG."""
        n = len(self._durations)
        flow_code = n          # [n, 2n): a flow's completion
        activate_code = 2 * n  # [2n, 3n): a flow joins the fabric
        timed_code = 3 * n     # [3n, ...): the graph's own timed events
        durations = self.run_durations()
        wakes = self._wakes
        transfers = self._flows
        busy_device = self._busy_device
        waits = list(self._waits)
        self._links = links = {}
        self._busy = busy = {}
        open_link = self._link
        start: List[Optional[float]] = [None] * n
        end: List[Optional[float]] = [None] * n
        flows: List[Optional[_Flow]] = [None] * n
        # Active flows in activation order.
        active: Dict[int, _Flow] = {}
        # Deferred-contention state: links whose flow set or bandwidth
        # changed and flows activated since the last flush.
        dirty = force_flush = False
        dirty_links: Dict[str, _SharedLink] = {}
        pending_rates: Dict[int, _Flow] = {}
        flushes = recomputes = reuses = live = 0
        heappush, heappop = heapq.heappush, heapq.heappop
        heap: List[Tuple[float, int, int]] = []
        seq = 0
        for i, when in enumerate(self._timed_events()):
            seq += 1
            heappush(heap, (max(when, 0.0), seq, timed_code + i))
        now = 0.0
        finished = 0
        # ``done`` finishes at ``now``; ``ready`` (a LIFO stack) holds the
        # kernels to try starting, so zero-byte transfers that finish as
        # they start cascade depth-first, in the original engine's order.
        done = -1
        ready = self._roots[::-1]
        while True:
            # ---- finish ``done``, start every kernel it (or a root) frees
            while True:
                if done >= 0:
                    end[done] = now
                    finished += 1
                    device = busy_device[done]
                    if device is not None:
                        elapsed = now - start[done]
                        if elapsed > 0:
                            busy[device] = busy.get(device, 0.0) + elapsed
                    woken = wakes[done]
                    for i in woken:
                        waits[i] -= 1
                    ready.extend(woken)
                    done = -1
                if not ready:
                    break
                i = ready.pop()
                if waits[i]:
                    continue  # still waiting, or already started
                waits[i] = -1  # started
                start[i] = now
                transfer = transfers[i]
                if transfer is None:
                    seq += 1
                    heappush(heap, (now + durations[i], seq, i))
                    continue
                n_bytes, latency, peak_rate, shared = transfer
                if n_bytes <= 0:
                    done = i
                    continue
                resources = []
                for key, capacity in shared:
                    link = links.get(key)
                    if link is None:
                        link = open_link(key, capacity)
                    link.bytes_total += n_bytes
                    resources.append(link)
                flows[i] = _Flow(n_bytes, peak_rate, resources)
                # The per-message latency is a serial prelude before bytes
                # flow.
                seq += 1
                heappush(heap, (now + latency, seq, activate_code + i))
            # ---- advance to the next event that finishes a kernel
            while True:
                if dirty and (force_flush or not heap or heap[0][0] > now):
                    # One fair-share solve for every occupancy change at
                    # ``now`` (see the module doc): advance every active
                    # flow, re-solve the rates of flows on changed links,
                    # re-time every completion.  A flow with no bandwidth
                    # left (a fault's zero rate) parks at ``inf`` until a
                    # later flush re-times it.
                    dirty = force_flush = False
                    affected = pending_rates
                    for link in dirty_links.values():
                        affected.update(link.flows)
                    dirty_links = {}
                    pending_rates = {}
                    # The two ``if``s below are ``max(remaining, 0.0)`` and
                    # ``min(rate, share)`` without the calls, bit for bit.
                    for f, flow in active.items():
                        remaining = flow.remaining - flow.rate * (
                            now - flow.last_update
                        )
                        if remaining < 0.0:
                            remaining = 0.0
                        flow.remaining = remaining
                        flow.last_update = now
                        if f in affected:
                            rate = flow.peak_rate
                            for link in flow.resources:
                                share = link.available / len(link.flows)
                                if share < rate:
                                    rate = share
                            flow.rate = rate
                            recomputes += 1
                        else:
                            rate = flow.rate
                            reuses += 1
                        try:
                            when = now + remaining / rate
                        except ZeroDivisionError:
                            when = math.inf
                        seq += 1
                        flow.seq = seq
                        flow.due = when
                        # Push only if the flow's queued entry would
                        # surface too late (see the module doc).
                        if flow.queued_seq < 0 or when < flow.queued_when:
                            flow.queued_seq = seq
                            flow.queued_when = when
                            heappush(heap, (when, seq, flow_code + f))
                    flushes += 1
                    continue
                if not heap:
                    break
                when, key_seq, code = heappop(heap)
                if code < flow_code:
                    live += 1
                    now = when
                    done = code
                    break
                if code < activate_code:
                    f = code - flow_code
                    flow = flows[f]
                    if flow.seq != key_seq:
                        # Superseded by a later re-timing.  The flow's
                        # earliest entry moves to its live key instead.
                        if key_seq == flow.queued_seq and flow.seq >= 0:
                            flow.queued_seq = flow.seq
                            flow.queued_when = flow.due
                            heappush(heap, (flow.due, flow.seq, code))
                        continue
                    live += 1
                    now = when
                    flow.seq = flow.queued_seq = -1
                    if dirty:
                        # Occupancy changed at this timestamp after the
                        # completion was timed: the original engine's
                        # intervening rebalance would have superseded it.
                        # Flush instead; it re-times this flow too.
                        force_flush = True
                        continue
                    del active[f]
                    for link in flow.resources:
                        del link.flows[f]
                        dirty_links[link.key] = link
                    dirty = True
                    done = f
                    break
                live += 1
                now = when
                if code < timed_code:
                    # Join the fabric: update occupancy now, defer the
                    # rate solve to the flush.
                    f = code - activate_code
                    flow = flows[f]
                    flow.last_update = now
                    active[f] = flow
                    for link in flow.resources:
                        link.flows[f] = flow
                        dirty_links[link.key] = link
                    pending_rates[f] = flow
                    dirty = True
                else:
                    link = self._fire_timed(code - timed_code)
                    if link is not None:
                        dirty_links[link.key] = link
                        dirty = True
            if done < 0:
                break
        self._perf = {
            "contention_flushes": flushes,
            "rate_recomputes": recomputes,
            "rate_reuses": reuses,
            "queue_pushes": seq,
            # Every entry the closure engine pushed left its heap either
            # live or as a stale drop.
            "queue_stale_drops": seq - live,
        }
        self._start = start
        self._end = end
        if finished < n:
            stuck = [
                labels[0] for labels, ended in zip(self._labels, end)
                if ended is None
            ]
            raise RuntimeError(
                f"kernel DAG deadlocked; {len(stuck)} kernels never ran "
                f"(first: {stuck[:5]})"
            )
        return max(end, default=0.0)

    def spliceable(self, makespan: float) -> bool:
        """Whether the last execution, ending at ``makespan``, may be tiled
        exactly.

        Tiling a layer is exact iff the layer boundary synchronises every
        device: each stream's last kernel must end at the makespan (so the
        next layer starts cold on every stream at one instant) and no
        streamless kernel — an in-flight transfer — may outlast the
        streams.  A stream runs its kernels in turn, so its tail ends
        last; a stream whose kernels all end at ``0.0`` is idle and does
        not count.
        """
        if makespan <= 0:
            return True
        end = self._end
        ends = [end[i] for i in self._tails.values() if end[i] > 0.0]
        if not ends:
            return True
        if any(ended != makespan for ended in ends):
            return False
        return max((end[i] for i in self._floating), default=0.0) <= makespan

    def timeline(self) -> Timeline:
        """The executed schedule as a :class:`Timeline` (per-device records)."""
        records = [
            KernelRecord(
                op=op,
                phase=phase,
                kind=kind,
                start=started,
                duration=ended - started,
                overlapped=overlapped,
                device=device,
            )
            for (_, kind, op, phase, device, overlapped, record, *_), started,
            ended in zip(self._labels, self._start, self._end)
            if record and ended is not None and ended > started
        ]
        records.sort(key=lambda r: (r.start, r.device, r.kind))
        makespan = max(
            (ended for ended in self._end if ended is not None), default=0.0
        )
        return Timeline(records=records, clock=makespan)

    def link_stats(self) -> Dict[str, Tuple[float, float]]:
        """Per shared-link ``(bytes transferred, capacity bytes/s)``."""
        return {
            key: (link.bytes_total, link.capacity)
            for key, link in self._links.items()
        }

    def device_busy_seconds(self) -> Dict[int, float]:
        """Per-device occupied stream seconds of the last execution.

        The event loop accumulates them as kernels finish.  The one-pass
        schedule computes only start and end times; its busy seconds are
        summed here, on the first call after the run, in kernel order,
        which is the order its kernels finish in (see the module doc).
        Each device's recorded non-overlapped kernels run serially on its
        stream, so either sum adds the same durations in the same order as
        the post-hoc scan in
        :func:`~repro.sim.executor.device_busy_fractions` — the totals are
        bit-identical, without a pass over the timeline.
        """
        busy = self._busy
        if busy is None:
            self._busy = busy = {}
            for device, started, ended in zip(
                self._busy_device, self._start, self._end
            ):
                if device is not None:
                    elapsed = ended - started
                    if elapsed > 0:
                        busy[device] = busy.get(device, 0.0) + elapsed
        return dict(busy)

    def perf_stats(self) -> Dict[str, int]:
        """Engine work counters for this execution (see ``PERF_STAT_KEYS``)."""
        return dict(self._perf)


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


def _phase_lowering(spec: PartitionSpec, priced: PhaseTerms) -> PhaseLowering:
    """One plan operator's phase, from its one-row :class:`PhaseTerms`.

    A phase with neither compute nor ring sends emits no kernels, so it
    carries no all-reduce.
    """
    step_compute = float(priced.step_compute[0])
    ring = {}
    if priced.sends is not None:
        sends = priced.sends
        sizes = sends.n_bytes[0].tolist()
        for step, row in enumerate(sends.src[0].tolist()):
            entries = tuple(
                (sends.tensors[e], src, dst, sizes[e])
                for e, sources in enumerate(row)
                for dst, src in enumerate(sources)
                if src >= 0 and sizes[e] > 0 and src != dst
            )
            if entries:
                ring[step] = entries
    allreduce = priced.allreduce[0] if step_compute > 0 or ring else 0.0
    return PhaseLowering(step_compute, spec.total_steps, ring, allreduce)


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
    #: One layer's static per-device memory (``PlanCost.memory_bytes``).
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
        graph_factory: Constructor for the kernel-DAG executor: a
            :class:`KernelGraph` or any class with its
            ``stream``/``add``/``add_per_rank`` construction and its
            execution calls (``len``, ``execute``,
            ``spliceable``, ``timeline``, ``link_stats``).  The fault
            layer passes a fault-injecting graph; the golden regression
            suite the frozen pre-optimisation engine behind those calls.
            Only the stock :class:`KernelGraph`'s reports are memoized on
            disk: a custom graph's reports are not the stock ones.
    """

    def __init__(
        self,
        profiler: FabricProfiler,
        graph_factory: Callable[[], KernelGraph] = KernelGraph,
    ) -> None:
        self.profiler = profiler
        self.topology = profiler.topology
        self.graph_factory = graph_factory
        #: The last lowering built, as ``(graph, specs in node order,
        #: lowering)``; see :meth:`lower`.
        self._lowered: Optional[
            Tuple[ComputationGraph, Tuple[PartitionSpec, ...], PlanLowering]
        ] = None
        #: The last graph and its nodes and edges as memo key parts; see
        #: :meth:`_graph_parts`.
        self._graph_key: Optional[Tuple[ComputationGraph, Any, Any]] = None

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def lower(
        self, graph: ComputationGraph, plan: Mapping[str, PartitionSpec]
    ) -> PlanLowering:
        """Every cost term a replay of ``plan`` on ``graph`` reads, from
        the plan's Eq. 10 price list.

        The last lowering is kept: calling again with the same graph object
        and equal specs returns it without re-pricing, so a
        :meth:`run_model` whose splice probe is not spliceable replays the
        full stack on the probe's lowering.  Beyond that, lowerings are
        memoized on disk
        (``lowering`` entries, keyed like a report less batch and layers),
        so a fresh simulator asked for an already-priced plan loads it;
        ``sim.lowerings`` counts only the lowerings actually priced.
        """
        specs = tuple(plan[node.name] for node in graph.nodes)
        if self._lowered is not None:
            last_graph, last_specs, lowering = self._lowered
            if last_graph is graph and last_specs == specs:
                return lowering
        lowering, _ = diskcache.memoize(
            LOWERING_KIND,
            (
                LOWERING_KIND,
                LOWERING_SCHEMA,
                *self._graph_parts(graph),
                tuple(
                    (node.name, str(spec), spec.n_bits)
                    for node, spec in zip(graph.nodes, specs)
                ),
                self.profiler.topology,
            ),
            lambda: self._read_price_list(graph, plan),
            PlanLowering,
        )
        self._lowered = (graph, specs, lowering)
        return lowering

    def _graph_parts(self, graph: ComputationGraph) -> Tuple[Any, Any]:
        """``tuple(graph.nodes)`` and ``tuple(graph.edges)`` as memo key
        parts, canonically encoded once per graph: the ``lowering`` and
        ``simreport`` keys of one request splice the same bytes."""
        last = self._graph_key
        if last is None or last[0] is not graph:
            last = self._graph_key = (
                graph,
                diskcache.encoded(tuple(graph.nodes)),
                diskcache.encoded(tuple(graph.edges)),
            )
        return last[1], last[2]

    def _read_price_list(
        self, graph: ComputationGraph, plan: Mapping[str, PartitionSpec]
    ) -> PlanLowering:
        """``plan``'s :class:`PlanLowering`, read from its Eq. 10 price list
        (:meth:`~repro.core.cost.overall.OverallCostModel.plan_cost`)."""
        started = time.perf_counter()
        with span("sim.lower", ops=len(graph.nodes), edges=len(graph.edges)):
            priced = OverallCostModel(self.profiler).plan_cost(graph, plan)
            operators = tuple(zip(graph.nodes, priced.terms))
            watermark = track_iteration(graph, priced)
            lowering = PlanLowering(
                edge_costs={
                    edge.key(): (forward, backward)
                    for edge, _, forward, backward in priced.edges
                },
                phases={
                    (node.name, phase): _phase_lowering(
                        plan[node.name], terms.phases[phase]
                    )
                    for node, terms in operators
                    for phase in ALL_PHASES
                },
                layernorm_extras={
                    node.name: terms.layernorm_extras[0]
                    for node, terms in operators
                },
                plan_memory=priced.memory_bytes,
                watermark_peak=watermark.peak,
                watermark_composition=watermark.composition_at_peak(),
            )
        counter("sim.lowerings").inc()
        trace_event(
            "sim.lower", ops=len(graph.nodes),
            seconds=time.perf_counter() - started,
        )
        return lowering

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

    def _report_key(self, graph, plan, global_batch, n_layers) -> Tuple:
        """Content-key parts of one simulated iteration's report."""
        return (
            REPORT_KIND,
            SIM_SCHEMA,
            *self._graph_parts(graph),
            tuple(
                sorted(
                    (name, str(spec), spec.n_bits)
                    for name, spec in plan.items()
                )
            ),
            int(global_batch),
            int(n_layers),
            self.profiler.topology,
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
        spliceable.  A cached entry carries the telemetry the simulation
        emitted (kernel counts, heap and rebalance tallies), which a hit
        re-emits.
        """

        def simulate() -> Dict[str, object]:
            report, spliceable, stats = self._simulate(
                graph, self.lower(graph, plan), global_batch, n_layers
            )
            return {
                "report": report, "spliceable": spliceable,
                "stats": dict(stats),
            }

        if self.graph_factory is not KernelGraph:
            entry = simulate()
        else:
            entry, hit = diskcache.memoize(
                REPORT_KIND,
                self._report_key(graph, plan, global_batch, n_layers),
                simulate,
                dict,
            )
            if hit:
                self._replay_telemetry(entry["report"], entry["stats"])
        return entry["report"], entry["spliceable"]

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
            tails: Dict[int, List[int]] = {r: [] for r in range(n_devices)}
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
        kernels = len(kg)
        with span("sim.execute", kernels=kernels) as attrs:
            latency = kg.execute()
            schedule = getattr(kg, "schedule", None)
            if schedule is not None:
                attrs["schedule"] = schedule
        spliceable = n_layers == 1 and kg.spliceable(latency)
        counter("sim.kernels_executed").inc(kernels)
        stats: Dict[str, int] = {"kernels": kernels}
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

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def _collective(
        self,
        kg: KernelGraph,
        streams: Sequence[StreamResource],
        tails: Dict[int, List[int]],
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
        deps: List[int] = []
        for rank in range(len(streams)):
            deps.extend(tails[rank])
            tails[rank] = []
        kg.add(
            f"{op_name}.{phase}.{kind}.barrier",
            streams=streams,
            deps=deps,
            record=False,
        )
        kg.add_per_rank(
            f"{op_name}.{phase}.{kind}", [(stream,) for stream in streams],
            duration, kind, op_name, phase,
        )

    def _lower_phase(
        self,
        kg: KernelGraph,
        streams: Sequence[StreamResource],
        tails: Dict[int, List[int]],
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
        lanes = [(stream,) for stream in streams]
        phase_tag = phase.value
        inbound_prev: Dict[int, List[int]] = {r: [] for r in range(n_ranks)}
        for t in range(priced.total_steps):
            # Step-begin markers: device r enters step t once its previous
            # step's compute (stream FIFO) and inbound double-buffer
            # transfers are done.  Ring sends overlapping step t start here.
            # A marker that waits on no transfer and starts no send would
            # end exactly when its stream predecessor does, so it is left
            # out.
            sends = ring_schedule.get(t, ())
            senders = {send[1] for send in sends}
            markers: Dict[int, int] = {}
            for rank, lane in enumerate(lanes):
                if t == 0:
                    deps = tails[rank]
                    tails[rank] = []
                else:
                    deps = inbound_prev[rank]
                if deps or rank in senders:
                    markers[rank] = kg.add(
                        f"{name}.{phase_tag}.begin{t}[{rank}]",
                        streams=lane,
                        deps=deps,
                        record=False,
                    )
            inbound_now: Dict[int, List[int]] = {r: [] for r in range(n_ranks)}
            for tensor, src, dst, n_bytes in sends:
                transfer = kg.add(
                    f"{name}.{phase_tag}.ring{t}.{tensor}[{src}->{dst}]",
                    deps=(markers[src],),
                    transfer=(n_bytes, self.topology.path_resources(src, dst)),
                    kind="ring",
                    op=op,
                    phase=phase_tag,
                    device=src,
                    overlapped=True,
                )
                inbound_now[dst].append(transfer)
            if step_compute > 0:
                kg.add_per_rank(
                    f"{name}.{phase_tag}.step{t}", lanes, step_compute,
                    "compute", op, phase_tag,
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
