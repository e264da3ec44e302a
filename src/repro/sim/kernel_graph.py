"""The kernel DAG the event engine replays, and its executor.

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
  :class:`SimKernel` is one kernel as a record, made on demand, and
  :class:`KernelBlock` a run of kernels to copy.

:class:`~repro.sim.engine.EventDrivenSimulator` lowers plans to these
graphs.

Performance model (everything below preserves emitted timestamps bit for
bit; ``tests/test_golden_engine.py`` holds the graph to that against a
frozen copy of the original implementation):

* **An append-only DAG.**  Every way to add kernels refuses a wait on
  anything but an earlier kernel, so every DAG is acyclic by
  construction and submission order is a topological order.
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
  kernels a fault may stretch.  No kernel object is built and
  no compile pass walks the DAG again; a :class:`SimKernel` record is
  made only when a report or test asks (:attr:`KernelGraph.kernels`).
  An execution copies the counts and runs one loop over a
  single ``(when, seq, code)`` heap that carries every event type —
  kernel finishes, flow activations and completions, and the edges of
  the NIC flaps :meth:`KernelGraph.execute` is given — with no callback
  per event.
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
  list extension, and only the stream wiring and the stretch index walk
  the ranks (through the helpers :meth:`KernelGraph.add` uses, so the
  tables are those of one ``add`` per rank).  Markers, barriers and ring
  transfers stay on ``add``.
* **Blocks copied in bulk.**  :meth:`KernelGraph.append_block` appends a
  copy of a :class:`KernelBlock` (a run of kernels of this graph or
  another): every column and table grows by the block's slice, its
  kernel indices shifted by one offset (one-index rows, most of a
  lowered DAG's, without a comprehension each).  Only the block's
  entries — each stream's first kernel in the block, and the kernels
  waiting on kernels before it — are wired to what precedes the copy,
  through the helpers ``add`` uses.  The simulator stacks layers this
  way instead of lowering each.
* **One pass for transfer-free DAGs.**  The loop exists for fluid link
  contention between flows.  A DAG without transfers (every Megatron
  plan's, and a PrimePar plan's whose specs send no ring traffic), run
  without flaps, has none, and there each kernel starts the moment
  its last wait finishes; the clock never runs backwards, so that is the
  latest end among its predecessors.  :meth:`KernelGraph.execute` then
  computes the schedule in one pass in submission order, ``start[i] =
  max(end[p] for p in preds[i])`` (``0.0`` for a root) and ``end[i] =
  start[i] + duration``: the same max and the same IEEE add as the loop's
  ``now + durations[i]``, so every timestamp is bit-identical by
  construction, not by tolerance.  The pass also needs each device's
  busy kernels to share a stream in turn: they then finish in kernel
  order, which is the order the loop adds their busy seconds in.  No way
  to add kernels tracks this rule: the first execution at each kernel
  count decides it in one scan of the transfer, busy-device and stream
  columns, and later runs of the same DAG (a fault sweep's replays)
  reuse the verdict.  The counters are the loop's (one queue push per
  kernel, nothing else) and no link opens.  The pass computes only start
  and end times: a fault replay reads just the makespan, so the busy
  seconds are summed on demand, in kernel order, by the first
  :meth:`KernelGraph.device_busy_seconds` call after the run — the same
  adds in the same order as the loop's online sum.  Any other DAG, and
  any run given flaps, takes the loop.  The run's times stay in two
  lists (no per-kernel write-back).
* **Determinism.**  Equal-timestamp events fire in submission order
  (``seq`` is one monotonic counter; a re-timing draws a fresh value, so
  it orders as a new submission); flows are iterated in activation order
  (insertion-ordered dicts), never in set order.  Traces for a fixed
  scenario are byte-stable across runs and Python versions.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import (
    Any,
    Container,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..cluster.topology import PathResources
from .timeline import KernelRecord, Timeline

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
        #: Bandwidth the fair-share solve divides: ``capacity`` unless an
        #: active NIC flap (:meth:`KernelGraph.execute`'s ``flaps``) cuts it.
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


def _shifted(
    rows: Sequence[List[int]], shift: int, start: int, end: int
) -> List[List[int]]:
    """Each row's kernel indices in ``[start, end)`` plus ``shift``, as new
    lists (one-index rows, most of a lowered DAG's, without a
    comprehension each)."""
    return [
        ([row[0] + shift] if start <= row[0] < end else [])
        if len(row) == 1
        else [i + shift for i in row if start <= i < end]
        for row in rows
    ]


class KernelBlock:
    """Kernels ``[start, end)`` of a :class:`KernelGraph`, ready to copy.

    :meth:`KernelGraph.append_block` appends copies.  The block keeps only
    what a short walk finds — which kernels a copy wires to what precedes
    it — and reads every column and table from its graph when a copy is
    appended, so append it before that graph changes.  A kernel of the
    block may wait for kernels before it (its *entry dependencies*, which
    each copy names anew).

    * ``entries``: ``(kernel, its waits inside the block, its entry
      dependencies, per stream whether it is the block's first kernel
      there)`` for each kernel first on one of its streams or with an
      entry dependency, in kernel order;
    * ``roots``: the other kernels that wait for nothing;
    * ``lasts``: each stream's last kernel in the block.
    """

    __slots__ = (
        "graph", "start", "end", "entries", "roots", "multi", "floating",
        "by_kind", "lasts",
    )

    def __init__(self, graph: "KernelGraph", start: int, end: int) -> None:
        if not 0 <= start <= end <= len(graph):
            raise IndexError(
                f"no block [{start}, {end}) in a graph of {len(graph)} kernels"
            )
        self.graph = graph
        self.start = start
        self.end = end
        labels = graph._labels
        # Each stream's first and last kernel: scan from either end until
        # every stream the graph's kernels use is found.
        kernels = range(start, end)
        n_streams = len(graph._tails)
        firsts: Dict[StreamResource, int] = {}
        for i in kernels:
            for stream in labels[i][8]:
                firsts.setdefault(stream, i)
            if len(firsts) == n_streams:
                break
        self.lasts: Dict[StreamResource, int] = {}
        for i in reversed(kernels):
            for stream in labels[i][8]:
                self.lasts.setdefault(stream, i)
            if len(self.lasts) == n_streams:
                break
        entering = dict.fromkeys(firsts.values(), ())
        for i, deps in enumerate(graph._deps[start:end], start):
            if deps and min(deps) < start:
                entering[i] = tuple(j for j in deps if j < start)
        preds = graph._preds
        self.entries: List[Tuple[int, Tuple[int, ...], Tuple[int, ...],
                                 Tuple[bool, ...]]] = [
            (
                i, tuple(j for j in preds[i] if j >= start), entering[i],
                tuple(firsts.get(stream) == i for stream in labels[i][8]),
            )
            for i in sorted(entering)
        ]
        roots = graph._roots
        self.roots = [
            i for i in roots[bisect_left(roots, start):bisect_left(roots, end)]
            if i not in entering
        ]
        self.multi = [i for i in graph._multi if start <= i < end]
        floating = graph._floating
        self.floating = floating[
            bisect_left(floating, start):bisect_left(floating, end)
        ]
        self.by_kind: Dict[Tuple[str, int], List[int]] = {}
        for key, stretchable in graph._by_kind.items():
            inside = stretchable[
                bisect_left(stretchable, start):bisect_left(stretchable, end)
            ]
            if inside:
                self.by_kind[key] = inside


class KernelGraph:
    """Builds a kernel DAG over streams/links and executes it to completion.

    A kernel starts once every dependency has finished and it is at the
    head of each of its streams; it then either runs for its priced
    duration (stretched by the run's faults, see :meth:`execute`) or, if
    it carries a ``transfer``, drains through the fabric's shared link
    resources at whatever bandwidth contention leaves it.

    Kernels are numbered by submission order: :meth:`add` returns the
    index, which is the handle a dependant names it by, and
    :meth:`add_per_rank` appends one dependency-free kernel per rank, as
    that many ``add`` calls would, and :meth:`append_block` a copy of a
    :class:`KernelBlock` of kernels (of this graph or another), as one
    ``add`` per kernel would.  Each kernel is one entry in each
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
      duplicates kept), which the one-pass schedule reads;
    * ``_tails`` maps each stream to its last kernel, ``_multi`` the
      kernels on several streams to those streams, ``_floating`` lists the
      kernels on no stream, and ``_by_kind`` the stretchable kernels by
      ``(kind, device)``.

    Each execution starts from a fresh run state and takes a fault
    scenario only as :meth:`execute`'s arguments, so one graph may be
    executed again under another and yields what a freshly built copy
    would.
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
        self._tails: Dict[StreamResource, int] = {}
        self._multi: Dict[int, Tuple[StreamResource, ...]] = {}
        self._floating: List[int] = []
        self._by_kind: Dict[Tuple[str, int], List[int]] = {}
        #: ``(kernel count, whether the one-pass schedule applies)`` as
        #: :meth:`_passes` last decided it (``-1``: never).
        self._verdict: Tuple[int, bool] = (-1, False)
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
        self._busy_device.append(device if record and not overlapped else None)
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
        the columns grow in bulk: only the stream wiring and the stretch
        index walk the ranks.
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
                if prev in multi:
                    self._queue_behind(prev, stream, i)
                else:
                    wakes[prev].append(i)
            waits.append(len(preds))
            if not preds:
                self._roots.append(i)
            elif len(preds) > 1:
                preds.sort()
        self._preds.extend(waiting)

    def _queue_behind(self, prev: int, stream: StreamResource, i: int) -> None:
        """Make multi-stream kernel ``prev``'s finish wake ``i``, its next
        kernel on ``stream`` (``_tails[stream]`` is already ``i``)."""
        woken = self._wakes[prev]
        tails = self._tails
        # Behind the next kernels already added on ``prev``'s earlier
        # streams (the reversed list ends with them).
        filled = 0
        for other in self._multi[prev]:
            if other is stream:
                break
            if tails[other] != prev:
                filled += 1
        woken.insert(len(woken) - filled, i)

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

    def append_block(
        self,
        block: KernelBlock,
        prefix: str = "",
        entry: Mapping[int, int] = {},
        tagged: Container[str] = (),
    ) -> int:
        """Append a copy of ``block``'s kernels; returns the copy's index
        offset (a copied kernel's index minus its source's).

        Each copy is named ``prefix + name``, and its ``op`` label is
        ``prefix + op`` if its kind is in ``tagged``; it runs on the same
        streams (a block stream whose name this graph has no stream for
        becomes this graph's), and its dependencies are shifted by the
        offset, an entry dependency ``j`` becoming ``entry[j]``.  The
        columns and tables equal those of one :meth:`add` per kernel in
        order: the block's own tables are copied with the offset, and
        only its ``entries`` are wired, as ``add`` wires a kernel, to the
        streams' previous kernels and to their entry dependencies.

        Raises:
            ValueError: If ``entry`` misses an entry dependency, or this
                graph has another stream of a block stream's name.
            IndexError: If an entry kernel is not one of this graph's.
        """
        source = block.graph
        start, end = block.start, block.end
        needed = {j for entering in block.entries for j in entering[2]}
        missing = needed.difference(entry)
        if missing:
            raise ValueError(
                f"no entry kernel for dependencies {sorted(missing)} of the "
                f"block [{start}, {end})"
            )
        n = len(self._durations)
        for j in sorted(needed):
            if not 0 <= entry[j] < n:
                raise IndexError(f"entry kernel {entry[j]!r} is not a kernel "
                                 "of this graph")
        for stream in block.lasts:
            if self._streams.setdefault(stream.name, stream) is not stream:
                raise ValueError(
                    f"this graph has another stream named {stream.name!r}"
                )
        shift = n - start
        self._labels.extend([
            (
                prefix + name, kind, prefix + op if kind in tagged else op,
                phase, device, overlapped, record, transfer, streams,
            )
            for (
                name, kind, op, phase, device, overlapped, record, transfer,
                streams,
            ) in source._labels[start:end]
        ])
        self._durations.extend(source._durations[start:end])
        self._deps.extend([
            deps if not deps
            else (deps[0] + shift,) if len(deps) == 1 and deps[0] >= start
            else tuple([j + shift if j >= start else entry[j] for j in deps])
            for deps in source._deps[start:end]
        ])
        self._flows.extend(source._flows[start:end])
        self._busy_device.extend(source._busy_device[start:end])
        wakes = self._wakes
        wakes.extend(_shifted(source._wakes[start:end], shift, start, end))
        preds = self._preds
        preds.extend(_shifted(source._preds[start:end], shift, start, end))
        waits = self._waits
        waits.extend(source._waits[start:end])
        roots = [i + shift for i in block.roots]
        tails = self._tails
        multi = self._multi
        for i, inside, outside, fresh in block.entries:
            streams = source._labels[i][8]
            i += shift
            mine = [j + shift for j in inside]
            for j in outside:
                j = entry[j]
                mine.append(j)
                wakes[j].insert(0, i)
            for stream, first in zip(streams, fresh):
                prev = tails.get(stream) if first else None
                tails[stream] = i
                if prev is None:
                    continue
                mine.append(prev)
                if prev in multi:
                    self._queue_behind(prev, stream, i)
                else:
                    wakes[prev].append(i)
            mine.sort()
            preds[i] = mine
            waits[i] = len(mine)
            if not mine:
                roots.append(i)
        for i in block.multi:
            multi[i + shift] = source._labels[i][8]
        self._roots.extend(sorted(roots))
        self._floating.extend(map(shift.__add__, block.floating))
        by_kind = self._by_kind
        for key, stretchable in block.by_kind.items():
            by_kind.setdefault(key, []).extend(map(shift.__add__, stretchable))
        for stream, i in block.lasts.items():
            tails[stream] = i + shift
        return shift

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

    def execute(
        self,
        stretch: Mapping[Tuple[str, int], float] = {},
        capacity: Mapping[str, float] = {},
        flaps: Sequence[Tuple[str, float, float, float]] = (),
    ) -> float:
        """Run every kernel from a fresh run state; returns the makespan.

        Resets the clock, event heap, links, flows and counters and every
        kernel's start and end times, so a re-execution equals the first
        run of a freshly built graph.  The arguments describe one run's
        faults; the graph keeps none of them:

        * ``stretch`` maps ``(kind, device)`` to a factor: those stretchable
          kernels run for their priced duration times it;
        * ``capacity`` maps a shared link's key to the fraction of its
          bandwidth it opens with;
        * ``flaps`` lists ``(link key, start, end, factor)`` windows: while
          any is on, the link's available bandwidth is its capacity times
          the smallest active factor (``0.0`` stalls its flows).

        A run without flaps of a DAG :meth:`_passes` admits is scheduled
        in one pass (see the module doc), any other through the event
        loop; :attr:`schedule` says which ran.

        Raises:
            RuntimeError: If a kernel never runs (a fault of the loop
                itself: no DAG this class builds can deadlock).
        """
        if flaps or not self._passes():
            self.schedule = "events"
            return self._execute_events(stretch, capacity, flaps)
        self.schedule = "pass"
        durations = self._stretched(stretch)
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

    def _passes(self) -> bool:
        """Whether the one-pass schedule applies to the DAG (see the
        module doc): it has no transfer, and each device's busy kernels
        share a stream in turn — a busy kernel on no stream, or on none of
        its device's previous busy kernel's, needs the loop.  Decided once
        per kernel count."""
        n = len(self._durations)
        checked, verdict = self._verdict
        if checked == n:
            return verdict
        verdict = self._flows.count(None) == n
        if verdict:
            prior: Dict[int, Tuple[StreamResource, ...]] = {}
            for device, labels in zip(self._busy_device, self._labels):
                if device is None:
                    continue
                streams = labels[8]
                last = prior.get(device, streams)
                prior[device] = streams
                if not streams or (streams != last and not any(
                    stream in last for stream in streams
                )):
                    verdict = False
                    break
        self._verdict = (n, verdict)
        return verdict

    def _stretched(
        self, stretch: Mapping[Tuple[str, int], float]
    ) -> List[float]:
        """Each kernel's duration this run (transfers' entries are unused):
        the priced list itself unless ``stretch`` names a kernel."""
        priced = self._durations
        if not stretch:
            return priced
        durations = list(priced)
        by_kind = self._by_kind
        for key, factor in stretch.items():
            for i in by_kind.get(key, ()):
                durations[i] = priced[i] * factor
        return durations

    def _execute_events(
        self,
        stretch: Mapping[Tuple[str, int], float] = {},
        capacity: Mapping[str, float] = {},
        flaps: Sequence[Tuple[str, float, float, float]] = (),
    ) -> float:
        """:meth:`execute` through the event loop, for any DAG."""
        n = len(self._durations)
        flow_code = n          # [n, 2n): a flow's completion
        activate_code = 2 * n  # [2n, 3n): a flow joins the fabric
        flap_code = 3 * n      # [3n, ...): a flap's start or end edge
        durations = self._stretched(stretch)
        wakes = self._wakes
        transfers = self._flows
        busy_device = self._busy_device
        waits = list(self._waits)
        self._links = links = {}
        self._busy = busy = {}
        # Active flap factors per link key (a list: flaps may overlap).
        flapping: Dict[str, List[float]] = {}
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
        # Each flap's start and end edge, in scenario order, ahead of any
        # kernel event of the same timestamp.
        for i, (_, begin, until, _) in enumerate(flaps):
            heappush(heap, (max(begin, 0.0), seq + 1, flap_code + 2 * i))
            heappush(heap, (max(until, 0.0), seq + 2, flap_code + 2 * i + 1))
            seq += 2
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
                for key, bandwidth in shared:
                    link = links.get(key)
                    if link is None:
                        factor = capacity.get(key)
                        if factor is not None:
                            bandwidth = bandwidth * factor
                        link = links[key] = _SharedLink(key, bandwidth)
                        cut = flapping.get(key)
                        if cut:
                            link.available = bandwidth * min(cut)
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
                if code < flap_code:
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
                    edge = code - flap_code
                    key, _, _, factor = flaps[edge >> 1]
                    cut = flapping.setdefault(key, [])
                    if edge & 1:
                        cut.remove(factor)
                    else:
                        cut.append(factor)
                    link = links.get(key)
                    if link is not None:
                        link.available = (
                            link.capacity * min(cut) if cut else link.capacity
                        )
                        dirty_links[key] = link
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
