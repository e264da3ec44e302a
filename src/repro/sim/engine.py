"""Discrete-event simulation engine with per-device streams and link contention.

The repo's one plan simulator.  Kernels are priced by the paper's cost
models (Eq. 7–9, one price list per plan); this module replays them on the
simulated cluster:

* :mod:`repro.sim.kernel_graph` — the kernel DAG over device streams
  and shared fabric links, and its executor: :class:`KernelGraph`
  (re-exported here with :class:`StreamResource`, :class:`SimKernel` and
  ``PERF_STAT_KEYS``), whose performance model that module documents;
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

Performance model of the simulator (everything below preserves emitted
timestamps bit for bit; ``tests/test_golden_engine.py`` holds the engine
to that against a frozen copy of the original implementation):

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
  stretch and replay.
* **Layers stacked, not re-lowered.**  Layer ``k``'s kernels are layer
  0's shifted by an index offset and named ``L{k}.``.
  :meth:`EventDrivenSimulator.build` lowers one layer kernel by kernel
  and appends copies of its forward block, then of its backward block
  (:meth:`KernelGraph.append_block`): every column and table is the
  block's slice shifted by the offset, and only each block's first
  kernel per stream and its waits on the previous block's pending ring
  transfers are wired as ``add`` wires a kernel.  A block entered with a
  different number of pending transfers on some rank than its source
  (which changes which step-begin markers exist) is lowered instead, so
  the stack equals a layer-by-layer lowering table for table.
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
* **Lower once, build once, run per scenario.**  Every cost term a
  replay needs (Eq. 7 step compute, sized ring transfers, all-reduce and
  layernorm extras, Eq. 8–9 redistribution, the memory terms) depends only
  on the graph, the plan and the fabric.  :meth:`EventDrivenSimulator.lower`
  reads them from the plan's one price list
  (:meth:`~repro.core.cost.overall.OverallCostModel.plan_cost`, the list
  ``explain`` shows) into a picklable :class:`PlanLowering`, pricing
  nothing itself (memoized on disk as ``lowering`` entries, so a later
  request replaying the same plan loads it instead), and
  :meth:`EventDrivenSimulator.build` turns it into a kernel DAG whose
  kernels keep their priced durations (one layer lowered, the rest
  stacked).  Faults change durations and link
  capacities, not the DAG's shape: a scenario is only what
  :meth:`KernelGraph.execute` is given (duration stretches, link
  capacity factors, NIC flap windows), so the fault layer builds each DAG
  shape once per robustness request and re-executes it per scenario, the
  nominal (empty) scenario, which passes nothing, included.
"""

from __future__ import annotations

import time
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
from ..core.dims import ALL_PHASES, Phase
from ..core.cost.intra import PhaseTerms
from ..core.cost.overall import OverallCostModel, PlanCost
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
from .kernel_graph import (
    PERF_STAT_KEYS,
    KernelBlock,
    KernelGraph,
    SimKernel,
    StreamResource,
)
from .timeline import Timeline

__all__ = [
    "EventDrivenSimulator",
    "KernelGraph",
    "OneLayer",
    "PERF_STAT_KEYS",
    "PhaseLowering",
    "PlanLowering",
    "SimKernel",
    "StreamResource",
]

_R = TypeVar("_R")

#: Bump when report layout or engine semantics change meaning.
SIM_SCHEMA = 3

#: Cache kind of iteration reports (file prefix in the cache directory).
REPORT_KIND = "simreport"

#: Bump when :class:`PlanLowering`'s layout or pricing changes meaning.
LOWERING_SCHEMA = 2

#: Cache kind of plan lowerings.
LOWERING_KIND = "lowering"

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


def _memory_split(priced: PlanCost) -> Dict[str, float]:
    """Per-device memory by kind: the sums of ``priced``'s parameter,
    double-buffer and stash bytes over its operators, in node order.

    Keys appear in the order the first operator holding each kind is met —
    ``parameters`` and ``buffers`` of every operator, then ``stash`` — and
    kinds of at most 1e-9 bytes are dropped.  Every stash is live at the
    end of Forward, so the kinds add up to the peak,
    ``priced.memory_bytes``.
    """
    held = [
        (kind, float(n_bytes[0]))
        for terms in priced.terms
        for kind, n_bytes in (
            ("parameters", terms.parameter_bytes),
            ("buffers", terms.buffer_bytes),
        )
    ] + [("stash", float(terms.stash_bytes[0])) for terms in priced.terms]
    totals: Dict[str, float] = {}
    for kind, n_bytes in held:
        if n_bytes:
            totals[kind] = totals.get(kind, 0.0) + n_bytes
    return {kind: total for kind, total in totals.items() if total > 1e-9}


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
    #: One layer's per-device memory (``PlanCost.memory_bytes``) and its
    #: split by kind (:func:`_memory_split`).
    plan_memory: float
    memory_split: Mapping[str, float]


#: Kernel kinds :meth:`EventDrivenSimulator._collective` adds per rank:
#: their ``op`` label carries the layer tag, as their names do.
_COLLECTIVE_KINDS = ("redistribute", "allreduce")


class OneLayer(NamedTuple):
    """One layer's kernel DAG, as :meth:`EventDrivenSimulator.build`
    stacks it.

    ``kg``'s kernels ``[0, split)`` are the forward block and ``[split,
    len(kg))`` the backward block.  ``tails[b]`` lists, per rank, the
    kernels left pending before block ``b`` (``tails[2]``: after the
    backward block): the ring transfers a phase's last step received,
    which the next collective or phase waits on.  ``tails[0]`` is empty.
    """

    kg: KernelGraph
    split: int
    tails: Tuple[Tuple[Tuple[int, ...], ...], ...]


class EventDrivenSimulator:
    """Replays partition plans on the simulated cluster.

    Lowers a partition plan to a kernel DAG — per-device compute step
    kernels, ring sends on the topology's link resources, all-reduce and
    redistribution barrier kernels — executes it on the discrete-event
    engine, and reports the same :class:`IterationReport` quantities.

    Args:
        profiler: Fabric profiler providing the cluster and cost models.
        graph_factory: Constructor for the kernel-DAG executor, a test
            seam for the frozen engines: for one-layer builds, any class
            with :class:`KernelGraph`'s ``stream``/``add``/``add_per_rank``
            construction and its execution calls (``len``, ``execute``,
            ``spliceable``, ``timeline``, ``link_stats``); a multi-layer
            :meth:`build` copies blocks between two :class:`KernelGraph`
            instances.  Only the stock :class:`KernelGraph`'s reports are
            memoized on disk: a custom graph's reports are not the stock
            ones.
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
                memory_split=_memory_split(priced),
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
        layer: Optional[OneLayer] = None,
    ) -> KernelGraph:
        """``n_layers`` of ``graph``'s kernel DAG on a new ``graph_factory()``.

        Kernel durations and transfers are read from ``lowering`` (see
        :meth:`lower`); the graph is ready to :meth:`execute`, under as
        many fault scenarios as its caller likes.  One layer is lowered
        (:meth:`build_layer`; ``layer`` passes one already built from the
        same graph and lowering) and its forward and backward blocks are
        stacked: every layer's forward block in layer order, then every
        layer's backward block in reverse, each tagged ``L{k}.`` (see
        :meth:`_stack`).
        """
        if layer is None:
            layer = self.build_layer(graph, lowering)
        if n_layers == 1:
            return layer.kg
        with span("sim.build", layers=n_layers):
            return self._stack(graph, lowering, layer, n_layers)

    def build_layer(
        self, graph: ComputationGraph, lowering: PlanLowering
    ) -> OneLayer:
        """One layer of ``graph``'s kernel DAG, lowered from ``lowering``
        kernel by kernel, with the bounds of its two blocks."""
        with span("sim.build", layers=1):
            kg = self.graph_factory()
            n_ranks = self.topology.n_devices
            streams = [kg.stream(f"dev{r}") for r in range(n_ranks)]
            tails: Dict[int, List[int]] = {r: [] for r in range(n_ranks)}
            pending = [tuple(() for _ in range(n_ranks))]
            self._lower_forward(kg, streams, tails, graph, lowering, "")
            split = len(kg)
            pending.append(tuple(tuple(tails[r]) for r in range(n_ranks)))
            self._lower_backward(kg, streams, tails, graph, lowering, "")
            pending.append(tuple(tuple(tails[r]) for r in range(n_ranks)))
            return OneLayer(kg, split, tuple(pending))

    def _stack(
        self,
        graph: ComputationGraph,
        lowering: PlanLowering,
        layer: OneLayer,
        n_layers: int,
    ) -> KernelGraph:
        """``n_layers`` copies of ``layer``'s blocks on a new graph.

        A block waits on the transfers the previous block left pending on
        each rank (:attr:`OneLayer.tails`); those decide which step-begin
        markers its first phase holds.  A copy therefore needs as many
        pending kernels on each rank as its source had, and names them
        in their place; a block entered otherwise is lowered kernel by
        kernel instead, so the stack equals a layer-by-layer lowering.
        """
        kg = self.graph_factory()
        n_ranks = self.topology.n_devices
        tails: Dict[int, List[int]] = {r: [] for r in range(n_ranks)}
        source = layer.kg
        starts = (0, layer.split, len(source))
        blocks = [
            KernelBlock(source, starts[b], starts[b + 1]) for b in (0, 1)
        ]
        lowerers = (self._lower_forward, self._lower_backward)
        order = [(0, k) for k in range(n_layers)]
        order += [(1, k) for k in reversed(range(n_layers))]
        for b, k in order:
            prefix = f"L{k}."
            entered, left = layer.tails[b], layer.tails[b + 1]
            if [len(pending) for pending in entered] != [
                len(tails[r]) for r in range(n_ranks)
            ]:
                # The first forward block is always copied, so the
                # source's streams are this graph's by now.
                streams = [kg.stream(f"dev{r}") for r in range(n_ranks)]
                lowerers[b](kg, streams, tails, graph, lowering, prefix)
                continue
            entry = {
                j: mine
                for r, theirs in enumerate(entered)
                for j, mine in zip(theirs, tails[r])
            }
            shift = kg.append_block(
                blocks[b], prefix, entry, _COLLECTIVE_KINDS
            )
            tails = {
                r: [j + shift if j >= starts[b] else entry[j] for j in pending]
                for r, pending in enumerate(left)
            }
        return kg

    def execute(
        self,
        kg: KernelGraph,
        lowering: PlanLowering,
        n_layers: int,
        **faults: Any,
    ) -> Tuple[float, bool, Dict[str, int]]:
        """Execute ``kg`` (an ``n_layers`` :meth:`build` of ``lowering``)
        under ``faults``, :meth:`KernelGraph.execute`'s arguments.

        Records the run's telemetry (``sim.kernels_executed``, the
        ``PERF_STAT_KEYS`` counters, ``sim.peak_memory_bytes``) and returns
        ``(makespan, spliceable, stats)``; only a one-layer run can be
        spliceable.
        """
        kernels = len(kg)
        with span("sim.execute", kernels=kernels) as attrs:
            latency = kg.execute(**faults)
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
                    "peak_bytes": peak,
                    "composition": {
                        k: v * n_layers
                        for k, v in lowering.memory_split.items()
                    },
                },
                busy_seconds=busy_getter() if busy_getter else None,
            ),
        )
        return report, spliceable, stats

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def _lower_forward(
        self,
        kg: KernelGraph,
        streams: Sequence[StreamResource],
        tails: Dict[int, List[int]],
        graph: ComputationGraph,
        lowering: PlanLowering,
        prefix: str,
    ) -> None:
        """One layer's forward block: per operator, its inbound
        redistributions and forward phase, names prefixed ``prefix``."""
        for node in graph.nodes:
            name = prefix + node.name
            for edge in graph.in_edges(node.name):
                self._collective(
                    kg, streams, tails, name, "-", "redistribute",
                    lowering.edge_costs[edge.key()][0],
                )
            self._lower_phase(
                kg, streams, tails, node.name, name,
                lowering.phases[node.name, Phase.FORWARD], Phase.FORWARD,
            )

    def _lower_backward(
        self,
        kg: KernelGraph,
        streams: Sequence[StreamResource],
        tails: Dict[int, List[int]],
        graph: ComputationGraph,
        lowering: PlanLowering,
        prefix: str,
    ) -> None:
        """One layer's backward block: per operator in reverse, its
        outbound redistributions, backward and gradient phases and
        layernorm all-reduce, names prefixed ``prefix``."""
        for node in reversed(graph.nodes):
            name = prefix + node.name
            for edge in graph.out_edges(node.name):
                self._collective(
                    kg, streams, tails, name, "-", "redistribute",
                    lowering.edge_costs[edge.key()][1],
                )
            for phase in (Phase.BACKWARD, Phase.GRADIENT):
                self._lower_phase(
                    kg, streams, tails, node.name, name,
                    lowering.phases[node.name, phase], phase,
                )
            self._collective(
                kg, streams, tails, name, "G", "allreduce",
                lowering.layernorm_extras[node.name],
            )

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
