"""The frozen engines behind the live kernel-graph protocol, and the
per-layer plan build they are built by.

The live :class:`~repro.sim.kernel_graph.KernelGraph` keeps its DAG in columns:
``len(kg)`` is its kernel count, ``kg.add_per_rank(...)`` appends one
kernel per rank in bulk, and ``kg.spliceable(makespan)`` answers the
splice check from its per-stream tails.  The frozen engines
(``legacy_engine``, ``legacy_faults``) keep one object per kernel.
:class:`FrozenProtocol` gives them the same three calls over those
objects (``add_per_rank`` as one frozen ``add`` per rank), so the
simulator and the pipeline replay drive them unchanged.  It also keeps
``add_dep(kernel, dep)`` (a frozen kernel's own ``add_dep``), which the
frozen two-pass pipeline build (``tests/legacy_pipeline.py``) patches
its waits in with; the live graph has no such call, as every wait names
an earlier kernel when it is added.  :func:`splice_walk` — the kernel
walk the simulator ran before the engine kept columns — is the splice
oracle the live check is held to.

The live :meth:`EventDrivenSimulator.build` lowers one layer and stacks
copies of its forward and backward blocks.  :func:`per_layer_build` is a
frozen copy of the build before that: every layer lowered kernel by
kernel through the simulator's phase code.  :class:`PerLayerSimulator`
builds with it; the frozen engines are always built so, which keeps the
golden suites from holding the block copy to itself, and the stacked
graphs are held to it table for table (``tests/test_stacked_build.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import legacy_engine
import legacy_faults
from repro.core.dims import Phase
from repro.obs.spans import span
from repro.sim.engine import EventDrivenSimulator
from repro.sim.kernel_graph import StreamResource


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


def per_layer_build(simulator, graph, lowering, n_layers):
    """``n_layers`` of ``graph``'s kernel DAG on a new
    ``simulator.graph_factory()``, every layer lowered kernel by kernel.

    Frozen copy of :meth:`EventDrivenSimulator.build` before it stacked
    block copies (commit 2da9ac3).  Do not edit except to re-freeze
    against a new baseline.
    """
    with span("sim.build", layers=n_layers):
        kg = simulator.graph_factory()
        n_devices = simulator.topology.n_devices
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
                    simulator._collective(
                        kg, streams, tails, tag(node.name, layer), "-",
                        "redistribute", fwd,
                    )
                simulator._lower_phase(
                    kg, streams, tails, node.name, tag(node.name, layer),
                    phases[node.name, Phase.FORWARD], Phase.FORWARD,
                )

        # ---- Backward + Gradient (reverse order) --------------------
        for layer in reversed(range(n_layers)):
            for node in reversed(graph.nodes):
                for edge in graph.out_edges(node.name):
                    _, bwd = edge_costs[edge.key()]
                    simulator._collective(
                        kg, streams, tails, tag(node.name, layer), "-",
                        "redistribute", bwd,
                    )
                for phase in (Phase.BACKWARD, Phase.GRADIENT):
                    simulator._lower_phase(
                        kg, streams, tails, node.name,
                        tag(node.name, layer), phases[node.name, phase],
                        phase,
                    )
                simulator._collective(
                    kg, streams, tails, tag(node.name, layer), "G",
                    "allreduce", lowering.layernorm_extras[node.name],
                )
        return kg


class PerLayerSimulator(EventDrivenSimulator):
    """The live simulator building every DAG with :func:`per_layer_build`
    (any ``layer`` passed is ignored)."""

    def build(self, graph, lowering, n_layers, layer=None):
        return per_layer_build(self, graph, lowering, n_layers)


#: Every per-kernel column and execution table ``add`` fills.
TABLES = (
    "_labels", "_durations", "_deps", "_flows", "_busy_device", "_waits",
    "_wakes", "_roots", "_preds", "_tails", "_multi", "_floating",
    "_by_kind", "_busy_streams", "_one_pass",
)


def named(value):
    """``value`` with every stream replaced by its name, so two graphs'
    tables compare by content."""
    if isinstance(value, dict):
        return {named(key): named(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(named(item) for item in value)
    if isinstance(value, StreamResource):
        return value.name
    return value


def tables(kg):
    """Every column and table of the live graph ``kg``, streams by name."""
    return {table: named(getattr(kg, table)) for table in TABLES}


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
    """The live graph's kernel count, per-rank append and splice check,
    and ``add_dep`` by handle, over a frozen engine's kernel objects."""

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

    def execute(self, **faults) -> float:
        """Run once under the scenario the graph was built for; the engine
        arguments a live run takes for it are ignored."""
        return super().execute()
