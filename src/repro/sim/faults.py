"""Seeded, deterministic fault injection over the event engine.

The planner's nominal makespan assumes a perfect fleet.  Real training runs
see stragglers, flaky NICs, degraded links and node loss — and the partition
choice that wins on a perfect fabric is not always the one that degrades most
gracefully.  This module makes that question answerable:

* **Fault primitives** — :class:`Straggler` (per-device compute slowdown),
  :class:`DegradedLink` (a node NIC pool at a fraction of its bandwidth),
  :class:`NicFlap` (a transient outage window with reroute/stall semantics),
  :class:`NodeOutage` (node loss mid-iteration, recovered via
  checkpoint/restart and optional re-planning, see :class:`RecoveryModel`).
* **Monte-Carlo sampling** — :class:`FaultModel` turns fleet-level rates
  into N :class:`FaultScenario` draws.  Scenario ``i`` under seed ``s`` is a
  pure function of ``(s, i)`` (its own :class:`random.Random` stream), so
  outcomes are bit-identical serial or fanned out through
  :func:`~repro.core.optimizer.parallel.parallel_map`, and independent of
  evaluation order.
* **Injection** — a scenario is data the event engine's
  :meth:`~repro.sim.kernel_graph.KernelGraph.execute` is given
  (:meth:`FaultScenario.engine_args`): stragglers stretch compute-kind
  kernel durations, degraded links scale shared NIC capacities, and flaps
  modulate effective link capacity over time (``reroute_factor == 0`` stalls
  in-flight transfers until the link returns).  Faults act when the graph
  executes, not when it is built, so one built graph serves every
  scenario.  The empty scenario passes nothing — the zero-fault path is
  the stock engine's, and the golden suite holds it to the frozen one.
* **Scoring** — :func:`evaluate_robustness` replays a plan under the
  empty scenario and across the sampled ones — building each kernel-DAG
  shape once per request (:class:`FaultSweep`) and executing it per
  scenario, with no per-replay report — and folds the outcomes into a
  :class:`RobustnessReport`:
  p50/p95/p99 iteration latency (nearest-rank, via
  :func:`repro.obs.metrics.nearest_rank`), slowdown attribution (compute vs. link vs.
  recovery), and expected recovery cost.
* **Tail-latency planning** — :func:`robust_search` scores a small plan
  portfolio (PrimePar with and without the temporal primitive, plus the
  Megatron baseline) under one fault model and ranks it by a tail
  objective.

Attribution is exact by construction: each scenario is simulated twice —
compute faults only, then all engine faults — so ``latency ==
nominal + compute_delay + link_delay + recovery_delay`` holds bit-exactly
per outcome.  Fault simulations bypass the disk report cache (their results
are functions of the scenario, not just the plan) and force a full layer
replay whenever a flap makes the schedule time-varying.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api import (
    OBJECTIVES,
    ValidationError,
    _arg,
    check_fields,
    field_type,
    plan_to_json,
    stamp,
)
from ..cluster.profiler import FabricProfiler
from ..cluster.topology import ClusterTopology
from ..core.optimizer.parallel import parallel_map, resolve_jobs
from ..core.spec import PartitionSpec
from ..graph.graph import ComputationGraph
from ..obs.metrics import counter, nearest_rank
from ..obs.spans import span
from .engine import EventDrivenSimulator, OneLayer, PlanLowering
from .kernel_graph import KernelGraph

__all__ = [
    "DegradedLink",
    "FaultModel",
    "FaultScenario",
    "FaultSweep",
    "NicFlap",
    "NodeOutage",
    "RecoveryModel",
    "RobustCandidate",
    "RobustSearchResult",
    "RobustnessReport",
    "ScenarioOutcome",
    "Straggler",
    "evaluate_robustness",
    "robust_search",
    "scenario_seed",
    "simulate_scenario",
]

#: Kernel kinds whose durations a straggler device stretches (per-device
#: compute: SPMD step kernels plus pipeline-stage forward/backward).
COMPUTE_KINDS = frozenset({"compute", "forward", "backward"})

#: Bandwidth-bound kernel kinds a degraded link stretches on its node's
#: devices.  Collectives are priced in closed form on device streams (not
#: as fabric flows), so a degraded NIC must surface there too: its node's
#: per-rank collective kernels run at ``1 / factor`` — and the next
#: barrier waits for the slowest rank, which is exactly how a slow NIC
#: gates a ring collective.  Point-to-point flows (ring transfers,
#: pipeline sends) are additionally slowed through the shared-link
#: capacity itself.
LINK_KINDS = frozenset({"redistribute", "allreduce"})


def scenario_seed(seed: int, index: int) -> int:
    """The derived RNG seed for scenario ``index`` under run seed ``seed``.

    A pure function of ``(seed, index)`` so each scenario owns an
    independent, order-free random stream (Mersenne Twister output is
    stable across Python versions).
    """
    return (seed * 1_000_003 + index * 7_919) & 0x7FFFFFFFFFFFFFFF


def _known(body: Mapping[str, Any], names: Sequence[str], path: str) -> None:
    """Reject a key of a fault-model object that no field declares."""
    for key in body:
        if key not in names:
            raise ValidationError(
                f"unknown fault-model field {key!r}; expected one of "
                f"{sorted(names)}",
                f"faults.{path}{key}",
            )


# ----------------------------------------------------------------------
# fault primitives
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Straggler:
    """One device running compute-kind kernels ``slowdown`` times slower."""

    device: int
    slowdown: float


@dataclass(frozen=True)
class DegradedLink:
    """One node's NIC pool running at ``factor`` of its nominal bandwidth."""

    node: int
    factor: float


@dataclass(frozen=True)
class NicFlap:
    """A transient NIC outage on ``node`` during ``[start, start+duration)``.

    While the flap is active the node's NIC pool runs at ``reroute_factor``
    of its capacity — ``0.0`` models a hard outage (in-flight transfers
    stall until the link returns), a positive fraction models traffic
    rerouted over a slower path.
    """

    node: int
    start: float
    duration: float
    reroute_factor: float = 0.0


@dataclass(frozen=True)
class NodeOutage:
    """Node loss partway through the faulted iteration.

    ``at_fraction`` is where in the iteration the node dies (the work up to
    that point is lost and redone); ``lost_iterations`` is how far the run
    sits past its last checkpoint (each lost iteration is redone at nominal
    speed after restart).
    """

    node: int
    at_fraction: float
    lost_iterations: int


@dataclass(frozen=True)
class RecoveryModel:
    """Checkpoint/restart economics applied to a :class:`NodeOutage`.

    Recovery cost = the faulted iteration's work lost at the outage point,
    plus ``lost_iterations`` re-run at nominal speed (uniform over
    ``checkpoint_interval``), plus ``restart_seconds`` of restart, plus
    ``replan_seconds`` of re-planning on the changed topology
    (``0`` disables the re-plan term).  The bounds keep a recovery cost
    finite.
    """

    checkpoint_interval: int = _arg(
        16, "iterations between checkpoints; at most 10^6", lo=1, hi=10**6
    )
    restart_seconds: float = _arg(
        30.0, "restart seconds after an outage; at most 86400 (a day)",
        lo=0, hi=86_400,
    )
    replan_seconds: float = _arg(
        5.0, "re-planning seconds after an outage; at most 86400 (a day)",
        lo=0, hi=86_400,
    )

    def __post_init__(self) -> None:
        check_fields(self, "faults.")


@dataclass(frozen=True)
class FaultScenario:
    """One concrete draw from a :class:`FaultModel` (see :meth:`FaultModel.sample`)."""

    index: int
    seed: int
    stragglers: Tuple[Straggler, ...] = ()
    degraded_links: Tuple[DegradedLink, ...] = ()
    nic_flaps: Tuple[NicFlap, ...] = ()
    outage: Optional[NodeOutage] = None

    @property
    def has_compute_faults(self) -> bool:
        return bool(self.stragglers)

    @property
    def has_link_faults(self) -> bool:
        return bool(self.degraded_links or self.nic_flaps)

    @property
    def is_nominal(self) -> bool:
        return not (
            self.stragglers or self.degraded_links or self.nic_flaps
            or self.outage
        )

    def engine_only(self) -> "FaultScenario":
        """This scenario without the outage (the engine-visible faults)."""
        return replace(self, outage=None)

    def compute_only(self) -> "FaultScenario":
        """This scenario with only its compute faults (for attribution)."""
        return replace(self, degraded_links=(), nic_flaps=(), outage=None)

    def engine_args(self, topology: ClusterTopology) -> Dict[str, Any]:
        """This scenario's engine faults on ``topology`` as
        :meth:`~repro.sim.kernel_graph.KernelGraph.execute` arguments,
        leaving out the empty ones (the nominal scenario's are none; an
        outage is priced after the replay, not in it).

        * ``stretch``: a straggler runs its device's compute-kind kernels
          ``slowdown`` times longer; on a multi-node cluster a degraded
          node's devices run their bandwidth-bound collectives
          (``LINK_KINDS``) ``1 / factor`` times longer — a single node has
          no NIC in any collective's path;
        * ``capacity``: a degraded node's NIC pool ``nic:node{n}`` opens at
          ``factor`` of its bandwidth;
        * ``flaps``: each flap's ``(pool, start, end, reroute_factor)``,
          in scenario order.
        """
        stretch = {
            (kind, straggler.device): straggler.slowdown
            for straggler in self.stragglers
            for kind in COMPUTE_KINDS
        }
        if topology.n_nodes > 1:
            by_node = {d.node: d.factor for d in self.degraded_links}
            for device in range(topology.n_devices):
                factor = by_node.get(topology.node_of(device))
                if factor is not None:
                    stretch.update(
                        ((kind, device), 1.0 / factor) for kind in LINK_KINDS
                    )
        args = {
            "stretch": stretch,
            "capacity": {
                f"nic:node{d.node}": d.factor for d in self.degraded_links
            },
            "flaps": tuple(
                (f"nic:node{f.node}", f.start, f.start + f.duration,
                 f.reroute_factor)
                for f in self.nic_flaps
            ),
        }
        return {name: value for name, value in args.items() if value}


# ----------------------------------------------------------------------
# the fault model (fleet-level rates -> seeded scenarios)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultModel:
    """Fleet-level fault rates, sampled into deterministic scenarios.

    Rates are per faulted iteration: ``straggler_rate`` per device,
    ``degrade_rate`` and ``outage_rate`` per node, ``flap_rate`` expected
    flaps per node.  Severities (``straggler_slowdown``,
    ``degrade_factor``, ``flap_duration``) are means; each draw jitters
    them uniformly in ``[0.5, 1.5]`` of the excess so scenarios are not
    all identical.

    Each field (and each :class:`RecoveryModel` field) is declared with
    its type, default and bounds like a :mod:`repro.api` request field,
    and checked by the same rules under ``faults.<name>`` whether it is
    parsed or built directly.  The upper bounds keep every draw and sum
    finite and every sweep's sampling bounded.

    The draw order inside :meth:`sample` is part of the schema — reordering
    it changes every seeded scenario, which the determinism suite treats as
    a break.
    """

    straggler_rate: float = _arg(
        0.0, "probability that a device straggles", lo=0, hi=1
    )
    straggler_slowdown: float = _arg(
        1.5,
        "mean compute slowdown of a straggler; at most 100 so a jittered "
        "draw stays finite",
        lo=1, hi=100,
    )
    degrade_rate: float = _arg(
        0.0, "probability that a node's NIC pool is degraded", lo=0, hi=1
    )
    degrade_factor: float = _arg(
        0.5, "mean fraction of its bandwidth a degraded NIC pool keeps",
        gt=0, hi=1,
    )
    flap_rate: float = _arg(
        0.0,
        "expected NIC flaps per node; at most 64, since each flap is drawn "
        "and replayed one by one",
        lo=0, hi=64,
    )
    flap_duration: float = _arg(
        0.002,
        "mean flap length in seconds; at most 3600 so a stalled transfer "
        "ends in finite time",
        lo=0, hi=3600,
    )
    flap_reroute: float = _arg(
        0.0, "NIC capacity fraction left during a flap (0 = outage)",
        lo=0, hi=1,
    )
    outage_rate: float = _arg(
        0.0, "probability of a node outage mid-iteration", lo=0, hi=1
    )
    recovery: RecoveryModel = field(default_factory=RecoveryModel)

    def __post_init__(self) -> None:
        check_fields(self, "faults.")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "FaultModel":
        """Build from a JSON object, rejecting unknown or ill-typed fields.

        Recovery fields may sit in a nested ``recovery`` object or at the
        top level (which wins).
        """
        if not isinstance(payload, Mapping):
            raise ValidationError(
                "fault model must be a JSON object", "faults"
            )
        recovery_names = [f.name for f in fields(RecoveryModel)]
        _known(payload, [f.name for f in fields(cls)] + recovery_names, "")
        values = dict(payload)
        nested = values.pop("recovery", {})
        if not isinstance(nested, Mapping):
            raise ValidationError(
                "recovery model must be a JSON object", "faults.recovery"
            )
        _known(nested, recovery_names, "recovery.")
        flat = {k: values.pop(k) for k in recovery_names if k in values}
        return cls(recovery=RecoveryModel(**{**nested, **flat}), **values)

    @classmethod
    def from_spec(cls, text: str) -> "FaultModel":
        """Parse the compact CLI spec.

        ``"straggler=0.2:1.8,degrade=0.3:0.5,flap=0.5:0.002:0.25,
        outage=0.05,ckpt=16,restart=30,replan=5"`` — each clause is
        ``name=rate[:severity[:extra]]``.  An empty string is the
        zero-fault model.  The text is never a path: ``primepar``'s
        ``@file.json`` spelling is read by the CLI, not here.
        """
        payload: Dict[str, Any] = {}
        clause_map = {
            "straggler": ("straggler_rate", "straggler_slowdown"),
            "degrade": ("degrade_rate", "degrade_factor"),
            "flap": ("flap_rate", "flap_duration", "flap_reroute"),
            "outage": ("outage_rate",),
            "ckpt": ("checkpoint_interval",),
            "restart": ("restart_seconds",),
            "replan": ("replan_seconds",),
        }
        kinds = {
            f.name: field_type(f)
            for f in fields(cls) + fields(RecoveryModel) if f.metadata
        }
        for clause in filter(None, (c.strip() for c in text.split(","))):
            name, sep, rest = clause.partition("=")
            if not sep or name not in clause_map:
                raise ValidationError(
                    f"bad fault spec clause {clause!r}; expected one of "
                    f"{sorted(clause_map)} as name=value[:value...]",
                    "faults",
                )
            fields_for = clause_map[name]
            parts = rest.split(":")
            if len(parts) > len(fields_for):
                raise ValidationError(
                    f"too many values in fault spec clause {clause!r}",
                    "faults",
                )
            for field_name, part in zip(fields_for, parts):
                try:
                    payload[field_name] = kinds[field_name](part)
                except ValueError as exc:
                    raise ValidationError(
                        f"bad number {part!r} in fault spec clause {clause!r}",
                        f"faults.{field_name}",
                    ) from exc
        return cls.from_json(payload)

    def to_json(self) -> Dict[str, Any]:
        """Every field in declaration order, ``recovery`` nested."""
        return {**vars(self), "recovery": dict(vars(self.recovery))}

    def canonical(self) -> str:
        """A stable string form for cache keys and determinism checks."""
        return json.dumps(self.to_json(), sort_keys=True)

    # -- sampling -------------------------------------------------------

    def sample(
        self,
        topology: ClusterTopology,
        index: int,
        seed: int,
        horizon: float,
    ) -> FaultScenario:
        """Draw scenario ``index`` for ``topology`` under run seed ``seed``.

        ``horizon`` (the nominal iteration latency) bounds flap start
        times.  The draw order — stragglers per device, degraded links per
        node, flaps per node, then the outage — is frozen; see the class
        docstring.
        """
        rng = random.Random(scenario_seed(seed, index))
        stragglers: List[Straggler] = []
        for device in range(topology.n_devices):
            if rng.random() < self.straggler_rate:
                excess = (self.straggler_slowdown - 1.0) * (0.5 + rng.random())
                stragglers.append(Straggler(device, 1.0 + excess))
        degraded: List[DegradedLink] = []
        for node in range(topology.n_nodes):
            if rng.random() < self.degrade_rate:
                severity = 0.5 + rng.random()
                factor = 1.0 - (1.0 - self.degrade_factor) * severity
                degraded.append(DegradedLink(node, max(factor, 0.05)))
        flaps: List[NicFlap] = []
        for node in range(topology.n_nodes):
            count = int(self.flap_rate)
            if rng.random() < self.flap_rate - count:
                count += 1
            for _ in range(count):
                start = rng.random() * max(horizon, 0.0)
                duration = self.flap_duration * (0.5 + rng.random())
                flaps.append(
                    NicFlap(node, start, duration, self.flap_reroute)
                )
        outage: Optional[NodeOutage] = None
        if rng.random() < self.outage_rate:
            node = rng.randrange(topology.n_nodes)
            at_fraction = rng.random()
            lost = rng.randrange(self.recovery.checkpoint_interval)
            outage = NodeOutage(node, at_fraction, lost)
        return FaultScenario(
            index=index,
            seed=seed,
            stragglers=tuple(stragglers),
            degraded_links=tuple(degraded),
            nic_flaps=tuple(flaps),
            outage=outage,
        )

    def scenarios(
        self,
        topology: ClusterTopology,
        n: int,
        seed: int,
        horizon: float,
    ) -> Tuple[FaultScenario, ...]:
        """``n`` seeded scenario draws (each independent of the others)."""
        return tuple(
            self.sample(topology, index, seed, horizon) for index in range(n)
        )


# ----------------------------------------------------------------------
# scenario evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's simulated iteration, decomposed by fault class.

    ``latency == nominal_latency + compute_delay + link_delay +
    recovery_delay`` holds bit-exactly by construction.
    """

    index: int
    latency: float
    nominal_latency: float
    compute_delay: float
    link_delay: float
    recovery_delay: float
    stragglers: int = 0
    degraded_links: int = 0
    nic_flaps: int = 0
    outage: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "latency": self.latency,
            "nominal_latency": self.nominal_latency,
            "compute_delay": self.compute_delay,
            "link_delay": self.link_delay,
            "recovery_delay": self.recovery_delay,
            "stragglers": self.stragglers,
            "degraded_links": self.degraded_links,
            "nic_flaps": self.nic_flaps,
            "outage": self.outage,
        }


@dataclass(frozen=True)
class RobustnessReport:
    """A plan's behaviour under one fault model: tail latency + attribution.

    Percentiles are nearest-rank over the scenario latencies
    (:func:`repro.obs.metrics.nearest_rank`); ``attribution`` holds the
    mean seconds each fault class added per scenario;
    ``expected_recovery_cost`` equals ``attribution["recovery"]``.
    """

    n_scenarios: int
    seed: int
    nominal_latency: float
    p50: float
    p95: float
    p99: float
    mean_latency: float
    worst_latency: float
    attribution: Dict[str, float]
    expected_recovery_cost: float
    outage_scenarios: int
    fault_model: FaultModel
    outcomes: Tuple[ScenarioOutcome, ...] = ()

    def score(self, objective: str = "nominal", blend: float = 0.5) -> float:
        """The plan's scalar score under a tail objective.

        ``blend`` interpolates nominal and p99:
        ``(1 - blend) * nominal + blend * p99``.
        """
        if objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}",
                "objective",
            )
        if objective == "nominal":
            return self.nominal_latency
        if objective == "blend":
            return (1.0 - blend) * self.nominal_latency + blend * self.p99
        return {"p50": self.p50, "p95": self.p95, "p99": self.p99}[objective]

    def to_json(self) -> Dict[str, Any]:
        return stamp(
            "robustness_report",
            {
                "n_scenarios": self.n_scenarios,
                "seed": self.seed,
                "nominal_latency": self.nominal_latency,
                "p50": self.p50,
                "p95": self.p95,
                "p99": self.p99,
                "mean_latency": self.mean_latency,
                "worst_latency": self.worst_latency,
                "attribution": dict(sorted(self.attribution.items())),
                "expected_recovery_cost": self.expected_recovery_cost,
                "outage_scenarios": self.outage_scenarios,
                "fault_model": self.fault_model.to_json(),
                "outcomes": [o.to_json() for o in self.outcomes],
            },
        )


#: The empty scenario, whose replay is the nominal latency.
_NOMINAL = FaultScenario(index=0, seed=0)


class FaultSweep:
    """The replays of one robustness sweep over one plan.

    Faults change kernel durations and link capacities, not the kernel
    DAG's shape, so each shape — the one-layer splice probe and the
    ``n_layers`` stack — is built once, on its first replay, and executed
    under each scenario's :meth:`FaultScenario.engine_args`.  The nominal
    replay (the empty scenario) runs on the same DAGs as the faulted
    ones.  A replay returns only the makespan; it builds no
    timeline, breakdown, utilization or report.

    A sweep owns DAGs that keep their last run's state: keep one per
    thread of work (the server runs requests on threads, ``jobs`` workers
    build their own).
    ``lowering`` is :meth:`EventDrivenSimulator.lower` of ``plan``;
    without one the plan is lowered (or its lowering loaded) on the first
    replay.
    """

    def __init__(
        self,
        profiler: FabricProfiler,
        graph: ComputationGraph,
        plan: Mapping[str, PartitionSpec],
        n_layers: int,
        lowering: Optional[PlanLowering] = None,
    ) -> None:
        self.simulator = EventDrivenSimulator(profiler)
        self.graph = graph
        self.plan = plan
        self.n_layers = n_layers
        self._lowering = lowering
        #: The one-layer DAG (the splice probe's, and the source the
        #: stack's blocks are copied from) and the ``n_layers`` stack.
        self._layer: Optional[OneLayer] = None
        self._stack: Optional[KernelGraph] = None

    @property
    def lowering(self) -> PlanLowering:
        """The plan's :class:`PlanLowering`, priced on first use."""
        if self._lowering is None:
            self._lowering = self.simulator.lower(self.graph, self.plan)
        return self._lowering

    def latency(self, scenario: FaultScenario) -> float:
        """The iteration makespan under ``scenario``'s engine faults.

        Follows :meth:`EventDrivenSimulator.run_layers`'s splice policy; a
        flap makes the schedule time-varying and forces the full stack.
        The scenario becomes engine arguments once, for every replay.
        """
        n_layers = self.n_layers
        faults = scenario.engine_args(self.simulator.topology)
        return self.simulator.run_layers(
            n_layers,
            lambda layers: self._replay(layers, faults),
            lambda single: single * n_layers,
            force_replay=bool(scenario.nic_flaps),
        )

    def _replay(
        self, n_layers: int, faults: Mapping[str, Any]
    ) -> Tuple[float, bool]:
        latency, spliceable, _ = self.simulator.execute(
            self._dag(n_layers), self.lowering, n_layers, **faults
        )
        if n_layers < self.n_layers:
            counter(
                "faults.splice_probes",
                outcome="spliced" if spliceable else "replayed",
            ).inc()
        return latency, spliceable

    def _dag(self, n_layers: int) -> KernelGraph:
        """The ``n_layers`` kernel DAG (one layer or the full stack).  The
        stack copies the one-layer DAG's blocks, so a sweep lowers one
        layer whichever it replays first."""
        if self._layer is None:
            self._layer = self.simulator.build_layer(self.graph, self.lowering)
        if n_layers == 1:
            return self._layer.kg
        if self._stack is None:
            self._stack = self.simulator.build(
                self.graph, self.lowering, n_layers, self._layer
            )
        return self._stack


def simulate_scenario(
    sweep: FaultSweep,
    scenario: FaultScenario,
    recovery: RecoveryModel,
    nominal_latency: float,
) -> ScenarioOutcome:
    """Simulate one scenario and decompose its slowdown by fault class.

    The scenario is replayed twice when it mixes fault classes — compute
    faults only, then all engine faults — so the compute/link split is
    exact; pure-compute or pure-link scenarios need one replay, and
    nominal scenarios none.  Every replay runs on ``sweep``'s DAGs.
    """
    if scenario.has_compute_faults:
        compute_latency = sweep.latency(scenario.compute_only())
    else:
        compute_latency = nominal_latency
    if scenario.has_link_faults:
        engine_latency = sweep.latency(scenario.engine_only())
    else:
        engine_latency = compute_latency
    recovery_delay = 0.0
    if scenario.outage is not None:
        lost_work = scenario.outage.at_fraction * engine_latency
        redo = scenario.outage.lost_iterations * nominal_latency
        recovery_delay = (
            lost_work + redo + recovery.restart_seconds
            + recovery.replan_seconds
        )
    return ScenarioOutcome(
        index=scenario.index,
        latency=engine_latency + recovery_delay,
        nominal_latency=nominal_latency,
        compute_delay=compute_latency - nominal_latency,
        link_delay=engine_latency - compute_latency,
        recovery_delay=recovery_delay,
        stragglers=len(scenario.stragglers),
        degraded_links=len(scenario.degraded_links),
        nic_flaps=len(scenario.nic_flaps),
        outage=scenario.outage is not None,
    )


def _sweep_task(payload) -> List[ScenarioOutcome]:
    """Module-level (picklable) worker: one sweep over a run of scenarios."""
    profiler, graph, plan, n_layers, lowering, scenarios, recovery, nominal = (
        payload
    )
    sweep = FaultSweep(profiler, graph, plan, n_layers, lowering)
    return [
        simulate_scenario(sweep, scenario, recovery, nominal)
        for scenario in scenarios
    ]


def build_report(
    outcomes: Sequence[ScenarioOutcome],
    nominal_latency: float,
    fault_model: FaultModel,
    seed: int,
) -> RobustnessReport:
    """Fold scenario outcomes into a :class:`RobustnessReport`."""
    ordered = sorted(o.latency for o in outcomes)
    n = len(outcomes)
    attribution = {
        "compute": sum(o.compute_delay for o in outcomes) / n,
        "link": sum(o.link_delay for o in outcomes) / n,
        "recovery": sum(o.recovery_delay for o in outcomes) / n,
    }
    return RobustnessReport(
        n_scenarios=n,
        seed=seed,
        nominal_latency=nominal_latency,
        p50=nearest_rank(ordered, 0.5),
        p95=nearest_rank(ordered, 0.95),
        p99=nearest_rank(ordered, 0.99),
        mean_latency=sum(ordered) / n,
        worst_latency=ordered[-1],
        attribution=attribution,
        expected_recovery_cost=attribution["recovery"],
        outage_scenarios=sum(1 for o in outcomes if o.outage),
        fault_model=fault_model,
        outcomes=tuple(outcomes),
    )


def evaluate_robustness(
    profiler: FabricProfiler,
    graph: ComputationGraph,
    plan: Mapping[str, PartitionSpec],
    n_layers: int,
    fault_model: FaultModel,
    *,
    scenarios: int = 16,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> RobustnessReport:
    """Score ``plan`` across ``scenarios`` seeded fault draws.

    Deterministic by construction: scenario ``i`` is a pure function of
    ``(seed, i)``, outcomes are merged in submission order, and percentiles
    are nearest-rank — so the report is bit-identical serial or under any
    ``jobs`` fan-out.

    One :class:`FaultSweep` lowers the plan once and replays the empty
    scenario for the nominal latency, under
    :meth:`~repro.sim.engine.EventDrivenSimulator.run_layers`'s splice
    policy with the one-layer makespan tiled ``n_layers`` times: bit for
    bit :meth:`~repro.sim.engine.EventDrivenSimulator.run_model`'s
    latency, without its report.  Every scenario goes through
    :func:`simulate_scenario`, which replays nothing for a nominal one.  A
    serial run replays the scenarios on that sweep's kernel DAGs, so each
    shape is built once per request.  With ``jobs`` workers and at least
    two faulted scenarios, the scenarios are split into one contiguous run
    per worker, each replayed by its own sweep from the shipped lowering.
    """
    if scenarios < 1:
        raise ValidationError(
            f"scenarios must be >= 1, got {scenarios}", "scenarios"
        )
    with span(
        "faults.evaluate",
        scenarios=scenarios,
        devices=profiler.topology.n_devices,
    ):
        sweep = FaultSweep(profiler, graph, plan, n_layers)
        nominal = sweep.latency(_NOMINAL)
        drawn = fault_model.scenarios(
            profiler.topology, scenarios, seed, nominal
        )
        faulted = 0
        for scenario in drawn:
            kind = "nominal" if scenario.is_nominal else "faulted"
            counter("faults.scenarios", kind=kind).inc()
            faulted += kind == "faulted"
        recovery = fault_model.recovery
        runs = min(resolve_jobs(jobs), faulted)
        if runs <= 1:
            outcomes = [
                simulate_scenario(sweep, scenario, recovery, nominal)
                for scenario in drawn
            ]
        else:
            payloads = [
                (
                    profiler, graph, plan, n_layers, sweep.lowering,
                    drawn[i * len(drawn) // runs:(i + 1) * len(drawn) // runs],
                    recovery, nominal,
                )
                for i in range(runs)
            ]
            outcomes = [
                outcome
                for run in parallel_map(_sweep_task, payloads, jobs)
                for outcome in run
            ]
        return build_report(outcomes, nominal, fault_model, seed)


# ----------------------------------------------------------------------
# tail-latency planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RobustCandidate:
    """One plan in a robust-search portfolio, scored under the fault model."""

    label: str
    plan: Dict[str, PartitionSpec]
    score: float
    report: RobustnessReport

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "plan": plan_to_json(self.plan),
            "score": self.score,
            "report": self.report.to_json(),
        }


@dataclass(frozen=True)
class RobustSearchResult:
    """A ranked plan portfolio under one fault model and tail objective."""

    objective: str
    blend: float
    candidates: Tuple[RobustCandidate, ...]

    @property
    def best(self) -> RobustCandidate:
        return self.candidates[0]

    def to_json(self) -> Dict[str, Any]:
        return stamp(
            "robust_search",
            {
                "objective": self.objective,
                "blend": self.blend,
                "best": self.best.label,
                "candidates": [c.to_json() for c in self.candidates],
            },
        )


def robust_search(
    profiler: FabricProfiler,
    graph: ComputationGraph,
    *,
    global_batch: int,
    n_layers: int,
    fault_model: FaultModel,
    objective: str = "p99",
    blend: float = 0.5,
    scenarios: int = 16,
    seed: int = 0,
    sim_layers: Optional[int] = None,
    alpha: float = 0.0,
    beam: Optional[int] = None,
    jobs: Optional[int] = 1,
    deadline=None,
) -> RobustSearchResult:
    """Rank a plan portfolio by tail latency under ``fault_model``.

    The portfolio is :func:`~repro.baselines.portfolio.portfolio`'s:
    the PrimePar optimum, the conventional (spatial-only) optimum under
    the same ``alpha``, and Megatron's best degree at ``n_layers``;
    identical plans are evaluated once.  ``sim_layers`` bounds the
    robustness replays (default: ``n_layers``); the plan *search* always
    runs at ``n_layers``.
    """
    from ..baselines.portfolio import portfolio

    depth = sim_layers if sim_layers else n_layers
    with span("faults.robust_search", objective=objective):
        plans = portfolio(
            profiler, graph, global_batch=global_batch, n_layers=n_layers,
            alpha=alpha, beam=beam, jobs=jobs or 1, deadline=deadline,
        )
        candidates: List[RobustCandidate] = []
        seen: Dict[str, RobustnessReport] = {}
        for label, plan in zip(plans._fields, (m.plan for m in plans)):
            fingerprint = json.dumps(plan_to_json(plan))
            report = seen.get(fingerprint)
            if report is None:
                report = evaluate_robustness(
                    profiler, graph, plan, depth, fault_model,
                    scenarios=scenarios, seed=seed, jobs=jobs,
                )
                seen[fingerprint] = report
            candidates.append(RobustCandidate(
                label=label,
                plan=plan,
                score=report.score(objective, blend),
                report=report,
            ))
        candidates.sort(key=lambda c: (c.score, c.label))
        return RobustSearchResult(
            objective=objective,
            blend=blend,
            candidates=tuple(candidates),
        )
