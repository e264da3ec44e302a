"""The serving brain: validated requests → coalesced, cached, admitted work.

:class:`PlanService` is the transport-free core of the daemon — the HTTP
layer (:mod:`repro.serve.server`) and in-process tests drive the same
object through one entry per endpoint, ``<endpoint>_from_request(body)``.
One search request flows through:

1. **validation** — :meth:`repro.api.SearchRequest.from_json` rejects
   malformed bodies with :class:`repro.api.ValidationError` (HTTP 400);
2. **plan store** — the content-hashed key is answered from the in-memory
   LRU or the disk cache without any computation;
3. **coalescing** — concurrent identical misses collapse onto one search
   via :class:`~repro.serve.singleflight.SingleFlight`;
4. **admission** — the single leader takes an execution slot (or is
   rejected 429/503 with ``Retry-After``);
5. **search** — a fresh :class:`~repro.PrimeParOptimizer` runs under the
   request's cooperative :class:`~repro.core.optimizer.deadline.Deadline`;
   the JSON-shaped payload is written through both store tiers.

Simulate, explain and robustness requests name their plan (``plan``):
PrimePar's, resolved through that same search path, or Megatron's best
data-parallel degree.  They then run once per derived ``cache_key()``
under the same coalescing and admission, and one deadline covers the
plan search and the derived run (:meth:`PlanService._derived`).

This is the one answer path: the HTTP daemon and the ``primepar search``,
``simulate``, ``explain`` and ``faults`` commands all render these
payloads.  Payloads are plain dicts of spec strings and floats, so
responses are bit-identical to a direct ``PrimeParOptimizer`` run of the
same parameters: same plan strings (``str(spec)``), same float costs.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable, Dict, Mapping, Optional, Union

from ..api import (
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    plan_from_json,
    plan_to_json,
)
from ..cluster.profiler import FabricProfiler
from ..cluster.topology import v100_cluster
from ..core.optimizer.deadline import Deadline, SearchDeadlineExceeded
from ..core.optimizer.strategy import PrimeParOptimizer
from ..graph.models import MODELS_BY_KEY
from ..graph.transformer import build_block_graph
from ..obs.logsetup import get_logger
from ..obs.metrics import counter
from ..obs.reqtrace import current_trace, trace_event
from .admission import AdmissionController
from .singleflight import SingleFlight
from .store import PlanStore, default_store

logger = get_logger("serve.service")

#: A request whose answer is derived from a plan it names.
DerivedRequest = Union[SimulateRequest, ExplainRequest, RobustnessRequest]

#: Keys that describe how an answer travelled, not what it says.
TRANSPORT_KEYS = ("source", "plan_source", "trace")


def _resolve_deadline(
    requested: float, default: Optional[float]
) -> Optional[Deadline]:
    """Per-request deadline: the request's ``deadline`` capped by the
    server default (a request may tighten the budget, never extend it)."""
    if requested and default is not None:
        requested = min(requested, default)
    seconds = requested or default
    return Deadline(seconds) if seconds else None


def _setting(params: SearchRequest):
    """The model, topology and block graph a search request names."""
    model = MODELS_BY_KEY[params.model]
    topology = v100_cluster(params.devices)
    graph = build_block_graph(model.block_shape(batch=params.batch))
    return model, topology, graph


class PlanService:
    """Transport-free request execution over a shared plan store.

    Args:
        store: Plan store shared across requests (``None`` → the
            process-wide :func:`~repro.serve.store.default_store`).
        admission: Execution-slot controller (``None`` → defaults).
        jobs: Process-pool width each admitted search may use.
        default_deadline: Server-wide per-request budget in seconds
            (``None`` = unbounded); request bodies can only tighten it.
    """

    def __init__(
        self,
        store: Optional[PlanStore] = None,
        admission: Optional[AdmissionController] = None,
        jobs: int = 1,
        default_deadline: Optional[float] = None,
    ) -> None:
        self.store = store if store is not None else default_store()
        self.admission = admission if admission is not None else AdmissionController()
        self.jobs = jobs
        self.default_deadline = default_deadline
        # Keys are content hashes prefixed by kind, so one instance
        # coalesces every endpoint without collisions.
        self._flights = SingleFlight()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search_from_request(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a raw ``/v1/search`` body and execute it."""
        params = SearchRequest.from_json(body)
        return self.search(
            params, _resolve_deadline(params.deadline, self.default_deadline)
        )

    def search(
        self, params: SearchRequest, deadline: Optional[Deadline] = None
    ) -> Dict[str, Any]:
        """The plan payload for ``params`` — cached, coalesced or computed.

        The returned dict always carries ``key`` (the content hash, usable
        with ``GET /v1/plans/<key>``) and ``source`` — one of ``memory``,
        ``disk``, ``computed``, ``coalesced``.  ``deadline`` is the
        request's running budget (``None`` = unbounded).
        """
        key = params.cache_key()
        trace = current_trace()
        if trace is not None:
            trace.key = key
        value, tier = self.store.get(key)
        if value is not None:
            if trace is not None:
                trace.outcome = tier
            return {**value, "key": key, "source": tier}

        def compute() -> Dict[str, Any]:
            timeout = deadline.remaining() if deadline else None
            with self.admission.admit(timeout=timeout):
                counter("serve.searches").inc()
                payload = self._run_search(params, deadline)
                self.store.put(key, payload)
                return payload

        try:
            value, leader = self._flights.run(
                key, compute, timeout=deadline.remaining() if deadline else None
            )
        except FutureTimeoutError:
            counter("serve.rejected", reason="coalesce_timeout").inc()
            trace_event("coalesce.timeout", key=key)
            raise
        source = "computed" if leader else "coalesced"
        if trace is not None:
            trace.outcome = source
        if deadline is not None:
            trace_event("deadline.slack", remaining_s=deadline.remaining())
        return {**value, "key": key, "source": source}

    def _run_search(
        self, params: SearchRequest, deadline: Optional[Deadline]
    ) -> Dict[str, Any]:
        model, topology, graph = _setting(params)
        optimizer = PrimeParOptimizer(
            FabricProfiler(topology),
            alpha=params.alpha,
            include_temporal=params.include_temporal,
            beam=params.beam or None,
            jobs=self.jobs,
        )
        started = time.perf_counter()
        try:
            result = optimizer.optimize(
                graph, n_layers=model.n_layers, deadline=deadline
            )
        except SearchDeadlineExceeded:
            counter("serve.rejected", reason="deadline").inc()
            raise
        logger.info(
            "search %s x%d batch %d: cost %.6g in %.2fs",
            params.model, params.devices, params.batch, result.cost,
            time.perf_counter() - started,
        )
        return {
            "model": params.model,
            "devices": params.devices,
            "batch": params.batch,
            "alpha": params.alpha,
            "beam": params.beam,
            "include_temporal": params.include_temporal,
            "n_layers": model.n_layers,
            "plan": plan_to_json(result.plan),
            "cost": result.cost,
            "model_cost": result.model_cost,
            "elapsed": result.elapsed,
        }

    # ------------------------------------------------------------------
    # plan lookup
    # ------------------------------------------------------------------

    def plan(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for a content-hash key, or ``None``."""
        trace = current_trace()
        if trace is not None:
            trace.key = key
        value, tier = self.store.get(key)
        if value is None:
            if trace is not None:
                trace.outcome = "miss"
            return None
        if trace is not None:
            trace.outcome = tier
        return {**value, "key": key, "source": tier}

    # ------------------------------------------------------------------
    # requests derived from a searched plan
    # ------------------------------------------------------------------

    def _derived(
        self,
        request: DerivedRequest,
        counter_name: str,
        run: Callable[..., Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Answer ``request`` from the plan it names.

        ``plan`` ``"primepar"`` resolves the searched plan through
        :meth:`search` first (warming and reusing the plan store);
        ``"megatron"`` picks Megatron's best data-parallel degree over the
        model's depth under admission.  ``run(profiler, graph, plan,
        searched)`` then executes under admission control, coalesced per
        ``request.cache_key()``, which is computed first so a malformed
        request fails before any search; ``searched`` is the search
        payload, or ``None`` for the Megatron plan.  One deadline covers
        the search and the run.  The response echoes the searched plan's
        ``plan_key`` and ``plan_source``; a Megatron answer carries
        ``plan_source: "megatron"`` and no ``plan_key``.
        """
        key = request.cache_key()
        search = request.search
        deadline = _resolve_deadline(search.deadline, self.default_deadline)
        searched = (
            self.search(search, deadline) if request.plan == "primepar" else None
        )

        def compute() -> Dict[str, Any]:
            timeout = deadline.remaining() if deadline else None
            with self.admission.admit(timeout=timeout):
                counter(counter_name).inc()
                model, topology, graph = _setting(search)
                profiler = FabricProfiler(topology)
                if searched is None:
                    from ..baselines.megatron import best_megatron_plan
                    from ..sim.engine import EventDrivenSimulator

                    plan = best_megatron_plan(
                        EventDrivenSimulator(profiler), graph, search.batch,
                        model.n_layers,
                    ).plan
                else:
                    plan = plan_from_json(searched["plan"], topology.n_bits)
                return run(profiler, graph, plan, searched)

        value, leader = self._flights.run(
            key, compute, timeout=deadline.remaining() if deadline else None
        )
        provenance = (
            {"plan_source": "megatron"}
            if searched is None
            else {"plan_key": searched["key"], "plan_source": searched["source"]}
        )
        return {
            **value,
            **provenance,
            "source": "computed" if leader else "coalesced",
        }

    def simulate_from_request(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a raw ``/v1/simulate`` body and replay its plan.

        The answer carries the report's numbers, its JSON-shaped
        ``utilization`` and the ``plan`` it replayed.  ``run_model``
        disk-caches the simulation report underneath.
        """
        request = SimulateRequest.from_json(body)

        def run(profiler, graph, plan, searched) -> Dict[str, Any]:
            from ..sim.engine import EventDrivenSimulator

            search = request.search
            report = EventDrivenSimulator(profiler).run_model(
                graph, plan, search.batch, request.n_layers
            )
            return {
                "model": search.model,
                "devices": search.devices,
                "batch": search.batch,
                "layers": request.n_layers,
                "latency": report.latency,
                "throughput": report.throughput,
                "peak_memory_bytes": report.peak_memory_bytes,
                "breakdown": {
                    kind: seconds
                    for kind, seconds in sorted(report.breakdown.items())
                },
                "utilization": report.utilization,
                "plan": plan_to_json(plan),
            }

        return self._derived(request, "serve.simulations", run)

    def explain_from_request(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a raw ``/v1/explain`` body and decompose its plan's cost.

        The ``links`` variant replays a layer through the event engine.
        The document's ``components`` fold equals its ``total_cost``
        bit-exactly (the plan re-priced through ``OverallCostModel``); the
        search payload's ``cost`` is echoed as ``plan_cost`` — the DP's
        own incremental fold, which may differ from re-pricing in the
        last ulp (the Megatron plan has no search cost to echo).
        """
        request = ExplainRequest.from_json(body)

        def run(profiler, graph, plan, searched) -> Dict[str, Any]:
            from ..core.explain import explain_plan

            doc = explain_plan(
                profiler,
                graph,
                plan,
                alpha=request.search.alpha,
                include_links=request.links,
                global_batch=request.search.batch,
            )
            if searched is None:
                return doc
            return {**doc, "plan_cost": searched["cost"]}

        return self._derived(request, "serve.explains", run)

    def robustness_from_request(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a raw ``/v1/robustness`` body and score its plan.

        The returned ``report`` is a schema-versioned
        :class:`~repro.sim.faults.RobustnessReport` document; the same seed,
        plan and fault model reproduce it bit-identically regardless of
        the service's ``jobs`` fan-out.
        """
        request = RobustnessRequest.from_json(body)

        def run(profiler, graph, plan, searched) -> Dict[str, Any]:
            from ..sim.faults import evaluate_robustness

            search = request.search
            report = evaluate_robustness(
                profiler,
                graph,
                plan,
                request.n_layers,
                request.fault_model(),
                scenarios=request.scenarios,
                seed=request.seed,
                jobs=self.jobs,
            )
            return {
                "model": search.model,
                "devices": search.devices,
                "batch": search.batch,
                "layers": request.n_layers,
                "objective": request.objective,
                "blend": request.blend,
                "score": report.score(request.objective, request.blend),
                "report": report.to_json(),
            }

        return self._derived(request, "serve.robustness", run)
