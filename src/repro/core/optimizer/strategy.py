"""End-to-end partition strategy search (paper Sec. 5).

Pipeline: enumerate & collapse candidates per operator, solve each DP-safe
segment (Eq. 11-12), merge segments adding cross-segment edge costs
(Eq. 13-14), stack identical layers by recursive doubling, and extract the
optimal per-operator partition specs via backpointers.

The conventional-space search (``include_temporal=False``) doubles as the
Alpa baseline: it finds the optimal plan within the spatial-only space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ... import cache as diskcache
from ...cluster.profiler import FabricProfiler
from ...graph.graph import ComputationGraph
from ...obs.metrics import delta_snapshots, get_registry
from ...obs.spans import get_collector, span
from ..cost.inter import InterOperatorCostModel
from ..cost.intra import IntraOperatorCostModel
from ..cost.memory import MemoryCostModel
from ..spec import PartitionSpec
from .candidates import CandidateSet, build_candidates, type_key
from .deadline import Deadline, check_deadline
from .dp import SegmentTable, edge_cost_matrix, solve_segment
from .merge import MergeTable, merge_tables, stack_layers
from .parallel import build_candidates_task, parallel_map, resolve_jobs
from .segmenter import segment_graph


@dataclass
class SearchResult:
    """Outcome of one strategy search.

    Attributes:
        plan: Per-node optimal partition spec (one graph instance).
        cost: The Eq. 10 optimum found.
        elapsed: Wall-clock search time in seconds.
        candidate_sizes: Per-node (raw space size, collapsed class count).
        model_cost: Cost after layer stacking (when requested).
        stage_seconds: Wall-clock per pipeline stage (``candidates``,
            ``segment_dp``, ``merge``).
        telemetry: Per-search snapshot from :mod:`repro.obs` — the metric
            delta this search produced (``"metrics"``: counters, gauges,
            histograms) and the timing spans it closed (``"spans"``).
            ``search.edge_cost`` spans time the Eq. 8-9 edge pricing inside
            ``search.segment_dp`` (and ``search.merge``); the rest of
            ``segment_dp`` is the Bellman products.  Worker-process telemetry from ``jobs > 1`` fan-out is merged
            in, so the values match the serial path.
    """

    plan: Dict[str, PartitionSpec]
    cost: float
    elapsed: float
    candidate_sizes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    model_cost: Optional[float] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    telemetry: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """Schema-versioned document form (see :mod:`repro.api`).

        ``telemetry`` is a per-run observability snapshot, not part of the
        search outcome, and is deliberately not serialized; round-trips
        rehydrate it empty.
        """
        from ...api import plan_to_json, stamp

        n_bits = max((spec.n_bits for spec in self.plan.values()), default=0)
        return stamp(
            "search_result",
            {
                "plan": plan_to_json(self.plan),
                "n_bits": n_bits,
                "cost": self.cost,
                "elapsed": self.elapsed,
                "candidate_sizes": {
                    name: list(sizes)
                    for name, sizes in sorted(self.candidate_sizes.items())
                },
                "model_cost": self.model_cost,
                "stage_seconds": dict(sorted(self.stage_seconds.items())),
            },
        )

    @classmethod
    def from_json(cls, payload) -> "SearchResult":
        from ...api import check_schema, plan_from_json

        payload = check_schema(payload, "search_result")
        model_cost = payload.get("model_cost")
        return cls(
            plan=plan_from_json(payload["plan"], int(payload["n_bits"])),
            cost=float(payload["cost"]),
            elapsed=float(payload["elapsed"]),
            candidate_sizes={
                name: tuple(sizes)
                for name, sizes in payload.get("candidate_sizes", {}).items()
            },
            model_cost=float(model_cost) if model_cost is not None else None,
            stage_seconds=dict(payload.get("stage_seconds", {})),
        )


class PrimeParOptimizer:
    """Segmented-DP optimizer over the (spatial-temporal) partition space.

    Args:
        profiler: Fitted fabric models of the target cluster.
        alpha: Eq. 7 memory weight (seconds per byte).
        include_temporal: Search-space switch; ``False`` restricts to the
            conventional space (the Alpa stand-in baseline).
        partition_batch: ``False`` removes batch partitioning — used when
            composing with externally-controlled data parallelism (Sec. 6.4).
        memory_model: Custom memory model (e.g. with optimizer state).
        beam: Optional per-node candidate cap (cheapest classes by intra
            cost) bounding search time on large clusters; ``None`` searches
            the full space.
        jobs: Process-pool width for per-operator-type candidate builds
            (``1`` = serial, ``0`` = all cores).  Results are merged
            order-independently and are bit-identical to the serial path.
        use_disk_cache: Persist candidate sets to the on-disk cache
            (:mod:`repro.cache`) so repeated invocations start warm.  Only
            active for noise-free profilers (noisy "measurements" depend on
            RNG draw order and must not be reused across runs).
    """

    def __init__(
        self,
        profiler: FabricProfiler,
        alpha: float = 0.0,
        include_temporal: bool = True,
        partition_batch: bool = True,
        memory_model: Optional[MemoryCostModel] = None,
        beam: Optional[int] = None,
        jobs: int = 1,
        use_disk_cache: bool = True,
    ) -> None:
        self.profiler = profiler
        self.include_temporal = include_temporal
        self.partition_batch = partition_batch
        #: Optional cap on candidate classes per node (approximate search).
        self.beam = beam
        self.jobs = resolve_jobs(jobs)
        self.use_disk_cache = use_disk_cache
        self.intra_model = IntraOperatorCostModel(
            profiler, alpha=alpha, memory_model=memory_model
        )
        self.inter_model = InterOperatorCostModel(profiler)
        self._candidate_cache: Dict[Tuple, CandidateSet] = {}
        #: Edge cost matrices memoized on (edge signature, candidate
        #: identities) — stacked layers and repeated type pairs pay once.
        self._edge_memo: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------

    def _disk_key(self, node) -> Optional[str]:
        """Content hash for one operator type's candidate set, or ``None``.

        ``None`` when persistence is off, the profiler is noisy (its fitted
        models depend on RNG draw order), or some input cannot be encoded
        canonically.
        """
        if not self.use_disk_cache or self.profiler.noise != 0.0:
            return None
        memory = self.intra_model.memory
        try:
            return diskcache.content_key(
                "candidates",
                type_key(node),
                self.profiler.topology,
                tuple(self.profiler.sizes),
                self.intra_model.alpha,
                (type(memory).__qualname__, sorted(vars(memory).items())),
                self.include_temporal,
                self.partition_batch,
                self.beam,
            )
        except TypeError:
            return None

    def candidates_for(
        self,
        graph: ComputationGraph,
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, CandidateSet]:
        """Candidate sets per node, shared across same-type nodes.

        Resolution order per operator type: in-memory cache, then the
        persistent disk cache, then a build — serial, or fanned out over a
        process pool (one task per missing type) when ``jobs > 1``.  A
        ``deadline`` is checked between per-type builds (and before the
        fan-out), never mid-build.
        """
        n_bits = self.profiler.topology.n_bits
        keyed_nodes: Dict[Tuple, object] = {}
        node_keys: Dict[str, Tuple] = {}
        for node in graph.nodes:
            key = type_key(node) + (
                n_bits, self.include_temporal, self.partition_batch, self.beam
            )
            node_keys[node.name] = key
            keyed_nodes.setdefault(key, node)
        misses = []
        for key, node in keyed_nodes.items():
            if key in self._candidate_cache:
                continue
            disk_key = self._disk_key(node)
            if disk_key is not None:
                cached = diskcache.load("candidates", disk_key)
                if cached is not None:
                    self._candidate_cache[key] = cached
                    continue
            misses.append((key, node, disk_key))
        if misses:
            check_deadline(deadline, "candidates")
            # Fan out only when fits cannot depend on RNG draw order.
            jobs = self.jobs if self.profiler.noise == 0.0 else 1
            if jobs > 1 and len(misses) > 1:
                payloads = [
                    (
                        node,
                        n_bits,
                        self.profiler,
                        self.intra_model.alpha,
                        self.intra_model.memory,
                        self.include_temporal,
                        self.partition_batch,
                        self.beam,
                    )
                    for _, node, _ in misses
                ]
                built = parallel_map(build_candidates_task, payloads, jobs)
            else:
                built = []
                for _, node, _ in misses:
                    check_deadline(deadline, "candidates")
                    built.append(
                        build_candidates(
                            node,
                            n_bits,
                            self.intra_model,
                            include_temporal=self.include_temporal,
                            partition_batch=self.partition_batch,
                            beam=self.beam,
                        )
                    )
            for (key, _, disk_key), candidate_set in zip(misses, built):
                self._candidate_cache[key] = candidate_set
                if disk_key is not None:
                    diskcache.store("candidates", disk_key, candidate_set)
        return {
            name: self._candidate_cache[key] for name, key in node_keys.items()
        }

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def optimize(
        self,
        graph: ComputationGraph,
        n_layers: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> SearchResult:
        """Find the optimal plan for ``graph`` (one layer stack instance).

        ``n_layers > 1`` additionally stacks the (single-layer) table by
        recursive doubling to produce the whole-model optimum cost.  The
        extracted plan is the steady-state layer plan.

        ``deadline`` makes the search cancellable: it is checked
        cooperatively at every stage boundary (candidate resolution, each
        segment solve, each merge) and, once expired, the search raises
        :class:`~repro.core.optimizer.deadline.SearchDeadlineExceeded`
        instead of returning.  A completed search is never affected.
        """
        registry = get_registry()
        collector = get_collector()
        metrics_before = registry.snapshot()
        span_mark = collector.mark()
        started = time.perf_counter()
        with span("search", nodes=len(graph.nodes), n_layers=n_layers,
                  jobs=self.jobs):
            check_deadline(deadline, "start")
            with span("search.candidates"):
                candidates = self.candidates_for(graph, deadline=deadline)
            candidates_done = time.perf_counter()
            with span("search.segment_dp"):
                segmentation = segment_graph(graph)
                tables: List[Union[SegmentTable, MergeTable]] = []
                for seg in segmentation.segments:
                    check_deadline(deadline, "segment_dp")
                    tables.append(
                        solve_segment(
                            graph, seg, candidates, self.inter_model,
                            edge_memo=self._edge_memo,
                        )
                    )
            segments_done = time.perf_counter()
            with span("search.merge", segments=len(tables)):
                # Cross-segment edges span exactly two adjacent segments
                # (their source anchors the earlier one, paper Fig. 6's
                # e_{0,7}); merge those pairs first so both endpoints are
                # still table endpoints when the edge cost is added
                # (Eq. 13), then chain-merge (Eq. 14).
                paired: List[Union[SegmentTable, MergeTable]] = []
                consumed = set()
                i = 0
                while i < len(tables):
                    check_deadline(deadline, "merge")
                    pair_edges = []
                    if i + 1 < len(tables):
                        pair_edges = [
                            e
                            for e in segmentation.cross_edges
                            if e.src == tables[i].start
                            and e.dst == tables[i + 1].end
                        ]
                    if pair_edges:
                        cross_cost = sum(
                            edge_cost_matrix(
                                graph, self.inter_model, candidates,
                                e.src, e.dst, memo=self._edge_memo,
                            )
                            for e in pair_edges
                        )
                        consumed.update(e.key() for e in pair_edges)
                        paired.append(
                            merge_tables(
                                tables[i],
                                tables[i + 1],
                                candidates[tables[i + 1].start].intra,
                                cross_edge_cost=cross_cost,
                            )
                        )
                        i += 2
                    else:
                        paired.append(tables[i])
                        i += 1
                missing = [
                    e
                    for e in segmentation.cross_edges
                    if e.key() not in consumed
                ]
                if missing:
                    raise ValueError(
                        f"cross-segment edges not expressible by pairwise "
                        f"merging: {[e.key() for e in missing]}"
                    )
                merged = paired[0]
                for table in paired[1:]:
                    check_deadline(deadline, "merge")
                    merged = merge_tables(
                        merged, table, candidates[table.start].intra
                    )
                layer_cost = merged.cost
                best_flat = int(np.argmin(layer_cost))
                a, c = np.unravel_index(best_flat, layer_cost.shape)
                assignment: Dict[str, int] = {}
                merged.extract(int(a), int(c), assignment)
                plan = {
                    name: candidates[name].specs[idx]
                    for name, idx in assignment.items()
                }
                model_cost = None
                if n_layers > 1:
                    boundary_intra = candidates[merged.end].intra
                    stacked = stack_layers(merged, boundary_intra, n_layers)
                    model_cost = float(stacked.cost.min())
        finished = time.perf_counter()
        return SearchResult(
            plan=plan,
            cost=float(layer_cost[a, c]),
            elapsed=finished - started,
            candidate_sizes={
                name: (cset.raw_size, len(cset))
                for name, cset in candidates.items()
            },
            model_cost=model_cost,
            stage_seconds={
                "candidates": candidates_done - started,
                "segment_dp": segments_done - candidates_done,
                "merge": finished - segments_done,
            },
            telemetry={
                "metrics": delta_snapshots(
                    metrics_before, registry.snapshot()
                ),
                "spans": collector.export(since=span_mark),
            },
        )

    def optimize_robust(
        self,
        graph: ComputationGraph,
        n_layers: int = 1,
        *,
        fault_model,
        global_batch: int,
        objective: str = "p99",
        blend: float = 0.5,
        scenarios: int = 16,
        seed: int = 0,
        sim_layers: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ):
        """Tail-latency-aware search: rank a plan portfolio under faults.

        Delegates to :func:`repro.sim.faults.robust_search` with this
        optimizer's settings (alpha, beam, jobs); the portfolio holds the
        temporal and conventional PrimePar optima plus the Megatron
        baseline, each scored by ``objective`` (one of
        :data:`repro.api.OBJECTIVES`) under ``fault_model``.  Returns a
        :class:`repro.sim.faults.RobustSearchResult`.
        """
        from ...sim.faults import robust_search

        return robust_search(
            self.profiler,
            graph,
            global_batch=global_batch,
            n_layers=n_layers,
            fault_model=fault_model,
            objective=objective,
            blend=blend,
            scenarios=scenarios,
            seed=seed,
            sim_layers=sim_layers,
            alpha=self.intra_model.alpha,
            beam=self.beam,
            jobs=self.jobs,
            deadline=deadline,
        )
