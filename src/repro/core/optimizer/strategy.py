"""End-to-end partition strategy search (paper Sec. 5).

Pipeline: enumerate candidates per operator, solve each DP-safe segment
(Eq. 11-12), merge segments adding cross-segment edge costs (Eq. 13-14),
extract the optimal per-operator partition specs via backpointers, and
price the stack of identical layers by a min-plus fold.

The conventional-space search (``include_temporal=False``) doubles as the
Alpa baseline: it finds the optimal plan within the spatial-only space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ... import cache as diskcache
from ...cluster.profiler import FabricProfiler
from ...graph.graph import ComputationGraph
from ...obs.metrics import delta_snapshots, get_registry
from ...obs.spans import get_collector, span
from ..cost.inter import InterOperatorCostModel
from ..cost.intra import IntraOperatorCostModel
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
        candidate_sizes: Per-node (raw space size, kept candidate count).
        model_cost: Cost after layer stacking (when requested).
        stage_seconds: Wall-clock per pipeline stage (``candidates``,
            ``segment_dp``, ``merge``), plus ``classify``: the part of
            ``candidates`` spent on boundary matrices and selection (its
            ``candidates.classify`` spans, summed over builds, pool
            workers' included; 0 when every set came from a cache).
        telemetry: Per-search snapshot from :mod:`repro.obs` — the metric
            delta this search produced (``"metrics"``: counters, gauges,
            histograms) and the timing spans it closed (``"spans"``).
            ``search.edge_cost`` spans time the Eq. 8-9 edge pricing inside
            ``search.segment_dp`` (and ``search.merge``); the rest of
            ``segment_dp`` is the Bellman products.  One
            ``search.segment`` span per segment carries its ``start``
            node, ``nodes`` and expanded DP ``states``.  Worker-process
            telemetry from ``jobs > 1`` fan-out is merged in, so the
            values match the serial path.
    """

    plan: Dict[str, PartitionSpec]
    cost: float
    elapsed: float
    candidate_sizes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    model_cost: Optional[float] = None
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    telemetry: Dict[str, object] = field(default_factory=dict)


class PrimeParOptimizer:
    """Segmented-DP optimizer over the (spatial-temporal) partition space.

    Args:
        profiler: Fitted fabric models of the target cluster.
        alpha: Eq. 7 memory weight (seconds per byte).
        include_temporal: Search-space switch; ``False`` restricts to the
            conventional space (the Alpa stand-in baseline).
        partition_batch: ``False`` removes batch partitioning — used when
            composing with externally-controlled data parallelism (Sec. 6.4).
        beam: Optional per-node candidate cap (cheapest classes by intra
            cost) bounding search time on large clusters; ``None`` searches
            the full space.
        jobs: Process-pool width for per-operator-type candidate builds
            (``1`` = serial, ``0`` = all cores).  Results are merged
            order-independently and are bit-identical to the serial path.
    """

    def __init__(
        self,
        profiler: FabricProfiler,
        alpha: float = 0.0,
        include_temporal: bool = True,
        partition_batch: bool = True,
        beam: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        self.profiler = profiler
        self.include_temporal = include_temporal
        self.partition_batch = partition_batch
        #: Optional cap on candidate classes per node (approximate search).
        self.beam = beam
        self.jobs = resolve_jobs(jobs)
        self.intra_model = IntraOperatorCostModel(profiler, alpha=alpha)
        self.inter_model = InterOperatorCostModel(profiler)
        self._candidate_cache: Dict[Tuple, CandidateSet] = {}
        #: Edge cost matrices memoized on (edge signature, candidate
        #: identities) — stacked layers and repeated type pairs pay once.
        self._edge_memo: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # candidates
    # ------------------------------------------------------------------

    def _disk_key(self, node) -> Optional[str]:
        """Content hash for one operator type's candidate set.

        ``None`` when some input cannot be encoded canonically.
        """
        try:
            return diskcache.content_key(
                "candidates",
                type_key(node),
                self.profiler.topology,
                self.intra_model.alpha,
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
            # Serial or fanned out, a build fits no profiler model itself,
            # so both paths count the same profiler cache misses.
            self.profiler.fit_allreduce_models()
            if self.jobs > 1 and len(misses) > 1:
                payloads = [
                    (
                        node,
                        n_bits,
                        self.profiler,
                        self.intra_model.alpha,
                        self.include_temporal,
                        self.partition_batch,
                        self.beam,
                    )
                    for _, node, _ in misses
                ]
                built = parallel_map(build_candidates_task, payloads, self.jobs)
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

        ``n_layers > 1`` additionally folds the (single-layer) table over
        the layer stack to produce the whole-model optimum cost.  The
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
                    with span("search.segment", start=seg.node_names[0],
                              nodes=len(seg.node_names)) as attrs:
                        table = solve_segment(
                            graph, seg, candidates, self.inter_model,
                            edge_memo=self._edge_memo,
                        )
                        attrs["states"] = table.states
                    tables.append(table)
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
                    model_cost = stack_layers(
                        layer_cost, candidates[merged.end].intra, n_layers
                    )
        finished = time.perf_counter()
        spans = collector.export(since=span_mark)
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
                "classify": sum(
                    s["duration"] for s in spans
                    if s["name"] == "candidates.classify"
                ),
                "segment_dp": segments_done - candidates_done,
                "merge": finished - segments_done,
            },
            telemetry={
                "metrics": delta_snapshots(
                    metrics_before, registry.snapshot()
                ),
                "spans": spans,
            },
        )
