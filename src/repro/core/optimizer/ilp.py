"""Branch-and-bound reference optimizer (the ILP formulation's role).

Alpa formulates per-operator strategy selection as an integer linear
program; the paper replaces it with segmented dynamic programming because
ILP scales poorly (paper Sec. 5).  This module provides an exact
branch-and-bound solver over the same objective — node intra costs plus
pairwise edge costs — used to certify the DP's optimality on small graphs
and to reproduce the scaling argument (the DP is orders of magnitude
faster on larger ones).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...graph.graph import ComputationGraph
from ..cost.inter import InterOperatorCostModel
from ..spec import PartitionSpec
from .candidates import CandidateSet


@dataclass
class BranchAndBoundResult:
    """Outcome of an exact branch-and-bound search."""

    plan: Dict[str, PartitionSpec]
    cost: float
    nodes_expanded: int
    elapsed: float


class BranchAndBoundSolver:
    """Exact solver over per-node candidate assignments.

    Assigns nodes in topological order; an edge's cost is charged as soon
    as both endpoints are fixed.  The bound is admissible (suffix sums of
    per-node intra minima; edge costs are non-negative), so the search is
    exact.

    Args:
        graph: The computation graph.
        candidates: Candidate set per node (as built by the optimizer).
        inter_model: Eq. 8-9 edge-cost evaluator.
        node_order: Assignment order; defaults to topological order, which
            resolves most edges early.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        candidates: Mapping[str, CandidateSet],
        inter_model: InterOperatorCostModel,
        node_order: Optional[List[str]] = None,
    ) -> None:
        self.graph = graph
        self.candidates = candidates
        self.names = list(node_order or [n.name for n in graph.nodes])
        position = {name: i for i, name in enumerate(self.names)}
        #: Edges grouped by the assignment depth at which they resolve.
        self._edges_at: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
        for edge in graph.edges:
            src_set = candidates[edge.src]
            dst_set = candidates[edge.dst]
            matrix = inter_model.cost_matrix(
                edge, src_set.op, src_set.specs, dst_set.op, dst_set.specs
            )
            src_i, dst_i = position[edge.src], position[edge.dst]
            self._edges_at.setdefault(max(src_i, dst_i), []).append(
                (src_i, dst_i, matrix)
            )
        self._intra = [np.asarray(candidates[name].intra) for name in self.names]
        n = len(self.names)
        self._suffix = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            self._suffix[i] = self._suffix[i + 1] + float(self._intra[i].min())

    def solve(self, time_limit: float = 120.0) -> BranchAndBoundResult:
        """Depth-first branch and bound with admissible pruning.

        Raises:
            TimeoutError: If ``time_limit`` elapses before optimality is
                proven.
        """
        started = time.perf_counter()
        n = len(self.names)
        best_cost = np.inf
        best_assignment: Optional[List[int]] = None
        assignment = [0] * n
        expanded = 0

        def descend(depth: int, partial: float) -> None:
            nonlocal best_cost, best_assignment, expanded
            if time.perf_counter() - started > time_limit:
                raise TimeoutError("branch-and-bound time limit exceeded")
            if depth == n:
                if partial < best_cost:
                    best_cost = partial
                    best_assignment = assignment[:]
                return
            intra = self._intra[depth]
            for choice in np.argsort(intra, kind="stable"):
                expanded += 1
                cost = partial + float(intra[choice])
                assignment[depth] = int(choice)
                for src_i, dst_i, matrix in self._edges_at.get(depth, ()):
                    cost += float(matrix[assignment[src_i], assignment[dst_i]])
                if cost + self._suffix[depth + 1] >= best_cost:
                    continue
                descend(depth + 1, cost)

        descend(0, 0.0)
        if best_assignment is None:
            raise RuntimeError("no assignment found")
        plan = {
            name: self.candidates[name].specs[idx]
            for name, idx in zip(self.names, best_assignment)
        }
        return BranchAndBoundResult(
            plan=plan,
            cost=float(best_cost),
            nodes_expanded=expanded,
            elapsed=time.perf_counter() - started,
        )
