"""Bellman iteration within a segment (paper Eq. 11-12).

The optimal sub-structure ``C_{i,j}(p_i, p_j)`` is a dense matrix over the
candidate classes of the segment's start node and the current node.  Each
extension by one node is a min-plus product with the inter-operator cost
matrix of the connecting edge, plus the new node's intra cost, plus (Eq. 12)
the cost of an extended edge from the segment start if one exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

import numpy as np

from ...graph.graph import ComputationGraph, Edge
from ...obs.metrics import counter, histogram
from ...obs.spans import span
from ..cost.inter import CHUNK_BYTES, InterOperatorCostModel
from .candidates import CandidateSet
from .segmenter import Segment

#: Bucket bounds for the DP table-size histogram (cells per table).
_TABLE_BUCKETS = (64, 256, 1024, 4096, 16384, 65536)


def min_plus(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Tropical matrix product: ``out[a,c] = min_b left[a,b] + right[b,c]``.

    Returns the result and the argmin over ``b`` (backpointers).  The
    ``(A x chunk x B)`` float64 broadcast ``left[a, b] + right.T[c, b]``
    takes as many output columns as fit in
    :data:`~repro.core.cost.inter.CHUNK_BYTES` (at least one) and reduces
    over its last, contiguous axis; every column sees the same sums
    whatever the chunking, and ``argmin`` keeps the first minimum, so ties
    break identically.  Only the argmin is kept per chunk: ``out`` is
    rebuilt once as ``left[a, arg] + right[arg, c]``, the same IEEE add of
    the same two operands, so it is byte-identical to the minimum itself.
    """
    n_a, n_b = left.shape
    n_b2, n_c = right.shape
    if n_b != n_b2:
        raise ValueError(f"shape mismatch {left.shape} x {right.shape}")
    arg = np.empty((n_a, n_c), dtype=np.int32)
    columns = np.ascontiguousarray(right.T)
    chunk = max(1, CHUNK_BYTES // (n_a * n_b * columns.itemsize))
    for lo in range(0, n_c, chunk):
        hi = min(lo + chunk, n_c)
        arg[:, lo:hi] = (left[:, None, :] + columns[None, lo:hi, :]).argmin(
            axis=2
        )
    out = left[np.arange(n_a)[:, None], arg] + right[arg, np.arange(n_c)]
    return out, arg


def min_plus_diagonal(
    intra: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`min_plus` of ``diag(intra)`` (``inf`` off the diagonal) and
    ``right``, in closed form: a segment's first Bellman step.

    Row ``a`` of the diagonal matrix has one finite entry, at column
    ``a``, so ``out[a, c] = intra[a] + right[a, c]`` — the same IEEE add
    the dense product keeps — with backpointer ``a``.  Where that sum is
    not finite every candidate is ``inf`` and the dense product's
    ``argmin`` keeps the first, ``0``; so does this one.  Byte-identical
    to the dense product, in ``O(A C)`` instead of ``O(A^2 C)``.
    """
    n_a = len(intra)
    if right.shape[0] != n_a:
        raise ValueError(f"shape mismatch {(n_a, n_a)} x {right.shape}")
    out = intra[:, None] + right
    rows = np.arange(n_a, dtype=np.int32)[:, None]
    arg = np.where(np.isfinite(out), rows, np.int32(0))
    return out, arg


@dataclass
class SegmentTable:
    """Optimal sub-structure of one segment with backpointers.

    ``cost[a, c]`` is the minimal segment cost when the start node uses
    candidate class ``a`` and the end node class ``c`` — including both
    endpoint intra costs.  ``backpointers[j]`` maps node ``j``'s optimal
    predecessor class: ``arg[a, c]`` is the class of node ``j-1``.
    ``states`` counts the DP states (table cells) its Bellman steps expanded
    and ``bellman_seconds`` is the wall time of their min-plus products.
    """

    start: str
    end: str
    node_names: Tuple[str, ...]
    cost: np.ndarray
    backpointers: Dict[str, np.ndarray] = field(default_factory=dict)
    states: int = 0
    bellman_seconds: float = 0.0

    def extract(self, a: int, c: int, out: Dict[str, int]) -> None:
        """Fill ``out`` with the optimal class per node given endpoints."""
        names = self.node_names
        out[self.start] = a
        out[self.end] = c
        current = c
        for j in range(len(names) - 1, 0, -1):
            current = int(self.backpointers[names[j]][a, current])
            out[names[j - 1]] = current


def edge_signature(edge: Edge) -> Tuple:
    """Structural identity of an edge, independent of its node names.

    Two edges with equal signatures between candidate sets of equal
    ``cache_token`` produce identical cost matrices (stacked transformer
    layers, repeated ``(src, dst)`` operator-type pairs).
    """
    return (
        edge.slot,
        tuple(sorted(edge.axis_map.items())),
        tuple(
            sorted(
                (axis, interval.start, interval.stop)
                for axis, interval in edge.src_fixed.items()
            )
        ),
    )


def edge_cost_matrix(
    graph: ComputationGraph,
    inter_model: InterOperatorCostModel,
    candidates: Mapping[str, CandidateSet],
    src: str,
    dst: str,
    memo: Optional[MutableMapping[Tuple, np.ndarray]] = None,
) -> Optional[np.ndarray]:
    """Summed inter-operator cost over all edges ``src -> dst``.

    Returns ``None`` when no such edge exists (cost contribution zero).
    With ``memo``, each per-edge matrix is computed once per (edge
    signature, producer/consumer candidate identity) and reused — across
    stacked layers within one search and across searches sharing the memo.
    Each computed matrix is timed as a ``search.edge_cost`` span and its
    candidate pairs are counted in ``dp.edge_pairs_priced``.
    """
    edges = [e for e in graph.edges if e.src == src and e.dst == dst]
    if not edges:
        return None
    src_set = candidates[src]
    dst_set = candidates[dst]
    total = np.zeros((len(src_set), len(dst_set)))
    for edge in edges:
        matrix = None
        key = None
        if memo is not None:
            key = (edge_signature(edge), src_set.cache_token, dst_set.cache_token)
            matrix = memo.get(key)
            counter(
                "dp.edge_memo", outcome="hit" if matrix is not None else "miss"
            ).inc()
        if matrix is None:
            with span("search.edge_cost", src=src, dst=dst, slot=edge.slot):
                matrix = inter_model.cost_matrix(
                    edge, src_set.tables, dst_set.tables
                )
            counter("dp.edge_pairs_priced").inc(matrix.size)
            if memo is not None:
                memo[key] = matrix
        total += matrix
    return total


def solve_segment(
    graph: ComputationGraph,
    segment: Segment,
    candidates: Mapping[str, CandidateSet],
    inter_model: InterOperatorCostModel,
    edge_memo: Optional[MutableMapping[Tuple, np.ndarray]] = None,
) -> SegmentTable:
    """Run Eq. 11-12 over one segment, producing its optimal sub-structure."""
    names = segment.node_names
    start = names[0]
    start_set = candidates[start]
    n_start = len(start_set)
    # C_{i,i}: only the start node, p_i = p_i — a one-node segment's whole
    # table.  The first Bellman step multiplies it in closed form.
    cost = np.full((n_start, n_start), np.inf)
    np.fill_diagonal(cost, start_set.intra)
    table = SegmentTable(start, start, names, cost)
    previous = start
    for name in names[1:]:
        node_set = candidates[name]
        edge_prev = edge_cost_matrix(
            graph, inter_model, candidates, previous, name, memo=edge_memo
        )
        if edge_prev is None:
            # Assumption 1 guarantees e_{j, j+1} exists for true chains; a
            # missing edge contributes zero cost.
            edge_prev = np.zeros((len(candidates[previous]), len(node_set)))
        started = time.perf_counter()
        if previous == start:
            new_cost, arg = min_plus_diagonal(start_set.intra, edge_prev)
        else:
            new_cost, arg = min_plus(table.cost, edge_prev)
        table.bellman_seconds += time.perf_counter() - started
        counter("dp.states_expanded").inc(new_cost.size)
        table.states += new_cost.size
        new_cost += node_set.intra[None, :]
        if previous != start:
            edge_start = edge_cost_matrix(
                graph, inter_model, candidates, start, name, memo=edge_memo
            )
            if edge_start is not None:
                new_cost += edge_start  # Eq. 12's e_{i, j+1}
        table.cost = new_cost
        table.backpointers[name] = arg
        table.end = name
        previous = name
    counter("dp.segments_solved").inc()
    histogram("dp.table_cells", buckets=_TABLE_BUCKETS).observe(table.cost.size)
    return table
