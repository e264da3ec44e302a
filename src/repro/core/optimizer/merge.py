"""Merging optimal sub-structures (paper Eq. 13-14).

Two tables sharing a boundary node merge by a min-plus product over the
boundary's candidate classes, subtracting the boundary node's intra cost
(counted by both tables) and adding any cross-edge costs that neither table
contains (Eq. 13's ``e_{0,7}``).  Stacked identical transformer layers are
priced by folding a cost vector through the layer table once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .dp import SegmentTable, min_plus


@dataclass
class MergeTable:
    """A merged optimal sub-structure with a boundary backpointer.

    ``cost[a, c]`` spans from ``left.start`` to ``right.end``; ``boundary``
    names the shared node and ``arg[a, c]`` its optimal class.
    """

    left: Union[SegmentTable, "MergeTable"]
    right: Union[SegmentTable, "MergeTable"]
    boundary: str
    cost: np.ndarray
    arg: np.ndarray

    @property
    def start(self) -> str:
        return self.left.start

    @property
    def end(self) -> str:
        return self.right.end

    def extract(self, a: int, c: int, out: Dict[str, int]) -> None:
        """Recursively fill the optimal class assignment given endpoints."""
        b = int(self.arg[a, c])
        self.left.extract(a, b, out)
        self.right.extract(b, c, out)


def merge_tables(
    left: Union[SegmentTable, MergeTable],
    right: Union[SegmentTable, MergeTable],
    boundary_intra: np.ndarray,
    cross_edge_cost: Optional[np.ndarray] = None,
) -> MergeTable:
    """Eq. 13/14: merge two tables sharing a boundary node.

    Args:
        left: Table ending at the boundary node.
        right: Table starting at the boundary node.
        boundary_intra: Intra costs of the boundary node's classes — counted
            in both tables, subtracted once.
        cross_edge_cost: Matrix over (left.start, right.end) classes of
            edges contained in neither table (Eq. 13's ``e_{0,7}``).
    """
    if left.end != right.start:
        raise ValueError(
            f"tables do not share a boundary: {left.end!r} vs {right.start!r}"
        )
    adjusted = right.cost - boundary_intra[:, None]
    cost, arg = min_plus(left.cost, adjusted)
    if cross_edge_cost is not None:
        cost = cost + cross_edge_cost
    return MergeTable(
        left=left, right=right, boundary=left.end, cost=cost, arg=arg
    )


def stack_layers(
    layer_cost: np.ndarray, boundary_intra: np.ndarray, n_layers: int
) -> float:
    """Optimal cost of ``n_layers`` identical layers in a chain.

    Consecutive layers share a boundary node (a layer's final residual
    add), whose classes index both axes of ``layer_cost``.  ``w[c]``, the
    cheapest stack so far ending in class ``c``, starts as the best single
    layer and grows one layer at a time by ``w <- min_b w[b] + M[b, :] -
    intra[b]``.  The paper (Sec. 5.1) squares the table by recursive
    doubling instead; the fold is the same min-plus product associated
    from the left, ``O(L P^2)`` against ``O(log L P^3)``, and only the
    scalar is needed since the plan comes from the one-layer table.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    row = layer_cost.min(axis=0, keepdims=True)
    if n_layers > 1:
        adjusted = layer_cost - boundary_intra[:, None]
        for _ in range(n_layers - 1):
            row, _ = min_plus(row, adjusted)
    return float(row.min())
