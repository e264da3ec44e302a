"""Alpa-style MILP over the segmented DP's own objective (test oracle).

Alpa selects one partition class per operator with an integer linear
program; the paper replaces it with the segmented DP because "ILP scales
poorly" (Sec. 5).  This oracle states the DP's Eq. 10 objective — node
intra costs plus pairwise edge costs — as a mixed-integer program over
the DP's candidate sets and edge matrices, and solves it with HiGHS
through ``scipy.optimize.milp`` to prove the DP's optimum.

Model:

* one-hot class variables ``x[i, a]`` per node (binary, ``sum_a x = 1``);
* edge variables ``y[u, v, a, b] >= 0`` per node pair with edges, tied to
  the class variables by the marginals ``sum_b y = x[u, a]`` and
  ``sum_a y = x[v, b]``.  With one-hot ``x`` these force ``y`` to the
  product of the two one-hots, so the linearisation is exact;
* an ``inf`` edge entry bounds its ``y`` to 0 (the pair is infeasible).

HiGHS stops at a 1e-4 relative gap by default, so the solve passes
``mip_rel_gap=0``; costs are scaled to microseconds so its 1e-6 absolute
gap is far below the 1e-9 relative agreement the tests ask for.

scipy is a test-only dependency: the runtime stays numpy-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, MutableMapping, Optional, Tuple

import numpy as np

from repro.core.cost.inter import InterOperatorCostModel
from repro.core.optimizer.candidates import CandidateSet
from repro.core.optimizer.dp import edge_cost_matrix
from repro.graph.graph import ComputationGraph

#: Objective scale (seconds -> microseconds) against HiGHS' absolute gap.
SCALE = 1e6


@dataclass
class MilpResult:
    """A proven-optimal class assignment and its Eq. 10 cost.

    ``cost`` re-prices ``assignment`` in float64 from the same intra
    vectors and edge matrices, so it differs from the DP's own fold by
    rounding at most; ``n_variables`` counts class plus edge variables and
    ``elapsed`` is model build plus HiGHS solve.
    """

    assignment: Dict[str, int]
    cost: float
    n_variables: int
    elapsed: float


def solve_milp(
    graph: ComputationGraph,
    candidates: Mapping[str, CandidateSet],
    inter_model: InterOperatorCostModel,
    memo: Optional[MutableMapping[Tuple, np.ndarray]] = None,
    time_limit: float = 600.0,
) -> MilpResult:
    """Minimise Eq. 10 over one class per node with HiGHS.

    ``memo`` is the optimizer's edge-matrix memo, so the oracle prices
    edges with exactly the matrices the DP used.

    Raises:
        RuntimeError: If HiGHS does not prove an optimum.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    started = time.perf_counter()
    names = [node.name for node in graph.nodes]
    offset: Dict[str, int] = {}
    costs = []
    n = 0
    for name in names:
        offset[name] = n
        costs.append(np.asarray(candidates[name].intra, dtype=float))
        n += len(candidates[name])
    n_class = n
    pairs = list(dict.fromkeys((e.src, e.dst) for e in graph.edges))
    matrices = []
    for src, dst in pairs:
        matrix = edge_cost_matrix(
            graph, inter_model, candidates, src, dst, memo=memo
        )
        matrices.append((src, dst, matrix, n))
        costs.append(matrix.ravel())
        n += matrix.size
    cost = np.concatenate(costs)
    upper = np.where(np.isfinite(cost), 1.0, 0.0)
    objective = np.where(np.isfinite(cost), cost, 0.0) * SCALE

    # Constraint rows as (row, column, coefficient) triplets, block by block.
    rows, cols, vals = [], [], []
    n_rows = 0

    def add_block(row_ids, columns, coefficient) -> None:
        rows.append(n_rows + row_ids)
        cols.append(columns)
        vals.append(np.full(len(columns), coefficient))

    for name in names:  # one class per node: sum_a x[i, a] = 1
        classes = offset[name] + np.arange(len(candidates[name]))
        add_block(np.zeros(len(classes), dtype=np.int64), classes, 1.0)
        n_rows += 1
    n_ones = n_rows
    for src, dst, matrix, base in matrices:
        n_a, n_b = matrix.shape
        grid = base + np.arange(n_a * n_b)
        # sum_b y[a, b] = x[src, a]
        add_block(np.repeat(np.arange(n_a), n_b), grid, 1.0)
        add_block(np.arange(n_a), offset[src] + np.arange(n_a), -1.0)
        n_rows += n_a
        # sum_a y[a, b] = x[dst, b]
        add_block(np.tile(np.arange(n_b), n_a), grid, 1.0)
        add_block(np.arange(n_b), offset[dst] + np.arange(n_b), -1.0)
        n_rows += n_b
    rhs = np.zeros(n_rows)
    rhs[:n_ones] = 1.0
    coefficients = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, n),
    )
    constraints = LinearConstraint(coefficients.tocsr(), rhs, rhs)
    integrality = np.zeros(n)
    integrality[:n_class] = 1
    result = milp(
        objective,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(np.zeros(n), upper),
        options={"mip_rel_gap": 0, "time_limit": time_limit},
    )
    if result.status != 0:
        raise RuntimeError(f"MILP not solved to optimality: {result.message}")
    assignment = {
        name: int(np.argmax(result.x[offset[name]:][: len(candidates[name])]))
        for name in names
    }
    total = sum(float(candidates[name].intra[assignment[name]]) for name in names)
    for src, dst, matrix, _ in matrices:
        total += float(matrix[assignment[src], assignment[dst]])
    return MilpResult(
        assignment=assignment,
        cost=total,
        n_variables=n,
        elapsed=time.perf_counter() - started,
    )
