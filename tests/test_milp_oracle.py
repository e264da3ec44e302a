"""The MILP oracle certifies the exact segmented DP (paper Sec. 5.2).

For each model and cluster size the DP's optimal Eq. 10 cost must equal
the cost HiGHS proves optimal (``mip_rel_gap=0``) over the same candidate
sets and edge matrices.  Costs are compared, not plans: distinct plans can
tie.  CI runs this file on its own and fails on any skip.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip(
    "scipy", reason="the MILP oracle needs scipy (HiGHS): pip install scipy"
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from milp_oracle import solve_milp  # noqa: E402  (test-side oracle)
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.optimizer.dp import edge_signature
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph


@pytest.mark.parametrize("devices", [4, 8])
@pytest.mark.parametrize("model", ["opt-6.7b", "llama2-70b", "opt-175b"])
def test_milp_certifies_exact_dp(model, devices):
    optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(devices)))
    graph = build_block_graph(MODELS_BY_KEY[model].block_shape(batch=8))
    dp = optimizer.optimize(graph)
    milp = solve_milp(
        graph,
        optimizer.candidates_for(graph),
        optimizer.inter_model,
        memo=optimizer._edge_memo,
    )
    assert set(milp.assignment) == {node.name for node in graph.nodes}
    assert milp.cost == pytest.approx(dp.cost, rel=1e-9)


def test_infeasible_edge_entries_are_excluded(profiler4, small_mlp):
    """An ``inf`` edge entry bounds its pair variable to 0: poisoning the
    oracle's chosen pair on one edge forces it onto another plan."""
    optimizer = PrimeParOptimizer(profiler4)
    candidates = optimizer.candidates_for(small_mlp)
    memo = {}
    free = solve_milp(small_mlp, candidates, optimizer.inter_model, memo=memo)
    edge = small_mlp.edges[0]
    key = (
        edge_signature(edge),
        candidates[edge.src].cache_token,
        candidates[edge.dst].cache_token,
    )
    memo[key] = memo[key].copy()
    memo[key][free.assignment[edge.src], free.assignment[edge.dst]] = np.inf
    blocked = solve_milp(
        small_mlp, candidates, optimizer.inter_model, memo=memo
    )
    assert (
        blocked.assignment[edge.src], blocked.assignment[edge.dst]
    ) != (free.assignment[edge.src], free.assignment[edge.dst])
    assert blocked.cost >= free.cost
