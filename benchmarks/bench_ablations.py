"""Ablations of DESIGN.md's called-out design choices.

* **overlap** — Eq. 7 overlaps ring traffic with compute
  (``sum_t max(compute, ring)``); serializing instead quantifies what
  double buffering buys the temporal primitive.
* **optimality** — segmented DP vs exhaustive search: same optimum,
  orders-of-magnitude less time (paper Sec. 5.2-5.3); the exact DP vs an
  Alpa-style MILP (HiGHS, ``tests/milp_oracle.py``) on the OPT-175B block
  at 4/8/16 GPUs, measuring Sec. 5's "ILP scales poorly"; plus beam-width
  quality/time trade-off.
* **topology** — the primitive's ring traffic on a 2D torus vs the
  switch-based V100 cluster (paper Sec. 7 discussion).
* **alpha** — the Eq. 7 memory weight steering the latency/memory trade.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import emit

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    PartitionSpec,
    PrimeParOptimizer,
    build_block_graph,
    torus_cluster,
    v100_cluster,
)
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.dims import ALL_PHASES
from repro.graph.models import OPT_175B, OPT_6_7B
from repro.graph.transformer import build_mlp_graph
from repro.reporting.tables import format_table

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
from milp_oracle import solve_milp  # noqa: E402  (test-side MILP oracle)


# ---------------------------------------------------------------------------
# overlap ablation
# ---------------------------------------------------------------------------

def _overlap_rows():
    profiler = FabricProfiler(v100_cluster(8))
    model = IntraOperatorCostModel(profiler)
    graph = build_mlp_graph(OPT_175B.block_shape(batch=8))
    fc2 = graph.node("fc2")
    rows = []
    for text in ("N-P2x2", "K-P2x2", "P2x2-N"):
        spec = PartitionSpec.from_string(text, 3)
        cost = model.cost(fc2, spec)
        overlapped = cost.latency
        serialized = (
            cost.compute_latency + cost.ring_latency + cost.allreduce_latency
        )
        rows.append(
            [
                text,
                f"{overlapped * 1e3:.1f}",
                f"{serialized * 1e3:.1f}",
                f"{serialized / overlapped:.2f}x",
            ]
        )
    return rows


def test_ablation_overlap(benchmark):
    rows = benchmark.pedantic(_overlap_rows, rounds=1, iterations=1)
    emit(
        "ablation_overlap",
        format_table(
            ["fc2 spec", "overlapped ms (Eq.7)", "serialized ms", "penalty"],
            rows,
            title="Ablation: ring/compute overlap (OPT-175B fc2, 8 GPUs)",
        ),
    )
    penalties = [float(r[3].rstrip("x")) for r in rows]
    assert all(p >= 1.0 for p in penalties)
    assert max(penalties) > 1.1  # overlap is load-bearing somewhere


# ---------------------------------------------------------------------------
# optimality / search-time ablation
# ---------------------------------------------------------------------------

def _optimality_rows():
    profiler = FabricProfiler(v100_cluster(4))
    graph = build_mlp_graph(OPT_6_7B.block_shape(batch=8))
    optimizer = PrimeParOptimizer(profiler)
    started = time.perf_counter()
    result = optimizer.optimize(graph)
    dp_time = time.perf_counter() - started

    candidates = optimizer.candidates_for(graph)
    names = [n.name for n in graph.nodes]
    matrices = []
    for edge in graph.edges:
        src_set, dst_set = candidates[edge.src], candidates[edge.dst]
        matrices.append(
            (
                names.index(edge.src),
                names.index(edge.dst),
                optimizer.inter_model.cost_matrix(
                    edge, src_set.tables, dst_set.tables
                ),
            )
        )
    started = time.perf_counter()
    best = np.inf
    for combo in itertools.product(
        *(range(len(candidates[n])) for n in names)
    ):
        cost = sum(candidates[n].intra[i] for n, i in zip(names, combo))
        for src_i, dst_i, matrix in matrices:
            cost += matrix[combo[src_i], combo[dst_i]]
        best = min(best, cost)
    exhaustive_time = time.perf_counter() - started
    return result.cost, best, dp_time, exhaustive_time


#: GPU counts of the exact-DP vs MILP comparison on the OPT-175B block.
MILP_SCALES = (4, 8, 16)


def _milp_rows():
    """Exact DP vs the MILP oracle over the same candidates and edges.

    The DP time is its whole search (candidates, edge pricing, Bellman
    products, merge); the MILP reuses the DP's priced edge matrices, so
    its time is model build plus HiGHS solve.
    """
    graph = build_block_graph(OPT_175B.block_shape(batch=8))
    rows = []
    for n_devices in MILP_SCALES:
        optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(n_devices)))
        started = time.perf_counter()
        dp = optimizer.optimize(graph)
        dp_time = time.perf_counter() - started
        milp = solve_milp(
            graph,
            optimizer.candidates_for(graph),
            optimizer.inter_model,
            memo=optimizer._edge_memo,
        )
        rows.append((n_devices, dp.cost, dp_time, milp))
    return rows


def test_ablation_optimality(benchmark):
    pytest.importorskip("scipy", reason="the MILP rows need scipy (HiGHS)")
    dp_cost, brute_cost, dp_time, brute_time = benchmark.pedantic(
        _optimality_rows, rounds=1, iterations=1
    )
    milp_rows = _milp_rows()
    emit(
        "ablation_optimality",
        format_table(
            ["method", "cost", "time ms"],
            [
                ["segmented DP", f"{dp_cost:.6f}", f"{dp_time * 1e3:.1f}"],
                ["exhaustive", f"{brute_cost:.6f}", f"{brute_time * 1e3:.1f}"],
            ],
            title="Ablation: DP optimality vs exhaustive (MLP, 4 GPUs)",
        ),
    )
    emit(
        "ablation_optimality_milp",
        format_table(
            ["GPUs", "DP cost", "MILP cost", "MILP vars", "DP s", "MILP s"],
            [
                [
                    str(n_devices),
                    f"{cost:.9f}",
                    f"{milp.cost:.9f}",
                    str(milp.n_variables),
                    f"{seconds:.2f}",
                    f"{milp.elapsed:.2f}",
                ]
                for n_devices, cost, seconds, milp in milp_rows
            ],
            title="Ablation: exact DP vs MILP (OPT-175B block, batch 8)",
        ),
    )
    assert dp_cost == np.float64(brute_cost) or abs(dp_cost - brute_cost) < 1e-12
    assert dp_time < brute_time
    for _, cost, _, milp in milp_rows:
        assert milp.cost == pytest.approx(cost, rel=1e-9)


def test_ablation_beam_quality(benchmark):
    def run():
        profiler = FabricProfiler(v100_cluster(16))
        graph = build_block_graph(OPT_175B.block_shape(batch=16))
        rows = []
        exact_cost = None
        for beam in (None, 96, 48, 24):
            optimizer = PrimeParOptimizer(profiler, beam=beam)
            started = time.perf_counter()
            result = optimizer.optimize(graph)
            elapsed = time.perf_counter() - started
            if beam is None:
                exact_cost = result.cost
            rows.append(
                [
                    "exact" if beam is None else str(beam),
                    f"{result.cost:.4f}",
                    f"{result.cost / exact_cost:.4f}",
                    f"{elapsed:.2f}s",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_beam",
        format_table(
            ["beam", "cost", "vs exact", "search time"],
            rows,
            title="Ablation: beam width vs exact search (OPT-175B, 16 GPUs)",
        ),
    )
    ratios = [float(r[2]) for r in rows]
    assert all(r >= 1.0 - 1e-9 for r in ratios)
    assert all(r <= 1.25 for r in ratios)


# ---------------------------------------------------------------------------
# topology ablation (paper Sec. 7)
# ---------------------------------------------------------------------------

def _topology_rows():
    graph = build_mlp_graph(OPT_175B.block_shape(batch=16))
    fc2 = graph.node("fc2")
    spec = PartitionSpec.from_string("P4x4", 4)
    rows = []
    for label, topology in (
        ("V100 switch (4 nodes x 4)", v100_cluster(16)),
        ("2D torus 4x4", torus_cluster(4, 4)),
    ):
        model = IntraOperatorCostModel(FabricProfiler(topology))
        cost = model.cost(fc2, spec)
        rows.append(
            [
                label,
                f"{cost.ring_latency * 1e3:.1f}",
                f"{cost.ring_exposed * 1e3:.1f}",
            ]
        )
    return rows


def test_ablation_topology(benchmark):
    rows = benchmark.pedantic(_topology_rows, rounds=1, iterations=1)
    emit(
        "ablation_topology",
        format_table(
            ["fabric", "ring total ms", "ring exposed ms"],
            rows,
            title="Ablation: P4x4 ring traffic, switch cluster vs torus "
            "(paper Sec. 7)",
        ),
    )
    switch_exposed = float(rows[0][2])
    torus_exposed = float(rows[1][2])
    # Tori serve the primitive's neighbour rings natively: far less
    # exposed ring time than a node-spanning square on the switch fabric.
    assert torus_exposed < switch_exposed


# ---------------------------------------------------------------------------
# alpha (memory weight) ablation
# ---------------------------------------------------------------------------

def _alpha_rows():
    profiler = FabricProfiler(v100_cluster(8))
    simulator = EventDrivenSimulator(profiler)
    graph = build_block_graph(OPT_175B.block_shape(batch=8))
    rows = []
    for alpha in (0.0, 1e-11, 1e-10, 1e-9):
        result = PrimeParOptimizer(profiler, alpha=alpha).optimize(graph)
        report = simulator.run_model(graph, result.plan, 8, 1)
        rows.append(
            [
                f"{alpha:.0e}",
                f"{report.latency * 1e3:.1f}",
                f"{report.peak_memory_bytes / 2**30:.2f}",
            ]
        )
    return rows


def test_ablation_alpha(benchmark):
    rows = benchmark.pedantic(_alpha_rows, rounds=1, iterations=1)
    emit(
        "ablation_alpha",
        format_table(
            ["alpha", "latency ms/layer", "peak memory GiB"],
            rows,
            title="Ablation: Eq. 7 memory weight (OPT-175B block, 8 GPUs)",
        ),
    )
    memories = [float(r[2]) for r in rows]
    latencies = [float(r[1]) for r in rows]
    # Raising alpha monotonically trades latency for memory.
    assert memories[-1] <= memories[0]
    assert latencies[0] <= latencies[-1] * 1.001
