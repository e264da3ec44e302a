"""Ablation: ZeRO optimizer-state sharding vs PrimePar's replication removal.

Paper Sec. 8 positions ZeRO as the alternative attack on tensor
replication: it shards optimizer state / gradients / parameters across the
data-parallel group at the cost of per-iteration reduce-scatter and
all-gather.  This bench quantifies both sides on the simulated fabric:
per-device model state vs added collective latency, with PrimePar's
memory-per-device shown for reference.
"""

from __future__ import annotations

from conftest import ALPHA, emit

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro.baselines.zero import ZeroStage, zero_report
from repro.graph.models import OPT_175B
from repro.reporting.tables import format_table


def _collect():
    n_devices, batch = 16, 16
    topology = v100_cluster(n_devices)
    graph = build_block_graph(OPT_175B.block_shape(batch=batch))
    rows = []
    for stage in ZeroStage:
        report = zero_report(graph, topology, dp_degree=n_devices, stage=stage)
        rows.append(
            [
                f"ZeRO-{stage.value} (d={n_devices})",
                f"{report.state_bytes / 2**30:.1f}",
                f"{report.collective_latency * 1e3:.0f}",
            ]
        )
    profiler = FabricProfiler(topology)
    result = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
    simulator = EventDrivenSimulator(profiler)
    primepar = simulator.run(graph, result.plan, batch)
    rows.append(
        [
            "PrimePar (m=16, no ZeRO)",
            f"{primepar.peak_memory_bytes / 2**30:.1f}",
            f"{primepar.collective_latency * 1e3:.0f}",
        ]
    )
    return rows


def test_ablation_zero(benchmark):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    emit(
        "ablation_zero",
        format_table(
            ["configuration", "state GiB/device (1 layer)", "collective ms"],
            rows,
            title="Ablation: ZeRO sharding vs PrimePar (OPT-175B layer, 16 GPUs)",
        ),
    )
    zero_states = [float(r[1]) for r in rows[:4]]
    zero_comm = [float(r[2]) for r in rows[:4]]
    # ZeRO trades memory for collectives stage by stage.
    assert zero_states[0] > zero_states[-1]
    assert zero_comm[-1] >= zero_comm[1]
