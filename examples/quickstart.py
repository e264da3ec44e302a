#!/usr/bin/env python
"""Quickstart: search a partition strategy and simulate training with it.

Builds one OPT-175B transformer block, searches the spatial-temporal
partition space over a simulated 16-GPU V100 cluster, and compares the
result against Megatron-LM's best manual configuration — the paper's
headline experiment in ~30 lines.

Run:  python examples/quickstart.py
"""

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro.baselines.megatron import best_megatron_plan
from repro.graph.models import OPT_175B


def main() -> None:
    # 1. The simulated cluster: 4 nodes x 4 V100s, NVLink + InfiniBand.
    topology = v100_cluster(16)
    profiler = FabricProfiler(topology)
    simulator = EventDrivenSimulator(profiler)

    # 2. The workload: one transformer block of OPT-175B, global batch 16.
    batch = 16
    graph = build_block_graph(OPT_175B.block_shape(batch=batch))

    # 3. Baseline: Megatron-LM with its best data-parallel degree.
    megatron = best_megatron_plan(simulator, graph, batch)
    print(f"Megatron-LM best (d={megatron.dp_degree}, m={megatron.mp_degree})")
    print(f"  throughput: {megatron.report.throughput:8.2f} samples/s")
    print(f"  peak memory: {megatron.report.peak_memory_bytes / 2**30:6.2f} GiB/GPU")

    # 4. PrimePar: search the spatial-temporal space (alpha adds the
    #    Eq. 7 memory term to the objective).
    optimizer = PrimeParOptimizer(profiler, alpha=2e-11)
    result = optimizer.optimize(graph)
    print(f"\nPrimePar search: {result.elapsed:.2f}s, cost {result.cost:.4f}")
    for name, spec in sorted(result.plan.items()):
        print(f"  {name:>14s}.P = {spec}")

    report = simulator.run_model(graph, result.plan, batch, n_layers=1)
    print(f"\nPrimePar throughput: {report.throughput:8.2f} samples/s "
          f"({report.throughput / megatron.report.throughput:.2f}x Megatron)")
    print(f"PrimePar peak memory: {report.peak_memory_bytes / 2**30:6.2f} GiB/GPU")
    print("\nLatency breakdown (ms/layer):")
    for kind, seconds in sorted(report.breakdown.items()):
        print(f"  {kind:>16s}: {seconds * 1e3:8.2f}")


if __name__ == "__main__":
    main()
