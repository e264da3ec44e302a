"""Fig. 2 — motivation: all-reduce share and the memory gap to ideal.

(a) Proportion of all-reduce latency when training OPT 6.7B, Llama2 70B and
    BLOOM 176B with Megatron-LM on 16 V100 GPUs (model parallelism within a
    node, data parallelism across nodes).
(b) Peak memory per GPU of Megatron-LM vs the zero-replication ideal for
    Llama2 70B at the same global batch on 4/8/16/32 GPUs.
"""

from __future__ import annotations

from conftest import default_batch, emit

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    build_block_graph,
    v100_cluster,
)
from repro.baselines.ideal import ideal_peak_memory
from repro.baselines.megatron import megatron_plan
from repro.graph.models import BLOOM_176B, LLAMA2_70B, OPT_6_7B
from repro.reporting.tables import format_table


def _fig2a_rows():
    rows = []
    topology = v100_cluster(16)
    profiler = FabricProfiler(topology)
    simulator = EventDrivenSimulator(profiler)
    for model in (OPT_6_7B, LLAMA2_70B, BLOOM_176B):
        batch = 16
        graph = build_block_graph(model.block_shape(batch=batch))
        # Paper's deployment: MP within the 4-GPU node, DP across nodes.
        plan = megatron_plan(graph, topology.n_bits, dp_degree=4)
        report = simulator.run_model(graph, plan, batch, model.n_layers)
        share = report.breakdown.get("allreduce", 0.0) / report.latency
        rows.append([model.name, f"{share * 100:.1f}%"])
    return rows


def _fig2b_rows():
    rows = []
    model = LLAMA2_70B
    batch = 8  # identical global batch at every scale (paper Fig. 2b)
    for n_devices in (4, 8, 16, 32):
        topology = v100_cluster(n_devices)
        profiler = FabricProfiler(topology)
        simulator = EventDrivenSimulator(profiler)
        graph = build_block_graph(model.block_shape(batch=batch))
        plan = megatron_plan(graph, topology.n_bits, dp_degree=1)
        report = simulator.run_model(graph, plan, batch, model.n_layers)
        ideal = ideal_peak_memory(graph, n_devices, model.n_layers)
        rows.append(
            [
                n_devices,
                f"{report.peak_memory_bytes / 2**30:.1f}",
                f"{ideal / 2**30:.1f}",
                f"{report.peak_memory_bytes / ideal:.2f}x",
            ]
        )
    return rows


def test_fig2a_allreduce_share(benchmark):
    rows = benchmark.pedantic(_fig2a_rows, rounds=1, iterations=1)
    table = format_table(
        ["model", "all-reduce share of step latency"],
        rows,
        title="Fig. 2(a): Megatron-LM all-reduce proportion on 16 V100s",
    )
    emit("fig2a_allreduce_share", table)
    shares = [float(r[1].rstrip("%")) for r in rows]
    # Paper reports substantial shares; require a meaningful fraction and
    # growth toward the largest model.
    assert all(share > 10 for share in shares)
    assert shares[-1] >= shares[0] * 0.5


def test_fig2b_memory_gap(benchmark):
    rows = benchmark.pedantic(_fig2b_rows, rounds=1, iterations=1)
    table = format_table(
        ["gpus", "megatron GiB/GPU", "ideal GiB/GPU", "gap"],
        rows,
        title="Fig. 2(b): Llama2 70B peak memory vs zero-replication ideal",
    )
    emit("fig2b_memory_gap", table)
    gaps = [float(r[3].rstrip("x")) for r in rows]
    # The replication gap grows with the parallelism size (paper Sec. 2.2).
    assert gaps[-1] > gaps[0]
    assert all(gap >= 1.0 for gap in gaps)
