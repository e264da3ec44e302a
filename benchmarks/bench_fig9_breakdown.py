"""Fig. 9 — MLP-block latency breakdown and kernel timelines.

OPT-175B MLP blocks at (batch 8, 8 GPUs) and (batch 16, 16 GPUs):
Megatron-LM vs PrimePar latency decomposed into compute / collective /
overlapped-ring, the collective-latency reduction, the searched partition
sequences, and the kernel execution timeline of one device.  Reports come
from the event engine; the overlapped-ring column is Eq. 7's per-step ring
latency summed over operators (``explain_plan``'s ``ring_latency``), the
time one SPMD stream overlaps with ring traffic.
"""

from __future__ import annotations

from conftest import ALPHA, emit

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    PrimeParOptimizer,
    v100_cluster,
)
from repro.baselines.megatron import best_megatron_plan
from repro.core.explain import explain_plan
from repro.graph.models import OPT_175B
from repro.graph.transformer import build_mlp_graph
from repro.reporting.tables import format_table


def _render_timeline(report, limit=24):
    lines = []
    device0 = [r for r in report.timeline.records if r.device == 0]
    for record in device0[:limit]:
        bar = "~overlap~" if record.overlapped else "#" * max(
            1, min(int(record.duration * 2e3), 40)
        )
        lines.append(
            f"  {record.start * 1e3:8.2f}ms {record.kind:12s} "
            f"{record.op:>8s}.{record.phase} {record.duration * 1e3:7.2f}ms {bar}"
        )
    return "\n".join(lines)


def _run_case(n_devices, batch):
    profiler = FabricProfiler(v100_cluster(n_devices))
    simulator = EventDrivenSimulator(profiler)
    graph = build_mlp_graph(OPT_175B.block_shape(batch=batch))
    megatron = best_megatron_plan(simulator, graph, batch)
    primepar = PrimeParOptimizer(profiler, alpha=ALPHA).optimize(graph)
    # alpha = 0: the Eq. 10 objective is the predicted iteration latency.
    explained = explain_plan(profiler, graph, primepar.plan)
    return {
        "megatron": megatron,
        "primepar_plan": primepar.plan,
        "megatron_report": megatron.report,
        "primepar_report": simulator.run(graph, primepar.plan, batch),
        "primepar_predicted": explained["total_cost"],
        "primepar_ring": sum(
            entry["ring_latency"] for entry in explained["per_layer"]
        ),
    }


def _collect():
    return {
        (8, 8): _run_case(8, 8),
        (16, 16): _run_case(16, 16),
    }


def test_fig9_breakdown(benchmark):
    cases = benchmark.pedantic(_collect, rounds=1, iterations=1)
    rows = []
    sections = []
    for (n_devices, batch), case in cases.items():
        meg = case["megatron_report"]
        pp = case["primepar_report"]
        meg_coll = meg.collective_latency
        pp_coll = pp.collective_latency
        reduction = pp_coll / meg_coll if meg_coll else float("nan")
        rows.append(
            [
                f"{n_devices} GPUs, batch {batch}",
                f"{meg.breakdown.get('compute', 0) * 1e3:.1f}",
                f"{pp.breakdown.get('compute', 0) * 1e3:.1f}",
                f"{meg_coll * 1e3:.1f}",
                f"{pp_coll * 1e3:.1f}",
                f"{case['primepar_ring'] * 1e3:.1f}",
                f"{reduction * 100:.1f}%",
            ]
        )
        plans = "\n".join(
            f"  {name.split('.')[-1]}.P = {spec}"
            for name, spec in case["primepar_plan"].items()
        )
        predicted = case["primepar_predicted"]
        sections.append(
            f"--- {n_devices} GPUs, batch {batch} ---\n"
            f"Megatron best (d={case['megatron'].dp_degree}, "
            f"m={case['megatron'].mp_degree})\n"
            f"PrimePar partition sequences:\n{plans}\n"
            f"Event-driven cross-check: Eq. 10 predicts "
            f"{predicted * 1e3:.2f} ms, event {pp.latency * 1e3:.2f} ms "
            f"({pp.latency / predicted:.3f}x; excess = link contention)\n"
            f"PrimePar timeline (one device, SPMD):\n"
            + _render_timeline(pp)
        )
    table = format_table(
        [
            "config",
            "meg compute ms",
            "pp compute ms",
            "meg collective ms",
            "pp collective ms",
            "pp ring (overlapped) ms",
            "pp/meg collective",
        ],
        rows,
        title="Fig. 9: OPT-175B MLP latency breakdown (per layer)",
    )
    emit("fig9_breakdown", table + "\n\n" + "\n\n".join(sections))

    for (n_devices, batch), case in cases.items():
        meg = case["megatron_report"]
        pp = case["primepar_report"]
        # Computation latency roughly matches (paper: PrimePar does not
        # trade compute efficiency for communication efficiency).
        assert pp.breakdown.get("compute", 0) <= meg.breakdown.get(
            "compute", 0
        ) * 1.25
        # Collective latency shrinks substantially (paper: 19.9% - 62.2%).
        assert pp.collective_latency < meg.collective_latency
        # The searched plan uses the temporal primitive on the MLP linears.
        assert any(s.has_temporal for s in case["primepar_plan"].values())
        # The discrete-event replay never beats Eq. 10's prediction (its
        # fluid link model only *adds* contention) and stays in the same
        # regime — excess is genuine NIC sharing, not a modelling bug.
        predicted = case["primepar_predicted"]
        assert pp.latency >= predicted * (1 - 1e-9)
        assert pp.latency <= predicted * 3.0
