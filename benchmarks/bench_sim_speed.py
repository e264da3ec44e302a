"""Simulation-engine speed: pre-PR engine vs the optimised engine.

Replays the event-driven scenarios behind Figs. 7-10 under three regimes —
the frozen pre-optimisation engine (vendored in ``tests/legacy_engine.py``),
the optimised engine against a cold report cache, and the optimised engine
against a warm cache (the steady state when figures are regenerated) — plus
a cold and a warm event-engine 3D sweep.  Every regime must produce the
identical report; the JSON records the check and the speedups.

Scenarios:

* ``block_replay`` — Fig. 9's MLP-block event replays (Megatron plans).
* ``contended_replay`` — a cross-node temporal plan whose rings share NIC
  pools, exercising the incremental fluid-contention path.
* ``fig9_pipeline_replay`` — the Fig. 9-scale event-driven pipeline
  schedule replay (the headline: warm replay must be >= 5x the pre-PR
  engine with an unchanged report).
* ``model_replay`` — full-depth ``run_model`` (splice verification +
  report cache; dominated by timeline replication, recorded for honesty).
* ``sweep`` — event-engine ``Planner3D`` sweep, cold then warm cache.
* ``faulted_execute`` — the cold engine alone: ``BENCH_robustness``'s
  32-device, 8-layer OPT-175B kernel DAG under its compute- and
  link-class scenarios, each executed on the frozen fault graph
  (``tests/legacy_faults.py``, one fresh build per scenario) and on one
  build of the live graph, executed under each scenario's engine
  arguments (``FaultScenario.engine_args``).  Each class times
  its live template's build (``build_seconds``: one layer lowered and its
  forward and backward blocks stacked; the columnar build compiles as it
  adds, so no execute pays for compiling) against the same DAG lowered
  layer by layer (``per_layer_build_seconds``, ``tests/frozen_graphs.py``;
  ``build_speedup``), requiring the two graphs equal table for table, and
  every ``execute``; it records microseconds per kernel, the engine
  counters of the live runs and whether the graphs and every makespan
  are identical.  Its
  ``transfer_free`` class replays the Megatron plan's DAG of the same
  depth under the compute-class scenarios: it has no transfers, so the
  live graph schedules it in one pass, which is also timed against the
  live event loop on the same build, every kernel's times compared.

Standalone::

    PYTHONPATH=src python benchmarks/bench_sim_speed.py
    PYTHONPATH=src python benchmarks/bench_sim_speed.py --smoke   # CI-sized

or as a pytest benchmark (``pytest benchmarks/bench_sim_speed.py``, runs the
smoke configuration).  Results land in ``benchmarks/results/BENCH_sim_speed.json``.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).parent))

from frozen_graphs import (
    LegacyFaultyKernelGraph,
    OrderedLegacyKernelGraph,
    PerLayerSimulator,
    tables,
)
from conftest import ALPHA, RESULTS_DIR, beam_for, span_root, write_result

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    Planner3D,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro.baselines.megatron import best_megatron_plan
from repro.core.dims import Dim
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.graph.models import OPT_6_7B, OPT_175B
from repro.graph.operators import OpKind, OperatorSpec
from repro.graph.transformer import build_mlp_graph
from repro.parallel3d.pipeline import PipelinePlan, pipeline_iteration_events
from repro.sim.faults import FaultModel

REGIMES = ("legacy", "cold", "warm")


def _best_of(fn: Callable[[], object], rounds: int) -> Tuple[float, object]:
    """Best-of-``rounds`` wall clock, each round after a full collection
    with the previous result dropped; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        result = None
        gc.collect()
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _reports_identical(golden, candidate) -> bool:
    return (
        candidate.latency == golden.latency
        and candidate.throughput == golden.throughput
        and candidate.peak_memory_bytes == golden.peak_memory_bytes
        and candidate.timeline.records == golden.timeline.records
    )


def _three_regimes(
    profiler,
    run: Callable[[EventDrivenSimulator], object],
    cache_dir: str,
    rounds: int,
) -> Dict:
    """Time ``run`` on the legacy engine, then cold- and warm-cache."""
    legacy = PerLayerSimulator(
        profiler,
        graph_factory=OrderedLegacyKernelGraph,
    )
    legacy_seconds, legacy_report = _best_of(lambda: run(legacy), rounds)
    os.environ["PRIMEPAR_CACHE_DIR"] = cache_dir
    optimised = EventDrivenSimulator(profiler)
    cold_seconds, cold_report = _best_of(lambda: run(optimised), 1)
    warm_seconds, warm_report = _best_of(lambda: run(optimised), rounds)
    return {
        "legacy_seconds": legacy_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_cold": legacy_seconds / cold_seconds,
        "speedup_warm": legacy_seconds / warm_seconds,
        "identical": (
            _reports_identical(legacy_report, cold_report)
            and _reports_identical(legacy_report, warm_report)
        ),
    }


def _measure_blocks(smoke: bool, workdir: str, rounds: int) -> List[Dict]:
    """Fig. 9's MLP-block event replays."""
    model = OPT_6_7B if smoke else OPT_175B
    cases = ((4, 8),) if smoke else ((8, 8), (16, 16))
    out = []
    for n_devices, batch in cases:
        profiler = FabricProfiler(v100_cluster(n_devices))
        graph = build_mlp_graph(model.block_shape(batch=batch))
        os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "plan-choice")
        plan = best_megatron_plan(
            EventDrivenSimulator(profiler), graph, batch
        ).plan
        entry = _three_regimes(
            profiler,
            lambda sim: sim.run(graph, plan, batch),
            os.path.join(workdir, f"block-{n_devices}"),
            rounds,
        )
        entry.update(devices=n_devices, batch=batch, model=model.name)
        out.append(entry)
    return out


def _measure_contended(smoke: bool, workdir: str, rounds: int) -> Dict:
    """Cross-node temporal rings over shared NIC pools (fluid contention)."""
    if smoke:
        spec, n_bits, n_devices, gpn = "P2x2", 2, 4, 2
        sizes = {"batch": 2, "seq": 64, "hidden": 2048, "ffn": 2048}
        batch = 2
    else:
        spec, n_bits, n_devices, gpn = "B-P4x4", 5, 32, 4
        sizes = {"batch": 8, "seq": 64, "hidden": 8192, "ffn": 8192}
        batch = 8
    fc = OperatorSpec(
        name="fc",
        kind=OpKind.LINEAR,
        dim_axes={
            Dim.B: ("batch",),
            Dim.M: ("seq",),
            Dim.K: ("hidden",),
            Dim.N: ("ffn",),
        },
        axis_sizes=sizes,
    )
    graph = ComputationGraph(nodes=[fc], edges=[])
    plan = {"fc": PartitionSpec.from_string(spec, n_bits)}
    profiler = FabricProfiler(v100_cluster(n_devices, gpus_per_node=gpn))
    entry = _three_regimes(
        profiler,
        lambda sim: sim.run(graph, plan, batch),
        os.path.join(workdir, "contended"),
        rounds,
    )
    entry.update(devices=n_devices, spec=spec, batch=batch)
    return entry


def _measure_pipeline(smoke: bool, workdir: str, rounds: int) -> Dict:
    """The Fig. 9-scale event-driven pipeline schedule replay (headline)."""
    p, m = (4, 16) if smoke else (16, 128)
    plan = PipelinePlan(n_stages=p, n_microbatches=m)
    link = v100_cluster(32, gpus_per_node=4).inter_link
    stage_f, stage_b, boundary = 1e-3, 2e-3, 4e6

    legacy_seconds, legacy_report = _best_of(
        lambda: pipeline_iteration_events(
            plan, stage_f, stage_b, boundary, link,
            graph_factory=OrderedLegacyKernelGraph,
        ),
        rounds,
    )
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "pipeline")
    cold_seconds, cold_report = _best_of(
        lambda: pipeline_iteration_events(
            plan, stage_f, stage_b, boundary, link
        ),
        1,
    )
    warm_seconds, warm_report = _best_of(
        lambda: pipeline_iteration_events(
            plan, stage_f, stage_b, boundary, link
        ),
        rounds,
    )
    identical = all(
        report.iteration_latency == legacy_report.iteration_latency
        and report.bubble_latency == legacy_report.bubble_latency
        and report.timeline.records == legacy_report.timeline.records
        for report in (cold_report, warm_report)
    )
    return {
        "stages": p,
        "microbatches": m,
        "legacy_seconds": legacy_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_cold": legacy_seconds / cold_seconds,
        "speedup_warm": legacy_seconds / warm_seconds,
        "identical": identical,
    }


def _measure_model(smoke: bool, workdir: str, rounds: int) -> Dict:
    """Full-depth ``run_model``: splice verification + report cache."""
    model = OPT_6_7B if smoke else OPT_175B
    n_devices, batch = (4, 8) if smoke else (16, 16)
    n_layers = 8 if smoke else model.n_layers
    profiler = FabricProfiler(v100_cluster(n_devices))
    graph = build_mlp_graph(model.block_shape(batch=batch))
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "plan-choice")
    plan = best_megatron_plan(
        EventDrivenSimulator(profiler), graph, batch
    ).plan
    entry = _three_regimes(
        profiler,
        lambda sim: sim.run_model(graph, plan, batch, n_layers),
        os.path.join(workdir, "model"),
        rounds,
    )
    entry.update(
        devices=n_devices, batch=batch, n_layers=n_layers, model=model.name
    )
    return entry


#: ``BENCH_robustness``'s fault classes that the engine replays alone.
FAULTED_CLASSES = {
    "compute": "straggler=0.6:1.8",
    "link": "degrade=0.6:0.5",
}


def _kernel_times(kg) -> List[Tuple[float, float]]:
    return [(k.start_time, k.end_time) for k in kg.kernels]


def _timed(run: Callable[[], float]) -> Tuple[float, float]:
    started = time.perf_counter()
    makespan = run()
    return time.perf_counter() - started, makespan


#: Rounds of each template build timed (best of).
BUILD_ROUNDS = 3


def _faulted_class(
    spec, simulator, graph, lowering, n_layers, scenarios, loop=False,
) -> Dict:
    """Build the live template of ``lowering`` (``build_seconds``: one
    layer lowered, its blocks stacked) and the same DAG lowered layer by
    layer (``per_layer_build_seconds``; ``build_speedup`` is their ratio),
    both best of ``BUILD_ROUNDS`` and required equal table for table;
    then execute the template under ``spec``'s scenarios, each also on a
    fresh frozen fault graph; with ``loop``, also on the live event loop,
    and compare every kernel's times, not only the makespans."""
    profiler = simulator.profiler
    topology = profiler.topology
    build_seconds, template = _best_of(
        lambda: simulator.build(graph, lowering, n_layers), BUILD_ROUNDS
    )
    per_layer = PerLayerSimulator(profiler)
    per_layer_seconds, reference = _best_of(
        lambda: per_layer.build(graph, lowering, n_layers), BUILD_ROUNDS
    )
    same_graph = tables(template) == tables(reference)
    del reference
    drawn = FaultModel.from_spec(spec).scenarios(
        topology, scenarios, 0, template.execute()
    )
    entry = {
        "spec": spec,
        "scenarios": len(drawn),
        "kernels": len(template),
        "transfers": sum(k.transfer is not None for k in template.kernels),
        "build_seconds": build_seconds,
        "per_layer_build_seconds": per_layer_seconds,
        "build_speedup": per_layer_seconds / build_seconds,
        "legacy_seconds": 0.0,
        "seconds": 0.0,
        "contention_flushes": 0,
        "queue_pushes": 0,
        "identical": same_graph,
    }
    if loop:
        entry["loop_seconds"] = 0.0
    for scenario in drawn:
        frozen = PerLayerSimulator(
            profiler,
            graph_factory=lambda: LegacyFaultyKernelGraph(
                scenario, topology
            ),
        ).build(graph, lowering, n_layers)
        legacy_seconds, legacy_makespan = _timed(frozen.execute)
        legacy_times = _kernel_times(frozen) if loop else None
        del frozen
        faults = scenario.engine_args(topology)
        seconds, makespan = _timed(lambda: template.execute(**faults))
        stats = template.perf_stats()
        entry["legacy_seconds"] += legacy_seconds
        entry["seconds"] += seconds
        entry["contention_flushes"] += stats["contention_flushes"]
        entry["queue_pushes"] += stats["queue_pushes"]
        entry["identical"] &= makespan == legacy_makespan
        if loop:
            times = _kernel_times(template)
            entry["identical"] &= times == legacy_times
            loop_seconds, loop_makespan = _timed(
                lambda: template._execute_events(**faults)
            )
            entry["loop_seconds"] += loop_seconds
            entry["identical"] &= (
                loop_makespan == makespan
                and _kernel_times(template) == times
            )
    entry["schedule"] = template.schedule
    executed = entry["kernels"] * len(drawn)
    entry["legacy_us_per_kernel"] = entry["legacy_seconds"] / executed * 1e6
    entry["us_per_kernel"] = entry["seconds"] / executed * 1e6
    if loop:
        entry["loop_us_per_kernel"] = entry["loop_seconds"] / executed * 1e6
        entry["speedup_vs_loop"] = entry["loop_seconds"] / entry["seconds"]
    return entry


def _measure_faulted_execute(smoke: bool, workdir: str) -> Dict:
    """Cold ``execute`` of one fault-sweep DAG: frozen fault graph vs live
    graph.

    The PrimePar plan's DAG carries ring transfers, so it takes the event
    loop; the ``transfer_free`` class replays the Megatron plan's DAG of
    the same depth, which has none and takes the one-pass schedule, and
    also times the event loop on it.
    """
    model = OPT_6_7B if smoke else OPT_175B
    n_devices, gpus_per_node = (4, 2) if smoke else (32, 4)
    batch = 8 if smoke else 32
    n_layers = 4 if smoke else 8
    scenarios = 2 if smoke else 4
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "faulted")
    profiler = FabricProfiler(
        v100_cluster(n_devices, gpus_per_node=gpus_per_node)
    )
    graph = build_block_graph(model.block_shape(batch=batch))
    plan = PrimeParOptimizer(
        profiler, alpha=ALPHA, beam=beam_for(n_devices)
    ).optimize(graph, n_layers=model.n_layers).plan
    live = EventDrivenSimulator(profiler)
    lowering = live.lower(graph, plan)
    classes = {
        label: _faulted_class(
            spec, live, graph, lowering, n_layers, scenarios
        )
        for label, spec in FAULTED_CLASSES.items()
    }
    megatron = best_megatron_plan(
        EventDrivenSimulator(profiler), graph, batch
    ).plan
    classes["transfer_free"] = _faulted_class(
        FAULTED_CLASSES["compute"], live, graph, live.lower(graph, megatron),
        n_layers, scenarios, loop=True,
    )
    classes["transfer_free"]["plan"] = "megatron"
    legacy_seconds = sum(e["legacy_seconds"] for e in classes.values())
    seconds = sum(e["seconds"] for e in classes.values())
    executed = sum(e["kernels"] * e["scenarios"] for e in classes.values())
    return {
        "model": model.name,
        "devices": n_devices,
        "layers": n_layers,
        "kernels": classes["compute"]["kernels"],
        "classes": classes,
        "legacy_us_per_kernel": legacy_seconds / executed * 1e6,
        "us_per_kernel": seconds / executed * 1e6,
        "speedup": legacy_seconds / seconds,
        "identical": all(e["identical"] for e in classes.values()),
    }


def _sweep_fingerprint(results) -> List[Tuple[str, float, float]]:
    return [
        (str(r.config), r.throughput, r.iteration_latency) for r in results
    ]


def _measure_sweep(smoke: bool, workdir: str) -> Dict:
    """Event-engine 3D sweep: a cold, then a warm sweep over one cache."""
    model = OPT_6_7B
    n_devices = 8 if smoke else 16
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "sweep")

    def sweep():
        planner = Planner3D(
            model, n_devices=n_devices, global_batch=n_devices, alpha=ALPHA,
        )
        started = time.perf_counter()
        results = planner.sweep("primepar")
        return time.perf_counter() - started, results

    cold_seconds, cold = sweep()
    warm_seconds, warm = sweep()
    return {
        "devices": n_devices,
        "configs": len(cold),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "identical": _sweep_fingerprint(warm) == _sweep_fingerprint(cold),
    }


def run_benchmark(
    smoke: bool = False,
    out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> Dict:
    rounds = 1 if smoke else 3
    saved_env = os.environ.get("PRIMEPAR_CACHE_DIR")
    workdir = tempfile.mkdtemp(prefix="primepar-simbench-")
    try:
        payload = {
            "smoke": smoke,
            "rounds": rounds,
            "block_replay": _measure_blocks(smoke, workdir, rounds),
            "contended_replay": _measure_contended(smoke, workdir, rounds),
            "fig9_pipeline_replay": _measure_pipeline(smoke, workdir, rounds),
            "model_replay": _measure_model(smoke, workdir, rounds),
            "sweep": _measure_sweep(smoke, workdir),
            "faulted_execute": _measure_faulted_execute(smoke, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    write_result("BENCH_sim_speed.json", payload, out)
    if metrics_out:
        from repro.obs import write_metrics

        Path(metrics_out).parent.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics_out)
    return payload


def _fmt(entry: Dict, label: str) -> str:
    return (
        f"  {label}: legacy {entry['legacy_seconds'] * 1e3:.1f}ms, "
        f"cold {entry['cold_seconds'] * 1e3:.1f}ms "
        f"({entry['speedup_cold']:.2f}x), "
        f"warm {entry['warm_seconds'] * 1e3:.1f}ms "
        f"({entry['speedup_warm']:.2f}x)"
        f"  [identical={entry['identical']}]"
    )


def _report(payload: Dict) -> str:
    lines = [
        f"best of {payload['rounds']}"
        + (" (smoke)" if payload["smoke"] else "")
    ]
    for entry in payload["block_replay"]:
        lines.append(
            _fmt(entry, f"block {entry['devices']}dev b{entry['batch']}")
        )
    contended = payload["contended_replay"]
    lines.append(
        _fmt(contended, f"contended {contended['spec']} "
             f"{contended['devices']}dev")
    )
    pipe = payload["fig9_pipeline_replay"]
    lines.append(
        _fmt(pipe, f"pipeline p{pipe['stages']} m{pipe['microbatches']}")
    )
    model = payload["model_replay"]
    lines.append(
        _fmt(model, f"run_model {model['n_layers']}L {model['devices']}dev")
    )
    sweep = payload["sweep"]
    lines.append(
        f"  sweep ({sweep['devices']} devices, {sweep['configs']} configs): "
        f"cold {sweep['cold_seconds']:.2f}s, "
        f"warm {sweep['warm_seconds']:.2f}s"
        f"  [identical={sweep['identical']}]"
    )
    faulted = payload["faulted_execute"]
    lines.append(
        f"  faulted execute ({faulted['devices']} devices, "
        f"{faulted['layers']} layers, {faulted['kernels']} kernels): "
        f"legacy {faulted['legacy_us_per_kernel']:.2f} us/kernel, "
        f"live {faulted['us_per_kernel']:.2f} us/kernel "
        f"({faulted['speedup']:.2f}x)"
        f"  [identical={faulted['identical']}]"
    )
    builds = ", ".join(
        f"{label} {entry['build_speedup']:.2f}x"
        for label, entry in faulted["classes"].items()
    )
    lines.append(f"    stacked build vs per-layer: {builds}")
    free = faulted["classes"]["transfer_free"]
    lines.append(
        f"    transfer-free megatron ({free['kernels']} kernels): "
        f"legacy {free['legacy_us_per_kernel']:.2f}, "
        f"loop {free['loop_us_per_kernel']:.2f}, "
        f"pass {free['us_per_kernel']:.2f} us/kernel "
        f"({free['speedup_vs_loop']:.2f}x the loop)"
        f"  [identical={free['identical']}]"
    )
    return "\n".join(lines)


def test_sim_speed_smoke(benchmark):
    payload = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    sys.__stdout__.write("\n===== BENCH_sim_speed (smoke) =====\n")
    sys.__stdout__.write(_report(payload) + "\n")
    sys.__stdout__.flush()
    for entry in payload["block_replay"]:
        assert entry["identical"]
    assert payload["contended_replay"]["identical"]
    assert payload["fig9_pipeline_replay"]["identical"]
    assert payload["model_replay"]["identical"]
    assert payload["sweep"]["identical"]
    assert payload["faulted_execute"]["identical"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: OPT-6.7B scenarios at 4-8 devices",
    )
    parser.add_argument(
        "--out", default="",
        help="output JSON path (default benchmarks/results/BENCH_sim_speed.json)",
    )
    parser.add_argument(
        "--metrics-out", default="", metavar="PATH",
        help="also dump the telemetry registry (metrics + spans) as JSON",
    )
    args = parser.parse_args(argv)
    with span_root(args.metrics_out):
        payload = run_benchmark(
            smoke=args.smoke, out=args.out or None,
            metrics_out=args.metrics_out or None,
        )
    print(_report(payload))
    out = args.out or str(RESULTS_DIR / "BENCH_sim_speed.json")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
