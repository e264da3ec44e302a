"""Fault-aware robustness: tail latency of partition plans under faults.

Scores the PrimePar plan for one headline setting under four fault
classes — compute-only (stragglers), link-only (degraded NIC pools),
outage-only (checkpoint/restart recovery) and a mixed model — and records
the Monte-Carlo percentiles and per-class attribution for each, plus where
the sweep's time went, from its spans: lowering the plan
(``lower_seconds``, ``sim.lower``; a lowering loaded from the disk
cache is not priced and adds nothing), building kernel DAGs
(``build_seconds``, ``sim.build``) and executing them
(``replay_seconds``, ``sim.execute``), with the kernels those replays
executed (``kernels_executed``, from the same spans, so
``replay_seconds / kernels_executed`` is the engine's cost per kernel;
a DAG holds only the step-begin markers that wait on a transfer or start
a send, so that cost is per kernel that shapes the schedule, higher than
in runs whose counts held no-op markers: compare ``replay_seconds``
across them) and the contention flushes the engine counted
(``contention_flushes``, the ``sim.contention_flushes`` counter).  The
nominal replay runs on the sweep's own DAGs, so every figure above
includes it.  A splice census counts how often a one-layer probe — the
nominal's and each faulted replay's — spliced (``splice_probes``,
``spliced``, from the ``faults.splice_probes`` counter).  Three
structural checks ride along:

* **reports_identical** (per class) — the sweep's report, whose replays
  share one lowering and run one kernel DAG per shape, must equal
  byte for byte a re-run of the same scenarios in which every replay
  prices the plan with the disk cache off (so a cached lowering is
  checked against a freshly priced one) and builds a fresh DAG, lowering
  every layer (so the sweep's stacked DAGs are checked against the
  per-layer build);

* **determinism** — the mixed-class report must be bit-identical when the
  scenario fan-out runs serially and with ``--jobs`` workers (the seeded
  draw + submission-order merge contract of
  :func:`repro.sim.faults.evaluate_robustness`);
* **objective_ranking** — the plan portfolio (primepar / conventional /
  megatron) ranked under ``nominal`` vs ``p99`` on the mixed model,
  recording both winners (the paper-level point: the nominal-optimal plan
  need not be the tail-optimal one).

Standalone::

    PYTHONPATH=src python benchmarks/bench_robustness.py           # full
    PYTHONPATH=src python benchmarks/bench_robustness.py --smoke   # CI-sized

or as a pytest benchmark (``pytest benchmarks/bench_robustness.py``, runs
the smoke configuration).  Results land in
``benchmarks/results/BENCH_robustness.json`` and are gated by
``tools/bench_compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional
from unittest import mock

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
sys.path.insert(0, str(Path(__file__).parent))

from frozen_graphs import PerLayerSimulator
from conftest import (
    ALPHA,
    RESULTS_DIR,
    beam_for,
    jobs_for,
    span_root,
    write_result,
)

from repro import (
    FabricProfiler,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro.graph.models import OPT_6_7B, OPT_175B
from repro.obs import MetricsRegistry, telemetry_scope
from repro.sim import faults
from repro.sim.faults import FaultModel, evaluate_robustness, robust_search

#: The four fault classes scored against the same plan.
FAULT_CLASSES: Dict[str, str] = {
    "compute": "straggler=0.6:1.8",
    "link": "degrade=0.6:0.5",
    "outage": "outage=0.5,ckpt=16,restart=30,replan=5",
    "mixed": (
        "straggler=0.3:1.6,degrade=0.3:0.6,flap=0.5:0.002:0.25,"
        "outage=0.1,ckpt=16,restart=30,replan=5"
    ),
}


def _report_bytes(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _per_replay_lowering_report(*args, **kwargs):
    """:func:`evaluate_robustness` with every fault replay pricing the plan
    (disk cache off) and building a fresh kernel DAG itself, layer by
    layer (``tests/frozen_graphs.py``)."""

    def fresh_dag(sweep, n_layers):
        simulator = PerLayerSimulator(sweep.simulator.profiler)
        with mock.patch.dict(os.environ, {"PRIMEPAR_CACHE": "off"}):
            lowering = simulator.lower(sweep.graph, sweep.plan)
        return simulator.build(sweep.graph, lowering, n_layers)

    with mock.patch.object(faults.FaultSweep, "_dag", fresh_dag):
        return evaluate_robustness(*args, **kwargs)


def _census(registry: MetricsRegistry) -> Dict[str, float]:
    """The sweep counters a class entry reports, from its own registry."""
    counters = registry.snapshot()["counters"]

    def counted(name: str, **labels: str) -> float:
        return sum(
            e["value"] for e in counters
            if e["name"] == name
            and all(e["labels"].get(k) == v for k, v in labels.items())
        )

    return {
        "spliced": counted("faults.splice_probes", outcome="spliced"),
        "replayed": counted("faults.splice_probes", outcome="replayed"),
        "flushes": counted("sim.contention_flushes"),
    }


def _class_entry(
    report, spec: str, seconds: float, span_totals: Dict[str, float],
    census: Dict[str, float], identical: bool,
) -> Dict:
    return {
        "spec": spec,
        "p50": report.p50,
        "p95": report.p95,
        "p99": report.p99,
        "mean_latency": report.mean_latency,
        "worst_latency": report.worst_latency,
        "attribution": dict(report.attribution),
        "expected_recovery_cost": report.expected_recovery_cost,
        "outage_scenarios": report.outage_scenarios,
        "wall_seconds": seconds,
        "lower_seconds": span_totals["sim.lower"],
        "build_seconds": span_totals["sim.build"],
        "replay_seconds": span_totals["sim.execute"],
        "kernels_executed": span_totals["kernels"],
        "contention_flushes": census["flushes"],
        "splice_probes": census["spliced"] + census["replayed"],
        "spliced": census["spliced"],
        "reports_identical": identical,
    }


def run_benchmark(
    smoke: bool = False,
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> Dict:
    jobs = jobs if jobs is not None else (jobs_for() if jobs_for() > 1 else 2)
    model = OPT_6_7B if smoke else OPT_175B
    # Two GPUs per node keeps even the smoke cluster multi-node, so the
    # link fault class has NIC pools to degrade.
    n_devices, gpus_per_node = (4, 2) if smoke else (32, 4)
    batch = 8 if smoke else 32
    n_layers = 4 if smoke else 8
    scenarios = 6 if smoke else 24
    seed = 0

    saved_env = os.environ.get("PRIMEPAR_CACHE_DIR")
    workdir = tempfile.mkdtemp(prefix="primepar-robustness-")
    os.environ["PRIMEPAR_CACHE_DIR"] = workdir
    try:
        profiler = FabricProfiler(
            v100_cluster(n_devices, gpus_per_node=gpus_per_node)
        )
        graph = build_block_graph(model.block_shape(batch=batch))
        beam = beam_for(n_devices)
        plan = PrimeParOptimizer(
            profiler, alpha=ALPHA, beam=beam
        ).optimize(graph, n_layers=model.n_layers).plan

        classes: Dict[str, Dict] = {}
        reports = {}
        nominal_latency = None
        for label, spec in FAULT_CLASSES.items():
            fault_model = FaultModel.from_spec(spec)
            sweep = (profiler, graph, plan, n_layers, fault_model)
            # One scope per class: its own spans and counters, merged
            # into the run's (for --metrics-out) when the class is done.
            with telemetry_scope() as scope:
                started = time.perf_counter()
                report = evaluate_robustness(
                    *sweep, scenarios=scenarios, seed=seed, jobs=1
                )
                seconds = time.perf_counter() - started
            census = _census(scope.registry)
            spans = scope.collector.export()
            span_totals = {
                name: sum(s["duration"] for s in spans if s["name"] == name)
                for name in ("sim.lower", "sim.build", "sim.execute")
            }
            span_totals["kernels"] = sum(
                s["attrs"]["kernels"] for s in spans
                if s["name"] == "sim.execute"
            )
            reports[label] = report
            reference = _per_replay_lowering_report(
                *sweep, scenarios=scenarios, seed=seed, jobs=1
            )
            classes[label] = _class_entry(
                report, spec, seconds, span_totals, census,
                _report_bytes(report) == _report_bytes(reference),
            )
            nominal_latency = report.nominal_latency

        mixed_model = FaultModel.from_spec(FAULT_CLASSES["mixed"])
        started = time.perf_counter()
        parallel_report = evaluate_robustness(
            profiler, graph, plan, n_layers, mixed_model,
            scenarios=scenarios, seed=seed, jobs=jobs,
        )
        parallel_seconds = time.perf_counter() - started

        ranked = robust_search(
            profiler, graph,
            global_batch=batch, n_layers=model.n_layers,
            fault_model=mixed_model, objective="p99",
            scenarios=scenarios, seed=seed, sim_layers=n_layers,
            alpha=ALPHA, beam=beam, jobs=1,
        )
        by_nominal = sorted(
            ranked.candidates,
            key=lambda c: (c.report.score("nominal"), c.label),
        )
        payload = {
            "schema": 1,
            "smoke": smoke,
            "config": {
                "model": model.name,
                "devices": n_devices,
                "batch": batch,
                "layers": n_layers,
                "scenarios": scenarios,
                "seed": seed,
                "jobs": jobs,
            },
            "nominal_latency": nominal_latency,
            "fault_classes": classes,
            "determinism": {
                "jobs": jobs,
                "serial_equals_parallel": (
                    _report_bytes(reports["mixed"])
                    == _report_bytes(parallel_report)
                ),
                "parallel_seconds": parallel_seconds,
            },
            "objective_ranking": {
                "nominal_winner": by_nominal[0].label,
                "p99_winner": ranked.best.label,
                "candidates": {
                    c.label: {
                        "nominal": c.report.score("nominal"),
                        "p99": c.report.score("p99"),
                    }
                    for c in ranked.candidates
                },
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    write_result("BENCH_robustness.json", payload, out)
    if metrics_out:
        from repro.obs import write_metrics

        Path(metrics_out).parent.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics_out)
    return payload


def _report(payload: Dict) -> str:
    config = payload["config"]
    lines = [
        f"{config['model']} on {config['devices']} devices, batch "
        f"{config['batch']}, {config['layers']} layers, "
        f"{config['scenarios']} scenarios (seed {config['seed']})"
        + (" (smoke)" if payload["smoke"] else ""),
        f"  nominal: {payload['nominal_latency'] * 1e3:.2f}ms",
    ]
    for label, entry in payload["fault_classes"].items():
        lines.append(
            f"  {label:8s} p50 {entry['p50'] * 1e3:.2f}ms  "
            f"p95 {entry['p95'] * 1e3:.2f}ms  "
            f"p99 {entry['p99'] * 1e3:.2f}ms  "
            f"(compute {entry['attribution']['compute'] * 1e3:.2f} / "
            f"link {entry['attribution']['link'] * 1e3:.2f} / "
            f"recovery {entry['attribution']['recovery'] * 1e3:.2f}ms), "
            f"{entry['wall_seconds']:.2f}s wall ("
            f"{entry['lower_seconds'] * 1e3:.1f}ms lowering, "
            f"{entry['build_seconds']:.2f}s building, "
            f"{entry['replay_seconds']:.2f}s replaying "
            f"{entry['kernels_executed']:.0f} kernels), "
            f"{entry['spliced']:.0f}/{entry['splice_probes']:.0f} probes "
            f"spliced, identical to from-scratch replays: "
            f"{entry['reports_identical']}"
        )
    det = payload["determinism"]
    lines.append(
        f"  determinism: serial == x{det['jobs']} workers -> "
        f"{det['serial_equals_parallel']}"
    )
    ranking = payload["objective_ranking"]
    lines.append(
        f"  objective ranking: nominal winner {ranking['nominal_winner']}, "
        f"p99 winner {ranking['p99_winner']}"
    )
    return "\n".join(lines)


def test_robustness_smoke(benchmark):
    payload = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    sys.__stdout__.write("\n===== BENCH_robustness (smoke) =====\n")
    sys.__stdout__.write(_report(payload) + "\n")
    sys.__stdout__.flush()
    assert payload["determinism"]["serial_equals_parallel"]
    nominal = payload["nominal_latency"]
    for label, entry in payload["fault_classes"].items():
        assert entry["p99"] >= nominal, (label, entry["p99"], nominal)
        assert entry["reports_identical"], label


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: OPT-6.7B on 4 devices, 6 scenarios",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the parallel determinism check "
             "(default: REPRO_BENCH_JOBS or 2)",
    )
    parser.add_argument(
        "--out", default="",
        help="output JSON path "
             "(default benchmarks/results/BENCH_robustness.json)",
    )
    parser.add_argument(
        "--metrics-out", default="", metavar="PATH",
        help="also dump the telemetry registry (metrics + spans) as JSON",
    )
    args = parser.parse_args(argv)
    with span_root(args.metrics_out):
        payload = run_benchmark(
            smoke=args.smoke, jobs=args.jobs or None, out=args.out or None,
            metrics_out=args.metrics_out or None,
        )
    print(_report(payload))
    out = args.out or str(RESULTS_DIR / "BENCH_robustness.json")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
