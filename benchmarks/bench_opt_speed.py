"""Search-pipeline speed: cold vs. warm cache, serial vs. process pool.

Measures the PrimePar strategy search end to end at several cluster scales
under four regimes — cold cache + serial, cold cache + ``--jobs`` workers,
warm cache + serial, warm cache + workers — with the per-stage wall-clock
breakdown (``candidates``, ``segment_dp``, ``merge``) reported by the
optimizer, plus a serial-vs-parallel ``Planner3D`` sweep timing.  Every
regime must produce the identical plan and cost; the JSON records the check.

Standalone::

    PYTHONPATH=src python benchmarks/bench_opt_speed.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_opt_speed.py --smoke   # CI-sized

or as a pytest benchmark (``pytest benchmarks/bench_opt_speed.py``, runs the
smoke configuration).  Results land in ``benchmarks/results/BENCH_opt_speed.json``.
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
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from conftest import ALPHA, RESULTS_DIR, beam_for, jobs_for

from repro import (
    FabricProfiler,
    Planner3D,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro.graph.models import OPT_175B, OPT_6_7B

#: Full-run scales (paper Table 2 sizes) and the CI smoke subset.
FULL_SCALES: Tuple[int, ...] = (4, 8, 16, 32)
SMOKE_SCALES: Tuple[int, ...] = (4, 8)

REGIMES = ("cold_serial", "cold_parallel", "warm_serial", "warm_parallel")


def _plan_fingerprint(plan) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((name, str(spec)) for name, spec in plan.items()))


def _one_search(model, n_devices: int, jobs: int, cache_dir: str) -> Dict:
    """Run one search with a fresh optimizer against ``cache_dir``."""
    os.environ["PRIMEPAR_CACHE_DIR"] = cache_dir
    profiler = FabricProfiler(v100_cluster(n_devices))
    graph = build_block_graph(model.block_shape(batch=max(8, n_devices)))
    optimizer = PrimeParOptimizer(
        profiler, alpha=ALPHA, beam=beam_for(n_devices), jobs=jobs
    )
    started = time.perf_counter()
    result = optimizer.optimize(graph, n_layers=model.n_layers)
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "stages": dict(result.stage_seconds),
        # Eq. 8-9 edge pricing, summed over segment_dp and merge; what it
        # leaves of those stages is Bellman products.
        "edge_pricing_seconds": sum(
            s["duration"]
            for s in result.telemetry["spans"]
            if s["name"] == "search.edge_cost"
        ),
        "cost": result.cost,
        "model_cost": result.model_cost,
        "fingerprint": _plan_fingerprint(result.plan),
    }


def _measure_scale(model, n_devices: int, jobs: int, workdir: str) -> Dict:
    """The four regimes at one scale; warm runs reuse the cold-serial dir."""
    cold_serial_dir = os.path.join(workdir, f"cold-serial-{n_devices}")
    cold_parallel_dir = os.path.join(workdir, f"cold-parallel-{n_devices}")
    runs = {
        "cold_serial": _one_search(model, n_devices, 1, cold_serial_dir),
        "cold_parallel": _one_search(model, n_devices, jobs, cold_parallel_dir),
        "warm_serial": _one_search(model, n_devices, 1, cold_serial_dir),
        "warm_parallel": _one_search(model, n_devices, jobs, cold_serial_dir),
    }
    reference = runs["cold_serial"]
    identical = all(
        runs[r]["cost"] == reference["cost"]
        and runs[r]["model_cost"] == reference["model_cost"]
        and runs[r]["fingerprint"] == reference["fingerprint"]
        for r in REGIMES
    )
    for run in runs.values():
        del run["fingerprint"]
    return {"devices": n_devices, "runs": runs, "identical": identical}


def _measure_sweep(model, n_devices: int, jobs: int, workdir: str) -> Dict:
    """Serial vs. parallel 3D sweep (both against cold caches)."""
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "sweep-serial")
    started = time.perf_counter()
    serial = Planner3D(
        model, n_devices=n_devices, global_batch=n_devices, alpha=ALPHA
    ).sweep("primepar")
    serial_seconds = time.perf_counter() - started
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "sweep-parallel")
    started = time.perf_counter()
    parallel = Planner3D(
        model, n_devices=n_devices, global_batch=n_devices, alpha=ALPHA,
        jobs=jobs,
    ).sweep("primepar")
    parallel_seconds = time.perf_counter() - started
    identical = [
        (str(r.config), r.throughput, _plan_fingerprint(r.plan))
        for r in serial
    ] == [
        (str(r.config), r.throughput, _plan_fingerprint(r.plan))
        for r in parallel
    ]
    return {
        "devices": n_devices,
        "configs": len(serial),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "identical": identical,
    }


def run_benchmark(
    smoke: bool = False,
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> Dict:
    jobs = jobs if jobs is not None else (jobs_for() if jobs_for() > 1 else 4)
    scales = SMOKE_SCALES if smoke else FULL_SCALES
    model = OPT_6_7B if smoke else OPT_175B
    sweep_devices = 8 if smoke else 16
    saved_env = os.environ.get("PRIMEPAR_CACHE_DIR")
    workdir = tempfile.mkdtemp(prefix="primepar-bench-")
    try:
        payload = {
            "model": model.name,
            "jobs": jobs,
            "smoke": smoke,
            "scales": [
                _measure_scale(model, n, jobs, workdir) for n in scales
            ],
            "sweep": _measure_sweep(model, sweep_devices, jobs, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    out_path = Path(out) if out else RESULTS_DIR / "BENCH_opt_speed.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    if metrics_out:
        from repro.obs import write_metrics

        Path(metrics_out).parent.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics_out)
    return payload


def _report(payload: Dict) -> str:
    lines = [
        f"model {payload['model']}, jobs {payload['jobs']}"
        + (" (smoke)" if payload["smoke"] else "")
    ]
    for entry in payload["scales"]:
        runs = entry["runs"]
        cold = runs["cold_serial"]["elapsed_seconds"]
        lines.append(
            f"  {entry['devices']:>2} devices: cold serial {cold:.2f}s, "
            f"cold x{payload['jobs']} {runs['cold_parallel']['elapsed_seconds']:.2f}s, "
            f"warm serial {runs['warm_serial']['elapsed_seconds']:.2f}s, "
            f"warm x{payload['jobs']} {runs['warm_parallel']['elapsed_seconds']:.2f}s"
            f"  [identical={entry['identical']}]"
        )
    sweep = payload["sweep"]
    lines.append(
        f"  sweep ({sweep['devices']} devices, {sweep['configs']} configs): "
        f"serial {sweep['serial_seconds']:.2f}s, "
        f"parallel {sweep['parallel_seconds']:.2f}s"
        f"  [identical={sweep['identical']}]"
    )
    return "\n".join(lines)


def test_opt_speed_smoke(benchmark):
    payload = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    sys.__stdout__.write("\n===== BENCH_opt_speed (smoke) =====\n")
    sys.__stdout__.write(_report(payload) + "\n")
    sys.__stdout__.flush()
    assert all(entry["identical"] for entry in payload["scales"])
    assert payload["sweep"]["identical"]
    for entry in payload["scales"]:
        for regime in REGIMES:
            stages = entry["runs"][regime]["stages"]
            assert set(stages) == {"candidates", "segment_dp", "merge"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: OPT-6.7B at 4 and 8 devices",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for the parallel regimes "
             "(default: REPRO_BENCH_JOBS or 4)",
    )
    parser.add_argument(
        "--out", default="",
        help="output JSON path (default benchmarks/results/BENCH_opt_speed.json)",
    )
    parser.add_argument(
        "--metrics-out", default="", metavar="PATH",
        help="also dump the telemetry registry (metrics + spans) as JSON",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(
        smoke=args.smoke, jobs=args.jobs or None, out=args.out or None,
        metrics_out=args.metrics_out or None,
    )
    print(_report(payload))
    out = args.out or str(RESULTS_DIR / "BENCH_opt_speed.json")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
