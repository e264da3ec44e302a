"""Search-pipeline speed: cold vs. warm cache, serial vs. process pool.

Measures the PrimePar strategy search end to end at several cluster scales
under four regimes — cold cache + serial, cold cache + ``--jobs`` workers,
warm cache + serial, warm cache + workers — with the per-stage wall-clock
breakdown (``candidates``, ``segment_dp``, ``merge``, two shares of
``candidates``: ``intra``, Eq. 7 pricing of every enumerated spec, and
``classify``, heap-id decoding and selection, and ``bellman``) reported by
the optimizer, the Bellman products of ``segment_dp`` and ``merge``
(``bellman_seconds``, the optimizer's ``bellman`` stage, timed around each
min-plus product) and each segment's DP time and expanded states, plus a
cold and a warm serial ``Planner3D`` sweep.  Each
scale also records ``cache_bytes``, the size of the disk cache the
cold-serial search leaves (its candidate sets and profiler fits).  Every
regime must produce the identical plan and cost; the JSON records the check.

Standalone::

    PYTHONPATH=src python benchmarks/bench_opt_speed.py --jobs 4
    PYTHONPATH=src python benchmarks/bench_opt_speed.py --smoke   # CI-sized

or as a pytest benchmark (``pytest benchmarks/bench_opt_speed.py``, runs the
smoke configuration).  Results land in ``benchmarks/results/BENCH_opt_speed.json``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from conftest import (
    ALPHA,
    RESULTS_DIR,
    beam_for,
    jobs_for,
    span_root,
    write_result,
)

from repro import cache as diskcache
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
    spans = result.telemetry["spans"]
    return {
        "elapsed_seconds": elapsed,
        "stages": dict(result.stage_seconds),
        # Eq. 8-9 edge pricing, summed over segment_dp and merge.
        "edge_pricing_seconds": sum(
            s["duration"] for s in spans if s["name"] == "search.edge_cost"
        ),
        # Eq. 11-14 min-plus products and the layer fold, both stages.
        "bellman_seconds": result.stage_seconds["bellman"],
        "segments": [
            {
                "start": s["attrs"]["start"],
                "nodes": s["attrs"]["nodes"],
                "states": s["attrs"]["states"],
                "seconds": s["duration"],
            }
            for s in spans
            if s["name"] == "search.segment"
        ],
        "cost": result.cost,
        "model_cost": result.model_cost,
        "fingerprint": _plan_fingerprint(result.plan),
    }


def _measure_scale(model, n_devices: int, jobs: int, workdir: str) -> Dict:
    """The four regimes at one scale; warm runs reuse the cold-serial dir."""
    cold_serial_dir = os.path.join(workdir, f"cold-serial-{n_devices}")
    cold_parallel_dir = os.path.join(workdir, f"cold-parallel-{n_devices}")
    runs = {"cold_serial": _one_search(model, n_devices, 1, cold_serial_dir)}
    cache_bytes = diskcache.total_bytes()
    runs.update({
        "cold_parallel": _one_search(model, n_devices, jobs, cold_parallel_dir),
        "warm_serial": _one_search(model, n_devices, 1, cold_serial_dir),
        "warm_parallel": _one_search(model, n_devices, jobs, cold_serial_dir),
    })
    reference = runs["cold_serial"]
    identical = all(
        runs[r]["cost"] == reference["cost"]
        and runs[r]["model_cost"] == reference["model_cost"]
        and runs[r]["fingerprint"] == reference["fingerprint"]
        for r in REGIMES
    )
    for run in runs.values():
        del run["fingerprint"]
    return {
        "devices": n_devices,
        "runs": runs,
        "cache_bytes": cache_bytes,
        "identical": identical,
    }


def _measure_sweep(model, n_devices: int, workdir: str) -> Dict:
    """A cold, then a warm 3D sweep over one cache directory."""
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "sweep")

    def sweep() -> Tuple[float, List]:
        started = time.perf_counter()
        results = Planner3D(
            model, n_devices=n_devices, global_batch=n_devices, alpha=ALPHA
        ).sweep("primepar")
        return time.perf_counter() - started, [
            (str(r.config), r.throughput, _plan_fingerprint(r.plan))
            for r in results
        ]

    cold_seconds, cold = sweep()
    warm_seconds, warm = sweep()
    return {
        "devices": n_devices,
        "configs": len(cold),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "identical": warm == cold,
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
            "sweep": _measure_sweep(model, sweep_devices, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    write_result("BENCH_opt_speed.json", payload, out)
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
            f"warm x{payload['jobs']} {runs['warm_parallel']['elapsed_seconds']:.2f}s, "
            f"cache {entry['cache_bytes'] / 1e6:.2f} MB"
            f"  [identical={entry['identical']}]"
        )
    sweep = payload["sweep"]
    lines.append(
        f"  sweep ({sweep['devices']} devices, {sweep['configs']} configs): "
        f"cold {sweep['cold_seconds']:.2f}s, "
        f"warm {sweep['warm_seconds']:.2f}s"
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
        assert entry["cache_bytes"] > 0
        for regime in REGIMES:
            stages = entry["runs"][regime]["stages"]
            assert set(stages) == {
                "candidates", "intra", "classify", "segment_dp", "merge",
                "bellman",
            }
            if regime.endswith("serial"):
                assert 0.0 <= stages["classify"] <= stages["candidates"]
                assert 0.0 <= stages["intra"] <= stages["candidates"]
            run = entry["runs"][regime]
            assert 0.0 < run["bellman_seconds"] <= (
                stages["segment_dp"] + stages["merge"]
            )
            assert run["segments"]
            assert all(seg["states"] >= 0 for seg in run["segments"])


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
    with span_root(args.metrics_out):
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
