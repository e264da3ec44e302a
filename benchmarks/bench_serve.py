"""Serving-path latency: cold search, warm LRU hits, coalesced bursts.

Boots the real ``primepar serve`` stack in-process (ephemeral port, fresh
cache directory, fresh metrics registry) and drives it over HTTP with the
typed client, measuring four regimes:

* **cold**   — distinct request keys, every one a full strategy search;
* **warm**   — the same key repeated, answered by the in-memory LRU
  (the p95 here is the daemon's steady-state response time);
* **coalesced** — a burst of concurrent *identical* requests on a fresh
  key; the singleflight layer must run exactly one search;
* **throughput** — closed-loop workers hammering warm keys.

Standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke   # CI-sized

or as a pytest benchmark (``pytest benchmarks/bench_serve.py``, runs the
smoke configuration).  Results land in ``benchmarks/results/BENCH_serve.json``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from conftest import RESULTS_DIR, span_root, write_result

from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.serve import (
    AdmissionController,
    PlanClient,
    PlanServer,
    PlanService,
    PlanStore,
    SearchRequest,
    ServeConfig,
)

MODEL = "opt-6.7b"


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _stats_ms(samples: List[float]) -> Dict[str, float]:
    return {
        "count": len(samples),
        "p50_ms": _percentile(samples, 0.50) * 1e3,
        "p95_ms": _percentile(samples, 0.95) * 1e3,
        "mean_ms": (sum(samples) / len(samples)) * 1e3 if samples else 0.0,
    }


def _timed_search(client: PlanClient, request: SearchRequest):
    started = time.perf_counter()
    response = client.search(request)
    return time.perf_counter() - started, response


def _measure_cold(client: PlanClient, devices: int, keys: int) -> Dict:
    """Distinct request keys (batch varies) — every one a real search."""
    latencies, sources = [], []
    for i in range(keys):
        elapsed, response = _timed_search(
            client, SearchRequest(model=MODEL, devices=devices, batch=8 + i)
        )
        latencies.append(elapsed)
        sources.append(response.source)
    return {**_stats_ms(latencies), "sources": sources}


def _measure_warm(client: PlanClient, devices: int, repeats: int) -> Dict:
    """One already-computed key, repeated — pure LRU-serving latency."""
    request = SearchRequest(model=MODEL, devices=devices, batch=8)
    latencies, sources = [], []
    for _ in range(repeats):
        elapsed, response = _timed_search(client, request)
        latencies.append(elapsed)
        sources.append(response.source)
    return {
        **_stats_ms(latencies),
        "memory_served": sources.count("memory"),
    }


def _measure_traced_warm(
    client: PlanClient, devices: int, repeats: int, warm_stats: Dict
) -> Dict:
    """The warm path again, with ``?debug=trace`` inlining the request
    record — the *extra* cost of trace serialization over the always-on
    tracing already included in ``warm``."""
    request = SearchRequest(model=MODEL, devices=devices, batch=8)
    latencies, events = [], 0
    for i in range(repeats):
        started = time.perf_counter()
        response = client.search(
            request, trace_id=f"bench-warm-{i}", debug_trace=True
        )
        latencies.append(time.perf_counter() - started)
        events += len((response.trace or {}).get("events", []))
    stats = _stats_ms(latencies)
    baseline_p50 = warm_stats["p50_ms"]
    return {
        **stats,
        "trace_events": events,
        "overhead_p50_pct": (
            (stats["p50_ms"] / baseline_p50 - 1.0) * 100.0
            if baseline_p50 else 0.0
        ),
    }


def _measure_coalesced(
    client: PlanClient, devices: int, clients: int, fresh_batch: int
) -> Dict:
    """A burst of identical requests on a fresh key: one search total."""
    searches_before = counter("serve.searches").value
    request = SearchRequest(model=MODEL, devices=devices, batch=fresh_batch)
    barrier = threading.Barrier(clients)
    latencies: List[float] = []
    sources: List[str] = []
    lock = threading.Lock()

    def burst():
        barrier.wait(timeout=60.0)
        elapsed, response = _timed_search(client, request)
        with lock:
            latencies.append(elapsed)
            sources.append(response.source)

    threads = [threading.Thread(target=burst) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600.0)
    source_counts: Dict[str, int] = {}
    for source in sources:
        source_counts[source] = source_counts.get(source, 0) + 1
    return {
        **_stats_ms(latencies),
        "clients": clients,
        "sources": source_counts,
        "searches": counter("serve.searches").value - searches_before,
    }


def _measure_throughput(
    base_url: str, devices: int, workers: int, seconds: float
) -> Dict:
    """Closed-loop workers over warm keys — steady-state requests/second."""
    stop = time.monotonic() + seconds
    counts = [0] * workers
    errors = [0] * workers

    def worker(index: int):
        client = PlanClient(base_url)
        batch = 8 + (index % 2)  # rotate over two warm keys
        request = SearchRequest(model=MODEL, devices=devices, batch=batch)
        while time.monotonic() < stop:
            try:
                client.search(request)
                counts[index] += 1
            except Exception:
                errors[index] += 1

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(workers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 600.0)
    elapsed = time.perf_counter() - started
    total = sum(counts)
    return {
        "workers": workers,
        "seconds": elapsed,
        "requests": total,
        "errors": sum(errors),
        "rps": total / elapsed if elapsed else 0.0,
    }


def run_benchmark(
    smoke: bool = False,
    jobs: Optional[int] = None,
    out: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> Dict:
    devices = 2 if smoke else 4
    cold_keys = 2 if smoke else 4
    warm_repeats = 30 if smoke else 200
    burst_clients = 4 if smoke else 8
    load_seconds = 2.0 if smoke else 5.0
    saved_env = os.environ.get("PRIMEPAR_CACHE_DIR")
    workdir = tempfile.mkdtemp(prefix="primepar-bench-serve-")
    os.environ["PRIMEPAR_CACHE_DIR"] = os.path.join(workdir, "cache")
    try:
        with use_registry(MetricsRegistry()):
            service = PlanService(
                store=PlanStore(max_entries=64),
                admission=AdmissionController(max_concurrent=2, max_queue=16),
                jobs=jobs or 1,
                default_deadline=600.0,
            )
            server = PlanServer(ServeConfig(port=0), service=service).start()
            try:
                client = PlanClient(server.url)
                payload = {
                    "model": MODEL,
                    "devices": devices,
                    "smoke": smoke,
                    "cold": _measure_cold(client, devices, cold_keys),
                    "warm": _measure_warm(client, devices, warm_repeats),
                    "coalesced": _measure_coalesced(
                        client, devices, burst_clients,
                        fresh_batch=8 + cold_keys,
                    ),
                    "throughput": _measure_throughput(
                        server.url, devices, workers=4, seconds=load_seconds
                    ),
                }
                payload["tracing"] = _measure_traced_warm(
                    client, devices, warm_repeats, payload["warm"]
                )
            finally:
                server.shutdown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    write_result("BENCH_serve.json", payload, out)
    if metrics_out:
        from repro.obs import write_metrics

        Path(metrics_out).parent.mkdir(parents=True, exist_ok=True)
        write_metrics(metrics_out)
    return payload


def _report(payload: Dict) -> str:
    cold, warm = payload["cold"], payload["warm"]
    coalesced, load = payload["coalesced"], payload["throughput"]
    return "\n".join([
        f"model {payload['model']}, {payload['devices']} devices"
        + (" (smoke)" if payload["smoke"] else ""),
        f"  cold   ({cold['count']} keys):    p50 {cold['p50_ms']:.1f}ms, "
        f"p95 {cold['p95_ms']:.1f}ms",
        f"  warm   ({warm['count']} reqs):    p50 {warm['p50_ms']:.2f}ms, "
        f"p95 {warm['p95_ms']:.2f}ms  "
        f"[{warm['memory_served']}/{warm['count']} from memory]",
        f"  burst  ({coalesced['clients']} clients):  p50 "
        f"{coalesced['p50_ms']:.1f}ms, p95 {coalesced['p95_ms']:.1f}ms  "
        f"[searches run: {coalesced['searches']:g}, "
        f"sources {coalesced['sources']}]",
        f"  load   ({load['workers']} workers):  {load['requests']} reqs in "
        f"{load['seconds']:.1f}s = {load['rps']:.0f} req/s "
        f"({load['errors']} errors)",
        f"  traced ({payload['tracing']['count']} reqs):    p50 "
        f"{payload['tracing']['p50_ms']:.2f}ms, p95 "
        f"{payload['tracing']['p95_ms']:.2f}ms  "
        f"[debug=trace overhead {payload['tracing']['overhead_p50_pct']:+.1f}%"
        f" over warm p50]",
    ])


def test_serve_smoke(benchmark):
    payload = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    sys.__stdout__.write("\n===== BENCH_serve (smoke) =====\n")
    sys.__stdout__.write(_report(payload) + "\n")
    sys.__stdout__.flush()
    assert payload["cold"]["sources"] == ["computed"] * payload["cold"]["count"]
    assert payload["warm"]["memory_served"] == payload["warm"]["count"]
    assert payload["warm"]["p95_ms"] < 50.0
    assert payload["coalesced"]["searches"] == 1
    assert payload["throughput"]["errors"] == 0
    assert payload["throughput"]["requests"] > 0
    assert payload["tracing"]["trace_events"] > 0
    assert payload["tracing"]["p95_ms"] < 50.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: 2 devices, short load phase",
    )
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="process-pool width each admitted search may use (default 1)",
    )
    parser.add_argument(
        "--out", default="",
        help="output JSON path (default benchmarks/results/BENCH_serve.json)",
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
    out = args.out or str(RESULTS_DIR / "BENCH_serve.json")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
