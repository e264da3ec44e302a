"""Exact-search edge pricing: every Eq. 8-9 matrix of one block, timed once.

An exact (beam-free) search prices each distinct edge of the OPT-175B block
once over the whole, unpruned candidate sets; at 32 devices those matrices
are up to ~1300 x 1024 candidate pairs.  This bench loads warm candidate
sets (built first, in a child process, into a scratch disk cache), prices every distinct
edge exactly as the segment DP does (one matrix per edge signature and
candidate-set pair), and records the pricing seconds, the process's peak
RSS and a SHA-256 digest of the matrices, so a faster pricer can show that
it computes the same bytes.  Full mode only: there is no smoke size.

Standalone::

    PYTHONPATH=src python benchmarks/bench_edge_pricing.py            # 32 devices
    PYTHONPATH=src python benchmarks/bench_edge_pricing.py --devices 16

Results land in ``benchmarks/results/BENCH_edge_pricing.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import resource
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).parent))

from conftest import write_result

from repro import FabricProfiler, PrimeParOptimizer, build_block_graph, v100_cluster
from repro.core.cost.inter import InterOperatorCostModel
from repro.core.optimizer.dp import edge_signature
from repro.graph.models import OPT_175B


def _setting(n_devices: int):
    graph = build_block_graph(OPT_175B.block_shape(batch=max(8, n_devices)))
    return graph, FabricProfiler(v100_cluster(n_devices))


def _build_candidates(n_devices: int) -> float:
    """Cold candidate build into ``PRIMEPAR_CACHE_DIR``; returns its seconds."""
    graph, profiler = _setting(n_devices)
    started = time.perf_counter()
    PrimeParOptimizer(profiler).candidates_for(graph)
    return time.perf_counter() - started


def run_benchmark(n_devices: int = 32, out: Optional[str] = None) -> Dict:
    graph, profiler = _setting(n_devices)
    saved_env = os.environ.get("PRIMEPAR_CACHE_DIR")
    workdir = tempfile.mkdtemp(prefix="primepar-edge-bench-")
    os.environ["PRIMEPAR_CACHE_DIR"] = workdir
    try:
        # The cold build runs in a child, so this process's peak RSS is
        # the warm load plus the pricing.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            cold_seconds = pool.submit(_build_candidates, n_devices).result()
        started = time.perf_counter()
        candidates = PrimeParOptimizer(profiler).candidates_for(graph)
        warm_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop("PRIMEPAR_CACHE_DIR", None)
        else:
            os.environ["PRIMEPAR_CACHE_DIR"] = saved_env
    model = InterOperatorCostModel(profiler)
    digest = hashlib.sha256()
    priced = set()
    edges: List[Dict] = []
    for edge in graph.edges:
        src, dst = candidates[edge.src], candidates[edge.dst]
        key = (edge_signature(edge), src.cache_token, dst.cache_token)
        if key in priced:
            continue
        priced.add(key)
        started = time.perf_counter()
        matrix = model.cost_matrix(edge, src.tables, dst.tables)
        seconds = time.perf_counter() - started
        digest.update(matrix.tobytes())
        edges.append({
            "edge": f"{edge.src}->{edge.dst}:{edge.slot}",
            "shape": list(matrix.shape),
            "seconds": seconds,
        })
    payload = {
        "model": OPT_175B.name,
        "devices": n_devices,
        "batch": max(8, n_devices),
        "beam": None,
        "candidates_cold_seconds": cold_seconds,
        "candidates_warm_seconds": warm_seconds,
        "matrices": len(edges),
        "pairs": sum(e["shape"][0] * e["shape"][1] for e in edges),
        "edge_pricing_seconds": sum(e["seconds"] for e in edges),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "edges": edges,
    }
    write_result("BENCH_edge_pricing.json", payload, out)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--devices", type=int, default=32,
        help="cluster size (default 32, the exact-32 search's edges)",
    )
    parser.add_argument(
        "--out", default="",
        help="output JSON path (default benchmarks/results/BENCH_edge_pricing.json)",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(n_devices=args.devices, out=args.out or None)
    print(
        f"{payload['model']} @ {payload['devices']} devices, exact: "
        f"{payload['matrices']} matrices, {payload['pairs']:,} pairs priced in "
        f"{payload['edge_pricing_seconds']:.2f}s; peak RSS "
        f"{payload['peak_rss_mb']:.0f} MB; digest {payload['digest'][:16]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
