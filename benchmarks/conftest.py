"""Shared benchmark machinery.

Each benchmark regenerates one paper table or figure: it runs the relevant
searches/simulations once (cached per session), prints the paper-style table
through pytest's capture (visible in the benchmark log via ``emit``) and
saves it under ``benchmarks/results/``.

Environment knobs:

* ``REPRO_BENCH_SCALES`` — comma-separated GPU counts (default ``4,8,16,32``).
* ``REPRO_BENCH_BEAM32`` — beam width for 32-GPU searches (default 48;
  smaller is faster; ``0`` or below searches exactly).
* ``REPRO_BENCH_JOBS`` — worker processes for the searches (default 1 =
  serial; 0 = all cores).
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy
import pytest

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    build_block_graph,
    v100_cluster,
)
from repro.baselines.portfolio import portfolio
from repro.obs import SpanCollector, use_collector

RESULTS_DIR = Path(__file__).parent / "results"

#: Memory weight of the joint objective (Eq. 7) in all benchmarks, for
#: PrimePar and the Alpa stand-in alike.
ALPHA = 2e-11


def bench_scales() -> Tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_SCALES", "4,8,16,32")
    return tuple(int(x) for x in raw.split(",") if x)


def beam_for(n_devices: int) -> Optional[int]:
    if n_devices < 32:
        return None
    raw = int(os.environ.get("REPRO_BENCH_BEAM32", "48"))
    return None if raw <= 0 else raw


def jobs_for() -> int:
    """Search process-pool width (``REPRO_BENCH_JOBS``, default serial)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def span_root(metrics_out: Optional[str]):
    """A root span collector when ``--metrics-out`` will write spans (a
    process keeps none by default)."""
    if metrics_out:
        return use_collector(SpanCollector())
    return contextlib.nullcontext()


def write_result(
    name: str, payload: Dict, out: Optional[str] = None
) -> None:
    """Write ``payload`` as JSON to ``out`` (default
    ``benchmarks/results/<name>``), with a ``host`` block naming the
    machine so a later comparison can tell host drift from a regression."""
    payload["host"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    out_path = Path(out) if out else RESULTS_DIR / name
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)


def emit(name: str, text: str) -> None:
    """Print a result table through capture and persist it to disk."""
    banner = f"\n===== {name} =====\n{text}\n"
    sys.__stdout__.write(banner)
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.txt", "w") as handle:
        handle.write(text + "\n")


class ComparisonCache:
    """Caches per-(model, scale, batch) system comparisons for the session."""

    def __init__(self) -> None:
        self._profilers: Dict[int, FabricProfiler] = {}
        self._results: Dict[Tuple, Dict] = {}

    def profiler(self, n_devices: int) -> FabricProfiler:
        if n_devices not in self._profilers:
            self._profilers[n_devices] = FabricProfiler(v100_cluster(n_devices))
        return self._profilers[n_devices]

    def compare(self, model, n_devices: int, batch: int) -> Dict:
        """Megatron (best d), Alpa and PrimePar reports for one setting,
        the two searches under one :data:`ALPHA`."""
        key = (model.name, n_devices, batch)
        if key in self._results:
            return self._results[key]
        profiler = self.profiler(n_devices)
        simulator = EventDrivenSimulator(profiler)
        graph = build_block_graph(model.block_shape(batch=batch))
        plans = portfolio(
            profiler, graph, global_batch=batch, n_layers=model.n_layers,
            alpha=ALPHA, beam=beam_for(n_devices),
        )
        result = {
            "megatron": plans.megatron.report,
            "alpa": simulator.run_model(
                graph, plans.conventional.plan, batch, model.n_layers
            ),
            "primepar": simulator.run_model(
                graph, plans.primepar.plan, batch, model.n_layers
            ),
        }
        self._results[key] = result
        return result


@pytest.fixture(scope="session")
def comparisons() -> ComparisonCache:
    return ComparisonCache()


def default_batch(n_devices: int) -> int:
    """Paper-style workload scaling: batch grows with the cluster (Fig. 9
    pairs batch 8 with 8 GPUs and 16 with 16)."""
    return max(8, min(n_devices, 32))
