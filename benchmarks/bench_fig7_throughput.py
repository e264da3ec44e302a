"""Fig. 7 — normalized training throughput of Megatron, Alpa and PrimePar.

Six benchmark models, scaling over 4/8/16/32 GPUs (no pipeline
parallelism).  Megatron enumerates its data-parallel degree; Alpa searches
the conventional space; PrimePar searches the full spatial-temporal space,
under the same memory weight ``ALPHA`` (``repro.baselines.portfolio``).
Throughput is normalized to Megatron-LM per (model, scale).
"""

from __future__ import annotations

import numpy as np
from conftest import ALPHA, bench_scales, default_batch, emit

from repro.graph.models import BENCHMARK_MODELS
from repro.reporting.tables import Figure


def _collect(comparisons):
    figure = Figure(
        f"Fig. 7: training throughput (samples/s), alpha {ALPHA:g} s/byte"
    )
    for model in BENCHMARK_MODELS:
        for n_devices in bench_scales():
            batch = default_batch(n_devices)
            result = comparisons.compare(model, n_devices, batch)
            label = f"{model.name}@{n_devices}"
            figure.series_named("megatron").add(
                label, result["megatron"].throughput
            )
            figure.series_named("alpa").add(label, result["alpa"].throughput)
            figure.series_named("primepar").add(
                label, result["primepar"].throughput
            )
    return figure


def test_fig7_throughput(benchmark, comparisons):
    figure = benchmark.pedantic(
        _collect, args=(comparisons,), rounds=1, iterations=1
    )
    normalized = figure.normalized_to("megatron")
    emit(
        "fig7_throughput",
        figure.render("{:.2f}") + "\n\n" + normalized.render("{:.3f}"),
    )
    pp = normalized.series_named("primepar").values
    alpa = normalized.series_named("alpa").values
    labels = list(pp)
    # Shape checks mirroring the paper's claims:
    # 1. PrimePar never loses to Megatron (beyond noise).
    assert all(pp[l] >= 0.97 for l in labels), pp
    # 2. Alpa performs comparably to Megatron.
    assert all(0.9 <= alpa[l] <= 1.4 for l in labels), alpa
    # 3. Somewhere in the sweep PrimePar posts a clear win.
    assert max(pp.values()) >= 1.08
    # 4. Geo-mean speedup at the largest scale is >= 1 and the large models
    #    gain more than the ~7B ones.
    largest = [l for l in labels if l.endswith(f"@{max(bench_scales())}")]
    geo = float(np.exp(np.mean([np.log(pp[l]) for l in largest])))
    assert geo >= 1.0
    big = [pp[l] for l in largest if "175B" in l or "176B" in l or "70B" in l]
    small = [pp[l] for l in largest if "7B" in l and "175" not in l]
    if big and small:
        assert max(big) >= max(small) - 0.02
