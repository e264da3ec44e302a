"""Fig. 8 — normalized peak memory occupancy during training.

Same configurations as Fig. 7; per-device peak memory under the paper's
model (parameters + gradients + stashed activations + temporal double
buffers), normalized to Megatron-LM.
"""

from __future__ import annotations

from conftest import ALPHA, bench_scales, default_batch, emit

from repro.graph.models import BENCHMARK_MODELS
from repro.reporting.tables import Figure


def _collect(comparisons):
    figure = Figure(
        f"Fig. 8: peak memory per GPU (GiB), alpha {ALPHA:g} s/byte"
    )
    for model in BENCHMARK_MODELS:
        for n_devices in bench_scales():
            batch = default_batch(n_devices)
            result = comparisons.compare(model, n_devices, batch)
            label = f"{model.name}@{n_devices}"
            for system in ("megatron", "alpa", "primepar"):
                figure.series_named(system).add(
                    label, result[system].peak_memory_bytes / 2**30
                )
    return figure


def test_fig8_peak_memory(benchmark, comparisons):
    figure = benchmark.pedantic(
        _collect, args=(comparisons,), rounds=1, iterations=1
    )
    normalized = figure.normalized_to("megatron")
    emit(
        "fig8_peak_memory",
        figure.render("{:.2f}") + "\n\n" + normalized.render("{:.3f}"),
    )
    pp = normalized.series_named("primepar").values
    # PrimePar's joint objective keeps memory at or below the baseline in
    # the aggregate, with clear savings somewhere in the sweep (paper: down
    # to ~0.68x for the largest models).
    mean_ratio = sum(pp.values()) / len(pp)
    assert mean_ratio <= 1.1
    assert min(pp.values()) <= 0.95
