"""Iteration reports of simulated training runs and their utilisation.

:class:`~repro.sim.engine.EventDrivenSimulator` replays a partition plan on
the simulated cluster and returns an :class:`IterationReport`: the
quantities the paper's evaluation reports — iteration latency, training
throughput, latency breakdown (Fig. 2a / Fig. 9) and per-device peak memory
(Fig. 8) — plus the kernel timeline and a utilisation summary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from ..obs.metrics import counter, gauge
from .timeline import Timeline


def samples_per_second(global_batch: int, latency: float) -> float:
    """Training throughput with a single guard against zero latency."""
    return global_batch / latency if latency > 0 else float("inf")


def device_busy_fractions(
    timeline: Timeline,
    busy_seconds: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Fraction of the iteration each device's stream spends occupied.

    Overlapped ring transfers do not occupy a stream; everything else
    (compute, all-reduce, redistribution, exposed ring time) does.

    ``busy_seconds`` supplies the engine's per-device occupied seconds
    (see :meth:`~repro.sim.kernel_graph.KernelGraph.device_busy_seconds`),
    skipping the timeline scan; each device's kernels are serial, so the
    engine's sum adds the same durations in the same order and the
    fractions are bit-identical to the scan.
    """
    if busy_seconds is not None:
        busy: Dict[int, float] = dict(busy_seconds)
    else:
        busy = {}
        for record in timeline.records:
            if not record.overlapped:
                busy[record.device] = (
                    busy.get(record.device, 0.0) + record.duration
                )
    if timeline.clock <= 0:
        return {device: 0.0 for device in sorted(busy)}
    return {device: busy[device] / timeline.clock for device in sorted(busy)}


def record_utilization_metrics(util: Mapping[str, object]) -> None:
    """Record a utilization payload into the current metrics registry.

    Factored out of :func:`build_utilization` so a disk-cached
    :class:`IterationReport` can replay the same counter increments and
    gauge writes as the simulation it stands in for (label values are
    stringified by the registry, so emitting from the payload's string
    keys lands on the same series).
    """
    counter("sim.iterations").inc()
    for device, fraction in util.get("device_busy_fraction", {}).items():
        gauge("sim.device_busy_fraction", device=device).set(fraction)
    link_bytes = util.get("link_bytes", {})
    for key, share in util.get("link_utilization", {}).items():
        counter("sim.link_bytes", link=key).inc(link_bytes.get(key, 0.0))
        gauge("sim.link_utilization", link=key).set(share)


def build_utilization(
    timeline: Timeline,
    latency: float,
    link_stats: Optional[Mapping[str, Tuple[float, float]]] = None,
    memory_watermark: Optional[Mapping[str, object]] = None,
    busy_seconds: Optional[Mapping[int, float]] = None,
) -> Dict[str, object]:
    """Assemble an :attr:`IterationReport.utilization` payload.

    Also records the quantities into the current metrics registry (via
    :func:`record_utilization_metrics`): per-device busy fractions and
    link utilisations as gauges, per-link bytes as counters.
    """
    busy = device_busy_fractions(timeline, busy_seconds)
    util: Dict[str, object] = {
        "device_busy_fraction": {str(d): f for d, f in busy.items()},
    }
    if link_stats:
        link_bytes = {}
        link_util = {}
        for key in sorted(link_stats):
            n_bytes, capacity = link_stats[key]
            link_bytes[key] = n_bytes
            share = (
                n_bytes / (capacity * latency)
                if capacity > 0 and latency > 0
                else 0.0
            )
            link_util[key] = share
        util["link_bytes"] = link_bytes
        util["link_utilization"] = link_util
    if memory_watermark is not None:
        util["memory_watermark"] = dict(memory_watermark)
    record_utilization_metrics(util)
    return util


def replicate_timeline(timeline: Timeline, n_layers: int) -> Timeline:
    """Time-shifted copies of a one-layer timeline, one per layer.

    Transformer blocks repeat the same SPMD schedule per layer, so the
    whole-model timeline is the single-layer one tiled along the clock.
    """
    if n_layers <= 1:
        return timeline
    span = timeline.clock
    records = [
        replace(record, start=record.start + layer * span)
        for layer in range(n_layers)
        for record in timeline.records
    ]
    return Timeline(records=records, clock=span * n_layers)


@dataclass
class IterationReport:
    """Simulated outcome of one training iteration.

    Attributes:
        latency: End-to-end iteration latency, seconds.
        throughput: Training throughput, samples/second.
        peak_memory_bytes: Per-device peak memory (paper's memory model).
        breakdown: Visible time per kernel kind plus overlapped-ring total.
        timeline: Kernel schedule (Fig. 9's timelines).  A spliced
            whole-model report keeps only its one-layer schedule here;
            :meth:`full_timeline` tiles it over every layer.
        layers_scaled: Number of identical layers this report covers.
        utilization: Cluster utilisation summary (per-device busy
            fractions, per-link bytes and utilisation, and
            ``memory_watermark``: ``peak_memory_bytes`` and its split by
            kind) — see :func:`build_utilization`.
        tiles: Copies of ``timeline`` laid end to end that make up the
            iteration — ``layers_scaled`` for a spliced report, else 1.
    """

    latency: float
    throughput: float
    peak_memory_bytes: float
    breakdown: Dict[str, float]
    timeline: Timeline
    layers_scaled: int = 1
    utilization: Optional[Dict[str, object]] = None
    tiles: int = 1

    def full_timeline(self) -> Timeline:
        """The schedule of the whole iteration (``timeline`` tiled)."""
        return replicate_timeline(self.timeline, self.tiles)

    @property
    def collective_latency(self) -> float:
        """All data-dependent communication (all-reduce + redistribution)."""
        return self.breakdown.get("allreduce", 0.0) + self.breakdown.get(
            "redistribute", 0.0
        )

    def scaled_to_layers(self, n_layers: int, global_batch: int) -> "IterationReport":
        """Extrapolate a single-layer report to ``n_layers`` identical layers.

        Latency, breakdown and per-device memory scale linearly (the SPMD
        plan repeats per layer).  The one-layer timeline is kept as is and
        tiled only on demand (:meth:`full_timeline`, e.g. for trace export).
        """
        if self.layers_scaled != 1:
            raise ValueError("report already covers multiple layers")
        if n_layers <= 1:
            return self
        latency = self.latency * n_layers
        utilization = None
        if self.utilization is not None:
            # Busy and utilisation fractions are layer-invariant (the
            # schedule tiles); byte totals and memory grow per layer.
            utilization = dict(self.utilization)
            if "link_bytes" in utilization:
                utilization["link_bytes"] = {
                    k: v * n_layers
                    for k, v in utilization["link_bytes"].items()
                }
            if "memory_watermark" in utilization:
                watermark = dict(utilization["memory_watermark"])
                watermark["peak_bytes"] = (
                    watermark.get("peak_bytes", 0.0) * n_layers
                )
                if "composition" in watermark:
                    watermark["composition"] = {
                        k: v * n_layers
                        for k, v in watermark["composition"].items()
                    }
                utilization["memory_watermark"] = watermark
        return IterationReport(
            latency=latency,
            throughput=samples_per_second(global_batch, latency),
            peak_memory_bytes=self.peak_memory_bytes * n_layers,
            breakdown={k: v * n_layers for k, v in self.breakdown.items()},
            timeline=self.timeline,
            layers_scaled=n_layers,
            utilization=utilization,
            tiles=n_layers,
        )
