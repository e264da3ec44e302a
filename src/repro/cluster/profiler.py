"""Profiling and linear-regression latency models (paper Sec. 4.1).

The paper obtains its cost-model coefficients by profiling real-system
latencies at several tensor sizes and fitting linear functions.  Lacking the
physical cluster, we profile the *simulated* fabric: the analytic collective
models of :mod:`repro.cluster.collectives` stand in for measurements, and
the same least-squares fit produces the coefficients the cost model
consumes.

This keeps the methodology — profile, regress, predict — intact, and makes
the cost model independent of the collective implementation details.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .. import cache as diskcache
from .collectives import (
    Transfer,
    concurrent_step_time,
    pattern_allreduce_time,
)
from .groups import grouping_pattern
from .topology import ClusterTopology

#: Payload sizes (bytes) swept per fit.
DEFAULT_PROFILE_SIZES: Tuple[float, ...] = (
    1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26,
)


@dataclass(frozen=True)
class LinearLatencyModel:
    """``latency = base + bytes * per_byte`` fitted by least squares."""

    base: float
    per_byte: float

    def predict(self, n_bytes: float) -> float:
        if n_bytes <= 0:
            return 0.0
        return max(self.base + n_bytes * self.per_byte, 0.0)


def fit_linear(sizes: Sequence[float], latencies: Sequence[float]) -> LinearLatencyModel:
    """Least-squares fit of ``latency = a + b * size``."""
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(latencies, dtype=float)
    design = np.stack([np.ones_like(x), x], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearLatencyModel(base=float(coeffs[0]), per_byte=float(coeffs[1]))


class FabricProfiler:
    """Profiles a simulated cluster fabric and caches fitted latency models.

    The paper notes the profiling is scalable because the number of group
    indicators is small (a sub-sequence of the device id); we cache one
    fitted model per indicator, exactly mirroring that observation.

    Args:
        topology: The fabric under test.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._allreduce_models: Dict[Tuple[int, ...], LinearLatencyModel] = {}
        self._redistribution_models: Dict[bool, LinearLatencyModel] = {}

    def _disk_key(self, kind: str, key) -> Optional[str]:
        """Persistent-cache key for one fitted model, or ``None``."""
        try:
            return diskcache.content_key(f"profiler-{kind}", self.topology, key)
        except TypeError:
            return None

    def _fit(
        self, kind: str, key, fn: Callable[[float], float]
    ) -> LinearLatencyModel:
        """Fit one model, going through the persistent cache when possible."""
        disk_key = self._disk_key(kind, key)
        if disk_key is not None:
            cached = diskcache.load("profiler", disk_key)
            if isinstance(cached, LinearLatencyModel):
                return cached
        model = self._measure(fn)
        if disk_key is not None:
            diskcache.store("profiler", disk_key, model)
        return model

    def _measure(self, fn: Callable[[float], float]) -> LinearLatencyModel:
        latencies = []
        for size in DEFAULT_PROFILE_SIZES:
            latencies.append(max(fn(float(size)), 0.0))
        return fit_linear(DEFAULT_PROFILE_SIZES, latencies)

    # ------------------------------------------------------------------
    # collective patterns
    # ------------------------------------------------------------------

    def allreduce_model(self, indicator: Sequence[int]) -> LinearLatencyModel:
        """Fitted all-reduce model for a group-indicator pattern."""
        key = tuple(sorted(indicator))
        if key not in self._allreduce_models:
            pattern = grouping_pattern(self.topology.n_bits, key)
            self._allreduce_models[key] = self._fit(
                "allreduce",
                key,
                lambda size: pattern_allreduce_time(self.topology, pattern, size),
            )
        return self._allreduce_models[key]

    def fit_allreduce_models(self) -> None:
        """Fit the all-reduce model of every group indicator now.

        An indicator is a set of device-id bits, so there are only
        ``2^n_bits - 1`` of them.  Fitted before a process-pool fan-out,
        they travel to the workers with the pickled profiler, instead of
        concurrent workers each missing, fitting and storing the same one.
        """
        bits = range(self.topology.n_bits)
        for size in range(1, len(bits) + 1):
            for indicator in combinations(bits, size):
                self.allreduce_model(indicator)

    def redistribution_model(self, intra_node: bool = False) -> LinearLatencyModel:
        """Fitted redistribution model per traffic class (Eq. 9 latency).

        Profiles an all-devices permutation: each device exchanges its
        payload with a same-node neighbour (``intra_node=True``) or with its
        counterpart in the next node (``intra_node=False``), the two traffic
        shapes inter-operator redistribution decomposes into.
        """
        key = bool(intra_node)
        if key not in self._redistribution_models:
            topo = self.topology
            n_dev = topo.n_devices
            gpn = min(topo.gpus_per_node, n_dev)
            if intra_node or topo.n_nodes <= 1:
                pairs = [(r, r ^ 1) for r in range(n_dev)] if n_dev > 1 else []
            else:
                pairs = [(r, (r + gpn) % n_dev) for r in range(n_dev)]

            def measure(size: float) -> float:
                transfers = [
                    Transfer(src=a, dst=b, n_bytes=size)
                    for a, b in pairs
                    if a != b
                ]
                return concurrent_step_time(self.topology, transfers)

            self._redistribution_models[key] = self._fit(
                "redistribution", key, measure
            )
        return self._redistribution_models[key]
