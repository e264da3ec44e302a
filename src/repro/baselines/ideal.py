"""Ideal (zero-replication) peak-memory lower bound — paper Fig. 2(b).

The ideal scenario assumes no tensor is ever replicated: every parameter,
gradient and stashed activation lives on exactly one device, so per-device
peak memory is the global footprint divided by the device count.
"""

from __future__ import annotations

import numpy as np

from ..core.cost.memory import MemoryCostModel
from ..core.dims import ALL_DIMS
from ..graph.graph import ComputationGraph


def global_footprint_bytes(graph: ComputationGraph) -> float:
    """Total unpartitioned params + grads + stash of one graph instance:
    :class:`MemoryCostModel`'s parameter and stash bytes on one device
    (every slice count 1, so no temporal double buffers)."""
    memory = MemoryCostModel()
    whole = np.ones((1, len(ALL_DIMS)))
    total = 0.0
    for node in graph.nodes:
        total += float(memory.parameter_bytes_batch(node, whole)[0])
        total += float(memory.stash_bytes_batch(node, whole)[0])
    return total


def ideal_peak_memory(graph: ComputationGraph, n_devices: int, n_layers: int = 1) -> float:
    """Per-device peak memory with zero replication, scaled to the model."""
    return global_footprint_bytes(graph) * n_layers / n_devices
