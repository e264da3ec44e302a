"""Computation latency model (paper Sec. 4.1, "Computation").

Latency of a partitioned sub-operator is a linear function of its floating
point operations and memory traffic.  The paper fits the coefficients per
operator type by profiling; here the coefficients derive from the simulated
device's roofline (sustained matmul throughput, effective bandwidth, launch
overhead) — the same linear form, sourced from the simulated hardware.
"""

from __future__ import annotations

import numpy as np

from ...cluster.hardware import DeviceSpec
from ...graph.operators import OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Phase


_COLUMN = {dim: i for i, dim in enumerate(ALL_DIMS)}


def block_elements_batch(
    op: OperatorSpec, counts: np.ndarray, dims
) -> np.ndarray:
    """Per-device per-step element count of a tensor spanning ``dims``,
    one row per row of the slice-count matrix ``counts``."""
    elements = np.ones(counts.shape[0])
    for dim in dims:
        elements = elements * (op.dim_size(dim) / counts[:, _COLUMN[dim]])
    return elements


def block_bytes_batch(op: OperatorSpec, counts: np.ndarray, dims) -> np.ndarray:
    return block_elements_batch(op, counts, dims) * DTYPE_BYTES


class ComputeCostModel:
    """Per-step and per-phase compute latency of partitioned operators."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def step_latency_batch(
        self, op: OperatorSpec, counts: np.ndarray, phase: Phase
    ) -> np.ndarray:
        """Latency of one temporal step of ``phase`` — ``compute(n, P, t)``
        — for every row of a ``[spec, dim]`` slice-count matrix.

        Sub-operator block sizes are identical across temporal steps (the
        primitive rotates slice indices, not sizes), so the latency does not
        depend on ``t``.
        """
        n = len(counts)
        total_flops = op.flops(phase)
        if total_flops <= 0 or n == 0:
            return np.zeros(n)
        if op.is_matmul_like:
            flops = np.full(n, 2.0)
            for dim in ALL_DIMS:
                flops = flops * (
                    op.dim_size(dim) / counts[:, _COLUMN[dim]]
                )
            bytes_moved = np.zeros(n)
            for tensor in op.signatures()[phase].tensors:
                bytes_moved = bytes_moved + block_bytes_batch(
                    op, counts, tensor.dims
                )
            compute_time = flops / self.device.effective_matmul_flops
        else:
            out_elements = block_elements_batch(op, counts, op.output_dims)
            scale = out_elements / max(op.output_elements(), 1)
            flops = total_flops * scale
            bytes_moved = op.io_bytes(phase) * scale
            compute_time = flops / self.device.peak_flops
        memory_time = bytes_moved / self.device.effective_bandwidth
        return self.device.kernel_launch_overhead + np.maximum(
            compute_time, memory_time
        )
