"""Computation latency model (paper Sec. 4.1, "Computation").

Latency of a partitioned sub-operator is a linear function of its floating
point operations and memory traffic.  The paper fits the coefficients per
operator type by profiling; here the coefficients derive from the simulated
device's roofline (sustained matmul throughput, effective bandwidth, launch
overhead) — the same linear form, sourced from the simulated hardware.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ...cluster.hardware import DeviceSpec
from ...graph.operators import OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Dim, Phase
from ..spec import PartitionSpec


def block_elements(op: OperatorSpec, spec: PartitionSpec, dims) -> float:
    """Per-device per-step element count of a tensor spanning ``dims``."""
    counts: Mapping[Dim, int] = spec.slice_counts
    elements = 1.0
    for dim in dims:
        elements *= op.dim_size(dim) / counts[dim]
    return elements


def block_bytes(op: OperatorSpec, spec: PartitionSpec, dims) -> float:
    return block_elements(op, spec, dims) * DTYPE_BYTES


def slice_count_matrix(specs: Sequence[PartitionSpec]) -> np.ndarray:
    """Per-spec slice counts, shape ``(n_specs, len(ALL_DIMS))``."""
    return np.array(
        [[spec.slice_counts[dim] for dim in ALL_DIMS] for spec in specs],
        dtype=float,
    )


def block_elements_batch(
    op: OperatorSpec, counts: np.ndarray, dims
) -> np.ndarray:
    """Vectorized :func:`block_elements` over a slice-count matrix.

    Multiplies factors in the same (dim) order as the scalar path, so each
    row is bit-identical to ``block_elements`` on that spec.
    """
    elements = np.ones(counts.shape[0])
    for dim in dims:
        elements = elements * (op.dim_size(dim) / counts[:, ALL_DIMS.index(dim)])
    return elements


def block_bytes_batch(op: OperatorSpec, counts: np.ndarray, dims) -> np.ndarray:
    return block_elements_batch(op, counts, dims) * DTYPE_BYTES


class ComputeCostModel:
    """Per-step and per-phase compute latency of partitioned operators."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def step_latency(self, op: OperatorSpec, spec: PartitionSpec, phase: Phase) -> float:
        """Latency of one temporal step of ``phase`` — ``compute(n, P, t)``.

        Sub-operator block sizes are identical across temporal steps (the
        primitive rotates slice indices, not sizes), so the latency does not
        depend on ``t``.
        """
        total_flops = op.flops(phase)
        if total_flops <= 0:
            return 0.0
        if op.is_matmul_like:
            flops = 2.0
            for dim in ALL_DIMS:
                flops *= op.dim_size(dim) / spec.slice_counts[dim]
            bytes_moved = sum(
                block_bytes(op, spec, tensor.dims)
                for tensor in op.signatures()[phase].tensors
            )
            compute_time = flops / self.device.effective_matmul_flops
        else:
            out_elements = block_elements(op, spec, op.output_dims)
            scale = out_elements / max(op.output_elements(), 1)
            flops = total_flops * scale
            bytes_moved = op.io_bytes(phase) * scale
            compute_time = flops / self.device.peak_flops
        memory_time = bytes_moved / self.device.effective_bandwidth
        return self.device.kernel_launch_overhead + max(compute_time, memory_time)

    def step_latency_batch(
        self, op: OperatorSpec, specs: Sequence[PartitionSpec], phase: Phase
    ) -> np.ndarray:
        """Vectorized :meth:`step_latency` over a candidate list.

        Performs the same arithmetic in the same order as the scalar path,
        elementwise over the batch — each entry is bit-identical to
        ``step_latency(op, specs[i], phase)``.
        """
        n = len(specs)
        total_flops = op.flops(phase)
        if total_flops <= 0 or n == 0:
            return np.zeros(n)
        counts = slice_count_matrix(specs)
        if op.is_matmul_like:
            flops = np.full(n, 2.0)
            for dim in ALL_DIMS:
                flops = flops * (
                    op.dim_size(dim) / counts[:, ALL_DIMS.index(dim)]
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
