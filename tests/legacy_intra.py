"""Frozen copy of the per-spec Eq. 7 assembly (commit 1bcf854).

This module vendors ``repro.core.cost.intra`` and the scalar terms it read
as they were before Eq. 7 was priced in bulk from a step table: compute
per spec, all-reduce and layernorm group indicators from each spec's
bit dependencies and memory from the DSIs that vary across steps (the
``group_indicator`` and ``temporal_varying_dims`` oracles,
``tests/oracles.py``), and ring
latencies from the scalar ``ring_transfers`` and ``epilogue_transfers``
(``tests/schedule_oracle.py``), placed on the fabric one
``Transfer`` at a time.  The equivalence suites
(``tests/test_candidates_bulk.py``, ``benchmarks/bench_candidates.py``)
prove the bulk ``IntraOperatorCostModel.cost_batch`` equals this oracle
on every enumerated spec.  Do not edit except to re-freeze against a new
baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

import schedule_oracle as analysis  # scalar ring schedule
from dsi_oracle import evaluator  # scalar Alg. 1 walk
from oracles import group_indicator, temporal_varying_dims  # scalar oracles
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import ClusterTopology
from repro.core.cost.intra import IntraCost
from repro.core.dims import ALL_DIMS, ALL_PHASES, Dim, Phase
from repro.core.spec import PartitionSpec
from repro.graph.operators import OpKind, OperatorSpec
from repro.graph.tensors import DTYPE_BYTES


def block_elements(op: OperatorSpec, spec: PartitionSpec, dims) -> float:
    counts = spec.slice_counts
    elements = 1.0
    for dim in dims:
        elements *= op.dim_size(dim) / counts[dim]
    return elements


def block_bytes(op: OperatorSpec, spec: PartitionSpec, dims) -> float:
    return block_elements(op, spec, dims) * DTYPE_BYTES


def step_latency(device, op: OperatorSpec, spec: PartitionSpec, phase: Phase) -> float:
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
        compute_time = flops / device.effective_matmul_flops
    else:
        out_elements = block_elements(op, spec, op.output_dims)
        scale = out_elements / max(op.output_elements(), 1)
        flops = total_flops * scale
        bytes_moved = op.io_bytes(phase) * scale
        compute_time = flops / device.peak_flops
    memory_time = bytes_moved / device.effective_bandwidth
    return device.kernel_launch_overhead + max(compute_time, memory_time)


def operator_memory(op: OperatorSpec, spec: PartitionSpec) -> float:
    if not op.has_parameters:
        parameters = 0.0
    else:
        if op.kind is OpKind.LINEAR:
            local_elements = block_elements(op, spec, (Dim.N, Dim.K))
        elif op.kind is OpKind.LAYERNORM:
            local_elements = 2 * block_elements(op, spec, (Dim.K,))
        else:
            local_elements = op.parameter_elements() / max(
                spec.slice_counts[Dim.K], 1
            )
        parameters = local_elements * (2 * op.weight_dtype_bytes)
    if not op.stash_inputs:
        stash = 0.0
    elif op.kind is OpKind.LINEAR:
        stash = block_bytes(op, spec, (Dim.B, Dim.M, Dim.N))
    elif op.kind is OpKind.MATMUL:
        stash = block_bytes(op, spec, (Dim.B, Dim.M, Dim.N)) + block_bytes(
            op, spec, (Dim.B, Dim.N, Dim.K)
        )
    elif op.kind is OpKind.LAYERNORM:
        stats = 2 * 4 * block_elements(op, spec, (Dim.B, Dim.M))
        stash = block_bytes(op, spec, op.output_dims) + stats
    else:
        stash = block_bytes(op, spec, op.output_dims)
    buffers = 0.0
    if spec.has_temporal:
        for phase in (Phase.FORWARD, Phase.BACKWARD, Phase.GRADIENT):
            signature = op.signatures()[phase]
            varying = temporal_varying_dims(evaluator(spec), phase)
            moving_inputs = 0.0
            for tensor in signature.inputs:
                if any(varying[d] for d in tensor.dims):
                    moving_inputs += block_bytes(op, spec, tensor.dims)
            output = signature.output
            moving_output = (
                block_bytes(op, spec, output.dims)
                if any(varying[d] for d in output.dims)
                else 0.0
            )
            buffers = max(buffers, moving_inputs, moving_output)
    return parameters + stash + buffers


def allreduce_latency(
    profiler: FabricProfiler, op: OperatorSpec, spec: PartitionSpec, phase: Phase
) -> float:
    signature = op.signatures()[phase]
    if not signature.reduce_dims:
        return 0.0
    output_bits = set(
        group_indicator(evaluator(spec), phase, signature.output.dims)
    )
    reduce_bits = set(
        group_indicator(evaluator(spec), phase, tuple(signature.reduce_dims))
    )
    indicator = tuple(sorted(reduce_bits - output_bits))
    if not indicator:
        return 0.0
    payload = block_bytes(op, spec, signature.output.dims)
    return profiler.allreduce_model(indicator).predict(payload)


def layernorm_extras(
    profiler: FabricProfiler, op: OperatorSpec, spec: PartitionSpec
) -> float:
    if op.kind is not OpKind.LAYERNORM:
        return 0.0
    total = 0.0
    if spec.slice_counts[Dim.K] > 1:
        indicator = group_indicator(evaluator(spec), Phase.FORWARD, (Dim.K,))
        stats_bytes = 2 * 4 * block_bytes(op, spec, (Dim.B, Dim.M)) / DTYPE_BYTES
        total += profiler.allreduce_model(indicator).predict(stats_bytes)
    row_bits = group_indicator(evaluator(spec), Phase.GRADIENT, (Dim.B, Dim.M))
    if row_bits:
        grad_bytes = 2 * block_bytes(op, spec, (Dim.K,))
        total += profiler.allreduce_model(row_bits).predict(grad_bytes)
    return total


def ring_schedule(
    op: OperatorSpec, spec: PartitionSpec, phase: Phase
) -> Mapping[int, List[Tuple[str, int, int]]]:
    """Structural ring schedule: step -> (tensor, src rank, dst rank)."""
    signature = op.signatures()[phase]
    schedule: Dict[int, List[Tuple[str, int, int]]] = {
        t: [] for t in range(spec.total_steps)
    }
    output_name = signature.output.name
    for tr in analysis.ring_transfers(spec, signature):
        overlap = tr.step + 1 if tr.tensor == output_name else tr.step
        schedule[overlap].append((tr.tensor, tr.src.rank, tr.dst.rank))
    if phase is Phase.BACKWARD and op.is_matmul_like:
        w_tensor = signature.inputs[1]
        for tr in analysis.epilogue_transfers(
            spec, w_tensor, Phase.BACKWARD, Phase.FORWARD
        ):
            schedule[spec.total_steps - 1].append(
                (tr.tensor, tr.src.rank, tr.dst.rank)
            )
    return schedule


def ring_phase_transfers(
    op: OperatorSpec, spec: PartitionSpec, phase: Phase
) -> Dict[int, List[Tuple[str, int, int, float]]]:
    if not spec.has_temporal:
        return {}
    signature = op.signatures()[phase]
    sizes = {
        tensor.name: block_bytes(op, spec, tensor.dims)
        for tensor in signature.tensors
    }
    return {
        step: [(tensor, src, dst, sizes[tensor]) for tensor, src, dst in entries]
        for step, entries in ring_schedule(op, spec, phase).items()
        if entries
    }


def concurrent_step_time(
    topology: ClusterTopology, transfers: List[Tuple[int, int, float]]
) -> float:
    if not transfers:
        return 0.0
    out_streams: Dict[int, int] = defaultdict(int)
    in_streams: Dict[int, int] = defaultdict(int)
    for src, dst, _ in transfers:
        if src != dst and not topology.torus and not topology.same_node(src, dst):
            out_streams[topology.node_of(src)] += 1
            in_streams[topology.node_of(dst)] += 1
    times = []
    for src, dst, n_bytes in transfers:
        if src == dst or n_bytes <= 0:
            times.append(0.0)
            continue
        link = topology.link_between(src, dst)
        sharing = 1.0
        if not topology.torus and not topology.same_node(src, dst):
            contenders = max(
                out_streams[topology.node_of(src)],
                in_streams[topology.node_of(dst)],
            )
            sharing = max(1.0, contenders / topology.nics_per_node)
        times.append(link.latency + n_bytes * sharing / link.bandwidth)
    return max(times)


def ring_phase_latencies(
    topology: ClusterTopology, op: OperatorSpec, spec: PartitionSpec, phase: Phase
) -> List[float]:
    if not spec.has_temporal:
        return [0.0] * spec.total_steps
    schedule = ring_phase_transfers(op, spec, phase)
    return [
        concurrent_step_time(
            topology,
            [(src, dst, n_bytes) for _, src, dst, n_bytes in schedule.get(t, [])],
        )
        for t in range(spec.total_steps)
    ]


def intra_cost(
    profiler: FabricProfiler, alpha: float, op: OperatorSpec, spec: PartitionSpec
) -> IntraCost:
    """``intraC(n, P)`` of one spec, the scalar way."""
    device = profiler.topology.device
    compute_total = 0.0
    ring_total = 0.0
    exposed_total = 0.0
    allreduce_total = 0.0
    for phase in ALL_PHASES:
        step_compute = step_latency(device, op, spec, phase)
        rings = ring_phase_latencies(profiler.topology, op, spec, phase)
        for ring in rings:
            compute_total += step_compute
            ring_total += ring
            exposed_total += max(ring - step_compute, 0.0)
        allreduce_total += allreduce_latency(profiler, op, spec, phase)
    allreduce_total += layernorm_extras(profiler, op, spec)
    return IntraCost(
        compute_latency=compute_total,
        ring_latency=ring_total,
        ring_exposed=exposed_total,
        allreduce_latency=allreduce_total,
        memory_bytes=operator_memory(op, spec),
        alpha=alpha,
    )
