"""Megatron-LM baseline: manual tensor-parallel plans (Shoeybi et al.).

Megatron parallelises a transformer block with ``d``-way data parallelism
(batch split) times ``m``-way model parallelism: column-parallel QKV / fc1,
row-parallel output projection / fc2, head-partitioned attention matmuls,
and replicated layer norms and residual adds.  Model parallelism occupies
the *trailing* device-id bits (within a node) and data parallelism the
leading bits (across nodes), the deployment the paper profiles (Fig. 2a).

Following the paper's methodology (Sec. 6.1), ``best_megatron_plan``
enumerates every feasible data-parallel degree and keeps the configuration
with the highest simulated throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..cluster.profiler import FabricProfiler
from ..cluster.topology import ClusterTopology
from ..core.dims import Dim
from ..core.partitions import DimPartition, PartitionStep, Replicate
from ..core.spec import PartitionSpec
from ..graph.graph import ComputationGraph
from ..graph.operators import OpKind, OperatorSpec
from ..sim.engine import EventDrivenSimulator
from ..sim.executor import IterationReport


def _suffix(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _steps_for(node: OperatorSpec, dp_bits: int, mp_bits: int) -> List[PartitionStep]:
    """Megatron's partition sequence for one block operator."""
    data = [DimPartition(Dim.B) for _ in range(dp_bits)]
    suffix = _suffix(node.name)
    if suffix == "qkv":
        model: List[PartitionStep] = [
            DimPartition(Dim.K, axis="heads") for _ in range(mp_bits)
        ]
    elif suffix == "out_proj":
        model = [DimPartition(Dim.N, axis="heads") for _ in range(mp_bits)]
    elif suffix in ("scores", "softmax", "context"):
        model = [DimPartition(Dim.B, axis="heads") for _ in range(mp_bits)]
    elif suffix == "fc1":
        model = [DimPartition(Dim.K) for _ in range(mp_bits)]
    elif suffix == "fc2":
        model = [DimPartition(Dim.N) for _ in range(mp_bits)]
    elif suffix == "act":
        model = [DimPartition(Dim.K) for _ in range(mp_bits)]
    else:  # layer norms, residual adds, anchors: replicated across MP group
        model = [Replicate() for _ in range(mp_bits)]
    return data + model


def megatron_plan(
    graph: ComputationGraph, n_bits: int, dp_degree: int
) -> Dict[str, PartitionSpec]:
    """Megatron-LM plan with ``dp_degree``-way data parallelism.

    Raises:
        ValueError: If ``dp_degree`` is not a power-of-two divisor of the
            device count, or the model-parallel degree exceeds the head
            count or FFN width.
    """
    if dp_degree < 1 or dp_degree & (dp_degree - 1):
        raise ValueError(f"dp degree must be a power of two, got {dp_degree}")
    dp_bits = dp_degree.bit_length() - 1
    if dp_bits > n_bits:
        raise ValueError(f"dp degree {dp_degree} exceeds {1 << n_bits} devices")
    mp_bits = n_bits - dp_bits
    mp_degree = 1 << mp_bits
    plan: Dict[str, PartitionSpec] = {}
    for node in graph.nodes:
        sizes = node.axis_sizes
        if _suffix(node.name) in ("qkv", "scores", "softmax", "context", "out_proj"):
            if mp_degree > sizes.get("heads", mp_degree):
                raise ValueError(
                    f"model parallel degree {mp_degree} exceeds "
                    f"{sizes.get('heads')} heads"
                )
        if dp_degree > sizes.get("batch", dp_degree):
            raise ValueError(
                f"data parallel degree {dp_degree} exceeds batch "
                f"{sizes.get('batch')}"
            )
        plan[node.name] = PartitionSpec(
            _steps_for(node, dp_bits, mp_bits),
            n_bits,
            legal_dims=node.legal_dims,
            allow_temporal=node.allow_temporal,
        )
    return plan


@dataclass
class MegatronResult:
    """Best Megatron configuration found by the (d, m) enumeration."""

    dp_degree: int
    mp_degree: int
    plan: Dict[str, PartitionSpec]
    report: IterationReport


def megatron_plans(
    graph: ComputationGraph, topology: ClusterTopology, global_batch: int
) -> Iterator[Tuple[int, Dict[str, PartitionSpec]]]:
    """Every feasible ``(dp_degree, plan)``, data parallelism ascending."""
    dp_degree = 1
    while dp_degree <= min(global_batch, topology.n_devices):
        try:
            yield dp_degree, megatron_plan(graph, topology.n_bits, dp_degree)
        except ValueError:
            pass
        dp_degree *= 2


def best_megatron_plan(
    simulator: EventDrivenSimulator,
    graph: ComputationGraph,
    global_batch: int,
    n_layers: int = 1,
) -> MegatronResult:
    """Enumerate data-parallel degrees and keep the fastest (paper Sec. 6.1)."""
    topology = simulator.profiler.topology
    best: Optional[MegatronResult] = None
    for dp_degree, plan in megatron_plans(graph, topology, global_batch):
        report = simulator.run_model(graph, plan, global_batch, n_layers)
        if best is None or report.throughput > best.report.throughput:
            best = MegatronResult(
                dp_degree=dp_degree,
                mp_degree=topology.n_devices // dp_degree,
                plan=plan,
                report=report,
            )
    if best is None:
        raise ValueError("no feasible Megatron configuration")
    return best
