"""PrimePar reproduction: spatial-temporal tensor partitioning for LLM training.

This package reproduces "PrimePar: Efficient Spatial-temporal Tensor
Partitioning for Large Transformer Model Training" (ASPLOS 2024) in pure
Python on a simulated GPU cluster, with a numpy virtual cluster proving the
primitive's mathematical correctness end to end.

Quickstart::

    from repro import (
        EventDrivenSimulator, FabricProfiler, PrimeParOptimizer,
        build_block_graph, v100_cluster,
    )
    from repro.graph.models import OPT_175B
    from repro.reporting import emit

    topology = v100_cluster(16)
    profiler = FabricProfiler(topology)
    graph = build_block_graph(OPT_175B.block_shape(batch=16))
    result = PrimeParOptimizer(profiler).optimize(graph)
    report = EventDrivenSimulator(profiler).run_model(
        graph, result.plan, global_batch=16, n_layers=OPT_175B.n_layers
    )
    emit(f"{report.throughput} samples/s")

``result.telemetry`` carries the search's own metrics and timing spans;
see :mod:`repro.obs` (``configure_logging``, ``get_registry``, ``span``)
for the telemetry layer behind them.
"""

from .api import (
    ExplainRequest,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
)
from .cluster.profiler import FabricProfiler
from .cluster.topology import ClusterTopology, torus_cluster, v100_cluster
from .core.dims import Dim, Phase
from .core.partitions import (
    DimPartition,
    Replicate,
    TemporalPartition,
    parse_sequence,
)
from .core.spec import PartitionSpec
from .core.optimizer.strategy import PrimeParOptimizer, SearchResult
from .graph.models import BENCHMARK_MODELS, MODELS_BY_KEY, ModelConfig
from .obs import configure_logging
from .graph.transformer import BlockShape, build_block_graph, build_mlp_graph
from .parallel3d.planner import Config3D, Planner3D, enumerate_configs
from .runtime.verify import VerificationReport, verify_spec
from .sim.engine import EventDrivenSimulator
from .sim.executor import IterationReport
from .sim.faults import (
    FaultModel,
    RobustnessReport,
    evaluate_robustness,
    robust_search,
)

__version__ = "1.0.0"

__all__ = [
    "BENCHMARK_MODELS",
    "BlockShape",
    "ClusterTopology",
    "Config3D",
    "Dim",
    "DimPartition",
    "EventDrivenSimulator",
    "ExplainRequest",
    "FabricProfiler",
    "FaultModel",
    "IterationReport",
    "MODELS_BY_KEY",
    "ModelConfig",
    "PartitionSpec",
    "Phase",
    "Planner3D",
    "PrimeParOptimizer",
    "Replicate",
    "RobustnessReport",
    "RobustnessRequest",
    "SearchRequest",
    "SearchResult",
    "SimulateRequest",
    "TemporalPartition",
    "ValidationError",
    "VerificationReport",
    "build_block_graph",
    "build_mlp_graph",
    "configure_logging",
    "enumerate_configs",
    "evaluate_robustness",
    "parse_sequence",
    "robust_search",
    "torus_cluster",
    "v100_cluster",
    "verify_spec",
]
