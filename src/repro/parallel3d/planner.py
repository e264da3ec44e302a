"""3D parallelism composition — paper Sec. 6.4.

A ``(p, d, m)`` configuration splits the cluster into ``p`` pipeline stages;
each stage holds ``d x m`` devices running ``d``-way data parallelism over
``m``-way tensor (model) parallelism.  Tensor-parallel plans come from
either Megatron-LM's manual strategy or PrimePar's search with batch
partitioning disabled (data parallelism is controlled externally, exactly
as the paper evaluates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..cluster.collectives import COLLECTIVE_EFFICIENCY
from ..cluster.profiler import FabricProfiler
from ..cluster.topology import ClusterTopology, v100_cluster
from ..core.optimizer.parallel import parallel_map, resolve_jobs
from ..core.optimizer.strategy import PrimeParOptimizer
from ..core.spec import PartitionSpec
from ..graph.models import ModelConfig
from ..graph.tensors import DTYPE_BYTES
from ..graph.transformer import build_block_graph
from ..obs.metrics import counter
from ..obs.spans import span
from ..sim.engine import EventDrivenSimulator
from .pipeline import PipelinePlan, PipelineReport, pipeline_iteration_events


@dataclass(frozen=True)
class Config3D:
    """One ``(p, d, m)`` configuration over ``p * d * m`` devices."""

    pipeline: int
    data: int
    model: int

    @property
    def n_devices(self) -> int:
        return self.pipeline * self.data * self.model

    def __str__(self) -> str:
        return f"(p={self.pipeline}, d={self.data}, m={self.model})"


def enumerate_configs(
    n_devices: int, require_pipeline: bool = True
) -> Iterator[Config3D]:
    """All power-of-two ``(p, d, m)`` factorisations of ``n_devices``.

    ``require_pipeline`` keeps only ``p > 1`` (the paper's Fig. 10 sweep).
    """
    p = 2 if require_pipeline else 1
    while p <= n_devices:
        d = 1
        while p * d <= n_devices:
            m = n_devices // (p * d)
            if p * d * m == n_devices:
                yield Config3D(pipeline=p, data=d, model=m)
            d *= 2
        p *= 2


@dataclass
class Result3D:
    """Simulated outcome of one 3D configuration."""

    config: Config3D
    throughput: float
    iteration_latency: float
    pipeline: PipelineReport
    dp_allreduce_latency: float
    plan: Dict[str, PartitionSpec]


class Planner3D:
    """Simulates 3D-parallel training of a transformer model.

    Each stage's tensor-parallel plan is replayed on the event-driven
    engine, and the 1F1B schedule over the stages is priced by
    :func:`~repro.parallel3d.pipeline.pipeline_iteration_events`.

    Args:
        model: Model architecture.
        n_devices: Total cluster size (the paper uses 32).
        global_batch: Sequences per training iteration.
        microbatch: Sequences per micro-batch within the pipeline (``0``
            means 1), clamped to one data-parallel replica's batch.
        alpha: Memory weight passed to PrimePar's search.
        jobs: Process-pool width for the sweep's independent per-``m``
            tensor-parallel plan searches (``1`` = serial, ``0`` = all
            cores).  Results merge deterministically by configuration key.
    """

    def __init__(
        self,
        model: ModelConfig,
        n_devices: int = 32,
        global_batch: int = 32,
        microbatch: int = 0,
        alpha: float = 0.0,
        jobs: int = 1,
    ) -> None:
        self.model = model
        self.n_devices = n_devices
        self.global_batch = global_batch
        self.microbatch = microbatch
        self.alpha = alpha
        self.jobs = resolve_jobs(jobs)
        self._plan_cache: Dict[Tuple[str, int, int], Tuple] = {}

    # ------------------------------------------------------------------
    # stage-level tensor parallel plans
    # ------------------------------------------------------------------

    def _stage_topology(self, m: int) -> ClusterTopology:
        """Topology of one model-parallel group of ``m`` devices.

        Megatron's deployment keeps model parallelism on adjacent ranks
        (within nodes first), so an ``m``-device group spans ``m / 4``
        nodes of the V100 cluster.
        """
        return v100_cluster(m)

    def _microbatch_for(self, d: int) -> int:
        """Micro-batch size under ``d``-way data parallelism."""
        batch_per_replica = max(self.global_batch // d, 1)
        return min(self.microbatch or 1, batch_per_replica)

    def _plan_for(
        self, method: str, m: int, micro: int
    ) -> Tuple[Dict[str, PartitionSpec], EventDrivenSimulator, object]:
        from ..baselines.megatron import megatron_plan  # local: avoid cycle

        key = (method, m, micro)
        cached = self._plan_cache.get(key)
        counter(
            "sweep.plan_cache",
            outcome="hit" if cached is not None else "miss",
            method=method,
        ).inc()
        if cached is not None:
            return cached
        topology = self._stage_topology(m)
        profiler = FabricProfiler(topology)
        simulator = EventDrivenSimulator(profiler)
        graph = build_block_graph(self.model.block_shape(batch=micro))
        if method == "megatron":
            plan = megatron_plan(graph, topology.n_bits, dp_degree=1)
        elif method == "primepar":
            optimizer = PrimeParOptimizer(
                profiler, alpha=self.alpha, partition_batch=False
            )
            plan = optimizer.optimize(graph).plan
        else:
            raise ValueError(f"unknown method {method!r}")
        self._plan_cache[key] = (plan, simulator, graph)
        return plan, simulator, graph

    # ------------------------------------------------------------------
    # data-parallel gradient synchronisation
    # ------------------------------------------------------------------

    def _dp_allreduce_latency(self, d: int, m: int, layers_per_stage: int) -> float:
        """Gradient all-reduce across ``d`` replicas, once per iteration.

        Replicas of large models sit in different nodes; the ring all-reduce
        of each device's weight shard crosses the inter-node fabric (this is
        the term that makes ``d > 1`` unattractive for 100B+ models —
        paper Sec. 6.4).
        """
        if d <= 1:
            return 0.0
        shard_elements = (
            self.model.parameters / max(self.model.n_layers, 1) * layers_per_stage / m
        )
        shard_bytes = shard_elements * DTYPE_BYTES
        cluster = v100_cluster(self.n_devices)
        link = cluster.inter_link if d * m > cluster.gpus_per_node else cluster.intra_link
        streams = max(1, min(m, cluster.gpus_per_node))
        bandwidth = link.bandwidth * COLLECTIVE_EFFICIENCY / streams
        return 2 * (d - 1) / d * shard_bytes / bandwidth + link.latency * 2 * (d - 1)

    # ------------------------------------------------------------------
    # end-to-end simulation
    # ------------------------------------------------------------------

    def simulate(self, config: Config3D, method: str) -> Result3D:
        """Simulate one iteration under ``config`` with ``method``'s plans."""
        if config.n_devices != self.n_devices:
            raise ValueError(
                f"{config} covers {config.n_devices} devices, cluster has "
                f"{self.n_devices}"
            )
        p, d, m = config.pipeline, config.data, config.model
        layers_per_stage = max(self.model.n_layers // p, 1)
        batch_per_replica, rest = divmod(self.global_batch, d)
        micro = self._microbatch_for(d)
        if rest or batch_per_replica % micro:
            raise ValueError(
                f"{config}: global batch {self.global_batch} does not split "
                f"into {d} replicas of whole micro-batches of {micro}"
            )
        n_micro = batch_per_replica // micro
        plan, simulator, graph = self._plan_for(method, m, micro)
        stage_report = simulator.run_model(graph, plan, micro, layers_per_stage)
        forward = stage_report.latency / 3.0
        backward = stage_report.latency - forward
        shape = self.model.block_shape(batch=micro)
        boundary_bytes = (
            shape.batch * shape.seq * shape.hidden * DTYPE_BYTES / m
        )
        cluster = v100_cluster(self.n_devices)
        pipe = pipeline_iteration_events(
            PipelinePlan(n_stages=p, n_microbatches=n_micro),
            forward,
            backward,
            boundary_bytes,
            cluster.inter_link if self.n_devices > cluster.gpus_per_node else cluster.intra_link,
        )
        dp_latency = self._dp_allreduce_latency(d, m, layers_per_stage)
        iteration = pipe.iteration_latency + dp_latency
        return Result3D(
            config=config,
            throughput=self.global_batch / iteration,
            iteration_latency=iteration,
            pipeline=pipe,
            dp_allreduce_latency=dp_latency,
            plan=plan,
        )

    def configs(self) -> List[Config3D]:
        """What :meth:`sweep` tries: each ``p > 1`` with ``d <= batch``."""
        return [
            config for config in enumerate_configs(self.n_devices)
            if config.data <= self.global_batch
        ]

    def sweep(self, method: str) -> List[Result3D]:
        """Fig. 10's sweep: every ``(p, d, m)`` with ``p > 1``, less those
        :meth:`simulate` refuses (e.g. a batch that splits into no whole
        micro-batches).

        With the planner's ``jobs > 1`` the distinct per-``(m, micro)``
        tensor-parallel plan searches fan out over a process pool first
        and are merged back into the plan cache by
        configuration key (and their telemetry, via the workers' registry
        snapshots, in submission order).  The per-configuration
        simulations then run in this process, so the sweep's output is
        identical to serial — and, through the disk cache
        (``PRIMEPAR_CACHE*``), warm re-sweeps skip the searches' candidate
        builds and the event loops.
        """
        configs = self.configs()
        with span(
            "sweep", method=method, configs=len(configs), jobs=self.jobs,
            devices=self.n_devices,
        ):
            if self.jobs > 1:
                pending: List[Tuple[str, int, int]] = []
                for config in configs:
                    key = (
                        method, config.model,
                        self._microbatch_for(config.data),
                    )
                    if key not in self._plan_cache and key not in pending:
                        pending.append(key)
                if pending:
                    payloads = [(self, key) for key in pending]
                    for key, outcome in zip(
                        pending, parallel_map(_plan_task, payloads, self.jobs)
                    ):
                        status, value = outcome
                        if status == "ok":
                            self._plan_cache[key] = value
                        # "error": leave the key absent so simulate() raises
                        # the same ValueError the serial path would, and the
                        # config is skipped identically.
            results = []
            for config in configs:
                try:
                    results.append(self.simulate(config, method))
                except ValueError:
                    counter("sweep.configs", outcome="skipped").inc()
                    continue
                counter("sweep.configs", outcome="evaluated").inc()
        return results


def _plan_task(payload: Tuple["Planner3D", Tuple[str, int, int]]) -> Tuple[str, object]:
    """Worker: one ``(method, m, micro)`` tensor-parallel plan search.

    Returns ``("ok", (plan, simulator, graph))`` or ``("error", message)``
    so a failing configuration is skipped by the parent exactly as the
    serial ``ValueError`` path skips it.
    """
    planner, (method, m, micro) = payload
    try:
        return ("ok", planner._plan_for(method, m, micro))
    except ValueError as exc:
        return ("error", str(exc))
