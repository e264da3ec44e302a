"""Intra-operator communication latency (paper Sec. 4.1).

Two traffic classes exist:

* **all-reduce** caused by spatially partitioning a summed-over dimension —
  costed through profiled-and-regressed grouping-pattern models
  (:class:`~repro.cluster.profiler.FabricProfiler`), as in the paper;
* **ring point-to-point** between temporal steps of ``P_{2^k x 2^k}`` —
  costed by placing the exact transfers derived from the DSI schedules onto
  the simulated fabric, concurrently per step.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from ...cluster.collectives import Transfer, concurrent_step_time
from ...cluster.profiler import FabricProfiler, LinearLatencyModel
from ...graph.operators import OpKind, OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from .. import analysis
from ..dims import ALL_DIMS, Dim, Phase, PhaseSignature
from ..spec import PartitionSpec
from ..steps import StepTable
from .compute import block_bytes, block_bytes_batch

#: Structural ring-schedule cache: (steps, n_bits, phase, batched) ->
#: step -> list of (tensor name, src rank, dst rank).
_RING_CACHE: Dict[Tuple, Mapping[int, List[Tuple[str, int, int]]]] = {}


class CommunicationCostModel:
    """All-reduce and ring latencies of a partitioned operator."""

    def __init__(self, profiler: FabricProfiler) -> None:
        self.profiler = profiler
        self.topology = profiler.topology

    # ------------------------------------------------------------------
    # all-reduce (partition-by-dimension of summed-over dims)
    # ------------------------------------------------------------------

    def allreduce_indicator(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> Tuple[int, ...]:
        """Group-indicator bits of ``phase``'s output all-reduce.

        Devices differing only in bits that do not influence the output
        tensor's DSIs compute partial sums of the same output block and
        form one all-reduce group (paper Sec. 4.1).
        """
        signature = op.signatures()[phase]
        output_bits = set(
            spec.evaluator.group_indicator(phase, signature.output.dims)
        )
        reduce_bits = set(
            spec.evaluator.group_indicator(phase, tuple(signature.reduce_dims))
        )
        return tuple(sorted(reduce_bits - output_bits))

    def allreduce_latency(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> float:
        """``allreduce(n, P)`` for one phase."""
        signature = op.signatures()[phase]
        if not signature.reduce_dims:
            return 0.0
        indicator = self.allreduce_indicator(op, spec, phase)
        if not indicator:
            return 0.0
        payload = block_bytes(op, spec, signature.output.dims)
        return self.profiler.allreduce_model(indicator).predict(payload)

    def allreduce_latency_batch(
        self, op: OperatorSpec, table: StepTable, phase: Phase
    ) -> List[float]:
        """:meth:`allreduce_latency` of every spec of a spatial step table.

        The specs must be purely spatial: then a dim's DSI depends on the
        bits its dim partitions spend, in every phase, so the group
        indicator is a bit mask.  Each entry is the float the per-spec
        method returns: the same indicator, payload and ``predict`` call.
        """
        signature = op.signatures()[phase]
        if not signature.reduce_dims:
            return [0.0] * table.n_specs
        bits = table.partition_bits()

        def union(dims) -> np.ndarray:
            columns = [ALL_DIMS.index(dim) for dim in dims]
            return np.bitwise_or.reduce(bits[:, columns], axis=1)

        output = union(signature.output.dims)
        indicators = union(signature.reduce_dims) & ~output
        payloads = block_bytes_batch(
            op, table.slice_counts.astype(float), signature.output.dims
        )
        models: Dict[int, LinearLatencyModel] = {}
        latencies = []
        for mask, payload in zip(indicators.tolist(), payloads.tolist()):
            if not mask:
                latencies.append(0.0)
                continue
            model = models.get(mask)
            if model is None:
                model = models[mask] = self.profiler.allreduce_model(
                    tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
                )
            latencies.append(model.predict(payload))
        return latencies

    def layernorm_extras(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        """Normalisation's expectation and gamma/beta-gradient all-reduces.

        Partitioning the normalised dim (``K``) requires summing per-row
        statistics across its slices; partitioning ``B``/``M`` requires
        all-reducing the (tiny) parameter gradients (paper Sec. 3.2).
        """
        if op.kind is not OpKind.LAYERNORM:
            return 0.0
        total = 0.0
        if spec.slice_counts[Dim.K] > 1:
            indicator = spec.evaluator.group_indicator(Phase.FORWARD, (Dim.K,))
            stats_bytes = 2 * 4 * block_bytes(op, spec, (Dim.B, Dim.M)) / DTYPE_BYTES
            total += self.profiler.allreduce_model(indicator).predict(stats_bytes)
        row_bits = spec.evaluator.group_indicator(Phase.GRADIENT, (Dim.B, Dim.M))
        if row_bits:
            grad_bytes = 2 * block_bytes(op, spec, (Dim.K,))
            total += self.profiler.allreduce_model(row_bits).predict(grad_bytes)
        return total

    # ------------------------------------------------------------------
    # ring point-to-point (temporal primitive)
    # ------------------------------------------------------------------

    def _ring_schedule(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> Mapping[int, List[Tuple[str, int, int]]]:
        """Structural ring schedule: step -> (tensor, src rank, dst rank).

        Input-tensor transfers overlap the step *before* their use; the
        accumulated-output redistribution (``dW``) and the end-of-phase
        weight realignment overlap the final step (paper Table 1).
        """
        key = (spec.steps, spec.n_bits, phase, op.kind is OpKind.MATMUL)
        if key in _RING_CACHE:
            return _RING_CACHE[key]
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
        _RING_CACHE[key] = schedule
        return schedule

    def ring_phase_transfers(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> Dict[int, List[Tuple[str, int, int, float]]]:
        """Sized ring transfers per overlapped step of one phase.

        Returns ``step -> [(tensor name, src rank, dst rank, bytes)]`` — the
        concrete point-to-point sends a discrete-event engine places onto
        fabric link resources.  Empty for purely spatial specs.
        """
        if not spec.has_temporal:
            return {}
        signature = op.signatures()[phase]
        sizes = {
            tensor.name: block_bytes(op, spec, tensor.dims)
            for tensor in signature.tensors
        }
        schedule = self._ring_schedule(op, spec, phase)
        return {
            step: [
                (tensor, src, dst, sizes[tensor])
                for tensor, src, dst in entries
            ]
            for step, entries in schedule.items()
            if entries
        }

    def ring_phase_latencies(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> List[float]:
        """Ring latency per temporal step of one phase.

        The sized schedule is built once for the phase and priced per step.
        """
        if not spec.has_temporal:
            return [0.0] * spec.total_steps
        schedule = self.ring_phase_transfers(op, spec, phase)
        latencies = []
        for t in range(spec.total_steps):
            transfers = [
                Transfer(src=src, dst=dst, n_bytes=n_bytes)
                for _, src, dst, n_bytes in schedule.get(t, [])
            ]
            latencies.append(concurrent_step_time(self.topology, transfers))
        return latencies
