"""Peak memory occupancy model (paper Sec. 4.1, "Peak Memory Occupancy").

Per the paper, an operator's peak memory during training is the size of its
parameter tensors (plus their gradients) and the tensors stashed in Forward
for use in Backward and Gradient.  Replication appears naturally: a tensor
whose dims are not partitioned by a device-id bit occupies its full span on
every device sharing it.  The temporal primitive adds double buffers for the
tensors in flight between steps (paper Fig. 4).
"""

from __future__ import annotations

from typing import Iterable

from ...graph.operators import OpKind, OperatorSpec
from ..dims import Dim, Phase
from ..spec import PartitionSpec
from .compute import block_bytes, block_elements


class MemoryCostModel:
    """Per-device peak memory of a partitioned operator, in bytes."""

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------

    def parameter_bytes(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        """Local parameters + their gradients."""
        if not op.has_parameters:
            return 0.0
        if op.kind is OpKind.LINEAR:
            local_elements = block_elements(op, spec, (Dim.N, Dim.K))
        elif op.kind is OpKind.LAYERNORM:
            local_elements = 2 * block_elements(op, spec, (Dim.K,))
        else:  # EMBEDDING: vocab rows are not partitioned by canonical dims
            local_elements = op.parameter_elements() / max(
                spec.slice_counts[Dim.K], 1
            )
        return local_elements * (2 * op.weight_dtype_bytes)

    def stash_bytes(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        """Forward tensors stashed for the Backward/Gradient phases."""
        if not op.stash_inputs:
            return 0.0
        if op.kind is OpKind.LINEAR:
            return block_bytes(op, spec, (Dim.B, Dim.M, Dim.N))
        if op.kind is OpKind.MATMUL:
            return block_bytes(op, spec, (Dim.B, Dim.M, Dim.N)) + block_bytes(
                op, spec, (Dim.B, Dim.N, Dim.K)
            )
        if op.kind is OpKind.SOFTMAX:
            return block_bytes(op, spec, op.output_dims)
        if op.kind is OpKind.LAYERNORM:
            stats = 2 * 4 * block_elements(op, spec, (Dim.B, Dim.M))
            return block_bytes(op, spec, op.output_dims) + stats
        return block_bytes(op, spec, op.output_dims)

    def double_buffer_bytes(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        """Second buffers for tensors in flight between temporal steps.

        Within a phase, input blocks for step ``t+1`` are received during
        step ``t``, while the accumulated output (``dW``) is redistributed
        only during the *final* step (paper Table 1) — the two are never in
        flight simultaneously, so a phase needs
        ``max(sum of moving inputs, moving output)`` of extra buffer.
        Buffers are reused across phases: the surcharge is the maximum.
        """
        if not spec.has_temporal:
            return 0.0
        worst = 0.0
        for phase in (Phase.FORWARD, Phase.BACKWARD, Phase.GRADIENT):
            signature = op.signatures()[phase]
            varying = spec.evaluator.temporal_varying_dims(phase)
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
            worst = max(worst, moving_inputs, moving_output)
        return worst

    # ------------------------------------------------------------------
    # total
    # ------------------------------------------------------------------

    def operator_memory(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        """``memory(n, P)``: per-device peak bytes of one operator."""
        return (
            self.parameter_bytes(op, spec)
            + self.stash_bytes(op, spec)
            + self.double_buffer_bytes(op, spec)
        )

    def plan_memory(self, items: Iterable) -> float:
        """Per-device peak bytes of a whole plan: ``(op, spec)`` pairs."""
        return sum(self.operator_memory(op, spec) for op, spec in items)
