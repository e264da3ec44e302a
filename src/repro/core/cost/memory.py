"""Peak memory occupancy model (paper Sec. 4.1, "Peak Memory Occupancy").

Per the paper, an operator's peak memory during training is the size of its
parameter tensors (plus their gradients) and the tensors stashed in Forward
for use in Backward and Gradient.  Replication appears naturally: a tensor
whose dims are not partitioned by a device-id bit occupies its full span on
every device sharing it.  The temporal primitive adds double buffers for the
tensors in flight between steps (paper Fig. 4).

Every term is computed for a whole candidate list at once, from its slice
counts and primitive flags (a :class:`~repro.core.steps.StepTable`);
:class:`~repro.core.cost.intra.IntraTerms` keeps the three parts and sums
them to ``memory(n, P)``.
"""

from __future__ import annotations

import numpy as np

from ...graph.operators import OpKind, OperatorSpec
from ..dims import ALL_DIMS, Dim, Phase
from ..dsi import TEMPORAL_VARYING
from .compute import block_bytes_batch, block_elements_batch


class MemoryCostModel:
    """Per-device peak memory of a partitioned operator, in bytes, for
    every row of a slice-count matrix ``[spec, dim]``."""

    def parameter_bytes_batch(
        self, op: OperatorSpec, counts: np.ndarray
    ) -> np.ndarray:
        """Local parameters + their gradients."""
        if not op.has_parameters:
            return np.zeros(len(counts))
        if op.kind is OpKind.LINEAR:
            local_elements = block_elements_batch(op, counts, (Dim.N, Dim.K))
        elif op.kind is OpKind.LAYERNORM:
            local_elements = 2 * block_elements_batch(op, counts, (Dim.K,))
        else:  # EMBEDDING: vocab rows are not partitioned by canonical dims
            local_elements = op.parameter_elements() / np.maximum(
                counts[:, ALL_DIMS.index(Dim.K)], 1
            )
        return local_elements * (2 * op.weight_dtype_bytes)

    def stash_bytes_batch(
        self, op: OperatorSpec, counts: np.ndarray
    ) -> np.ndarray:
        """Forward tensors stashed for the Backward/Gradient phases."""
        if not op.stash_inputs:
            return np.zeros(len(counts))
        if op.kind is OpKind.LINEAR:
            return block_bytes_batch(op, counts, (Dim.B, Dim.M, Dim.N))
        if op.kind is OpKind.MATMUL:
            return block_bytes_batch(
                op, counts, (Dim.B, Dim.M, Dim.N)
            ) + block_bytes_batch(op, counts, (Dim.B, Dim.N, Dim.K))
        if op.kind is OpKind.LAYERNORM:
            stats = 2 * 4 * block_elements_batch(op, counts, (Dim.B, Dim.M))
            return block_bytes_batch(op, counts, op.output_dims) + stats
        return block_bytes_batch(op, counts, op.output_dims)

    def double_buffer_bytes_batch(
        self, op: OperatorSpec, counts: np.ndarray, temporal: np.ndarray
    ) -> np.ndarray:
        """Second buffers for tensors in flight between temporal steps.

        Within a phase, input blocks for step ``t+1`` are received during
        step ``t``, while the accumulated output (``dW``) is redistributed
        only during the *final* step (paper Table 1) — the two are never in
        flight simultaneously, so a phase needs
        ``max(sum of moving inputs, moving output)`` of extra buffer.
        Buffers are reused across phases: the surcharge is the maximum.
        Specs without the primitive (``temporal`` false) need none.
        """
        worst = np.zeros(len(counts))
        if not temporal.any():
            return worst
        for phase in (Phase.FORWARD, Phase.BACKWARD, Phase.GRADIENT):
            signature = op.signatures()[phase]
            varying = TEMPORAL_VARYING[phase]
            moving_inputs = np.zeros(len(counts))
            for tensor in signature.inputs:
                if any(d in varying for d in tensor.dims):
                    moving_inputs = moving_inputs + block_bytes_batch(
                        op, counts, tensor.dims
                    )
            output = signature.output
            if any(d in varying for d in output.dims):
                moving_output = block_bytes_batch(op, counts, output.dims)
            else:
                moving_output = np.zeros(len(counts))
            worst = np.maximum(np.maximum(worst, moving_inputs), moving_output)
        return np.where(temporal, worst, 0.0)
