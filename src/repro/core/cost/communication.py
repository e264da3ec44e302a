"""Intra-operator communication latency (paper Sec. 4.1).

Two traffic classes exist:

* **all-reduce** caused by spatially partitioning a summed-over dimension —
  costed through profiled-and-regressed grouping-pattern models
  (:class:`~repro.cluster.profiler.FabricProfiler`), as in the paper;
* **ring point-to-point** between temporal steps of ``P_{2^k x 2^k}`` —
  costed by placing the sends of :func:`repro.core.ring.ring_senders` (the
  schedule the virtual cluster of :mod:`repro.runtime` executes) onto the
  simulated fabric, concurrently per step.

Both are derived for a whole candidate list at once from its
:class:`~repro.core.steps.StepTable`
(:meth:`~repro.core.cost.intra.IntraOperatorCostModel.price_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ...cluster.collectives import _effective_transfer_times
from ...cluster.profiler import FabricProfiler, LinearLatencyModel
from ...graph.operators import OpKind, OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Dim, Phase
from ..ring import ring_senders
from ..steps import DsiTable, StepTable
from .compute import block_bytes_batch


@dataclass(frozen=True)
class RingSends:
    """One phase's ring sends for every spec of a step table.

    Attributes:
        tensors: Tensor name of each send entry, in schedule order.
        src: ``[spec, step, entry, dst rank]`` the rank sending the entry's
            block to ``dst`` during temporal step ``step``; -1 where
            nothing is sent (see :func:`~repro.core.ring.ring_senders`).
        n_bytes: ``[spec, entry]`` block bytes of the entry's tensor.
    """

    tensors: Tuple[str, ...]
    src: np.ndarray
    n_bytes: np.ndarray


class CommunicationCostModel:
    """All-reduce and ring latencies of a partitioned operator."""

    def __init__(self, profiler: FabricProfiler) -> None:
        self.profiler = profiler
        self.topology = profiler.topology
        self._models: Dict[int, LinearLatencyModel] = {}

    # ------------------------------------------------------------------
    # all-reduce (partition-by-dimension of summed-over dims)
    # ------------------------------------------------------------------

    def _model(self, mask: int) -> LinearLatencyModel:
        """The all-reduce model of the group indicator bit mask ``mask``."""
        model = self._models.get(mask)
        if model is None:
            model = self._models[mask] = self.profiler.allreduce_model(
                tuple(b for b in range(mask.bit_length()) if mask >> b & 1)
            )
        return model

    @staticmethod
    def _indicator_masks(
        op: OperatorSpec, table: StepTable, phase: Phase
    ) -> np.ndarray:
        """``[spec]`` group-indicator bit masks of ``phase``'s output
        all-reduce: the bits the reduce dims' DSIs depend on and the
        output's do not.  Devices differing only in those bits compute
        partial sums of the same output block and form one all-reduce
        group (paper Sec. 4.1)."""
        signature = op.signatures()[phase]
        return table.dim_bits(signature.reduce_dims) & ~table.dim_bits(
            signature.output.dims
        )

    def allreduce_latency_batch(
        self, op: OperatorSpec, table: StepTable, phase: Phase
    ) -> List[float]:
        """``allreduce(n, P)`` for one phase, per spec of ``table``."""
        signature = op.signatures()[phase]
        if not signature.reduce_dims:
            return [0.0] * table.n_specs
        payloads = block_bytes_batch(
            op, table.slice_counts.astype(float), signature.output.dims
        )
        masks = self._indicator_masks(op, table, phase)
        return [
            self._model(mask).predict(payload) if mask else 0.0
            for mask, payload in zip(masks.tolist(), payloads.tolist())
        ]

    def layernorm_extras_batch(
        self, op: OperatorSpec, table: StepTable
    ) -> List[float]:
        """Normalisation's expectation and gamma/beta-gradient all-reduces.

        Partitioning the normalised dim (``K``) requires summing per-row
        statistics across its slices; partitioning ``B``/``M`` requires
        all-reducing the (tiny) parameter gradients (paper Sec. 3.2).
        """
        if op.kind is not OpKind.LAYERNORM:
            return [0.0] * table.n_specs
        counts = table.slice_counts.astype(float)
        bits = table.partition_bits
        b, m, k = (ALL_DIMS.index(dim) for dim in (Dim.B, Dim.M, Dim.K))
        stats = 2 * 4 * block_bytes_batch(op, counts, (Dim.B, Dim.M)) / DTYPE_BYTES
        grads = 2 * block_bytes_batch(op, counts, (Dim.K,))
        extras = []
        for k_split, k_mask, row_mask, stats_bytes, grad_bytes in zip(
            (counts[:, k] > 1).tolist(),
            bits[:, k].tolist(),
            (bits[:, b] | bits[:, m]).tolist(),
            stats.tolist(),
            grads.tolist(),
        ):
            total = 0.0
            if k_split:
                total += self._model(k_mask).predict(stats_bytes)
            if row_mask:
                total += self._model(row_mask).predict(grad_bytes)
            extras.append(total)
        return extras

    # ------------------------------------------------------------------
    # ring point-to-point (temporal primitive)
    # ------------------------------------------------------------------

    def ring_sends(
        self,
        op: OperatorSpec,
        table: StepTable,
        dsis: DsiTable,
        phase: Phase,
    ) -> RingSends:
        """Every spec's ring sends in ``phase``, sized: the senders of
        :func:`~repro.core.ring.ring_senders` and each entry's block
        bytes.

        Raises:
            RuntimeError: If a needed block has no holder.
        """
        entries, src = ring_senders(table, dsis, op.signatures(), phase)
        counts = table.slice_counts.astype(float)
        n_bytes = np.stack(
            [block_bytes_batch(op, counts, t.dims) for t in entries], axis=1
        )
        return RingSends(tuple(t.name for t in entries), src, n_bytes)

    def ring_latencies(self, sends: RingSends) -> np.ndarray:
        """``[spec, step]`` completion time of each step's concurrent ring
        sends on the fabric (0 where a step sends nothing)."""
        n_specs, n_steps, n_entries, n_devices = sends.src.shape
        dst = np.broadcast_to(np.arange(n_devices), sends.src.shape)
        n_bytes = np.broadcast_to(
            sends.n_bytes[:, None, :, None], sends.src.shape
        )
        rows = (n_specs * n_steps, n_entries * n_devices)
        times = _effective_transfer_times(
            self.topology,
            sends.src.reshape(rows),
            dst.reshape(rows),
            n_bytes.reshape(rows),
        )
        return times.max(axis=1, initial=0.0).reshape(n_specs, n_steps)
