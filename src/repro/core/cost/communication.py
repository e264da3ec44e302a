"""Intra-operator communication latency (paper Sec. 4.1).

Two traffic classes exist:

* **all-reduce** caused by spatially partitioning a summed-over dimension —
  costed through profiled-and-regressed grouping-pattern models
  (:class:`~repro.cluster.profiler.FabricProfiler`), as in the paper;
* **ring point-to-point** between temporal steps of ``P_{2^k x 2^k}`` —
  costed by placing the exact transfers derived from the DSI schedules onto
  the simulated fabric, concurrently per step.

Both are derived for a whole candidate list at once from its
:class:`~repro.core.steps.StepTable`; the per-spec methods are that
derivation on one spec.  :func:`repro.core.analysis.ring_transfers` is the
scalar reference the ring derivation is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...cluster.collectives import _effective_transfer_times
from ...cluster.profiler import FabricProfiler, LinearLatencyModel
from ...graph.operators import OpKind, OperatorSpec
from ...graph.tensors import DTYPE_BYTES
from ..dims import ALL_DIMS, Dim, Phase
from ..spec import PartitionSpec
from ..steps import DsiTable, StepTable
from .compute import block_bytes_batch


@dataclass(frozen=True)
class RingSends:
    """One phase's ring sends for every spec of a step table.

    Attributes:
        tensors: Tensor name of each send entry, in schedule order: the
            phase's inputs, then its output, then (Backward of a
            matmul-like operator) the weight's realignment with Forward.
        src: ``[spec, step, entry, dst rank]`` the rank sending the entry's
            block to ``dst`` during temporal step ``step``; -1 where
            nothing is sent.  Input blocks travel during the step before
            their use; the accumulated output's redistribution and the
            weight realignment during the step after (the final one).
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
        n_bits = self.topology.n_bits
        ranks = np.arange(1 << n_bits)
        differ = ranks[:, None] ^ ranks[None, :]
        # ``[dst, holder]`` 1 + the leading device-id bits the two ranks
        # share.  Leading bits select the node (see
        # :mod:`repro.cluster.topology`), so the longest shared prefix
        # keeps a replicated block's transfer on intra-node links whenever
        # a same-node holder exists.
        xor_length = np.zeros_like(differ)
        for b in range(n_bits):
            xor_length += (differ >> b) > 0
        self._preference = (n_bits + 1 - xor_length).astype(np.int8)

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
        bits = table.partition_bits

        def union(dims) -> np.ndarray:
            columns = [ALL_DIMS.index(dim) for dim in dims]
            return np.bitwise_or.reduce(bits[:, columns], axis=1)

        return union(signature.reduce_dims) & ~union(signature.output.dims)

    def allreduce_indicator(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> Tuple[int, ...]:
        """Group-indicator bits of ``phase``'s output all-reduce."""
        mask = int(self._indicator_masks(op, spec.table, phase)[0])
        return tuple(b for b in range(mask.bit_length()) if mask >> b & 1)

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

    def allreduce_latency(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> float:
        """``allreduce(n, P)`` for one phase."""
        return self.allreduce_latency_batch(op, spec.table, phase)[0]

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

    def layernorm_extras(self, op: OperatorSpec, spec: PartitionSpec) -> float:
        return self.layernorm_extras_batch(op, spec.table)[0]

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
        """Every spec's ring sends in ``phase`` (paper Sec. 3.3, Table 1).

        For each moving tensor and step transition ``t -> t+1``, a device
        needing a block it does not hold receives it from a device that
        held it at ``t``.  Holders are grouped by a mixed-radix key of the
        tensor's DSIs; an accumulated output block's key also names the
        partial sums it holds (its reduce-dim coverage so far), so a
        redistribution never double-counts.  Of the holders, the sender is
        the one sharing the longest device-id prefix with the receiver,
        the first in rank order on a tie.  The same rule, from the end of
        Backward to the start of Forward, realigns a matmul-like operator's
        weight during Backward's final step.

        Raises:
            RuntimeError: If a needed block has no holder.
        """
        signature = op.signatures()[phase]
        counts = table.slice_counts
        n_devices = 1 << table.n_bits
        total = table.total_steps
        n_steps = int(total.max(initial=1))
        # ``dsi[t]``: every spec's DSIs at step ``t``, ``[spec, rank, dim]``.
        dsi = dsis.at_points([(phase, t) for t in range(n_steps)]).swapaxes(0, 1)
        entries = list(signature.inputs) + [signature.output]
        realign = phase is Phase.BACKWARD and op.is_matmul_like
        if realign:
            entries.append(signature.inputs[1])
        src = np.full(
            (table.n_specs, n_steps, len(entries), n_devices), -1, dtype=np.int64
        )

        def key(values: np.ndarray, dims) -> np.ndarray:
            """``[spec, rank]`` mixed-radix number of the DSIs of ``dims``."""
            number = np.zeros(values.shape[:2], dtype=np.int64)
            for dim in dims:
                column = ALL_DIMS.index(dim)
                number = number * counts[:, column, None] + values[..., column]
            return number

        for e, tensor in enumerate(signature.inputs):
            for t in range(n_steps - 1):
                held = key(dsi[t], tensor.dims)
                needed = key(dsi[t + 1], tensor.dims)
                movers = (needed != held) & (t < total - 1)[:, None]
                src[:, t, e] = self._nearest(
                    held[..., None], needed[..., None], movers, tensor.name
                )

        output = signature.output
        out = len(signature.inputs)
        reduce_dims = tuple(sorted(signature.reduce_dims))
        n_reduce = int(
            np.prod(counts[:, [ALL_DIMS.index(d) for d in reduce_dims]], axis=1)
            .max(initial=1)
        )
        # Coverage so far as bit sets over reduce-slice numbers, 63 per word.
        covered = np.zeros(
            (table.n_specs, n_devices, -(-n_reduce // 63)), dtype=np.int64
        )
        for t in range(n_steps - 1):
            reduced = key(dsi[t], reduce_dims)
            for w in range(covered.shape[2]):
                covered[..., w] |= np.where(
                    reduced // 63 == w, 1 << (reduced % 63), 0
                )
            held = key(dsi[t], output.dims)
            needed = key(dsi[t + 1], output.dims)
            movers = (needed != held) & (t < total - 1)[:, None]
            src[:, t + 1, out] = self._nearest(
                np.concatenate([held[..., None], covered], axis=2),
                np.concatenate([needed[..., None], covered], axis=2),
                movers,
                output.name,
            )

        if realign:
            weight = signature.inputs[1]
            held = key(dsis.at(Phase.BACKWARD, -1), weight.dims)
            needed = key(dsis.at(Phase.FORWARD, 0), weight.dims)
            src[np.arange(table.n_specs), total - 1, len(entries) - 1] = (
                self._nearest(
                    held[..., None], needed[..., None], needed != held,
                    weight.name,
                )
            )

        float_counts = counts.astype(float)
        n_bytes = np.stack(
            [block_bytes_batch(op, float_counts, t.dims) for t in entries],
            axis=1,
        )
        return RingSends(tuple(t.name for t in entries), src, n_bytes)

    def _nearest(
        self,
        held: np.ndarray,
        needed: np.ndarray,
        movers: np.ndarray,
        tensor: str,
    ) -> np.ndarray:
        """``[spec, rank]`` sender of each mover's block: of the ranks whose
        ``held`` key (``[spec, rank, part]``) equals the mover's ``needed``
        key, the one sharing the longest device-id prefix with the mover,
        the first on a tie; -1 for ranks that do not move."""
        spec, rank = np.nonzero(movers)
        match = (held[spec] == needed[spec, rank][:, None]).all(axis=2)
        sender = (match * self._preference[rank]).argmax(axis=1)
        orphans = ~match[np.arange(len(rank)), sender]
        if orphans.any():
            i = int(np.argmax(orphans))
            raise RuntimeError(
                f"no holder for {tensor} block {needed[spec[i], rank[i]]} "
                f"needed by rank {rank[i]} (spec {spec[i]} of the table)"
            )
        result = np.full(movers.shape, -1, dtype=np.int64)
        result[spec, rank] = sender
        return result

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
        sends = self.ring_sends(op, spec.table, DsiTable(spec.table), phase)
        sizes = sends.n_bytes[0].tolist()
        schedule = {}
        for step, row in enumerate(sends.src[0].tolist()):
            entries = [
                (sends.tensors[e], src, dst, sizes[e])
                for e, sources in enumerate(row)
                for dst, src in enumerate(sources)
                if src >= 0
            ]
            if entries:
                schedule[step] = entries
        return schedule

    def ring_phase_latencies(
        self, op: OperatorSpec, spec: PartitionSpec, phase: Phase
    ) -> List[float]:
        """Ring latency per temporal step of one phase."""
        if not spec.has_temporal:
            return [0.0] * spec.total_steps
        sends = self.ring_sends(op, spec.table, DsiTable(spec.table), phase)
        return self.ring_latencies(sends)[0].tolist()
