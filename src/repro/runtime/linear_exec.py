"""Numerical execution of a partitioned linear operator's training step.

This is the reproduction's ground-truth engine: it runs the Forward,
Backward and Gradient phases of ``O = I W`` under *any* partition sequence —
conventional, spatial-temporal, or mixed — and performs exactly the
communication Eq. 7 prices: the ring sends of
:func:`repro.core.ring.ring_senders` (paper Table 1 for the pure
primitive) and an all-reduce per output block whose holders hold
different partial sums, read from the spec's
:attr:`~repro.core.steps.StepTable.partition_bits`.  Every block sits where
the spec's :class:`~repro.core.steps.DsiTable` puts it.  The results are
compared bit-for-bit-close against a single-device reference, proving the
primitive's Features 1-3 end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.device import DeviceId
from ..core.dims import (
    ALL_DIMS,
    Dim,
    LINEAR_SIGNATURES,
    Phase,
    PhaseSignature,
    TensorRole,
)
from ..core.ring import ring_senders
from ..core.spec import PartitionSpec
from ..core.steps import DsiTable
from .virtual_cluster import VirtualCluster


@dataclass(frozen=True)
class LinearShape:
    """Global dimension sizes of the linear operator under test."""

    b: int
    m: int
    n: int
    k: int

    def size(self, dim: Dim) -> int:
        return {Dim.B: self.b, Dim.M: self.m, Dim.N: self.n, Dim.K: self.k}[dim]


def _axis_slice(size: int, count: int, index: int) -> slice:
    if size % count:
        raise ValueError(f"dimension size {size} not divisible by {count} slices")
    width = size // count
    return slice(index * width, (index + 1) * width)


class PartitionedLinear:
    """Executes one training iteration of a partitioned linear operator.

    Args:
        spec: The partition sequence (any mix of spatial and temporal).
        shape: Global ``B, M, N, K`` sizes; every partitioned dim must be
            divisible by its slice count.
    """

    def __init__(self, spec: PartitionSpec, shape: LinearShape) -> None:
        self.spec = spec
        self.shape = shape
        self.cluster = VirtualCluster(spec.n_bits)
        self.dsis = DsiTable(spec.table)
        counts = spec.slice_counts
        for dim in Dim:
            if shape.size(dim) % counts[dim]:
                raise ValueError(
                    f"dim {dim.value} size {shape.size(dim)} not divisible "
                    f"by slice count {counts[dim]}"
                )

    # ------------------------------------------------------------------
    # block addressing
    # ------------------------------------------------------------------

    def _blocks(
        self, tensor: TensorRole, phase: Phase, t: int
    ) -> List[Tuple[slice, ...]]:
        """Each rank's index of its ``tensor`` block at ``(phase, t)``."""
        counts = self.spec.slice_counts
        columns = [ALL_DIMS.index(d) for d in tensor.dims]
        return [
            tuple(
                _axis_slice(self.shape.size(d), counts[d], dsi[c])
                for d, c in zip(tensor.dims, columns)
            )
            for dsi in self.dsis.at(phase, t)[0].tolist()
        ]

    def _scatter(
        self, array: np.ndarray, tensor: TensorRole, phase: Phase, t: int
    ) -> None:
        """Place each device's block of ``tensor`` per the DSI at ``(phase, t)``."""
        for device, index in zip(
            self.cluster.devices, self._blocks(tensor, phase, t)
        ):
            device.put(tensor.name, array[index].copy())

    def _gather(
        self, tensor: TensorRole, phase: Phase, t: int
    ) -> np.ndarray:
        """Reassemble the global tensor from blocks at ``(phase, t)``."""
        shape = tuple(self.shape.size(d) for d in tensor.dims)
        out = np.full(shape, np.nan)
        for device, index in zip(
            self.cluster.devices, self._blocks(tensor, phase, t)
        ):
            out[index] = device.get(tensor.name)
        if np.isnan(out).any():
            raise RuntimeError(f"gather of {tensor.name} left holes")
        return out

    # ------------------------------------------------------------------
    # phase execution
    # ------------------------------------------------------------------

    def _exchange(
        self,
        entries: Sequence[TensorRole],
        src: np.ndarray,
        moving: Sequence[int],
    ) -> None:
        """Send the ``moving`` entries' blocks, ``src[entry, dst]`` the
        sender of ``dst``'s block (-1: none), then deliver them all."""
        devices = self.cluster.devices
        for e in moving:
            name = entries[e].name
            for dst, sender in enumerate(src[e].tolist()):
                if sender >= 0:
                    self.cluster.send(
                        devices[sender].device_id,
                        devices[dst].device_id,
                        name,
                        devices[sender].get(name),
                    )
        self.cluster.deliver()

    def _run_phase(self, phase: Phase, compute) -> None:
        """Drive one phase: per-step compute, ring sends, all-reduce.

        ``compute(store)`` returns a device's output contribution at the
        current step from its block store; contributions accumulate into
        the phase output.  Each step first receives the accumulated
        output's redistribution (the ``dW`` case, paper Sec. 3.3), then
        computes, then sends the input blocks the next step needs (and, at
        Backward's final step, ``W``'s realignment with Forward).
        """
        signature = LINEAR_SIGNATURES[phase]
        entries, src = ring_senders(
            self.spec.table, self.dsis, LINEAR_SIGNATURES, phase
        )
        out = len(signature.inputs)
        name = signature.output.name
        inputs = [e for e in range(len(entries)) if e != out]
        for t in range(self.spec.total_steps):
            self._exchange(entries, src[0, t], [out])
            for device in self.cluster.devices:
                contribution = compute(device.store)
                if t == 0:
                    device.store[name] = contribution
                else:
                    device.store[name] = device.store[name] + contribution
            self._exchange(entries, src[0, t], inputs)
        for members, representatives in self._allreduce_groups(signature):
            self.cluster.allreduce(
                members, name, representatives=representatives
            )

    def _allreduce_groups(
        self, signature: PhaseSignature
    ) -> List[Tuple[List[DeviceId], List[DeviceId]]]:
        """``(members, representatives)`` of each all-reduce of the phase
        output.

        Members share the rank bits the output dims' DSIs depend on.  The
        bits the reduce dims' DSIs depend on and the output's do not tell
        the members' partial sums apart; the first member of each such
        class in rank order contributes, and the rest are its replicas
        (paper Sec. 4.1's group indicator).
        """
        n_bits = self.spec.n_bits

        def rank_bits(dims) -> int:
            """Rank mask of the bits ``dims`` depend on: mask bit ``b``
            is device-id bit ``b``, the rank's bit ``n_bits - 1 - b``."""
            mask = int(self.spec.table.dim_bits(dims)[0])
            return sum(
                1 << (n_bits - 1 - b) for b in range(n_bits) if mask >> b & 1
            )

        output = rank_bits(signature.output.dims)
        partial = rank_bits(signature.reduce_dims) & ~output
        if not partial:
            return []
        groups: Dict[int, Tuple[List[DeviceId], Dict[int, DeviceId]]] = {}
        for device in self.cluster.devices:
            members, classes = groups.setdefault(device.rank & output, ([], {}))
            members.append(device.device_id)
            classes.setdefault(device.rank & partial, device.device_id)
        return [
            (members, list(classes.values()))
            for members, classes in groups.values()
        ]

    # ------------------------------------------------------------------
    # training iteration
    # ------------------------------------------------------------------

    def run_iteration(
        self,
        inputs: np.ndarray,
        weight: np.ndarray,
        grad_output: np.ndarray,
        lr: float = 0.1,
    ) -> Dict[str, np.ndarray]:
        """One Forward/Backward/Gradient cycle plus the weight update.

        Returns the gathered global ``O``, ``dI``, ``dW`` and updated ``W``.
        """
        cluster = self.cluster
        sig_f = LINEAR_SIGNATURES[Phase.FORWARD]
        sig_b = LINEAR_SIGNATURES[Phase.BACKWARD]
        sig_g = LINEAR_SIGNATURES[Phase.GRADIENT]
        tensor_i, tensor_w = sig_f.inputs
        tensor_do = sig_b.inputs[0]

        # ---- Forward -------------------------------------------------
        self._scatter(inputs, tensor_i, Phase.FORWARD, 0)
        self._scatter(weight, tensor_w, Phase.FORWARD, 0)
        self._run_phase(Phase.FORWARD, lambda store: store["I"] @ store["W"])
        output = self._gather(sig_f.output, Phase.FORWARD, -1)

        # ---- stash alignment (Feature 3) -------------------------------
        # I stays put for Gradient, and W for Backward: the blocks each
        # device holds at Forward's final step are the ones their first
        # steps use.
        self._assert_aligned(tensor_i, Phase.FORWARD, Phase.GRADIENT)
        self._assert_aligned(tensor_w, Phase.FORWARD, Phase.BACKWARD)

        # ---- Backward --------------------------------------------------
        self._scatter(grad_output, tensor_do, Phase.BACKWARD, 0)
        stashed_i = [device.get("I").copy() for device in cluster.devices]
        # W ends Backward realigned to Forward-start positions by the
        # ring's final sends (paper Table 1, Backward t = 2^k - 1).
        self._run_phase(
            Phase.BACKWARD, lambda store: store["dO"] @ store["W"].T
        )
        grad_input = self._gather(sig_b.output, Phase.BACKWARD, -1)

        # ---- Gradient --------------------------------------------------
        for device, block in zip(cluster.devices, stashed_i):
            device.put("I", block)
        self._assert_aligned(tensor_do, Phase.BACKWARD, Phase.GRADIENT)

        def gradient_step(store) -> np.ndarray:
            i_block = store["I"]
            do_block = store["dO"]
            flat_i = i_block.reshape(-1, i_block.shape[-1])
            flat_do = do_block.reshape(-1, do_block.shape[-1])
            return flat_i.T @ flat_do

        self._run_phase(Phase.GRADIENT, gradient_step)
        grad_weight = self._gather(sig_g.output, Phase.GRADIENT, -1)

        # ---- update ----------------------------------------------------
        # dW's final distribution matches W at Forward start (Feature 3's
        # weight-cycle alignment), so the update is purely local.
        self._assert_aligned(sig_g.output, Phase.GRADIENT, Phase.FORWARD)
        for device in cluster.devices:
            device.store["W"] = device.store["W"] - lr * device.store["dW"]
        new_weight = self._gather(tensor_w, Phase.FORWARD, 0)

        return {
            "O": output,
            "dI": grad_input,
            "dW": grad_weight,
            "W": new_weight,
        }

    def _assert_aligned(
        self, tensor: TensorRole, earlier: Phase, later: Phase
    ) -> None:
        """Raise unless every device's block of ``tensor`` at the end of
        ``earlier`` is the one it needs at the start of ``later``."""
        columns = [ALL_DIMS.index(d) for d in tensor.dims]
        held = self.dsis.at(earlier, -1)[0][:, columns]
        needed = self.dsis.at(later, 0)[0][:, columns]
        if not np.array_equal(held, needed):
            raise RuntimeError(
                f"{tensor.name} misaligned between {earlier} and {later} "
                f"under {self.spec}"
            )
