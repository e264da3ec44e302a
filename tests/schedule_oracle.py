"""Scalar ring schedule and all-reduce groups (test oracle).

A second, independent derivation of the communication the package prices
and executes: it evaluates the DSI of every device at every temporal step
with the scalar Alg. 1 walk (``tests/dsi_oracle.py``) and derives — with
no special-casing of the primitive — which devices form all-reduce
groups, which tensors are replicated, and which point-to-point ring
transfers occur between temporal steps.  The bulk sender derivation
(:func:`repro.core.ring.ring_senders`) and the virtual cluster's
all-reduce groups (:mod:`repro.runtime.linear_exec`) are tested against
it, and the analytic results of the paper (Table 1, Features 1-2,
``tests/primitive_oracle.py``) against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple

from dsi_oracle import evaluator
from repro.core.device import DeviceId, all_devices
from repro.core.dims import Dim, Phase, PhaseSignature, TensorRole
from repro.core.spec import PartitionSpec


@dataclass(frozen=True)
class AllReduceGroup:
    """Devices that must all-reduce a partial-sum output slice.

    Members sharing a *coverage class* (identical sets of locally
    accumulated reduce-dim slices) hold identical partials — pure replicas
    (a :class:`~repro.core.partitions.Replicate` step).  The sum runs over
    one representative per class; replicas receive the result.
    """

    members: Tuple[DeviceId, ...]
    output_dsi: Tuple[int, ...]
    class_representatives: Tuple[DeviceId, ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return len(self.class_representatives) or len(self.members)


@dataclass(frozen=True)
class RingTransfer:
    """One point-to-point tensor transfer between consecutive temporal steps.

    The transfer of ``tensor`` from ``src`` to ``dst`` overlaps with the
    computation of step ``step`` and delivers the block needed at
    ``step + 1`` (paper Sec. 3.3, Table 1).
    """

    tensor: str
    src: DeviceId
    dst: DeviceId
    step: int


def allreduce_groups(
    spec: PartitionSpec, signature: PhaseSignature
) -> List[AllReduceGroup]:
    """All-reduce groups for the output of ``signature``'s phase.

    Devices sharing the output tensor's DSI at the final temporal step hold
    partial sums over disjoint subsets of the reduce dimensions' slices and
    must all-reduce.  A group of size 1 needs no communication and is not
    returned.
    """
    dsis = evaluator(spec)
    last = spec.total_steps - 1
    by_output: Dict[Tuple[int, ...], List[DeviceId]] = {}
    for device in all_devices(spec.n_bits):
        key = dsis.tensor_dsi(
            device, signature.phase, last, signature.output.dims
        )
        by_output.setdefault(key, []).append(device)
    groups = []
    for key, members in sorted(by_output.items()):
        if len(members) <= 1:
            continue
        classes: Dict[frozenset, List[DeviceId]] = {}
        for device in members:
            classes.setdefault(
                frozenset(reduce_coverage(spec, signature, device)), []
            ).append(device)
        if len(classes) <= 1:
            continue  # pure replicas: identical results, nothing to sum
        groups.append(
            AllReduceGroup(
                members=tuple(members),
                output_dsi=key,
                class_representatives=tuple(
                    cls[0] for cls in classes.values()
                ),
            )
        )
    return groups


def reduce_coverage(
    spec: PartitionSpec, signature: PhaseSignature, device: DeviceId
) -> Set[Tuple[int, ...]]:
    """Set of reduce-dimension slice tuples ``device`` accumulates locally.

    Across all temporal steps, a device covers some subset of the reduce
    dims' slices; slices outside this subset are contributed by its
    all-reduce group peers.
    """
    reduce_dims = tuple(sorted(signature.reduce_dims))
    return {
        evaluator(spec).tensor_dsi(device, signature.phase, t, reduce_dims)
        for t in range(spec.total_steps)
    }


def replication_groups(
    spec: PartitionSpec, phase: Phase, tensor: TensorRole, t: int = 0
) -> List[Tuple[DeviceId, ...]]:
    """Groups of devices holding identical copies of ``tensor`` at step ``t``.

    Only groups of size > 1 (true replication) are returned; the paper's
    Feature 2 asserts the temporal primitive alone never produces any.
    """
    by_dsi: Dict[Tuple[int, ...], List[DeviceId]] = {}
    for device in all_devices(spec.n_bits):
        key = evaluator(spec).tensor_dsi(device, phase, t, tensor.dims)
        by_dsi.setdefault(key, []).append(device)
    return [tuple(v) for _, v in sorted(by_dsi.items()) if len(v) > 1]


def _nearest_holder(holders: List[DeviceId], dst: DeviceId) -> DeviceId:
    """The holder sharing the longest device-id prefix with ``dst``.

    Leading id bits select the node (see :mod:`repro.cluster.topology`), so
    preferring a long common prefix keeps replicated-tensor transfers on
    intra-node links whenever a same-node holder exists.
    """

    def common_prefix(device: DeviceId) -> int:
        length = 0
        for a, b in zip(device.bits, dst.bits):
            if a != b:
                break
            length += 1
        return length

    return max(holders, key=common_prefix)


def ring_transfers(
    spec: PartitionSpec, signature: PhaseSignature
) -> List[RingTransfer]:
    """All inter-step point-to-point transfers of one phase.

    For each input tensor and each step transition ``t -> t+1``, a device
    needing a block it does not already hold receives it from a device that
    held it at step ``t``.  The accumulated output tensor (``dW`` in
    Gradient) is treated the same way: when its DSI changes between steps,
    the partial accumulation is redistributed (paper Sec. 3.3, "dW
    redistribution").
    """
    dsis = evaluator(spec)
    devices = all_devices(spec.n_bits)
    transfers: List[RingTransfer] = []
    phase = signature.phase
    reduce_dims = tuple(sorted(signature.reduce_dims))
    output_name = signature.output.name

    def coverage(device: DeviceId, through: int) -> Tuple[Tuple[int, ...], ...]:
        """Reduce-dim slices a device has accumulated through step ``through``.

        An accumulated output block is identified not by its DSI alone but
        also by which partial sums it contains: a redistribution must source
        a block with the receiver's own past coverage, or partial sums
        would be double-counted (spatially split reduce dims).
        """
        return tuple(
            sorted(
                {
                    dsis.tensor_dsi(device, phase, tau, reduce_dims)
                    for tau in range(through + 1)
                }
            )
        )

    moving: Sequence[TensorRole] = list(signature.inputs) + [signature.output]
    for tensor in moving:
        is_output = tensor.name == output_name
        for t in range(spec.total_steps - 1):
            holders: Dict[Tuple, List[DeviceId]] = {}
            for device in devices:
                key: Tuple = dsis.tensor_dsi(device, phase, t, tensor.dims)
                if is_output:
                    key = (key, coverage(device, t))
                holders.setdefault(key, []).append(device)
            for device in devices:
                current = dsis.tensor_dsi(device, phase, t, tensor.dims)
                needed: Tuple = dsis.tensor_dsi(
                    device, phase, t + 1, tensor.dims
                )
                if needed == current:
                    continue
                if is_output:
                    needed = (needed, coverage(device, t))
                candidates = holders.get(needed)
                if not candidates:
                    raise RuntimeError(
                        f"no holder for {tensor.name} {needed} at step {t} "
                        f"under {spec}"
                    )
                src = _nearest_holder(candidates, device)
                transfers.append(
                    RingTransfer(tensor=tensor.name, src=src, dst=device, step=t)
                )
    return transfers


def transfers_by_step(
    spec: PartitionSpec, signature: PhaseSignature
) -> Mapping[int, List[RingTransfer]]:
    """Group :func:`ring_transfers` by the step they overlap with."""
    grouped: Dict[int, List[RingTransfer]] = {
        t: [] for t in range(max(spec.total_steps - 1, 0))
    }
    for transfer in ring_transfers(spec, signature):
        grouped[transfer.step].append(transfer)
    return grouped


def epilogue_transfers(
    spec: PartitionSpec,
    tensor: TensorRole,
    from_phase: Phase,
    to_phase: Phase,
) -> List[RingTransfer]:
    """Cross-phase redistribution overlapped with the last step of a phase.

    If a tensor's distribution at the end of ``from_phase`` does not match
    what ``to_phase`` expects at its first step, it is redistributed during
    the final computation step (paper Table 1 rows at ``t = 2^k - 1``, e.g.
    ``W`` at the end of Backward realigning with the start of Forward).
    Returned transfers carry ``step = total_steps - 1``.
    """
    dsis = evaluator(spec)
    devices = all_devices(spec.n_bits)
    last = spec.total_steps - 1
    holders: Dict[Tuple[int, ...], List[DeviceId]] = {}
    for device in devices:
        key = dsis.tensor_dsi(device, from_phase, last, tensor.dims)
        holders.setdefault(key, []).append(device)
    transfers: List[RingTransfer] = []
    for device in devices:
        current = dsis.tensor_dsi(device, from_phase, last, tensor.dims)
        needed = dsis.tensor_dsi(device, to_phase, 0, tensor.dims)
        if needed == current:
            continue
        candidates = holders.get(needed)
        if not candidates:
            raise RuntimeError(
                f"no holder for {tensor.name} DSI {needed} at end of "
                f"{from_phase} under {spec}"
            )
        src = _nearest_holder(candidates, device)
        transfers.append(
            RingTransfer(tensor=tensor.name, src=src, dst=device, step=last)
        )
    return transfers


def phase_transition_aligned(
    spec: PartitionSpec,
    earlier: Phase,
    later: Phase,
    dims: Sequence[Dim],
) -> bool:
    """Feature 3 check: a tensor stashed at the end of ``earlier`` lies
    exactly where the first step of ``later`` expects it, on every device."""
    dsis = evaluator(spec)
    last = spec.total_steps - 1
    for device in all_devices(spec.n_bits):
        stashed = dsis.tensor_dsi(device, earlier, last, dims)
        needed = dsis.tensor_dsi(device, later, 0, dims)
        if stashed != needed:
            return False
    return True


def weight_cycle_aligned(spec: PartitionSpec) -> bool:
    """Feature 3 check: ``W`` at Forward step 0 matches ``dW``/``W`` at the
    final Gradient step, so training iterations chain with no reshuffle."""
    dsis = evaluator(spec)
    last = spec.total_steps - 1
    w_dims = (Dim.N, Dim.K)
    for device in all_devices(spec.n_bits):
        start = dsis.tensor_dsi(device, Phase.FORWARD, 0, w_dims)
        end = dsis.tensor_dsi(device, Phase.GRADIENT, last, w_dims)
        if start != end:
            return False
    return True
