"""Ring sends of the temporal primitive (paper Sec. 3.3, Table 1).

The one sender derivation of the package: Eq. 7 prices it
(:meth:`~repro.core.cost.communication.CommunicationCostModel.ring_sends`),
the event engine replays it, and the numpy virtual cluster
(:mod:`repro.runtime.linear_exec`) executes it.  It reads a whole
:class:`~repro.core.steps.StepTable` at once and depends on the device-id
bit width alone, never on the fabric.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

from .dims import ALL_DIMS, Phase, PhaseSignature, TensorRole
from .steps import DsiTable, StepTable


def ring_senders(
    table: StepTable,
    dsis: DsiTable,
    signatures: Mapping[Phase, PhaseSignature],
    phase: Phase,
) -> Tuple[Tuple[TensorRole, ...], np.ndarray]:
    """Every spec's ring senders in ``phase``.

    For each moving tensor and step transition ``t -> t+1``, a device
    needing a block it does not hold receives it from a device that held
    it at ``t``.  Holders are grouped by a mixed-radix key of the tensor's
    DSIs; an accumulated output block's key also names the partial sums
    it holds (its reduce-dim coverage so far), so a redistribution never
    double-counts.  Of the holders, the sender is the one sharing the
    longest device-id prefix with the receiver, the first in rank order on
    a tie.  The same rule, from the end of Backward to the start of
    Forward, realigns a matmul-like operator's weight (Forward's second
    input) during Backward's final step.

    Returns:
        ``(entries, src)``: ``entries`` are the moving tensors in schedule
        order: the phase's inputs, then its output, then (Backward of a
        matmul-like operator) the weight's realignment with Forward.
        ``src[spec, step, entry, dst rank]`` is the rank sending the
        entry's block to ``dst`` during temporal step ``step``; -1 where
        nothing is sent.  Input blocks travel during the step before their
        use; the accumulated output's redistribution and the weight
        realignment during the step after (the final one).

    Raises:
        RuntimeError: If a needed block has no holder.
    """
    signature = signatures[phase]
    counts = table.slice_counts
    n_devices = 1 << table.n_bits
    total = table.total_steps
    n_steps = int(total.max(initial=1))
    preference = _preference(table.n_bits)
    # ``dsi[t]``: every spec's DSIs at step ``t``, ``[spec, rank, dim]``.
    dsi = dsis.at_points([(phase, t) for t in range(n_steps)]).swapaxes(0, 1)
    entries = list(signature.inputs) + [signature.output]
    forward = signatures[Phase.FORWARD]
    realign = phase is Phase.BACKWARD and len(forward.inputs) == 2
    if realign:
        entries.append(forward.inputs[1])
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
            src[:, t, e] = _nearest(
                preference, held[..., None], needed[..., None], movers,
                tensor.name,
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
        src[:, t + 1, out] = _nearest(
            preference,
            np.concatenate([held[..., None], covered], axis=2),
            np.concatenate([needed[..., None], covered], axis=2),
            movers,
            output.name,
        )

    if realign:
        weight = entries[-1]
        held = key(dsis.at(Phase.BACKWARD, -1), weight.dims)
        needed = key(dsis.at(Phase.FORWARD, 0), weight.dims)
        src[np.arange(table.n_specs), total - 1, len(entries) - 1] = _nearest(
            preference, held[..., None], needed[..., None], needed != held,
            weight.name,
        )
    return tuple(entries), src


@lru_cache(maxsize=None)
def _preference(n_bits: int) -> np.ndarray:
    """``[dst, holder]`` 1 + the leading device-id bits the two ranks
    share (``n_bits + 1`` for a rank and itself).  Leading bits select the
    node (see :mod:`repro.cluster.topology`), so the longest shared prefix
    keeps a replicated block's transfer on intra-node links whenever a
    same-node holder exists."""
    ranks = np.arange(1 << n_bits)
    differ = ranks[:, None] ^ ranks[None, :]
    xor_length = np.zeros_like(differ)
    for b in range(n_bits):
        xor_length += (differ >> b) > 0
    preference = (n_bits + 1 - xor_length).astype(np.int8)
    preference.flags.writeable = False
    return preference


def _nearest(
    preference: np.ndarray,
    held: np.ndarray,
    needed: np.ndarray,
    movers: np.ndarray,
    tensor: str,
) -> np.ndarray:
    """``[spec, rank]`` sender of each mover's block: of the ranks whose
    ``held`` key (``[spec, rank, part]``) equals the mover's ``needed``
    key, the one sharing the longest device-id prefix with the mover, the
    first on a tie; -1 for ranks that do not move."""
    spec, rank = np.nonzero(movers)
    match = (held[spec] == needed[spec, rank][:, None]).all(axis=2)
    sender = (match * preference[rank]).argmax(axis=1)
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
