"""The spatial-temporal primitive ``P_{2^k x 2^k}`` in closed form (test oracle).

This module states the paper's analytic results about the primitive —
Eq. 4-6 (DSI schedules), Table 1 (ring senders) and Features 1-3 — as
directly evaluable functions.  The test suite cross-checks them against
the numeric derivations of ``tests/schedule_oracle.py``, which treat the
primitive with no special-casing, and through it against the package's
bulk DSIs and ring sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import schedule_oracle as analysis
from repro.core.dims import Dim, LINEAR_SIGNATURES, Phase
from repro.core.partitions import TemporalPartition
from repro.core.spec import PartitionSpec


@dataclass(frozen=True)
class SquareCoord:
    """A position in the logical ``2^k x 2^k`` device square."""

    row: int
    col: int

    def wrap(self, side: int) -> "SquareCoord":
        return SquareCoord(self.row % side, self.col % side)


def forward_dsi(row: int, col: int, t: int, k: int) -> Dict[Dim, int]:
    """Paper Eq. 4."""
    side = 1 << k
    return {
        Dim.M: row % side,
        Dim.N: (row + col + t) % side,
        Dim.K: col % side,
    }


def backward_dsi(row: int, col: int, t: int, k: int) -> Dict[Dim, int]:
    """Paper Eq. 5."""
    side = 1 << k
    return {
        Dim.M: row % side,
        Dim.N: (row + col - 1) % side,
        Dim.K: (col + t) % side,
    }


def gradient_dsi(row: int, col: int, t: int, k: int) -> Dict[Dim, int]:
    """Paper Eq. 6."""
    side = 1 << k
    delta = 1 if t == side - 1 else 0
    return {
        Dim.M: (row + t) % side,
        Dim.N: (row + col - 1 + delta) % side,
        Dim.K: (col - 1 + delta) % side,
    }


_DSI_FUNCTIONS = {
    Phase.FORWARD: forward_dsi,
    Phase.BACKWARD: backward_dsi,
    Phase.GRADIENT: gradient_dsi,
}


def primitive_dsi(phase: Phase, row: int, col: int, t: int, k: int) -> Dict[Dim, int]:
    """DSIs of sub-operator at square position ``(row, col)``, step ``t``."""
    return _DSI_FUNCTIONS[phase](row, col, t, k)


def table1_sender(
    phase: Phase, tensor: str, t: int, receiver: SquareCoord, k: int
) -> Optional[SquareCoord]:
    """Sender coordinates per paper Table 1, or ``None`` if no transfer.

    ``t`` indexes the computation step the ring communication overlaps with.
    The received block is consumed at step ``t + 1`` (for ``W`` at the last
    Backward step and ``dW`` at the last Gradient step, it realigns the
    tensor for the next phase).
    """
    side = 1 << k
    if not 0 <= t < side:
        raise ValueError(f"step {t} outside [0, {side})")
    r, c = receiver.row, receiver.col
    last = side - 1
    if phase is Phase.FORWARD:
        if t < last:
            if tensor == "I":
                return SquareCoord(r, c + 1).wrap(side)
            if tensor == "W":
                return SquareCoord(r + 1, c).wrap(side)
        return None
    if phase is Phase.BACKWARD:
        if t < last:
            if tensor == "dO":
                return SquareCoord(r, c + 1).wrap(side)
            if tensor == "W":
                return SquareCoord(r - 1, c + 1).wrap(side)
        elif tensor == "W":
            return SquareCoord(r, c + 1).wrap(side)
        return None
    # Gradient phase
    if t < side - 2:
        if tensor == "I":
            return SquareCoord(r + 1, c - 1).wrap(side)
        if tensor == "dO":
            return SquareCoord(r + 1, c).wrap(side)
    elif t == side - 2:
        if tensor == "I":
            return SquareCoord(r + 1, c).wrap(side)
        if tensor == "dO":
            return SquareCoord(r + 1, c + 1).wrap(side)
    elif tensor == "dW":
        return SquareCoord(r, c + 1).wrap(side)
    return None


def pure_primitive_spec(k: int) -> PartitionSpec:
    """A spec consisting of a single ``P_{2^k x 2^k}`` on ``2^{2k}`` devices."""
    return PartitionSpec((TemporalPartition(k),), n_bits=2 * k)


def check_collective_free(spec: PartitionSpec) -> bool:
    """Feature 1: no phase of the linear operator requires all-reduce."""
    return all(
        not analysis.allreduce_groups(spec, sig)
        for sig in LINEAR_SIGNATURES.values()
    )


def check_no_replication(spec: PartitionSpec) -> bool:
    """Feature 2: no tensor of any phase is replicated at any step."""
    for signature in LINEAR_SIGNATURES.values():
        for tensor in signature.tensors:
            for t in range(spec.total_steps):
                if analysis.replication_groups(spec, signature.phase, tensor, t):
                    return False
    return True


def check_phase_alignment(spec: PartitionSpec) -> bool:
    """Feature 3: stashed tensors align across phases and the weight cycle
    closes (Forward step 0 matches Gradient final step)."""
    i_dims = (Dim.B, Dim.M, Dim.N)
    do_dims = (Dim.B, Dim.M, Dim.K)
    return (
        analysis.phase_transition_aligned(
            spec, Phase.FORWARD, Phase.GRADIENT, i_dims
        )
        and analysis.phase_transition_aligned(
            spec, Phase.BACKWARD, Phase.GRADIENT, do_dims
        )
        and analysis.weight_cycle_aligned(spec)
    )


def verify_features(k: int) -> Tuple[bool, bool, bool]:
    """Check Features 1-3 for a pure ``P_{2^k x 2^k}`` partition."""
    spec = pure_primitive_spec(k)
    return (
        check_collective_free(spec),
        check_no_replication(spec),
        check_phase_alignment(spec),
    )
