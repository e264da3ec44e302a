"""Dimension and training-phase vocabulary for tensor partitioning.

The paper formulates tensor partitioning around the linear operator
``O[B, M, K] = sum_N I[B, M, N] * W[N, K]`` (Eq. 1), whose four dimensions are

* ``B`` — batch,
* ``M`` — sequence,
* ``N`` — input hidden (summed over in Forward),
* ``K`` — output hidden (summed over in Backward).

Training repeatedly executes three phases per operator (paper Sec. 3.1):
Forward, Backward (input-gradient) and Gradient (weight-gradient).  Every
dimension maintains one Dimension Slice Index (DSI) per phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Tuple


class Dim(enum.Enum):
    """A partitionable dimension of the canonical linear operator."""

    B = "B"
    M = "M"
    N = "N"
    K = "K"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dim.{self.value}"

    def __lt__(self, other: "Dim") -> bool:
        return _DIM_ORDER[self] < _DIM_ORDER[other]


_DIM_ORDER = {Dim.B: 0, Dim.M: 1, Dim.N: 2, Dim.K: 3}

#: All dimensions, in canonical order.
ALL_DIMS: Tuple[Dim, ...] = (Dim.B, Dim.M, Dim.N, Dim.K)


class Phase(enum.Enum):
    """A training phase of an operator."""

    FORWARD = "F"
    BACKWARD = "B"
    GRADIENT = "G"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Phase.{self.value}"


#: All phases, in execution order within one training iteration.
ALL_PHASES: Tuple[Phase, ...] = (Phase.FORWARD, Phase.BACKWARD, Phase.GRADIENT)


@dataclass(frozen=True)
class TensorRole:
    """A tensor participating in one phase of an operator.

    Attributes:
        name: Symbolic tensor name (``I``, ``W``, ``O``, ``dO``, ``dI``, ``dW``).
        dims: Dimensions the tensor contains, in layout order.
        is_output: Whether the phase produces (rather than consumes) it.
    """

    name: str
    dims: Tuple[Dim, ...]
    is_output: bool = False


@dataclass(frozen=True)
class PhaseSignature:
    """Dataflow signature of one phase of the linear operator.

    Attributes:
        phase: Which training phase this signature describes.
        inputs: Consumed tensors.
        output: Produced tensor.
        reduce_dims: Dimensions mathematically summed over in this phase.
            Partitioning a reduce dim *spatially* forces an all-reduce of the
            output among the devices holding different slices of it
            (paper Sec. 2.2).
    """

    phase: Phase
    inputs: Tuple[TensorRole, ...]
    output: TensorRole
    reduce_dims: FrozenSet[Dim]

    @property
    def tensors(self) -> Tuple[TensorRole, ...]:
        return self.inputs + (self.output,)


def linear_phase_signatures() -> Mapping[Phase, PhaseSignature]:
    """Dataflow signatures of the canonical linear operator (paper Eq. 1).

    Forward:  ``O[B,M,K]  = sum_N I[B,M,N] W[N,K]``
    Backward: ``dI[B,M,N] = sum_K dO[B,M,K] W[N,K]``
    Gradient: ``dW[N,K]   = sum_{B,M} I[B,M,N] dO[B,M,K]``
    """
    tensor_i = TensorRole("I", (Dim.B, Dim.M, Dim.N))
    tensor_w = TensorRole("W", (Dim.N, Dim.K))
    tensor_o = TensorRole("O", (Dim.B, Dim.M, Dim.K), is_output=True)
    tensor_do = TensorRole("dO", (Dim.B, Dim.M, Dim.K))
    tensor_di = TensorRole("dI", (Dim.B, Dim.M, Dim.N), is_output=True)
    tensor_dw = TensorRole("dW", (Dim.N, Dim.K), is_output=True)
    return {
        Phase.FORWARD: PhaseSignature(
            phase=Phase.FORWARD,
            inputs=(tensor_i, tensor_w),
            output=tensor_o,
            reduce_dims=frozenset({Dim.N}),
        ),
        Phase.BACKWARD: PhaseSignature(
            phase=Phase.BACKWARD,
            inputs=(tensor_do, tensor_w),
            output=tensor_di,
            reduce_dims=frozenset({Dim.K}),
        ),
        Phase.GRADIENT: PhaseSignature(
            phase=Phase.GRADIENT,
            inputs=(tensor_i, tensor_do),
            output=tensor_dw,
            reduce_dims=frozenset({Dim.B, Dim.M}),
        ),
    }


#: Signatures of the canonical linear operator, keyed by phase.
LINEAR_SIGNATURES: Mapping[Phase, PhaseSignature] = linear_phase_signatures()


def batched_matmul_signatures() -> Mapping[Phase, PhaseSignature]:
    """Signatures of attention's batched matmuls.

    Unlike the linear operator, the "weight"-side tensor (keys/values or
    attention scores) carries the batch dimension, and its gradient sums
    only over ``M``:

    Forward:  ``O[B,M,K]  = sum_N I[B,M,N] W[B,N,K]``
    Backward: ``dI[B,M,N] = sum_K dO[B,M,K] W[B,N,K]``
    Gradient: ``dW[B,N,K] = sum_M I[B,M,N] dO[B,M,K]``
    """
    tensor_i = TensorRole("I", (Dim.B, Dim.M, Dim.N))
    tensor_w = TensorRole("W", (Dim.B, Dim.N, Dim.K))
    tensor_o = TensorRole("O", (Dim.B, Dim.M, Dim.K), is_output=True)
    tensor_do = TensorRole("dO", (Dim.B, Dim.M, Dim.K))
    tensor_di = TensorRole("dI", (Dim.B, Dim.M, Dim.N), is_output=True)
    tensor_dw = TensorRole("dW", (Dim.B, Dim.N, Dim.K), is_output=True)
    return {
        Phase.FORWARD: PhaseSignature(
            phase=Phase.FORWARD,
            inputs=(tensor_i, tensor_w),
            output=tensor_o,
            reduce_dims=frozenset({Dim.N}),
        ),
        Phase.BACKWARD: PhaseSignature(
            phase=Phase.BACKWARD,
            inputs=(tensor_do, tensor_w),
            output=tensor_di,
            reduce_dims=frozenset({Dim.K}),
        ),
        Phase.GRADIENT: PhaseSignature(
            phase=Phase.GRADIENT,
            inputs=(tensor_i, tensor_do),
            output=tensor_dw,
            reduce_dims=frozenset({Dim.M}),
        ),
    }


#: Signatures of attention batched matmuls, keyed by phase.
BATCHED_MATMUL_SIGNATURES: Mapping[Phase, PhaseSignature] = batched_matmul_signatures()
