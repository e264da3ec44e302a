"""Operator specifications for transformer computation graphs.

Each operator maps its tensors onto the canonical partition dimensions
``B/M/N/K`` (paper Eq. 1) and declares which dimensions may be partitioned
and whether the spatial-temporal primitive applies (paper Sec. 3.2):

* matmul-like operators (linear layers, attention batched matmuls) expose
  all four canonical dims and support ``P_{2^k x 2^k}``;
* softmax may not partition its reduction (last) dim;
* normalisation partitions any dim, at the price of small expectation /
  parameter-gradient all-reduces;
* element-wise operators partition any of their dims.

Canonical dims are flattenings of *logical axes* (see
:mod:`repro.graph.tensors`), which edges use to relate producer and consumer
layouts across reshapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.dims import (
    ALL_DIMS,
    BATCHED_MATMUL_SIGNATURES,
    Dim,
    LINEAR_SIGNATURES,
    Phase,
    PhaseSignature,
    TensorRole,
)
from .tensors import DTYPE_BYTES, flat_size


class OpKind(enum.Enum):
    """Operator families with distinct partitioning and cost behaviour."""

    LINEAR = "linear"          # trainable weight, matmul-like
    MATMUL = "matmul"          # attention batched matmul, no trainable weight
    SOFTMAX = "softmax"
    LAYERNORM = "layernorm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"


#: Which slot names each kind consumes.  ``W``-slots of MATMUL ops are fed
#: by edges (activations), while LINEAR ``W``-slots are parameters.
_MATMUL_LIKE = (OpKind.LINEAR, OpKind.MATMUL)

#: Canonical dims of the forward output tensor per kind.
_OUTPUT_DIMS: Mapping[OpKind, Tuple[Dim, ...]] = {
    OpKind.LINEAR: (Dim.B, Dim.M, Dim.K),
    OpKind.MATMUL: (Dim.B, Dim.M, Dim.K),
    OpKind.SOFTMAX: (Dim.B, Dim.M, Dim.K),
    OpKind.LAYERNORM: (Dim.B, Dim.M, Dim.K),
    OpKind.ELEMENTWISE: (Dim.B, Dim.M, Dim.K),
    OpKind.EMBEDDING: (Dim.B, Dim.M, Dim.K),
}


@dataclass(frozen=True)
class SlotSpec:
    """An input slot of an operator.

    Attributes:
        name: Slot name (``I``, ``W``, ``I2``).
        fwd_dims: Canonical dims of the consumed tensor in Forward.
        grad_phase: Phase producing the gradient w.r.t. this slot.
    """

    name: str
    fwd_dims: Tuple[Dim, ...]
    grad_phase: Phase


def _pointwise_signatures(dims: Tuple[Dim, ...]) -> Mapping[Phase, PhaseSignature]:
    """Signatures of an element-wise operator over canonical ``dims``."""
    x = TensorRole("I", dims)
    y = TensorRole("O", dims, is_output=True)
    dy = TensorRole("dO", dims)
    dx = TensorRole("dI", dims, is_output=True)
    empty = frozenset()
    return {
        Phase.FORWARD: PhaseSignature(Phase.FORWARD, (x,), y, empty),
        Phase.BACKWARD: PhaseSignature(Phase.BACKWARD, (dy, x), dx, empty),
        Phase.GRADIENT: PhaseSignature(Phase.GRADIENT, (dy, x), dx, empty),
    }


@dataclass(frozen=True)
class OperatorSpec:
    """One operator node's static description.

    Attributes:
        name: Unique node name within the graph.
        kind: Operator family.
        dim_axes: Ordered logical axes flattened into each canonical dim the
            operator uses.  Missing dims have size 1.
        axis_sizes: Sizes of all logical axes the operator references.
        pointwise_flops: FLOPs per output element for non-matmul kinds.
        weight_dtype_bytes: Parameter storage width (fp16 by default).
    """

    name: str
    kind: OpKind
    dim_axes: Mapping[Dim, Tuple[str, ...]]
    axis_sizes: Mapping[str, int]
    pointwise_flops: float = 2.0
    weight_dtype_bytes: int = DTYPE_BYTES
    #: Whether the backward pass needs the forward inputs stashed (false for
    #: residual adds, whose gradient is the identity).
    stash_inputs: bool = True

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------

    def dim_size(self, dim: Dim) -> int:
        axes = self.dim_axes.get(dim, ())
        return flat_size(axes, self.axis_sizes)

    @property
    def present_dims(self) -> Tuple[Dim, ...]:
        return tuple(d for d in ALL_DIMS if self.dim_axes.get(d))

    @property
    def output_dims(self) -> Tuple[Dim, ...]:
        return tuple(d for d in _OUTPUT_DIMS[self.kind] if d in self.present_dims)

    @property
    def is_matmul_like(self) -> bool:
        return self.kind in _MATMUL_LIKE

    # ------------------------------------------------------------------
    # partitioning rules (paper Sec. 3.2)
    # ------------------------------------------------------------------

    @property
    def legal_dims(self) -> Tuple[Dim, ...]:
        if self.kind in _MATMUL_LIKE:
            legal = [d for d in self.present_dims]
            # The head-embed contraction of attention matmuls is declared by
            # giving N the axis "embed"; the paper forbids partitioning it.
            if self.kind is OpKind.MATMUL and self.dim_axes.get(Dim.N) == ("embed",):
                legal.remove(Dim.N)
            if self.kind is OpKind.MATMUL and self.dim_axes.get(Dim.K) == ("embed",):
                legal.remove(Dim.K)
            return tuple(legal)
        if self.kind is OpKind.SOFTMAX:
            # Never partition the dim softmax normalises over (K here).
            return tuple(d for d in self.present_dims if d is not Dim.K)
        return self.present_dims

    def partition_axis_options(self, dim: Dim) -> Tuple[Optional[str], ...]:
        """Target-axis choices for partitioning ``dim``.

        Attention operators' ``B`` flattens ``(batch, heads)``; both the
        batch split (data parallelism) and the head split (Megatron-style
        model parallelism) are meaningful grid targets.  Other dims default
        to the operator's first axis with remaining capacity.
        """
        axes = self.dim_axes.get(dim, ())
        if dim is Dim.B and set(axes) == {"batch", "heads"}:
            return ("batch", "heads")
        return (None,)

    def axis_capacities(self) -> Dict[Tuple[Dim, Optional[str]], int]:
        """Per (dim, axis) split-factor caps for explicit axis targets."""
        caps: Dict[Tuple[Dim, Optional[str]], int] = {}
        for dim, axes in self.dim_axes.items():
            for axis in axes:
                caps[(dim, axis)] = self.axis_sizes[axis]
        return caps

    @property
    def allow_temporal(self) -> bool:
        """Only matmul-like operators admit ``P_{2^k x 2^k}``.

        The primitive additionally requires all of ``M``, ``N``, ``K`` to be
        partitionable (it splits each into ``2^k`` slices).
        """
        if self.kind not in _MATMUL_LIKE:
            return False
        return all(d in self.legal_dims for d in (Dim.M, Dim.N, Dim.K))

    # ------------------------------------------------------------------
    # dataflow
    # ------------------------------------------------------------------

    def signatures(self) -> Mapping[Phase, PhaseSignature]:
        if self.kind is OpKind.LINEAR:
            return LINEAR_SIGNATURES
        if self.kind is OpKind.MATMUL:
            return BATCHED_MATMUL_SIGNATURES
        return _pointwise_signatures(self.output_dims)

    def slots(self) -> Tuple[SlotSpec, ...]:
        if self.kind is OpKind.LINEAR:
            return (
                SlotSpec("I", (Dim.B, Dim.M, Dim.N), Phase.BACKWARD),
                SlotSpec("W", (Dim.N, Dim.K), Phase.GRADIENT),
            )
        if self.kind is OpKind.MATMUL:
            return (
                SlotSpec("I", (Dim.B, Dim.M, Dim.N), Phase.BACKWARD),
                SlotSpec("W", (Dim.B, Dim.N, Dim.K), Phase.GRADIENT),
            )
        return (SlotSpec("I", self.output_dims, Phase.BACKWARD),)

    def slot(self, name: str) -> SlotSpec:
        for slot in self.slots_with_aux():
            if slot.name == name:
                return slot
        raise KeyError(f"{self.name} has no slot {name!r}")

    def slots_with_aux(self) -> Tuple[SlotSpec, ...]:
        """All slots including the second input of binary element-wise ops."""
        slots = list(self.slots())
        if self.kind is OpKind.ELEMENTWISE:
            slots.append(SlotSpec("I2", self.output_dims, Phase.BACKWARD))
        return tuple(slots)

    @property
    def has_parameters(self) -> bool:
        return self.kind in (OpKind.LINEAR, OpKind.LAYERNORM, OpKind.EMBEDDING)

    def parameter_elements(self) -> int:
        """Total trainable parameter count of the operator."""
        if self.kind is OpKind.LINEAR:
            return self.dim_size(Dim.N) * self.dim_size(Dim.K)
        if self.kind is OpKind.LAYERNORM:
            return 2 * self.dim_size(Dim.K)
        if self.kind is OpKind.EMBEDDING:
            return self.axis_sizes.get("vocab", 0) * self.dim_size(Dim.K)
        return 0

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------

    def output_elements(self) -> int:
        size = 1
        for dim in self.output_dims:
            size *= self.dim_size(dim)
        return size

    def flops(self, phase: Phase) -> float:
        """Total FLOPs of one phase of the *unpartitioned* operator."""
        if self.is_matmul_like:
            product = 1
            for dim in ALL_DIMS:
                product *= self.dim_size(dim)
            return 2.0 * product
        if phase is Phase.GRADIENT:
            if self.kind is OpKind.LAYERNORM:
                return 2.0 * self.output_elements()
            return 0.0
        multiplier = {
            OpKind.SOFTMAX: 4.0,
            OpKind.LAYERNORM: 6.0,
            OpKind.ELEMENTWISE: self.pointwise_flops,
            OpKind.EMBEDDING: 1.0,
        }[self.kind]
        return multiplier * self.output_elements()

    def io_bytes(self, phase: Phase) -> float:
        """Approximate device-memory traffic of one phase (unpartitioned)."""
        signature = self.signatures()[phase]
        total = 0
        for tensor in signature.tensors:
            size = 1
            for dim in tensor.dims:
                size *= self.dim_size(dim)
            total += size
        return float(total * DTYPE_BYTES)

    def __str__(self) -> str:
        return f"{self.name}[{self.kind.value}]"
