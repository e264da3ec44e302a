"""Enumeration of the operator partition space.

The PrimePar space of an operator is the set of sequences of basic
partitions consuming exactly the cluster's device-id bits (paper Sec. 3.1).
The conventional (Megatron/Alpa) space is the subset containing no temporal
primitive — obtained with ``include_temporal=False`` — which makes baseline
comparisons an exact ablation of the paper's contribution.

Dims flattening several logical axes (an attention matmul's ``B`` over
``batch`` and ``heads``) may enumerate explicit target axes, producing grid
partitionings such as Megatron's head-aligned attention split.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from .dims import Dim
from .partitions import DimPartition, PartitionStep, Replicate, TemporalPartition
from .spec import PartitionSpec


def enumerate_sequences(
    n_bits: int,
    legal_dims: Sequence[Dim],
    include_temporal: bool = True,
    dim_limits: Optional[Mapping[Dim, int]] = None,
    axis_options: Optional[Mapping[Dim, Sequence[Optional[str]]]] = None,
    axis_capacities: Optional[Mapping[Tuple[Dim, Optional[str]], int]] = None,
    include_replicate: bool = False,
) -> Iterator[Tuple[PartitionStep, ...]]:
    """Yield every partition sequence consuming exactly ``n_bits`` bits.

    Args:
        n_bits: Device-id bits to consume.
        legal_dims: Dims the operator permits partitioning.
        include_temporal: Whether ``P_{2^k x 2^k}`` steps are allowed.
        dim_limits: Per-dim cap on total slices (a dim cannot be split
            beyond its size); temporal contributions count against
            ``M``/``N``/``K``.
        axis_options: Target-axis choices per dim (default ``(None,)`` — the
            operator's default axis).
        axis_capacities: Per (dim, axis) cap on that axis's split factor.
        include_replicate: Allow :class:`Replicate` steps (Megatron-style
            duplication of small operators across a model-parallel group).
    """
    limits = dim_limits or {}
    options = axis_options or {}
    capacities = axis_capacities or {}
    big = 1 << 62

    def slices_of(steps: Tuple[PartitionStep, ...], dim: Dim) -> int:
        count = 1
        for step in steps:
            if isinstance(step, DimPartition) and step.dim is dim:
                count *= 2
            elif isinstance(step, TemporalPartition) and dim in (Dim.M, Dim.N, Dim.K):
                count *= step.side
        return count

    def axis_factor(steps: Tuple[PartitionStep, ...], dim: Dim, axis: Optional[str]) -> int:
        factor = 1
        for step in steps:
            if (
                isinstance(step, DimPartition)
                and step.dim is dim
                and step.axis == axis
            ):
                factor *= 2
        return factor

    def expand(prefix: Tuple[PartitionStep, ...], remaining: int):
        if remaining == 0:
            yield prefix
            return
        for dim in legal_dims:
            if slices_of(prefix, dim) * 2 > limits.get(dim, big):
                continue
            for axis in options.get(dim, (None,)):
                cap = capacities.get((dim, axis), big)
                if axis_factor(prefix, dim, axis) * 2 > cap:
                    continue
                yield from expand(
                    prefix + (DimPartition(dim, axis=axis),), remaining - 1
                )
        if include_replicate:
            yield from expand(prefix + (Replicate(),), remaining - 1)
        if include_temporal:
            for k in range(1, remaining // 2 + 1):
                step = TemporalPartition(k)
                if all(
                    slices_of(prefix, d) * step.side <= limits.get(d, big)
                    for d in (Dim.M, Dim.N, Dim.K)
                ):
                    yield from expand(prefix + (step,), remaining - 2 * k)

    yield from expand((), n_bits)


def enumerate_specs(
    n_bits: int,
    legal_dims: Sequence[Dim],
    allow_temporal: bool = True,
    include_temporal: bool = True,
    dim_limits: Optional[Mapping[Dim, int]] = None,
    axis_options: Optional[Mapping[Dim, Sequence[Optional[str]]]] = None,
    axis_capacities: Optional[Mapping[Tuple[Dim, Optional[str]], int]] = None,
    include_replicate: bool = False,
) -> List[PartitionSpec]:
    """Materialise the partition space of one operator as specs.

    ``allow_temporal`` is the operator's capability; ``include_temporal``
    is the search-space switch (False reproduces the conventional space).
    """
    temporal = allow_temporal and include_temporal
    specs = []
    for steps in enumerate_sequences(
        n_bits,
        legal_dims,
        include_temporal=temporal,
        dim_limits=dim_limits,
        axis_options=axis_options,
        axis_capacities=axis_capacities,
        include_replicate=include_replicate,
    ):
        specs.append(
            PartitionSpec(
                steps, n_bits, legal_dims=legal_dims, allow_temporal=allow_temporal
            )
        )
    return specs


def space_size(n_bits: int, n_legal_dims: int, include_temporal: bool = True) -> int:
    """Closed-form count of sequences (no limits, single-axis dims)."""
    counts = [1] + [0] * n_bits
    for used in range(1, n_bits + 1):
        total = n_legal_dims * counts[used - 1]
        if include_temporal:
            k = 1
            while 2 * k <= used:
                total += counts[used - 2 * k]
                k += 1
        counts[used] = total
    return counts[n_bits]
