"""Per-operator candidate sets for the optimization algorithm.

A node's candidates are its enumerated partition space (paper Sec. 3) plus
the canonical baseline sequences (:mod:`.canonical`).  A canonical extra
that only respells an enumerated spec's grid axis (same steps, same grid
events on every dim) is that spec's *twin*: identical at every point an
edge can observe, so it is dropped in the twin's favour.  The enumerator
itself never yields two boundary-equivalent specs (EXPERIMENTS, "Collapse
census"), and were it to, a duplicate state would only enlarge the DP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...graph.operators import OperatorSpec
from ...obs.metrics import counter
from ...obs.spans import span
from ..dims import Dim
from ..layout import grid_events
from ..partitions import DimPartition
from ..spec import PartitionSpec
from ..space import enumerate_specs
from ..cost.inter import SliceTables, boundary_ids
from ..cost.intra import IntraOperatorCostModel
from .canonical import canonical_specs


#: Bump when a :class:`CandidateSet`'s fields change meaning; part of the
#: candidates disk-cache key, so older entries are never read.
CANDIDATE_SCHEMA = 1


@dataclass
class CandidateSet:
    """Candidate partition states of one operator.

    Attributes:
        op: The operator.
        specs: The enumerated specs, then the canonical extras that are not
            an earlier spec's twin (all of them, or a beam of them).
        intra: Eq. 7 totals per spec, shape ``(P,)``.
        heap_ids: The specs' boundary layouts as per-axis heap ids,
            :func:`~repro.core.cost.inter.boundary_ids`' ``(P, 5,
            n_devices, n_axes)`` array in a compact unsigned dtype.
        raw_size: Enumerated specs plus every canonical extra not equal to
            one, twins included (paper's ``P``).
        cache_token: Content identity: same token ⇒ same op type and
            specs.  Memoization key material for edge cost matrices — two
            sets with equal tokens produce identical inter-cost matrices
            for a structurally identical edge.  A digest of the type key,
            bit width and spellings (which round-trip through
            ``from_string``), so the memo hashes it once, not every spec's
            steps per lookup.

    The decoder (:attr:`tables`) is built on first use and never pickled,
    so a priced set pickles to the bytes of a fresh one.
    """

    op: OperatorSpec
    specs: List[PartitionSpec]
    intra: np.ndarray
    heap_ids: np.ndarray
    raw_size: int
    cache_token: str

    def __len__(self) -> int:
        return len(self.specs)

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state.pop("_tables", None)
        return state

    @property
    def tables(self) -> SliceTables:
        """The specs' slice-id decoder, shared by every edge priced."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = SliceTables(self.op, self.heap_ids)
            self.__dict__["_tables"] = tables
        return tables


def candidate_token(op: OperatorSpec, specs: Sequence[PartitionSpec]) -> str:
    """:attr:`CandidateSet.cache_token` of ``specs`` for ``op``."""
    text = repr((
        type_key(op),
        specs[0].n_bits if specs else 0,
        [str(spec) for spec in specs],
    ))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _spelling(spec: PartitionSpec) -> Tuple:
    """``spec``'s steps with every dim partition's explicit axis dropped."""
    return tuple(
        step.dim if isinstance(step, DimPartition) else step
        for step in spec.steps
    )


def _same_grid(op: OperatorSpec, a: PartitionSpec, b: PartitionSpec) -> bool:
    """Whether ``a`` and ``b`` have equal grid events on every dim."""
    return all(
        grid_events(op, a, dim) == grid_events(op, b, dim)
        for dim in op.dim_axes
    )


def inject_canonical(
    op: OperatorSpec,
    specs: List[PartitionSpec],
    extras: Sequence[PartitionSpec],
) -> Tuple[List[int], int]:
    """Append the ``extras`` to ``specs`` that no earlier spec stands for.

    An extra equal to an earlier spec, or its *twin* (the same steps up to
    axis spelling, and equal :func:`~repro.core.layout.grid_events` on
    every dim, hence the same boundary layouts and intra cost), is not
    appended; the earlier spec is protected in its place.

    Returns:
        ``(protected, twins)``: per extra, the index of the spec standing
        for it, and how many extras were twins.
    """
    by_spelling: Dict[Tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        by_spelling.setdefault(_spelling(spec), []).append(i)
    protected = []
    twins = 0
    for extra in extras:
        same = by_spelling.setdefault(_spelling(extra), [])
        match = next((i for i in same if specs[i] == extra), None)
        if match is None:
            match = next(
                (i for i in same if _same_grid(op, specs[i], extra)), None
            )
            twins += match is not None
        if match is None:
            match = len(specs)
            specs.append(extra)
            same.append(match)
        protected.append(match)
    return protected, twins


def operator_dim_limits(op: OperatorSpec) -> Dict[Dim, int]:
    """A dim cannot be split into more slices than its size."""
    return {dim: max(op.dim_size(dim), 1) for dim in Dim}


def build_candidates(
    op: OperatorSpec,
    n_bits: int,
    intra_model: IntraOperatorCostModel,
    include_temporal: bool = True,
    partition_batch: bool = True,
    beam: Optional[int] = None,
) -> CandidateSet:
    """Enumerate and cost one operator's partition space.

    Canonical extras join through :func:`inject_canonical`.  The kept
    specs' boundary layouts are decoded to per-axis heap ids in one bulk
    pass (:func:`~repro.core.cost.inter.boundary_ids`) and kept with the
    set, so edge pricing slices them instead of decoding.

    Args:
        op: The operator node.
        n_bits: Cluster device-id bits.
        intra_model: Eq. 7 evaluator (carries the memory weight ``alpha``).
        include_temporal: Search-space switch; False reproduces the
            conventional (Megatron/Alpa) space.
        partition_batch: When False, the batch dim is excluded — the 3D
            parallelism mode of paper Sec. 6.4 where data parallelism is
            controlled externally.
        beam: Keep only the ``beam`` cheapest specs by intra cost (first
            listed on a tie), plus the canonical ones — an approximation
            used to bound search time on large clusters.
    """
    legal = list(op.legal_dims)
    if not partition_batch and Dim.B in legal:
        legal.remove(Dim.B)
    specs = enumerate_specs(
        n_bits,
        legal,
        allow_temporal=op.allow_temporal,
        include_temporal=include_temporal,
        dim_limits=operator_dim_limits(op),
        axis_options={dim: op.partition_axis_options(dim) for dim in legal},
        axis_capacities=op.axis_capacities(),
        include_replicate=not op.is_matmul_like,
    )
    extras = canonical_specs(
        op,
        n_bits,
        include_temporal=include_temporal,
        partition_batch=partition_batch,
    )
    protected, twins = inject_canonical(op, specs, extras)
    if not specs:
        raise ValueError(
            f"operator {op.name} admits no partitioning over {n_bits} bits"
        )
    raw_size = len(specs) + twins
    with span("candidates.intra", op=op.name, specs=len(specs)):
        costs = np.array([c.total for c in intra_model.cost_batch(op, specs)])
    with span("candidates.classify", op=op.name, specs=raw_size):
        order = np.arange(len(specs))
        if beam is not None and len(specs) > beam:
            keep = set(np.argsort(costs, kind="stable")[:beam].tolist())
            # Canonical baseline specs survive the beam so the search is
            # never worse than the best Megatron configuration.
            keep.update(protected)
            order = np.array(sorted(keep))
        kept = [specs[i] for i in order]
        heap_ids = boundary_ids(op, kept)
    op_label = op.kind.name.lower()
    counter("candidates.builds", op=op_label).inc()
    counter("candidates.raw", op=op_label).inc(raw_size)
    counter("candidates.kept", op=op_label).inc(len(order))
    counter("candidates.pruned_equivalent", op=op_label).inc(twins)
    counter("candidates.beam_evicted", op=op_label).inc(len(specs) - len(order))
    return CandidateSet(
        op=op,
        specs=kept,
        intra=costs[order],
        heap_ids=heap_ids,
        raw_size=raw_size,
        cache_token=candidate_token(op, kept),
    )


def type_key(op: OperatorSpec) -> Tuple:
    """Nodes with equal type keys share candidate sets (stacked layers)."""
    return (
        op.kind,
        tuple(sorted((d.value, axes) for d, axes in op.dim_axes.items())),
        tuple(sorted(op.axis_sizes.items())),
        op.pointwise_flops,
        op.stash_inputs,
    )
