"""The three plans every comparison draws from (paper Sec. 6.1).

``conventional`` is PrimePar's own search without the temporal primitive,
under the same ``alpha``: the Alpa stand-in, an exact ablation of
PrimePar's contribution and at least as strong as Alpa's ILP over the
conventional space on this substrate.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..cluster.profiler import FabricProfiler
from ..core.optimizer.deadline import Deadline
from ..core.optimizer.strategy import PrimeParOptimizer, SearchResult
from ..graph.graph import ComputationGraph
from ..sim.engine import EventDrivenSimulator
from .megatron import MegatronResult, best_megatron_plan


class Portfolio(NamedTuple):
    primepar: SearchResult
    conventional: SearchResult
    megatron: MegatronResult


def portfolio(
    profiler: FabricProfiler,
    graph: ComputationGraph,
    *,
    global_batch: int,
    n_layers: int,
    alpha: float,
    beam: Optional[int] = None,
    jobs: int = 1,
    deadline: Optional[Deadline] = None,
) -> Portfolio:
    """Search both spaces under one ``alpha``, ``beam``, ``jobs`` and
    ``deadline``, and keep Megatron's fastest degree at ``n_layers``."""
    primepar, conventional = (
        PrimeParOptimizer(
            profiler, alpha=alpha, include_temporal=temporal, beam=beam,
            jobs=jobs,
        ).optimize(graph, n_layers=n_layers, deadline=deadline)
        for temporal in (True, False)
    )
    megatron = best_megatron_plan(
        EventDrivenSimulator(profiler), graph, global_batch, n_layers
    )
    return Portfolio(primepar, conventional, megatron)
