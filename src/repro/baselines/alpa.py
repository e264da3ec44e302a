"""Alpa baseline: optimal search over the conventional (spatial-only) space.

Alpa (Zheng et al., OSDI'22) automatically searches intra-operator
parallelism with an ILP over per-operator sharding choices.  The paper
observes Alpa performs on par with Megatron-LM because both are (near-)
optimal within the conventional partition space.  Our stand-in searches the
*same cost model* over the paper's space with the temporal primitive
removed — an exact ablation of PrimePar's contribution, and at least as
strong as the original baseline on this substrate.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.profiler import FabricProfiler
from ..core.optimizer.strategy import PrimeParOptimizer


def alpa_optimizer(
    profiler: FabricProfiler, beam: Optional[int] = None
) -> PrimeParOptimizer:
    """A conventional-space optimizer (the Alpa stand-in)."""
    return PrimeParOptimizer(profiler, include_temporal=False, beam=beam)
