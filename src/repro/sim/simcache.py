"""Disk memoization of simulated iteration reports.

A simulated iteration is a pure function of (graph, plan, batch, cluster,
cost-model parameters), so its :class:`~repro.sim.executor.IterationReport`
can be keyed by a content hash and persisted through :mod:`repro.cache` —
the same store (and ``PRIMEPAR_CACHE*`` knobs) that already memoizes
candidate sets and profiler fits.  Warm sweeps and benchmark reruns then
skip the event loop entirely; pickle round-trips every float bit-exactly,
so a cached report is indistinguishable from a fresh one.

Entries carry the telemetry the simulation would have emitted (kernel
counts, heap and rebalance tallies) so a cache hit replays the same counter
increments and a warm run's metrics snapshot stays comparable to a cold
one.  Keys are refused (``None``) for anything
:func:`repro.cache.content_key` cannot canonically encode.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from .. import cache as diskcache
from ..obs.metrics import counter

#: Bump when report layout or engine semantics change meaning.
SIM_SCHEMA = 2

#: Cache kind for iteration reports (file prefix in the cache directory).
KIND = "simreport"


def _plan_fingerprint(plan: Mapping[str, Any]) -> Tuple:
    """A canonical, order-independent encoding of a partition plan."""
    return tuple(
        sorted((name, str(spec), spec.n_bits) for name, spec in plan.items())
    )


def report_key(
    profiler,
    graph,
    plan: Mapping[str, Any],
    global_batch: int,
    n_layers: int,
) -> Optional[str]:
    """Content hash for one simulated iteration, or ``None`` if uncacheable."""
    try:
        return diskcache.content_key(
            KIND,
            SIM_SCHEMA,
            tuple(graph.nodes),
            tuple(graph.edges),
            _plan_fingerprint(plan),
            int(global_batch),
            int(n_layers),
            profiler.topology,
        )
    except TypeError:
        return None


def load(key: str) -> Optional[Dict[str, Any]]:
    """Fetch a cached ``{"report", "spliceable", "stats"}`` entry."""
    entry = diskcache.load(KIND, key)
    hit = isinstance(entry, dict) and "report" in entry
    counter("sim.report_cache", outcome="hit" if hit else "miss").inc()
    return entry if hit else None


def store(
    key: str,
    report,
    spliceable: bool,
    stats: Optional[Dict[str, float]] = None,
) -> None:
    """Persist one simulated iteration (best effort, never fatal)."""
    diskcache.store(
        KIND,
        key,
        {"report": report, "spliceable": spliceable, "stats": dict(stats or {})},
    )
    counter("sim.report_cache", outcome="store").inc()
