"""Two-tier plan store: bounded in-memory LRU over the persistent disk cache.

The serving daemon answers most traffic from memory: plan payloads are
small (a dict of spec strings plus costs), so a few hundred of them fit in
a handful of megabytes, and an LRU keyed by the same content hashes the
disk cache uses means a restart only costs one disk read per key — not a
re-search.

Tier order on :meth:`PlanStore.get`: in-memory LRU (``plan_store.*``
counters), then :mod:`repro.cache` disk entries of kind ``"plan"``
(``cache.*`` counters, as everywhere else), with disk hits promoted into
memory.  :meth:`PlanStore.put` writes through to both tiers.

:func:`default_store` holds the process-wide instance shared by any
server or :class:`~repro.serve.service.PlanService` built without an
explicit store.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from .. import cache as diskcache
from ..cache import MemoryLRU
from ..obs.metrics import counter
from ..obs.reqtrace import trace_event

#: Disk-cache kind for serialized plan payloads.
PLAN_KIND = "plan"

#: Metric namespace of the in-memory tier.
NAMESPACE = "plan_store"

#: Default LRU capacity (entries) when none is configured.
DEFAULT_LRU_SIZE = 256


class PlanStore:
    """Shared, always-warm plan storage for the serving daemon.

    Thread-safe; one instance is shared by every request thread.  Values
    must be picklable (the disk tier pickles them) — the service stores
    plain JSON-shaped dicts.
    """

    def __init__(
        self, max_entries: int = DEFAULT_LRU_SIZE, use_disk: bool = True
    ) -> None:
        self.memory = MemoryLRU(max_entries, namespace=NAMESPACE)
        self.use_disk = use_disk

    def get(self, key: str) -> Tuple[Optional[Any], Optional[str]]:
        """``(value, tier)`` where tier is ``"memory"``/``"disk"``, or
        ``(None, None)`` on a full miss.

        Every lookup lands on ``plan_store.lookups{tier=...}`` (tier
        ``memory``/``disk``/``miss``) and, when a request trace is
        active, a ``plan_store.lookup`` trace event.
        """
        value = self.memory.get(key)
        if value is not None:
            counter(f"{NAMESPACE}.lookups", tier="memory").inc()
            trace_event("plan_store.lookup", tier="memory")
            return value, "memory"
        if self.use_disk:
            value = diskcache.load(PLAN_KIND, key)
            if value is not None:
                self.memory.put(key, value)
                counter(f"{NAMESPACE}.lookups", tier="disk").inc()
                trace_event("plan_store.lookup", tier="disk")
                return value, "disk"
        counter(f"{NAMESPACE}.lookups", tier="miss").inc()
        trace_event("plan_store.lookup", tier="miss")
        return None, None

    def put(self, key: str, value: Any) -> None:
        """Write-through insert into both tiers (disk is best-effort)."""
        self.memory.put(key, value)
        if self.use_disk:
            diskcache.store(PLAN_KIND, key, value)

    def stats(self) -> Dict[str, int]:
        """The memory tier's hit/miss/eviction/occupancy numbers."""
        return self.memory.stats()


_default: Optional[PlanStore] = None
_default_lock = threading.Lock()


def default_store(max_entries: int = DEFAULT_LRU_SIZE) -> PlanStore:
    """The process-wide store, created on first call.

    ``max_entries`` only takes effect on that first call (the size is
    fixed for the store's lifetime); later callers share the instance.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = PlanStore(max_entries=max_entries)
        return _default


def reset_default_store() -> None:
    """Drop the process-wide store (test isolation)."""
    global _default
    with _default_lock:
        _default = None
