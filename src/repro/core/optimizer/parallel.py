"""Process-pool fan-out for the strategy-search pipeline.

Candidate-set builds (one per operator type), a 3D sweep's plan searches
and fault scenarios are independent, CPU-bound, pure functions — exactly
the shape a ``ProcessPoolExecutor`` parallelizes well under the GIL.
Results are merged in *submission order* (``executor.map``), so the
outcome is deterministic and bit-identical to the serial path regardless
of which worker finishes first.

Workers must receive picklable payloads; everything in the search stack
(operators, specs, profilers, fitted models) is plain dataclasses/numpy and
pickles cleanly.

Interrupts (Ctrl-C, a serving daemon draining on SIGTERM) hard-stop the
pool instead of waiting for queued work: pending tasks are cancelled,
running workers are terminated and reaped, and the interrupt propagates.
The disk cache stays intact — :func:`repro.cache.store` writes via
temp-file + atomic rename, so a worker killed mid-store leaves at worst an
orphaned ``*.tmp`` file, never a corrupt entry.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ...obs.logsetup import get_logger
from ...obs.metrics import MetricsRegistry, Scope, current_scope, get_registry
from ...obs.spans import get_collector, span, telemetry_scope
from ..cost.intra import IntraOperatorCostModel
from .candidates import CandidateSet, build_candidates

_T = TypeVar("_T")
_R = TypeVar("_R")

logger = get_logger("core.optimizer.parallel")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a jobs request: ``None``/1 → serial, 0 → all cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _telemetry_task(
    payload: Tuple[Callable[[_T], _R], _T],
) -> Tuple[_R, Dict[str, object], List[Dict[str, object]]]:
    """Worker shim: run one task in its own telemetry scope.

    The scope captures exactly what this task did; the parent merges its
    snapshot back in submission order, so counter and histogram values
    come out identical to the serial path no matter which worker finishes
    first.
    """
    fn, item = payload
    with telemetry_scope() as scope, span(getattr(fn, "__name__", "task")):
        result = fn(item)
    return result, scope.registry.snapshot(), scope.collector.export()


def _fresh_root_scope() -> None:
    """Pool initializer: a forked worker's own root scope, not a copy of
    the forking thread's, whose locks another thread may hold."""
    current_scope.set(Scope(MetricsRegistry()))


def parallel_map(
    fn: Callable[[_T], _R], items: Sequence[_T], jobs: Optional[int]
) -> List[_R]:
    """Map ``fn`` over ``items``, fanning out to processes when ``jobs > 1``.

    Results come back in input order — merging is order-independent by
    construction.  ``fn`` must be a module-level (picklable) callable.
    Worker-side telemetry (counters, histograms, spans) is shipped back
    with each result and merged into the parent's registry in submission
    order, so fanned-out runs report the same metric values as serial ones.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    registry = get_registry()
    collector = get_collector()
    base = collector.now() if collector is not None else 0.0
    results: List[_R] = []
    with span("parallel_map", tasks=len(items), jobs=jobs):
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(items)), initializer=_fresh_root_scope
        )
        try:
            outcomes = list(
                pool.map(_telemetry_task, [(fn, item) for item in items])
            )
        except BaseException:
            _terminate_pool(pool)
            raise
        pool.shutdown()
        for index, (result, snapshot, spans) in enumerate(outcomes):
            registry.merge_snapshot(snapshot)
            if collector is not None:
                collector.merge(spans, at=base, proc=f"worker{index}")
            results.append(result)
    return results


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose results will never be consumed.

    ``ProcessPoolExecutor``'s context manager *waits* for all submitted
    work on exit, so a ``KeyboardInterrupt`` (or a serving daemon's drain)
    would block until every queued search task finished — and an interrupt
    delivered only to the parent would leave workers running after it
    died.  Cancel what has not started, terminate what has, and reap the
    workers so none leak.
    """
    # Snapshot the workers first: shutdown() clears ``_processes`` even
    # with ``wait=False``, which would leave nothing to terminate.
    process_map = getattr(pool, "_processes", None) or {}
    processes = list(process_map.values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:
            pass
    logger.warning(
        "parallel_map interrupted: cancelled pending tasks, terminated "
        "%d worker(s)", len(processes),
    )


def build_candidates_task(
    payload: Tuple,
) -> CandidateSet:
    """Worker: build one operator type's candidate set.

    Payload: ``(op, n_bits, profiler, alpha, include_temporal,
    partition_batch, beam)`` — the intra model is rebuilt in the worker so a
    fresh (empty) per-process cache never skews results.
    """
    (
        op,
        n_bits,
        profiler,
        alpha,
        include_temporal,
        partition_batch,
        beam,
    ) = payload
    intra_model = IntraOperatorCostModel(profiler, alpha=alpha)
    return build_candidates(
        op,
        n_bits,
        intra_model,
        include_temporal=include_temporal,
        partition_batch=partition_batch,
        beam=beam,
    )
