"""Equivalence and robustness of the parallel, cached search pipeline.

The perf work (batched intra costs, memoized edge matrices, process-pool
fan-out, persistent disk cache) must be *exactly* behaviour-preserving:
plans and costs bit-identical to the serial, cold-cache reference.  These
tests pin that property and the cache's never-crash failure handling.
"""

from __future__ import annotations

import logging
import os
import pickle

import numpy as np
import pytest

from repro import (
    FabricProfiler,
    Planner3D,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro import cache as diskcache
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.optimizer.candidates import build_candidates
from repro.core.optimizer.parallel import parallel_map, resolve_jobs
from repro.graph.models import OPT_6_7B


def _fingerprint(plan):
    return {name: spec.steps for name, spec in plan.items()}


def _search(n_devices, jobs=1, beam=None, n_layers=2):
    """One fresh search: new profiler, optimizer and model caches."""
    profiler = FabricProfiler(v100_cluster(n_devices))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    optimizer = PrimeParOptimizer(profiler, alpha=2e-11, beam=beam, jobs=jobs)
    return optimizer.optimize(graph, n_layers=n_layers)


# ----------------------------------------------------------------------
# batched intra costs
# ----------------------------------------------------------------------


def test_cost_batch_matches_scalar(small_block, profiler8):
    """Every batched cost equals the scalar path, temporal specs included."""
    batch_model = IntraOperatorCostModel(profiler8, alpha=2e-11)
    scalar_model = IntraOperatorCostModel(profiler8, alpha=2e-11)
    checked_temporal = 0
    for node in small_block.nodes:
        cset = build_candidates(node, 3, batch_model)
        batched = batch_model.cost_batch(node, cset.specs)
        for spec, cost in zip(cset.specs, batched):
            reference = scalar_model.cost(node, spec)
            assert cost == reference, (node.name, spec)
            if spec.has_temporal:
                checked_temporal += 1
    assert checked_temporal > 0  # temporal specs went through the comparison


# ----------------------------------------------------------------------
# equivalence: parallel and warm-cache searches vs. serial cold
# ----------------------------------------------------------------------


def test_search_equivalence_8_devices(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "serial"))
    reference = _search(8)
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = _search(8, jobs=4)
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "serial"))
    warm = _search(8)
    warm_parallel = _search(8, jobs=4)
    for other in (parallel, warm, warm_parallel):
        assert other.cost == reference.cost
        assert other.model_cost == reference.model_cost
        assert _fingerprint(other.plan) == _fingerprint(reference.plan)
    # The warm run actually hit the disk cache (candidates were persisted):
    # it built no candidate set, so no boundary matrices were computed either.
    assert diskcache.entry_count() > 0
    warm_counters = {e["name"] for e in warm.telemetry["metrics"]["counters"]}
    assert "cache.hits" in warm_counters
    assert "candidates.builds" not in warm_counters
    assert warm.stage_seconds["classify"] == 0.0 < reference.stage_seconds["classify"]


def test_search_equivalence_16_devices_beam(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "serial"))
    reference = _search(16, beam=32)
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = _search(16, jobs=4, beam=32)
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "serial"))
    warm = _search(16, beam=32)
    for other in (parallel, warm):
        assert other.cost == reference.cost
        assert other.model_cost == reference.model_cost
        assert _fingerprint(other.plan) == _fingerprint(reference.plan)


def test_repeat_search_uses_edge_memo(tmp_path, monkeypatch):
    """A second optimize() on one optimizer reuses memoized edge matrices."""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    profiler = FabricProfiler(v100_cluster(8))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    optimizer = PrimeParOptimizer(profiler, alpha=2e-11)
    first = optimizer.optimize(graph)
    assert len(optimizer._edge_memo) > 0
    second = optimizer.optimize(graph)
    assert second.cost == first.cost
    assert _fingerprint(second.plan) == _fingerprint(first.plan)


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "serial"))
    serial = Planner3D(OPT_6_7B, n_devices=8, global_batch=8).sweep("primepar")
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = Planner3D(
        OPT_6_7B, n_devices=8, global_batch=8, jobs=4
    ).sweep("primepar")
    assert len(serial) == len(parallel) > 0
    for a, b in zip(serial, parallel):
        assert a.config == b.config
        assert a.throughput == b.throughput
        assert a.iteration_latency == b.iteration_latency
        assert _fingerprint(a.plan) == _fingerprint(b.plan)


# ----------------------------------------------------------------------
# process-pool plumbing
# ----------------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_parallel_map_preserves_order():
    items = list(range(7))
    assert parallel_map(_square, items, 3) == [i * i for i in items]
    assert parallel_map(_square, items, 1) == [i * i for i in items]


def _square(x):
    return x * x


def _explode(x):
    raise ValueError(f"worker refused {x}")


def test_parallel_map_worker_exception_cleans_up_pool():
    """A worker exception propagates and leaves no live child processes."""
    import multiprocessing
    import time

    with pytest.raises(ValueError, match="worker refused"):
        parallel_map(_explode, [1, 2, 3, 4], 2)
    # The pool was hard-stopped, not leaked: children die promptly and
    # the next fan-out starts from a clean slate.
    deadline = time.monotonic() + 20.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    assert parallel_map(_square, [1, 2, 3], 2) == [1, 4, 9]


_INTERRUPT_SCRIPT = """\
import os
import sys
import time

from repro import cache
from repro.core.optimizer.parallel import parallel_map

OUT = sys.argv[1]


def task(i):
    # A completed cache write, then park: an interrupt must neither
    # corrupt this entry nor leave this worker process running.
    key = cache.content_key("interrupt", i)
    cache.store("interrupt", key, list(range(20000)))
    path = os.path.join(OUT, f"worker-{i}.pid")
    with open(path + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(120)
    return i


if __name__ == "__main__":
    parallel_map(task, [0, 1, 2], 3)
"""


def test_parallel_map_interrupt_terminates_workers(tmp_path):
    """Ctrl-C mid-fan-out: prompt exit, dead workers, intact cache.

    Regression for the pool-shutdown hang: ``ProcessPoolExecutor``'s
    context manager waits for all submitted work, so a KeyboardInterrupt
    used to block until every queued task finished and could leak
    workers.  ``parallel_map`` must instead cancel, terminate and join.
    """
    import signal
    import subprocess
    import sys
    import time

    script = tmp_path / "interrupt_fanout.py"
    script.write_text(_INTERRUPT_SCRIPT)
    cache_dir = tmp_path / "cache"
    env = dict(os.environ, PRIMEPAR_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("worker-*.pid"))) < 3:
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.05)
        worker_pids = [
            int(path.read_text()) for path in tmp_path.glob("worker-*.pid")
        ]
        proc.send_signal(signal.SIGINT)
        # Without termination the parent would sit in pool shutdown for
        # the full 120s worker sleep; with it, exit is prompt and dirty.
        assert proc.wait(timeout=30.0) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    deadline = time.monotonic() + 20.0
    alive = set(worker_pids)
    while alive and time.monotonic() < deadline:
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        time.sleep(0.05)
    assert not alive, f"leaked worker processes: {sorted(alive)}"
    # Every cache entry written before the interrupt unpickles cleanly.
    entries = list(cache_dir.glob("*.pkl"))
    assert len(entries) >= 3
    for path in entries:
        with open(path, "rb") as fh:
            assert pickle.load(fh) is not None


# ----------------------------------------------------------------------
# persistent cache robustness
# ----------------------------------------------------------------------


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    key = diskcache.content_key("unit", "payload", 7, (1.5, None))
    assert diskcache.load("unit", key) is None
    diskcache.store("unit", key, {"answer": 42})
    assert diskcache.load("unit", key) == {"answer": 42}
    assert diskcache.entry_count() == 1
    assert diskcache.total_bytes() > 0
    assert diskcache.clear() == 1
    assert diskcache.load("unit", key) is None


def test_content_key_rejects_unstable_values():
    with pytest.raises(TypeError):
        diskcache.content_key("unit", object())
    # Dict ordering must not matter.
    assert diskcache.content_key("unit", {"a": 1, "b": 2}) == diskcache.content_key(
        "unit", {"b": 2, "a": 1}
    )


def test_cache_corrupt_entry_recomputed(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    key = diskcache.content_key("unit", "x")
    diskcache.store("unit", key, [1, 2, 3])
    (path,) = tmp_path.glob("*.pkl")
    path.write_bytes(b"\x80garbage not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert diskcache.load("unit", key) is None
    assert any("discarding" in record.message for record in caplog.records)
    assert not path.exists()  # deleted, the caller recomputes
    diskcache.store("unit", key, [1, 2, 3])
    assert diskcache.load("unit", key) == [1, 2, 3]


def test_cache_stale_version_discarded(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    key = diskcache.content_key("unit", "y")
    diskcache.store("unit", key, "value")
    (path,) = tmp_path.glob("*.pkl")
    path.write_bytes(
        pickle.dumps({"version": diskcache.CACHE_VERSION + 1, "value": "value"})
    )
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        assert diskcache.load("unit", key) is None
    assert any("stale schema" in record.message for record in caplog.records)
    assert not path.exists()


def test_cache_disabled_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("PRIMEPAR_CACHE", "off")
    assert not diskcache.cache_enabled()
    key = diskcache.content_key("unit", "z")
    diskcache.store("unit", key, "value")
    assert diskcache.load("unit", key) is None
    assert diskcache.entry_count() == 0
    monkeypatch.setenv("PRIMEPAR_CACHE", "1")
    assert diskcache.cache_enabled()


def test_corrupt_candidate_entry_never_crashes_search(tmp_path, monkeypatch):
    """A trashed candidate-set entry is recomputed, not fatal."""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    reference = _search(8, n_layers=1)
    for path in tmp_path.glob("candidates-*.pkl"):
        path.write_bytes(b"not a pickle at all")
    again = _search(8, n_layers=1)
    assert again.cost == reference.cost
    assert _fingerprint(again.plan) == _fingerprint(reference.plan)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_cache_subcommand(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    key = diskcache.content_key("unit", "cli")
    diskcache.store("unit", key, np.arange(4))
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries: 1" in out
    assert main(["cache", "--clear"]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert diskcache.entry_count() == 0
