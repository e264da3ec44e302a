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

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import legacy_intra  # noqa: E402  (frozen per-spec Eq. 7 assembly)

from repro import (
    EventDrivenSimulator,
    FabricProfiler,
    Planner3D,
    PrimeParOptimizer,
    build_block_graph,
    v100_cluster,
)
from repro import cache as diskcache
from repro.core.cost.intra import IntraOperatorCostModel
from repro.core.dims import Dim
from repro.core.optimizer.candidates import build_candidates, type_key
from repro.core.optimizer.parallel import parallel_map, resolve_jobs
from repro.core.spec import PartitionSpec
from repro.graph.graph import ComputationGraph
from repro.graph.models import OPT_6_7B
from repro.graph.operators import OpKind, OperatorSpec
from repro.parallel3d.pipeline import PipelinePlan, pipeline_iteration_events


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
    """Every batched cost equals the frozen per-spec assembly, temporal
    specs included, and ``cost`` is ``cost_batch`` on one spec."""
    model = IntraOperatorCostModel(profiler8, alpha=2e-11)
    checked_temporal = 0
    for node in small_block.nodes:
        cset = build_candidates(node, 3, model)
        batched = model.cost_batch(node, cset.specs)
        for spec, cost in zip(cset.specs, batched):
            reference = legacy_intra.intra_cost(profiler8, 2e-11, node, spec)
            assert repr(cost) == repr(reference), (node.name, spec)
            assert model.cost(node, spec) == cost
            if spec.has_temporal:
                checked_temporal += 1
    assert checked_temporal > 0  # temporal specs went through the comparison


#: A fresh OPT-6.7B batch-32 search on 4 devices, printing its cost bits.
_FRESH_SEARCH = """
from repro import FabricProfiler, PrimeParOptimizer, build_block_graph, v100_cluster
from repro.graph.models import OPT_6_7B
optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(4)))
graph = build_block_graph(OPT_6_7B.block_shape(batch=32))
print(optimizer.optimize(graph).cost.hex())
"""


def _reshaped_cost():
    """One optimizer searches OPT-6.7B at batch 8, then at batch 32: same
    operator names, other shapes.  Returns the batch-32 cost bits."""
    optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(4)))
    optimizer.optimize(build_block_graph(OPT_6_7B.block_shape(batch=8)))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=32))
    return optimizer.optimize(graph).cost.hex()


def _fresh_cost():
    optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(4)))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=32))
    return optimizer.optimize(graph).cost.hex()


@pytest.mark.usefixtures("no_disk_cache")
def test_reshaped_operator_priced_afresh():
    """Eq. 7 keyed by operator name priced batch 32 with batch 8's
    costs (0.090 instead of 0.341); a reused optimizer must answer what a
    fresh one does."""
    assert _reshaped_cost() == _fresh_cost()


def test_reshaped_operator_cache_entry_is_right(tmp_path, monkeypatch):
    """The batch-32 candidate sets a reused optimizer stores on disk carry
    the right costs: a fresh process reading that cache answers what a
    cold search in an empty cache does."""
    import subprocess

    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "reused"))
    _reshaped_cost()
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "empty"))
    cold = _fresh_cost()
    env = dict(os.environ, PRIMEPAR_CACHE_DIR=str(tmp_path / "reused"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_SEARCH],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == [cold]


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


def _bits(result):
    """A search result's plan and the exact bits of its costs."""
    return (
        _fingerprint(result.plan),
        result.cost.hex(),
        None if result.model_cost is None else result.model_cost.hex(),
    )


@pytest.mark.parametrize("n_devices, beam", [(8, None), (16, 32)])
def test_warm_search_builds_no_evaluator(tmp_path, monkeypatch, n_devices, beam):
    """A warm search reads candidate sets pickled as steps and boundary
    arrays: same plan and cost bits as the cold search that wrote them,
    and no candidate set is rebuilt.  (The package has no per-spec DSI
    evaluator left to build: DSIs come from step tables only.)"""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    cold = _search(n_devices, beam=beam)
    warm = _search(n_devices, beam=beam)
    warm_counters = {e["name"] for e in warm.telemetry["metrics"]["counters"]}
    assert "candidates.builds" not in warm_counters
    assert _bits(warm) == _bits(cold)


def test_old_schema_candidates_rebuilt(tmp_path, monkeypatch):
    """A candidate entry written under schema 2 is discarded as stale and
    rebuilt, and the search's answer does not move."""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    cold = _search(8, n_layers=1)
    paths = sorted(tmp_path.glob("candidates-*.pkl"))
    assert paths
    for path in paths:
        entry = pickle.loads(path.read_bytes())
        path.write_bytes(pickle.dumps({"version": 2, "value": entry["value"]}))
    again = _search(8, n_layers=1)
    counters = {
        (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
        for e in again.telemetry["metrics"]["counters"]
    }
    stale = (("cause", "stale"), ("kind", "candidates"))
    assert counters[("cache.discards", stale)] == len(paths)
    assert sum(
        value for (name, _), value in counters.items()
        if name == "candidates.builds"
    ) == len(paths)
    assert _bits(again) == _bits(cold)
    for path in paths:
        assert pickle.loads(path.read_bytes())["version"] == diskcache.CACHE_VERSION


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


def test_memoize_hits_misses_and_checks_types(tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    calls = []

    def compute():
        calls.append(1)
        return [1, 2]

    parts = ("unit-key", 1)
    assert diskcache.memoize("unit", parts, compute, list) == ([1, 2], False)
    assert diskcache.memoize("unit", parts, compute, list) == ([1, 2], True)
    assert len(calls) == 1
    # The file kind is separate from the key's own kind.
    key = diskcache.content_key(*parts)
    assert [p.name for p in tmp_path.glob("*.pkl")] == [f"unit-{key[:40]}.pkl"]
    # A loaded value that is not ``expect`` is a miss, recomputed and stored.
    assert diskcache.memoize("unit", parts, lambda: (3,), tuple) == ((3,), False)
    assert diskcache.memoize("unit", parts, compute, tuple) == ((3,), True)
    # Uncacheable key parts compute without touching the disk.
    assert diskcache.memo_key("unit-key", object()) is None
    assert diskcache.memoize(
        "unit", ("unit-key", object()), compute, list
    ) == ([1, 2], False)
    assert len(calls) == 2
    assert diskcache.entry_count() == 1


def test_encoded_parts_splice_into_the_same_digest():
    """A part encoded once keys exactly like the value it encodes; a part
    that cannot be encoded stays itself, so the key is still refused."""
    fc = _pinned_operator()
    parts = ("unit-key", (fc, fc), {"a": (1, 2.5)}, b"raw")
    spliced = tuple(diskcache.encoded(part) for part in parts)
    assert all(isinstance(p, diskcache.Encoded) for p in spliced)
    assert diskcache.content_key(*spliced) == diskcache.content_key(*parts)
    # Raw bytes and their encoding stay distinct parts.
    assert diskcache.content_key(*parts[:-1], b"b3:raw") != (
        diskcache.content_key(*spliced)
    )
    unencodable = object()
    assert diskcache.encoded(unencodable) is unencodable
    assert diskcache.memo_key("unit-key", diskcache.encoded(unencodable)) is None


def test_simulator_encodes_its_graph_once(monkeypatch):
    """The ``simreport`` and ``lowering`` keys of one graph share its
    encoding, and a new graph is encoded afresh."""
    graph = ComputationGraph(nodes=[_pinned_operator()], edges=[])
    simulator = EventDrivenSimulator(FabricProfiler(v100_cluster(4)))
    encoded = []
    real = diskcache.encoded
    monkeypatch.setattr(
        diskcache, "encoded", lambda value: encoded.append(value) or real(value)
    )
    first = simulator._graph_parts(graph)
    assert simulator._graph_parts(graph) == first
    assert len(encoded) == 2
    assert first == (real(graph.nodes), real(graph.edges))
    other = ComputationGraph(nodes=[_pinned_operator()], edges=[])
    assert simulator._graph_parts(other) == first
    assert len(encoded) == 4


#: Full content key of one fixed input per disk kind.  A digest that moves
#: colds every warm cache of that kind: bump ``CACHE_VERSION`` on purpose
#: instead of letting a refactor move it.
PINNED_KEYS = {
    "profiler": "be8df2354f6256d2785e52865d91b88d7aa04c54ca20b29af618e701a7e7305f",
    "candidates": "4aabc269b2fac709554aadff72a5837fe7e4432601a5e21eee01743b6c9021d0",
    "simreport": "62e5a5a32c99f3144fbe5cb01d494d4521ba65d4e4c0643cc2aa074976ff9768",
    "pipesim": "9e959902b18fa11c93b2375387ab83cef3f21cdf1e6db6bf7d12207fbbf00d74",
    "lowering": "d8806d99d8a8c0d0bde7c009ef4ca21702e7788ed123d0b12d76d3e5998b0745",
}


def _pinned_operator():
    return OperatorSpec(
        name="fc",
        kind=OpKind.LINEAR,
        dim_axes={
            Dim.B: ("batch",),
            Dim.M: ("seq",),
            Dim.K: ("hidden",),
            Dim.N: ("ffn",),
        },
        axis_sizes={"batch": 8, "seq": 64, "hidden": 1024, "ffn": 4096},
    )


def _pinned_key_parts(kind):
    fc = _pinned_operator()
    topology = v100_cluster(4)
    return {
        "profiler": ("profiler-allreduce", topology, (0,)),
        "candidates": (
            "candidates", 1, type_key(fc), topology, 2e-11, True, True, None,
        ),
        "simreport": (
            "simreport", 3, (fc,), (), (("fc", "P2x2", 2),), 8, 1, topology,
        ),
        "lowering": (
            "lowering", 2, (fc,), (), (("fc", "P2x2", 2),), topology,
        ),
        "pipesim": (
            "pipesim", 1, PipelinePlan(2, 2), 1e-3, 2e-3, 4e6,
            topology.inter_link,
        ),
    }[kind]


def _fill_pinned(kind):
    """Run the code path that stores ``kind``'s pinned entry."""
    graph = ComputationGraph(nodes=[_pinned_operator()], edges=[])
    profiler = FabricProfiler(v100_cluster(4))
    if kind == "profiler":
        profiler.allreduce_model((0,))
    elif kind == "candidates":
        PrimeParOptimizer(profiler, alpha=2e-11).candidates_for(graph)
    elif kind == "simreport":
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        EventDrivenSimulator(profiler).run(graph, plan, 8)
    elif kind == "lowering":
        plan = {"fc": PartitionSpec.from_string("P2x2", 2)}
        EventDrivenSimulator(profiler).lower(graph, plan)
    else:
        pipeline_iteration_events(
            PipelinePlan(2, 2), 1e-3, 2e-3, 4e6,
            profiler.topology.inter_link,
        )


@pytest.mark.parametrize("kind", sorted(PINNED_KEYS))
def test_cache_keys_are_pinned(kind, tmp_path, monkeypatch):
    """Warm caches stay warm: each kind's key and entry file are fixed."""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path))
    key = PINNED_KEYS[kind]
    assert diskcache.content_key(*_pinned_key_parts(kind)) == key
    _fill_pinned(kind)
    assert [p.name for p in tmp_path.glob(f"{kind}-*.pkl")] == [
        f"{kind}-{key[:40]}.pkl"
    ]


#: Keys of a whole OPT-6.7B block (every operator kind, enum and nested
#: mapping the encoding meets): its ``lowering`` key as ``lower`` builds
#: it, two candidate ``_disk_key``s and a plan-store key, as the encoding
#: gave them before ``_canonical`` took its exact-type fast paths.
BLOCK_KEYS = {
    "lowering": "3f595e5cf924bd0e2e39a89b1f9d0586fd2367f185a2783ff112b7c5f26fd37d",
    "candidates L0.fc1": "1f69199d9b695f1b8f4446e18851a4e20f79328be75e9e1bb7fe2a93aeea0b87",
    "candidates L0.softmax": "c46fa4075385d1b0e833e09f03871cc69082f96605cb9306a676e5c8f8ccba55",
    "plan": "c58ca355cf1ed63f8a1e9ff455bcc1c8633ea4c57a390bd0f141a2b84ccd1953",
}


def test_block_graph_keys_are_pinned(monkeypatch):
    """The fast paths encode the bytes the ``isinstance`` chain did."""
    from repro.api import SearchRequest
    from repro.baselines.megatron import megatron_plan

    profiler = FabricProfiler(v100_cluster(8, gpus_per_node=4))
    graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
    keys = {}

    def capture(kind, key_parts, compute, expect):
        keys.setdefault(kind, diskcache.memo_key(*key_parts))
        return compute(), False

    monkeypatch.setattr(diskcache, "memoize", capture)
    EventDrivenSimulator(profiler).lower(
        graph, megatron_plan(graph, profiler.topology.n_bits, dp_degree=2)
    )
    optimizer = PrimeParOptimizer(profiler, alpha=2e-11, beam=48)
    for name in ("L0.fc1", "L0.softmax"):
        keys[f"candidates {name}"] = optimizer._disk_key(graph.node(name))
    keys["plan"] = SearchRequest.from_json(
        {"model": "opt-175b", "devices": 8, "batch": 16}
    ).cache_key()
    assert {kind: keys[kind] for kind in BLOCK_KEYS} == BLOCK_KEYS


def test_canonical_subclasses_keep_the_isinstance_chain():
    """A subclass of a fast-path type encodes as the chain says (an
    ``IntEnum`` as an ``int`` of its own type name, a ``str`` subclass as
    a string)."""
    import enum

    class Level(enum.IntEnum):
        LOW = 1

    class Name(str):
        pass

    assert diskcache.encoded(Level.LOW) == f"Level:{Level.LOW!r};".encode()
    assert diskcache.encoded(Name("ab")) == diskcache.encoded("ab")
    assert diskcache.encoded(True) != diskcache.encoded(1)
    assert diskcache.encoded(None) == b"NoneType:None;"


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
