"""The plan-serving subsystem: store, coalescing, admission, HTTP contract.

Server tests drive a real in-process ``PlanServer`` bound to an ephemeral
port through the stdlib ``PlanClient`` — the same stack ``primepar serve``
runs — with a fresh metrics registry and cache directory per test so
hit/miss/coalescing counters are exact.
"""

from __future__ import annotations

import contextvars
import json
import math
import subprocess
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path

import pytest

from repro import cache as diskcache
from repro.cache import MemoryLRU
from repro.cluster.profiler import FabricProfiler
from repro.cluster.topology import v100_cluster
from repro.core.optimizer.deadline import Deadline, SearchDeadlineExceeded
from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import MODELS_BY_KEY
from repro.graph.transformer import build_block_graph
from repro.api import MAX_ALPHA, MAX_LAYERS, ExplainRequest, ValidationError
from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    PlanClient,
    PlanServer,
    PlanService,
    PlanStore,
    SearchRequest,
    ServeConfig,
    ServeError,
    SimulateRequest,
    SingleFlight,
)

MODEL = "opt-6.7b"


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A private disk-cache directory so tier provenance is deterministic."""
    monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


@pytest.fixture()
def registry():
    """A fresh metrics registry for the test's scope (a server started in
    it records here too)."""
    with use_registry(MetricsRegistry()) as fresh:
        yield fresh


def _scoped_thread(target) -> threading.Thread:
    """A thread that records telemetry into the calling test's scope (a
    new thread otherwise starts from the process scope)."""
    return threading.Thread(target=contextvars.copy_context().run, args=(target,))


def _service(**kwargs) -> PlanService:
    kwargs.setdefault("store", PlanStore(max_entries=8))
    kwargs.setdefault("admission", AdmissionController(max_concurrent=2))
    kwargs.setdefault("default_deadline", 120.0)
    return PlanService(**kwargs)


@pytest.fixture()
def server(fresh_cache, registry):
    instance = PlanServer(ServeConfig(port=0), service=_service()).start()
    yield instance
    instance.shutdown()


def _gate_search(service):
    """Replace ``service._run_search`` with one that blocks on an event.

    Returns ``(entered, release)``: ``entered`` fires once a search thread
    is inside the gate; setting ``release`` lets the real search proceed.
    """
    real = service._run_search
    entered, release = threading.Event(), threading.Event()

    def gated(params, deadline):
        entered.set()
        assert release.wait(timeout=60.0), "gated search never released"
        return real(params, deadline)

    service._run_search = gated
    return entered, release


def _direct_payload(params: SearchRequest):
    """What a direct ``PrimeParOptimizer`` run of ``params`` produces."""
    model = MODELS_BY_KEY[params.model]
    profiler = FabricProfiler(v100_cluster(params.devices))
    graph = build_block_graph(model.block_shape(batch=params.batch))
    optimizer = PrimeParOptimizer(
        profiler,
        alpha=params.alpha,
        include_temporal=params.include_temporal,
        beam=params.beam or None,
        jobs=1,
    )
    result = optimizer.optimize(graph, n_layers=model.n_layers)
    return result.cost, {n: str(s) for n, s in sorted(result.plan.items())}


# ----------------------------------------------------------------------
# MemoryLRU / PlanStore
# ----------------------------------------------------------------------


class TestMemoryLRU:
    def test_evicts_least_recently_used(self, registry):
        lru = MemoryLRU(2, namespace="t1")
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now oldest
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        stats = lru.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["max_entries"] == 2

    def test_hit_miss_counting(self, registry):
        lru = MemoryLRU(4, namespace="t2")
        assert lru.get("nope") is None
        lru.put("k", "v")
        assert lru.get("k") == "v"
        stats = lru.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_overwrite_keeps_one_entry_and_reaccounts_bytes(self, registry):
        lru = MemoryLRU(4, namespace="t3")
        lru.put("k", "x" * 10)
        small = lru.stats()["bytes"]
        lru.put("k", "x" * 10_000)
        stats = lru.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > small
        assert stats["evictions"] == 0

    def test_clear(self, registry):
        lru = MemoryLRU(4, namespace="t4")
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.clear() == 2
        stats = lru.stats()
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert lru.get("a") is None


class TestPlanStore:
    def test_write_through_and_disk_promotion(self, fresh_cache, registry):
        key = diskcache.content_key("plan", "store-test")
        first = PlanStore(max_entries=4)
        first.put(key, {"cost": 1.0})
        # A fresh store (cold memory, same disk) answers from disk once,
        # then promotes the entry into its own memory tier.
        second = PlanStore(max_entries=4)
        value, tier = second.get(key)
        assert (value, tier) == ({"cost": 1.0}, "disk")
        value, tier = second.get(key)
        assert (value, tier) == ({"cost": 1.0}, "memory")

    def test_memory_only_store_skips_disk(self, fresh_cache, registry):
        key = diskcache.content_key("plan", "volatile")
        volatile = PlanStore(max_entries=4, use_disk=False)
        volatile.put(key, {"cost": 2.0})
        assert volatile.get(key) == ({"cost": 2.0}, "memory")
        assert PlanStore(max_entries=4).get(key) == (None, None)

    def test_full_miss(self, fresh_cache, registry):
        store = PlanStore(max_entries=4)
        assert store.get("no-such-key") == (None, None)


# ----------------------------------------------------------------------
# SingleFlight
# ----------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_callers_share_one_computation(self, registry):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            assert release.wait(timeout=30.0)
            return {"value": 42}

        results = []

        def run():
            results.append(flight.run("k", compute, timeout=30.0))

        leader = _scoped_thread(run)
        leader.start()
        assert entered.wait(timeout=30.0)
        followers = [_scoped_thread(run) for _ in range(3)]
        for t in followers:
            t.start()
        deadline = time.monotonic() + 30.0
        while counter("serve.coalesced").value < 3:
            assert time.monotonic() < deadline, "followers never coalesced"
            time.sleep(0.005)
        release.set()
        for t in [leader, *followers]:
            t.join(timeout=30.0)
        assert len(calls) == 1
        assert len(results) == 4
        assert sorted(leader_flag for _, leader_flag in results) == [
            False, False, False, True,
        ]
        values = [value for value, _ in results]
        assert all(value is values[0] for value in values)  # same object
        # No leaked flight: the key is free, so the next call leads afresh.
        assert flight.run("k", lambda: "fresh") == ("fresh", True)

    def test_leader_exception_reaches_followers_and_releases_key(
        self, registry
    ):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()

        def boom():
            entered.set()
            assert release.wait(timeout=30.0)
            raise ValueError("search exploded")

        errors = []

        def run():
            try:
                flight.run("k", boom, timeout=30.0)
            except ValueError as exc:
                errors.append(str(exc))

        leader = _scoped_thread(run)
        leader.start()
        assert entered.wait(timeout=30.0)
        follower = _scoped_thread(run)
        follower.start()
        deadline = time.monotonic() + 30.0
        while counter("serve.coalesced").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        leader.join(timeout=30.0)
        follower.join(timeout=30.0)
        assert errors == ["search exploded", "search exploded"]
        # The key is free again: the next call recomputes fresh.
        value, leader_flag = flight.run("k", lambda: "recovered")
        assert (value, leader_flag) == ("recovered", True)

    def test_follower_timeout(self, registry):
        flight = SingleFlight()
        entered, release = threading.Event(), threading.Event()

        def slow():
            entered.set()
            assert release.wait(timeout=30.0)
            return "late"

        leader = threading.Thread(
            target=lambda: flight.run("k", slow)
        )
        leader.start()
        assert entered.wait(timeout=30.0)
        with pytest.raises(FutureTimeoutError):
            flight.run("k", slow, timeout=0.05)
        release.set()
        leader.join(timeout=30.0)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------


class TestAdmission:
    def test_slot_timeout_is_503_with_retry_after(self, registry):
        controller = AdmissionController(
            max_concurrent=1, max_queue=4, retry_after=2.5
        )
        holding, release = threading.Event(), threading.Event()

        def hold():
            with controller.admit():
                holding.set()
                assert release.wait(timeout=30.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(timeout=30.0)
        assert controller.active == 1
        with pytest.raises(AdmissionRejected) as err:
            with controller.admit(timeout=0.05):
                pass
        assert err.value.status == 503
        assert err.value.retry_after == 2.5
        release.set()
        holder.join(timeout=30.0)
        assert controller.active == 0

    def test_full_queue_is_429(self, registry):
        controller = AdmissionController(max_concurrent=1, max_queue=0)
        holding, release = threading.Event(), threading.Event()

        def hold():
            with controller.admit():
                holding.set()
                assert release.wait(timeout=30.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert holding.wait(timeout=30.0)
        # Slot busy and no queue allowed: immediate 429, no waiting.
        with pytest.raises(AdmissionRejected) as err:
            with controller.admit(timeout=30.0):
                pass
        assert err.value.status == 429
        release.set()
        holder.join(timeout=30.0)

    def test_free_slot_bypasses_queue_bound(self, registry):
        controller = AdmissionController(max_concurrent=1, max_queue=0)
        with controller.admit(timeout=0):
            assert controller.active == 1
        assert controller.active == 0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------


class TestSearchParams:
    """Search-body validation, through ``SearchRequest.from_json``."""

    def test_defaults_and_batch_resolution(self):
        params = SearchRequest.from_json({})
        assert params.model == MODEL
        assert params.devices == 8
        assert params.batch == 8  # max(8, min(8, 32))
        assert SearchRequest.from_json({"devices": 64}).batch == 32
        assert SearchRequest.from_json({"batch": 5}).batch == 5

    @pytest.mark.parametrize(
        "body",
        [
            {"model": "gpt-17"},
            {"devices": 3},
            {"devices": 1},
            {"devices": 8192},
            {"devices": True},
            {"devices": "8"},
            {"batch": -1},
            {"alpha": -1.0},
            {"alpha": "fast"},
            {"beam": -2},
            {"include_temporal": 1},
        ],
    )
    def test_rejects_malformed_bodies(self, body):
        with pytest.raises(ValidationError):
            SearchRequest.from_json(body)

    def test_cache_key_is_content_addressed(self):
        a = SearchRequest.from_json({"devices": 4})
        b = SearchRequest.from_json({"devices": 4})
        c = SearchRequest.from_json({"devices": 8})
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


class TestDeadline:
    def test_expires_and_raises_with_stage(self):
        deadline = Deadline(1e-9)
        time.sleep(0.001)
        assert deadline.expired()
        assert deadline.remaining() <= 0.0
        with pytest.raises(SearchDeadlineExceeded) as err:
            deadline.check("segment_dp")
        assert "segment_dp" in str(err.value)

    def test_generous_budget_passes(self):
        deadline = Deadline(60.0)
        deadline.check("start")
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0

    def test_optimizer_honors_deadline(self, profiler4, small_block):
        optimizer = PrimeParOptimizer(profiler4)
        with pytest.raises(SearchDeadlineExceeded):
            optimizer.optimize(small_block, deadline=Deadline(1e-9))


# ----------------------------------------------------------------------
# PlanService
# ----------------------------------------------------------------------


class TestPlanService:
    def test_search_matches_direct_optimizer_bit_for_bit(
        self, fresh_cache, registry
    ):
        params = SearchRequest.from_json({"devices": 2, "batch": 8})
        service = _service()
        payload = service.search(params)
        assert payload["source"] == "computed"
        cost, plan = _direct_payload(params)
        assert payload["cost"] == cost  # float equality, not approx
        assert payload["plan"] == plan
        assert payload["n_layers"] == MODELS_BY_KEY[MODEL].n_layers

    def test_source_transitions_memory_then_disk(self, fresh_cache, registry):
        params = SearchRequest.from_json({"devices": 2, "batch": 8})
        service = _service()
        assert service.search(params)["source"] == "computed"
        assert service.search(params)["source"] == "memory"
        # A second service (fresh memory, shared disk) restarts warm.
        assert _service().search(params)["source"] == "disk"
        assert counter("serve.searches").value == 1

    def test_plan_lookup(self, fresh_cache, registry):
        params = SearchRequest.from_json({"devices": 2, "batch": 8})
        service = _service()
        payload = service.search(params)
        found = service.plan(payload["key"])
        assert found["plan"] == payload["plan"]
        assert service.plan("no-such-key") is None

    def test_derived_request_keeps_one_deadline(self, fresh_cache, registry):
        """A derived request's plan search spends its budget: the admission
        after the search gets what is left, not a fresh budget."""
        service = _service()
        real_search, real_admit = service._run_search, service.admission.admit
        timeouts = []

        def slow_search(params, deadline):
            time.sleep(0.3)
            return real_search(params, deadline)

        def admit(timeout=None):
            timeouts.append(timeout)
            return real_admit(timeout=timeout)

        service._run_search = slow_search
        service.admission.admit = admit
        service.simulate_from_request(
            {"devices": 2, "batch": 8, "layers": 1, "deadline": 2.0}
        )
        search_timeout, derived_timeout = timeouts
        assert search_timeout <= 2.0
        assert derived_timeout <= 2.0 - 0.3 + 1e-3

    def test_megatron_plan_needs_no_search(self, fresh_cache, registry):
        from repro.baselines.megatron import best_megatron_plan
        from repro.sim.engine import EventDrivenSimulator

        body = {"devices": 2, "batch": 8, "layers": 1, "plan": "megatron"}
        payload = _service().simulate_from_request(body)
        assert payload["plan_source"] == "megatron"
        assert "plan_key" not in payload
        assert counter("serve.searches").value == 0
        model = MODELS_BY_KEY[MODEL]
        best = best_megatron_plan(
            EventDrivenSimulator(FabricProfiler(v100_cluster(2))),
            build_block_graph(model.block_shape(batch=8)), 8, model.n_layers,
        )
        assert payload["plan"] == {
            name: str(spec) for name, spec in sorted(best.plan.items())
        }

    def test_alpha_bound_keeps_costs_finite(self, fresh_cache, registry):
        """At the bound the answer is strict JSON; past it, a 400 on
        ``alpha`` before any search (1e300 once answered ``cost: NaN``)."""
        service = _service()
        payload = service.search_from_request({"devices": 2, "alpha": MAX_ALPHA})
        assert math.isfinite(payload["cost"])
        assert math.isfinite(payload["model_cost"])
        json.dumps(payload, allow_nan=False)
        for alpha in (math.nextafter(MAX_ALPHA, math.inf), 1e300):
            with pytest.raises(ValidationError) as err:
                service.search_from_request({"devices": 2, "alpha": alpha})
            assert err.value.field == "alpha"
        assert counter("serve.searches").value == 1

    def test_layers_bounded(self, fresh_cache, registry):
        """A replay deeper than ``MAX_LAYERS`` is refused before it holds
        an admission slot; the bound itself is served."""
        service = _service()
        for answer in (service.simulate_from_request,
                       service.robustness_from_request):
            with pytest.raises(ValidationError) as err:
                answer({"devices": 2, "layers": MAX_LAYERS + 1})
            assert err.value.field == "layers"
        assert counter("serve.searches").value == 0
        payload = service.robustness_from_request(
            {"devices": 2, "layers": MAX_LAYERS, "scenarios": 1}
        )
        assert payload["report"]["n_scenarios"] == 1
        assert service.simulate_from_request(
            {"devices": 2, "layers": MAX_LAYERS}
        )["layers"] == MAX_LAYERS


# ----------------------------------------------------------------------
# HTTP endpoint contracts (typed client against an in-process server)
# ----------------------------------------------------------------------


class TestHTTPEndpoints:
    def test_healthz_contract(self, server):
        health = PlanClient(server.url).healthz()
        assert health["status"] == "ok"
        assert health["inflight"] >= 1  # the healthz request itself
        assert health["active_searches"] == 0
        assert set(health["plan_store"]) >= {
            "hits", "misses", "evictions", "entries", "bytes",
        }

    def test_search_then_plan_roundtrip(self, server):
        client = PlanClient(server.url)
        request = SearchRequest(model=MODEL, devices=2, batch=8)
        first = client.search(request)
        assert first.source == "computed"
        assert first.plan and first.cost > 0
        again = client.search(request)
        assert again.source == "memory"
        assert again.plan == first.plan
        assert again.cost == first.cost
        stored = client.plan(first.key)
        assert stored is not None and stored.plan == first.plan
        assert client.plan("0123456789abcdef") is None

    def test_search_payload_matches_direct_optimizer(self, server):
        request = SearchRequest(model=MODEL, devices=2, batch=8)
        response = PlanClient(server.url).search(request)
        cost, plan = _direct_payload(
            SearchRequest.from_json(request.to_json())
        )
        assert response.cost == cost
        assert response.plan == plan

    def test_malformed_body_is_400(self, server):
        client = PlanClient(server.url)
        with pytest.raises(ServeError) as err:
            client.search(SearchRequest(devices=3))
        assert err.value.status == 400
        assert "power of two" in err.value.message

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/v1/search", {"alpha": float("nan")}, "alpha"),
            (
                "/v1/robustness",
                {"faults": {"straggler_rate": 1,
                            "straggler_slowdown": float("nan")}},
                "straggler_slowdown",
            ),
        ],
    )
    def test_non_finite_number_is_400(self, server, path, body, field):
        """A NaN body is rejected before any search runs or is stored."""
        base = {"model": MODEL, "devices": 2, "batch": 8}
        with pytest.raises(ServeError) as err:
            PlanClient(server.url)._json("POST", path, {**base, **body})
        assert err.value.status == 400
        assert field in err.value.message
        assert counter("serve.searches").value == 0
        assert server.service.store.stats()["entries"] == 0

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServeError) as err:
            PlanClient(server.url)._json("GET", "/v2/nope")
        assert err.value.status == 404

    def test_simulate_contract(self, server):
        client = PlanClient(server.url)
        response = client.post(
            SimulateRequest(
                search=SearchRequest(model=MODEL, devices=2, batch=8),
                layers=2,
            )
        )
        assert response["layers"] == 2
        assert response["throughput"] > 0
        assert response["latency"] > 0
        assert response["breakdown"]
        assert response["plan_source"] in ("computed", "memory", "disk")
        # A key no request field declares (here the retired engine choice)
        # is a 400, not silently ignored.
        stale = {**SimulateRequest().to_json(), "engine": "event"}
        with pytest.raises(ServeError) as err:
            client._json("POST", SimulateRequest.endpoint, stale)
        assert err.value.status == 400
        assert "engine" in err.value.message

    def test_metrics_exposition_parses(self, server):
        client = PlanClient(server.url)
        client.search(SearchRequest(model=MODEL, devices=2, batch=8))
        # Request counters land *after* the response bytes are written, so
        # poll briefly until the search request's sample is visible.
        deadline = time.monotonic() + 10.0
        while True:
            text = client.metrics()
            if "primepar_serve_requests" in text:
                break
            assert time.monotonic() < deadline, "request counter never showed"
            time.sleep(0.01)
        assert "primepar_serve_request_seconds" in text
        assert "primepar_plan_store_misses" in text
        samples = 0
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value must parse
            assert name_part.startswith("primepar_")
            samples += 1
        assert samples > 10


# ----------------------------------------------------------------------
# Coalescing, overload, deadline, drain — through the HTTP stack
# ----------------------------------------------------------------------


class TestServerBehavior:
    def test_concurrent_identical_searches_run_once(self, server):
        """Two concurrent identical /v1/search bodies → exactly one search,
        both responses bit-identical to a direct optimizer run."""
        entered, release = _gate_search(server.service)
        client = PlanClient(server.url)
        request = SearchRequest(model=MODEL, devices=2, batch=8)
        responses = []

        def call():
            responses.append(client.search(request))

        first = threading.Thread(target=call)
        first.start()
        assert entered.wait(timeout=60.0)  # leader is mid-search
        second = threading.Thread(target=call)
        second.start()
        deadline = time.monotonic() + 60.0
        while counter("serve.coalesced").value < 1:
            assert time.monotonic() < deadline, "second request never joined"
            time.sleep(0.005)
        release.set()
        first.join(timeout=120.0)
        second.join(timeout=120.0)
        assert len(responses) == 2
        assert counter("serve.searches").value == 1
        assert sorted(r.source for r in responses) == ["coalesced", "computed"]
        assert responses[0].plan == responses[1].plan
        assert responses[0].cost == responses[1].cost
        cost, plan = _direct_payload(
            SearchRequest.from_json(request.to_json())
        )
        assert responses[0].cost == cost
        assert responses[0].plan == plan

    def test_overload_returns_429_with_retry_after(self, fresh_cache, registry):
        service = _service(
            admission=AdmissionController(
                max_concurrent=1, max_queue=0, retry_after=3.0
            )
        )
        server = PlanServer(ServeConfig(port=0), service=service).start()
        entered, release = _gate_search(service)
        try:
            client = PlanClient(server.url)
            holder = threading.Thread(
                target=lambda: client.search(
                    SearchRequest(model=MODEL, devices=2, batch=8)
                )
            )
            holder.start()
            assert entered.wait(timeout=60.0)
            # A *different* request (no coalescing) finds the slot busy and
            # the queue full.
            with pytest.raises(ServeError) as err:
                client.search(SearchRequest(model=MODEL, devices=4, batch=8))
            assert err.value.status == 429
            assert err.value.retry_after == 3.0
            release.set()
            holder.join(timeout=120.0)
        finally:
            release.set()
            server.shutdown()

    def test_exhausted_deadline_is_503(self, server):
        client = PlanClient(server.url)
        with pytest.raises(ServeError) as err:
            client.search(
                SearchRequest(model=MODEL, devices=2, batch=16, deadline=1e-6)
            )
        assert err.value.status == 503
        assert err.value.retry_after is not None
        assert counter("serve.rejected", reason="deadline").value == 1

    def test_draining_rejects_new_work(self, fresh_cache, registry):
        server = PlanServer(
            ServeConfig(port=0),
            service=_service(store=PlanStore(max_entries=4, use_disk=False)),
        ).start()
        try:
            client = PlanClient(server.url)
            assert client.healthz()["status"] == "ok"
            server._draining = True
            with pytest.raises(ServeError) as health_err:
                client.healthz()
            assert health_err.value.status == 503
            with pytest.raises(ServeError) as post_err:
                client.search(SearchRequest(devices=2))
            assert post_err.value.status == 503
            assert post_err.value.retry_after is not None
        finally:
            server._draining = False
            assert server.shutdown() is True

    def test_shutdown_waits_for_inflight_requests(self, fresh_cache, registry):
        service = _service()
        server = PlanServer(
            ServeConfig(port=0, drain_timeout=60.0), service=service
        ).start()
        entered, release = _gate_search(service)
        client = PlanClient(server.url)
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(
                client.search(SearchRequest(model=MODEL, devices=2, batch=8))
            )
        )
        worker.start()
        assert entered.wait(timeout=60.0)
        outcome = {}
        stopper = threading.Thread(
            target=lambda: outcome.setdefault("drained", server.shutdown())
        )
        stopper.start()
        time.sleep(0.2)
        # The in-flight search pins the drain; shutdown must still be
        # blocked, not have given up.
        assert "drained" not in outcome
        release.set()
        worker.join(timeout=120.0)
        stopper.join(timeout=120.0)
        assert outcome["drained"] is True
        assert len(responses) == 1
        assert responses[0].source == "computed"

    def test_run_until_signal_honors_request_stop(self, fresh_cache, registry):
        server = PlanServer(
            ServeConfig(port=0),
            service=_service(store=PlanStore(max_entries=4, use_disk=False)),
        ).start()
        threading.Timer(0.2, server.request_stop).start()
        assert server.run_until_signal() == 0


# ----------------------------------------------------------------------
# Request tracing, explain, flight recorder — through the HTTP stack
# ----------------------------------------------------------------------


def _component_fold(doc):
    """Left-associative fold in the document's declared order."""
    total = 0.0
    for name in doc["component_order"]:
        total += doc["components"][name]
    return total


def _wait_for(probe, timeout=30.0):
    """Poll ``probe`` until it returns a truthy value (returns it).

    Request records, latency observations and flight-recorder entries
    land *after* the response bytes are written (the handler's finally
    block), so tests reading them back must allow a brief settle.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = probe()
        if value:
            return value
        assert time.monotonic() < deadline, "probe never became truthy"
        time.sleep(0.01)


class TestTracingHTTP:
    def test_client_trace_id_is_adopted_and_record_retrievable(self, server):
        client = PlanClient(server.url)
        response = client.search(
            SearchRequest(model=MODEL, devices=2, batch=8),
            trace_id="my-trace-1",
            debug_trace=True,
        )
        assert response.source == "computed"
        inline = response.trace
        assert inline["trace_id"] == "my-trace-1"
        assert inline["endpoint"] == "/v1/search"
        assert inline["outcome"] == "computed"
        assert inline["status"] == 200
        event_names = [e["name"] for e in inline["events"]]
        assert "plan_store.lookup" in event_names
        assert "admission.admitted" in event_names
        # The optimizer's span tree rode along on the same record.
        assert any(s["path"] == "search" for s in inline["spans"])
        # And the completed record is retrievable by id afterwards.
        stored = _wait_for(lambda: client.trace("my-trace-1"))
        assert stored["trace_id"] == "my-trace-1"
        assert stored["duration_ms"] > 0.0
        assert [e["name"] for e in stored["events"]] == event_names

    def test_warm_hit_trace_names_the_tier(self, server):
        client = PlanClient(server.url)
        request = SearchRequest(model=MODEL, devices=2, batch=8)
        client.search(request)
        warm = client.search(request, debug_trace=True)
        assert warm.source == "memory"
        assert warm.trace["outcome"] == "memory"
        lookups = [
            e for e in warm.trace["events"] if e["name"] == "plan_store.lookup"
        ]
        assert lookups and lookups[0]["attrs"]["tier"] == "memory"

    def test_unknown_trace_id_is_404_then_none(self, server):
        client = PlanClient(server.url)
        assert client.trace("0123456789abcdef") is None
        with pytest.raises(ServeError) as err:
            client._json("GET", "/v1/traces/0123456789abcdef")
        assert err.value.status == 404

    def test_invalid_header_id_gets_a_server_generated_one(self, server):
        client = PlanClient(server.url)
        response = client.search(
            SearchRequest(model=MODEL, devices=2, batch=8),
            trace_id="not a valid id!",
            debug_trace=True,
        )
        assert response.trace["trace_id"] != "not a valid id!"
        assert len(response.trace["trace_id"]) == 32  # fresh uuid4 hex

    def test_coalesced_follower_records_leader_trace_id(self, server):
        entered, release = _gate_search(server.service)
        client = PlanClient(server.url)
        request = SearchRequest(model=MODEL, devices=2, batch=8)
        responses = {}

        def call(role, **kwargs):
            responses[role] = client.search(request, **kwargs)

        leader = threading.Thread(
            target=call, args=("leader",), kwargs={"trace_id": "leader-1"}
        )
        leader.start()
        assert entered.wait(timeout=60.0)
        follower = threading.Thread(
            target=call,
            args=("follower",),
            kwargs={"trace_id": "follower-1", "debug_trace": True},
        )
        follower.start()
        deadline = time.monotonic() + 60.0
        while counter("serve.coalesced").value < 1:
            assert time.monotonic() < deadline, "follower never joined"
            time.sleep(0.005)
        release.set()
        leader.join(timeout=120.0)
        follower.join(timeout=120.0)
        assert responses["follower"].source == "coalesced"
        follows = [
            e
            for e in responses["follower"].trace["events"]
            if e["name"] == "singleflight.follow"
        ]
        assert len(follows) == 1
        assert follows[0]["attrs"]["leader_trace_id"] == "leader-1"
        # Both causal paths remain retrievable by their own ids.
        leader_record = _wait_for(lambda: client.trace("leader-1"))
        assert leader_record["outcome"] == "computed"
        follower_record = _wait_for(lambda: client.trace("follower-1"))
        assert follower_record["outcome"] == "coalesced"

    def test_concurrent_requests_trace_only_their_own_search(
        self, server, monkeypatch
    ):
        """Two overlapping searches: each trace has one ``search`` root."""
        barrier = threading.Barrier(2, timeout=60.0)
        original = PrimeParOptimizer.candidates_for

        def candidates_for(self, *args, **kwargs):
            barrier.wait()  # both searches are inside their search span
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            PrimeParOptimizer, "candidates_for", candidates_for
        )
        client = PlanClient(server.url)
        traces = {}

        def call(devices):
            traces[devices] = client.search(
                SearchRequest(model=MODEL, devices=devices, batch=8),
                debug_trace=True,
            ).trace

        threads = [threading.Thread(target=call, args=(d,)) for d in (2, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert sorted(traces) == [2, 4]
        for trace in traces.values():
            assert trace["outcome"] == "computed"
            roots = [s for s in trace["spans"] if s["path"] == "search"]
            assert len(roots) == 1

    def test_derived_request_trace_carries_its_replay_spans(self, server):
        response = PlanClient(server.url).post(
            SimulateRequest(
                search=SearchRequest(model=MODEL, devices=2, batch=8),
                layers=2,
            ),
            debug_trace=True,
        )
        paths = {s["path"] for s in response["trace"]["spans"]}
        assert "search" in paths
        assert any(p.startswith("sim.") for p in paths)

    def test_queue_wait_histogram_and_tiered_lookups_exposed(self, server):
        client = PlanClient(server.url)
        client.search(SearchRequest(model=MODEL, devices=2, batch=8))
        text = client.metrics()
        assert "primepar_serve_queue_wait_seconds_bucket" in text
        assert "primepar_serve_queue_wait_seconds_count" in text
        assert 'primepar_plan_store_lookups{tier="miss"}' in text

    def test_healthz_reports_latency_and_slo_sections(self, server):
        client = PlanClient(server.url)
        client.search(SearchRequest(model=MODEL, devices=2, batch=8))
        health = _wait_for(
            lambda: (h := client.healthz())
            and "/v1/search" in h["latency_ms"]
            and h
        )
        search_latency = health["latency_ms"]["/v1/search"]
        assert search_latency["count"] >= 1.0
        assert search_latency["p95"] > 0.0
        slo = health["slo"]
        assert slo["status"] == "disabled"  # no target configured
        assert slo["count"] >= 1.0

    def test_slo_breach_when_target_unmeetable(self, fresh_cache, registry):
        config = ServeConfig(port=0, slo_p95_ms=1e-6)
        server = PlanServer(config, service=_service()).start()
        try:
            client = PlanClient(server.url)
            client.search(SearchRequest(model=MODEL, devices=2, batch=8))
            slo = _wait_for(
                lambda: (s := client.healthz()["slo"])["count"] >= 1 and s
            )
            assert slo["status"] == "breach"
            assert slo["target_p95_ms"] == 1e-6
            assert slo["p95_ms"] > 1e-6
        finally:
            server.shutdown()

    def test_flightrecorder_endpoint_contract(self, server):
        client = PlanClient(server.url)
        client.search(
            SearchRequest(model=MODEL, devices=2, batch=8),
            trace_id="flight-req-1",
        )
        dump = _wait_for(
            lambda: (d := client._json("GET", "/debug/flightrecorder"))
            and any(
                r["trace_id"] == "flight-req-1" for r in d["requests"]
            )
            and d
        )
        assert dump["schema"] == 1
        assert dump["requests_dropped"] == 0
        by_id = {r["trace_id"]: r for r in dump["requests"]}
        record = by_id["flight-req-1"]
        assert record["endpoint"] == "/v1/search"
        assert record["status"] == 200
        assert record["outcome"] == "computed"
        assert record["duration_ms"] > 0.0
        # The dump-time snapshot folds in the host's gauges.
        snapshot = dump["snapshots"][-1]
        assert snapshot["plan_store"]["entries"] >= 1
        assert snapshot["admission_active"] == 0
        assert snapshot["http_inflight"] >= 1  # this request itself

    def test_dump_flight_recorder_writes_json(self, server):
        path = server.dump_flight_recorder()
        assert path is not None
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["schema"] == 1


class TestExplainHTTP:
    def test_explain_components_fold_bit_exactly(self, server):
        client = PlanClient(server.url)
        request = ExplainRequest(
            search=SearchRequest(model=MODEL, devices=2, batch=8)
        )
        doc = client.post(request)
        assert doc["kind"] == "plan"
        assert _component_fold(doc) == doc["total_cost"]
        assert doc["plan_source"] in ("computed", "memory", "disk")
        assert doc["source"] == "computed"
        # The stored payload's cost is echoed so callers can see the
        # (documented) one-ulp DP-fold vs re-priced-objective caveat.
        assert doc["plan_cost"] == pytest.approx(doc["total_cost"], rel=1e-12)
        # Second call: the plan itself is served from the LRU now, and
        # the recomputed decomposition is bit-identical.
        again = client.post(request)
        assert again["plan_source"] == "memory"
        assert again["total_cost"] == doc["total_cost"]
        assert again["components"] == doc["components"]

    def test_explain_with_link_attribution(self, server):
        client = PlanClient(server.url)
        doc = client.post(
            ExplainRequest(
                search=SearchRequest(model=MODEL, devices=2, batch=8),
                links=True,
            )
        )
        assert doc["links"]["engine"] == "event"
        assert isinstance(doc["links"]["link_bytes"], dict)
        assert _component_fold(doc) == doc["total_cost"]

    def test_explain_rejects_malformed_body(self, server):
        client = PlanClient(server.url)
        with pytest.raises(ServeError) as err:
            client._json(
                "POST", "/v1/explain", {"devices": 2, "links": "yes"}
            )
        assert err.value.status == 400

    def test_explain_is_traced(self, server):
        client = PlanClient(server.url)
        client.post(
            ExplainRequest(
                search=SearchRequest(model=MODEL, devices=2, batch=8)
            ),
            trace_id="explain-trace-1",
        )
        stored = _wait_for(lambda: client.trace("explain-trace-1"))
        assert stored["endpoint"] == "/v1/explain"


class TestRobustnessHTTP:
    FAULTS = "straggler=0.5:1.5,outage=0.5,ckpt=16,restart=30,replan=5"

    def _request(self, **overrides):
        from repro.api import RobustnessRequest

        body = {
            "model": MODEL, "devices": 2, "batch": 8,
            "faults": self.FAULTS, "scenarios": 4, "seed": 0,
            "objective": "p99", "layers": 2,
        }
        body.update(overrides)
        return RobustnessRequest.from_json(body)

    def test_service_scores_under_requested_objective(
        self, fresh_cache, registry
    ):
        service = _service()
        payload = service.robustness_from_request(self._request().to_json())
        assert payload["source"] == "computed"
        assert payload["plan_source"] == "computed"
        assert payload["objective"] == "p99"
        assert payload["layers"] == 2
        report = payload["report"]
        assert payload["score"] == report["p99"]
        assert report["p99"] >= report["p50"] >= 0.0
        assert report["nominal_latency"] > 0.0
        assert counter("serve.robustness").value == 1
        # The plan itself came through the two-tier store: a repeat call
        # recomputes the Monte-Carlo sweep (no disk tier for robustness)
        # but finds the plan warm, and the result is bit-identical.
        again = service.robustness_from_request(self._request().to_json())
        assert again["plan_source"] == "memory"
        assert again["score"] == payload["score"]
        assert again["report"] == report

    def test_concurrent_requests_match_serial(self, fresh_cache, registry):
        """Each request replays on its own kernel DAGs: threads (more than
        cores) scoring different seeds at once return what serial calls
        return."""
        service = _service(admission=AdmissionController(max_concurrent=3))
        bodies = [
            self._request(
                devices=4, faults="straggler=0.5:1.7,flap=1.0:0.002:0.25",
                seed=seed,
            ).to_json()
            for seed in (1, 2, 3)
        ]
        serial = [service.robustness_from_request(b)["report"] for b in bodies]
        assert len({json.dumps(r, sort_keys=True) for r in serial}) == 3
        start = threading.Barrier(len(bodies))
        concurrent = [None] * len(bodies)

        def score(i):
            start.wait(timeout=60)
            payload = service.robustness_from_request(bodies[i])
            concurrent[i] = payload["report"]

        threads = [
            threading.Thread(target=score, args=(i,))
            for i in range(len(bodies))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the replays finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert concurrent == serial

    def test_http_round_trip_and_report_rehydration(self, server):
        client = PlanClient(server.url)
        request = self._request()
        response = client.post(request)
        report = response["report"]
        assert response["source"] == "computed"
        assert response["objective"] == "p99"
        assert response["devices"] == 2
        assert response["score"] == report["p99"]
        assert report["kind"] == "robustness_report"
        assert report["n_scenarios"] == request.scenarios
        assert report["fault_model"] == request.fault_model().to_json()
        assert len(report["outcomes"]) == request.scenarios

    def test_blend_objective_interpolates(self, server):
        client = PlanClient(server.url)
        p99 = client.post(self._request(objective="p99"))
        nominal = client.post(self._request(objective="nominal"))
        blended = client.post(self._request(objective="blend", blend=0.5))
        expected = 0.5 * nominal["score"] + 0.5 * p99["score"]
        assert blended["score"] == pytest.approx(expected, rel=1e-12)

    def test_malformed_fault_spec_is_400(self, server):
        client = PlanClient(server.url)
        with pytest.raises(ServeError) as err:
            client.post(self._request(faults="gremlins=3"))
        assert err.value.status == 400
        with pytest.raises(ServeError) as objective_err:
            client._json(
                "POST", "/v1/robustness",
                {**self._request().to_json(), "objective": "p42"},
            )
        assert objective_err.value.status == 400

    def test_fault_file_path_is_not_read_over_http(
        self, server, tmp_path
    ):
        """``@path`` is a CLI spelling: on the wire it is a bad spec string,
        rejected without opening the file (no existence or key leaks)."""
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"straggler_rate": 0.5}))
        body = {**self._request().to_json(), "faults": f"@{path}"}
        with pytest.raises(ValidationError) as err:
            server.service.robustness_from_request(body)
        assert err.value.field == "faults"
        assert "bad fault spec clause" in str(err.value)
        with pytest.raises(ServeError) as http_err:
            PlanClient(server.url)._json("POST", "/v1/robustness", body)
        assert http_err.value.status == 400
        assert "bad fault spec clause" in http_err.value.message
        assert counter("serve.searches").value == 0

    def test_robustness_is_traced(self, server):
        client = PlanClient(server.url)
        client.post(self._request(), trace_id="robust-trace-1")
        stored = _wait_for(lambda: client.trace("robust-trace-1"))
        assert stored["endpoint"] == "/v1/robustness"
        assert stored["status"] == 200

    def test_debug_trace_shows_one_lowering(self, server):
        client = PlanClient(server.url)
        body = self._request(faults="straggler=1.0:1.5", seed=11).to_json()
        payload = client._json("POST", "/v1/robustness?debug=trace", body)
        lowers = [
            e for e in payload["trace"]["events"] if e["name"] == "sim.lower"
        ]
        assert len(lowers) == 1
        assert lowers[0]["attrs"]["seconds"] > 0.0


# ----------------------------------------------------------------------
# CLI surface: cache tiers + serve flags
# ----------------------------------------------------------------------


class TestServeCLI:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 8780
        assert args.max_concurrent == 2
        assert args.queue_depth == 8
        assert args.lru_size == 256
        assert args.deadline == 120.0
        assert args.drain_timeout == 10.0
        assert args.trace_store_size == 256
        assert args.flight_size == 256
        assert args.flight_snapshot_interval == 30.0
        assert args.slo_window == 256
        assert args.slo_p95_ms == 0.0

    def test_serve_flags_follow_config_fields(self):
        from dataclasses import fields

        from repro.cli import build_parser, request_body
        from repro.serve.server import ServeConfig

        args = build_parser().parse_args(["serve"])
        for f in fields(ServeConfig):
            if f.name == "retry_after":
                assert not hasattr(args, f.name)
            else:
                assert getattr(args, f.name) == f.default, f.name
        assert ServeConfig(**request_body(args)) == ServeConfig()
        custom = build_parser().parse_args(
            ["serve", "--port", "0", "--deadline", "5", "--slo-p95-ms", "50"]
        )
        config = ServeConfig(**request_body(custom))
        assert (config.port, config.deadline, config.slo_p95_ms) == (0, 5.0, 50.0)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--deadline", "-1"], "deadline"),
            (["--jobs", "-2"], "jobs"),
            (["--lru-size", "0"], "lru_size"),
        ],
    )
    def test_out_of_range_flag_exits_2_before_binding(
        self, argv, field, capsys, monkeypatch
    ):
        from repro.cli import main

        def refuse(self):
            raise AssertionError("daemon bound despite an invalid flag")

        monkeypatch.setattr(PlanServer, "start", refuse)
        assert main(["serve", "--port", "0", *argv]) == 2
        err = capsys.readouterr().err
        assert "invalid request:" in err and field in err

    def test_report_renders_cache_tiers(self, tmp_path, capsys):
        from repro.cli import main

        document = {
            "counters": [
                {"name": "plan_store.hits", "labels": {}, "value": 3.0},
                {"name": "plan_store.misses", "labels": {}, "value": 1.0},
                {"name": "cache.hits", "labels": {"kind": "plan"}, "value": 2.0},
                {"name": "cache.stores", "labels": {"kind": "plan"}, "value": 1.0},
            ],
            "gauges": [
                {"name": "plan_store.entries", "labels": {}, "value": 2.0},
                {"name": "plan_store.bytes", "labels": {}, "value": 512.0},
            ],
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(document))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cache tiers" in out
        assert "memory (LRU)" in out
        assert "disk" in out

    def test_report_empty_registry_says_so(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"counters": [], "gauges": [], "histograms": [], "spans": []}
        ))
        assert main(["report", str(path)]) == 0
        assert "no metrics recorded" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Hygiene: the serve package obeys the no-print rule
# ----------------------------------------------------------------------


def test_serve_package_passes_no_print_lint():
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable,
            str(repo / "tools" / "lint_no_print.py"),
            str(repo / "src" / "repro" / "serve"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
