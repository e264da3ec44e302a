"""Telemetry layer: registry semantics, spans, cross-process merge, CLI."""

import collections
import contextvars
import gc
import json
import logging
import sys
import threading

import pytest

from repro.core.optimizer.strategy import PrimeParOptimizer
from repro.graph.models import OPT_6_7B
from repro.graph.transformer import build_block_graph
from repro.obs import metrics_document, write_metrics
from repro.obs.logsetup import configure_logging
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    delta_snapshots,
    use_registry,
)
from repro.obs.spans import (
    Span,
    SpanCollector,
    get_collector,
    span,
    telemetry_scope,
    use_collector,
)
from repro.sim.trace import SPAN_PID, timeline_to_trace


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits", kind="a").inc()
        registry.counter("hits", kind="a").inc(2)
        registry.counter("hits", kind="b").inc(5)
        snap = registry.snapshot()
        assert snap["counters"] == [
            {"name": "hits", "labels": {"kind": "a"}, "value": 3.0},
            {"name": "hits", "labels": {"kind": "b"}, "value": 5.0},
        ]

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_gauge_last_write_and_track_max(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(4)
        g.set(2)
        assert g.value == 2.0
        g.track_max(9)
        g.track_max(1)
        assert g.value == 9.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            h.observe(value)
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_is_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("z.late", b="2", a="1").inc()
        registry.counter("a.early").inc()
        snap = registry.snapshot()
        names = [e["name"] for e in snap["counters"]]
        assert names == sorted(names)
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            registry.snapshot(), sort_keys=True
        )

    def test_merge_snapshot_additive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        a.gauge("g").set(7)
        b.counter("n").inc(3)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"][0]["value"] == 5.0
        hist = snap["histograms"][0]
        assert hist["count"] == 2
        assert hist["bucket_counts"] == [1, 1]
        assert snap["gauges"][0]["value"] == 7.0

    def test_merge_snapshot_bound_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_delta_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        registry.gauge("g").set(1)
        before = registry.snapshot()
        registry.counter("n").inc(3)
        registry.counter("other").inc()
        registry.gauge("g").set(1)  # unchanged: dropped from the delta
        delta = delta_snapshots(before, registry.snapshot())
        assert {(e["name"], e["value"]) for e in delta["counters"]} == {
            ("n", 3.0),
            ("other", 1.0),
        }
        assert delta["gauges"] == []

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits", kind="dp").inc(3)
        h = registry.histogram("dp.seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(9.0)
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE primepar_cache_hits counter" in lines
        assert 'primepar_cache_hits{kind="dp"} 3' in lines
        assert 'primepar_dp_seconds_bucket{le="0.1"} 1' in lines
        assert 'primepar_dp_seconds_bucket{le="1"} 2' in lines
        assert 'primepar_dp_seconds_bucket{le="+Inf"} 3' in lines
        assert "primepar_dp_seconds_count 3" in lines

    def test_use_registry_swaps_current(self):
        from repro.obs.metrics import counter, get_registry

        fresh = MetricsRegistry()
        with use_registry(fresh):
            assert get_registry() is fresh
            counter("inside").inc()
        assert fresh.snapshot()["counters"][0]["name"] == "inside"
        outside = {
            e["name"] for e in get_registry().snapshot()["counters"]
        }
        assert "inside" not in outside


class TestSpans:
    def test_nesting_paths(self):
        collector = SpanCollector()
        with use_collector(collector):
            with span("outer", n=1):
                with span("inner"):
                    pass
        exported = collector.export()
        # Sorted by start time: the outer span opened first.
        assert [s["path"] for s in exported] == ["outer", "outer/inner"]
        outer, inner = exported
        assert outer["name"] == "outer"
        assert outer["attrs"] == {"n": 1}
        assert outer["duration"] >= inner["duration"]

    def test_export_equals_asdict_for_nested_attrs(self):
        """``export`` builds ``dataclasses.asdict``'s dicts directly:
        equal for flat and nested ``attrs``, and as deep a copy."""
        import dataclasses

        inner = Span("x", "x", 0.0, 1.0)
        collector = SpanCollector()
        for i, attrs in enumerate((
            {},
            {"kernels": 362, "schedule": "pass", "ok": True, "none": None},
            {"by": {"compute": [1, 2], "pair": (3, (4, 5))}},
            {"span": inner, "spans": [inner], 1.5: "float key"},
        )):
            collector.append(Span("s", f"p{i}", float(i), 0.5, attrs, "w"))
        exported = collector.export()
        expected = [dataclasses.asdict(s) for s in collector._spans]
        assert exported == expected
        assert [list(e) for e in exported] == [list(e) for e in expected]
        assert exported[3]["attrs"]["span"] == dataclasses.asdict(inner)
        for mine, kept in zip(exported, collector._spans):
            assert mine["attrs"] is not kept.attrs
        exported[2]["attrs"]["by"]["compute"].append(3)
        assert collector._spans[2].attrs["by"]["compute"] == [1, 2]

    def test_span_without_collector_keeps_nothing(self):
        assert get_collector() is None
        with span("untimed", n=1) as attrs:
            attrs["m"] = 2
        assert attrs == {"n": 1, "m": 2}

    def test_telemetry_scope_keeps_its_own_work_and_merges_up(self):
        registry, collector = MetricsRegistry(), SpanCollector()
        with use_registry(registry), use_collector(collector):
            with span("before"):
                pass
            with span("enclosing"):
                with telemetry_scope() as scope:
                    assert get_collector() is scope.collector
                    counter("inside").inc(2)
                    with span("work"):
                        pass
        # The scope holds only its own work ...
        assert [s["path"] for s in scope.collector.export()] == ["work"]
        assert scope.registry.snapshot()["counters"] == [
            {"name": "inside", "labels": {}, "value": 2.0},
        ]
        # ... and merged it upward, re-rooted, with its timing kept.
        before, enclosing, work = collector.export()
        assert [s["path"] for s in (before, enclosing, work)] == [
            "before", "enclosing", "enclosing/work",
        ]
        assert work["proc"] == "main"
        assert enclosing["start"] <= work["start"] + 1e-6
        assert work["start"] + work["duration"] <= (
            enclosing["start"] + enclosing["duration"] + 1e-6
        )
        assert registry.counter("inside").value == 2

    def test_scopes_on_many_threads_keep_their_own_counts(self):
        registry, seen = MetricsRegistry(), {}

        def work(i):
            with telemetry_scope() as scope:
                for _ in range(200):
                    counter("work", who=i).inc()
                    counter("shared").inc()
            seen[i] = scope.registry.snapshot()["counters"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_registry(registry):
                threads = [
                    threading.Thread(
                        target=contextvars.copy_context().run, args=(work, i)
                    )
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i in range(8):
            assert seen[i] == [
                {"name": "shared", "labels": {}, "value": 200.0},
                {"name": "work", "labels": {"who": str(i)}, "value": 200.0},
            ]
        assert registry.counter("shared").value == 8 * 200

    def test_telemetry_scope_merges_when_the_work_raises(self):
        registry, collector = MetricsRegistry(), SpanCollector()
        with use_registry(registry), use_collector(collector):
            with pytest.raises(RuntimeError):
                with telemetry_scope():
                    counter("cancelled").inc()
                    with span("partial"):
                        raise RuntimeError("deadline")
        assert registry.counter("cancelled").value == 1
        assert [s["path"] for s in collector.export()] == ["partial"]

    def test_merge_rebases_and_reroots(self):
        parent, child = SpanCollector(), SpanCollector()
        with use_collector(child):
            with span("work"):
                pass
        with use_collector(parent):
            with span("fanout"):
                parent.merge(child.export(), at=10.0, proc="worker3")
        merged = [s for s in parent.export() if s["proc"] == "worker3"]
        assert len(merged) == 1
        assert merged[0]["path"] == "fanout/work"
        assert merged[0]["start"] == pytest.approx(10.0)


class TestCrossProcessDeterminism:
    def _search(self, jobs, cache_dir, monkeypatch):
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(cache_dir))
        registry, collector = MetricsRegistry(), SpanCollector()
        profiler = __import__("repro").FabricProfiler(
            __import__("repro").v100_cluster(4)
        )
        graph = build_block_graph(OPT_6_7B.block_shape(batch=4))
        with use_registry(registry), use_collector(collector):
            result = PrimeParOptimizer(profiler, jobs=jobs).optimize(
                graph, n_layers=OPT_6_7B.n_layers
            )
        return result, registry.snapshot(), collector.export()

    def test_parallel_metrics_match_serial(self, tmp_path, monkeypatch):
        serial, serial_snap, _ = self._search(
            1, tmp_path / "serial", monkeypatch
        )
        parallel, parallel_snap, spans = self._search(
            2, tmp_path / "parallel", monkeypatch
        )
        assert parallel.cost == serial.cost

        def comparable(snap):
            # Worker processes re-load the pickled profiler's cached curves
            # once per process, so profiler cache *hits* scale with the pool
            # size; every other additive metric must agree exactly between
            # jobs=1 and jobs=2.
            def keep(entry):
                return not (
                    entry["name"] == "cache.hits"
                    and entry["labels"].get("kind") == "profiler"
                )

            return {
                kind: [e for e in entries if keep(e)]
                for kind, entries in snap.items()
                if kind in ("counters", "histograms")
            }

        assert comparable(parallel_snap) == comparable(serial_snap)
        paths = {s["path"] for s in spans}
        assert "search" in paths
        assert "search/search.segment_dp" in paths
        procs = {s["proc"] for s in spans}
        assert "main" in procs
        assert any(p.startswith("worker") for p in procs)

    def test_search_result_telemetry_field(self, tmp_path, monkeypatch):
        result, _, _ = self._search(1, tmp_path / "t", monkeypatch)
        metrics = result.telemetry["metrics"]
        counter_names = {e["name"] for e in metrics["counters"]}
        assert "dp.states_expanded" in counter_names
        assert "cache.misses" in counter_names or (
            "cache.hits" in counter_names
        )
        span_paths = [s["path"] for s in result.telemetry["spans"]]
        assert "search" in span_paths

    def test_edge_pricing_split_out_of_segment_dp(self, tmp_path, monkeypatch):
        """Edge-cost spans and pair counts split segment_dp into its parts."""
        result, _, _ = self._search(1, tmp_path / "t", monkeypatch)
        counters = {}
        for entry in result.telemetry["metrics"]["counters"]:
            key = (entry["name"], entry["labels"].get("outcome"))
            counters[key] = counters.get(key, 0) + entry["value"]
        spans = result.telemetry["spans"]
        pricing = [s for s in spans if s["name"] == "search.edge_cost"]
        assert len(pricing) == counters[("dp.edge_memo", "miss")] > 0
        assert all(
            s["path"].startswith(("search/search.segment_dp/", "search/search.merge/"))
            for s in pricing
        )
        segment_dp = next(s for s in spans if s["name"] == "search.segment_dp")
        in_dp = [s for s in pricing if "search.segment_dp" in s["path"]]
        assert sum(s["duration"] for s in in_dp) <= segment_dp["duration"]
        assert counters[("dp.edge_pairs_priced", None)] >= len(pricing)

    def test_classify_split_out_of_candidates(self, tmp_path, monkeypatch):
        """One classify span per build splits the boundary matrices and
        selection out of candidates; a warm search builds nothing and
        reports 0."""
        cold, _, _ = self._search(1, tmp_path / "t", monkeypatch)
        builds = sum(
            entry["value"]
            for entry in cold.telemetry["metrics"]["counters"]
            if entry["name"] == "candidates.builds"
        )
        spans = cold.telemetry["spans"]
        classify = [s for s in spans if s["name"] == "candidates.classify"]
        assert len(classify) == builds > 0
        assert all(
            s["path"] == "search/search.candidates/candidates.classify"
            for s in classify
        )
        seconds = cold.stage_seconds["classify"]
        assert seconds == sum(s["duration"] for s in classify)
        assert 0.0 < seconds < cold.stage_seconds["candidates"]
        warm, _, _ = self._search(1, tmp_path / "t", monkeypatch)
        assert warm.stage_seconds["classify"] == 0.0

    def test_intra_split_out_of_candidates(self, tmp_path, monkeypatch):
        """One ``candidates.intra`` span per build times Eq. 7 pricing;
        ``stage_seconds["intra"]`` sums them, pool workers' included, and
        a warm search builds nothing and reports 0."""
        for jobs in (1, 2):
            cold, _, _ = self._search(jobs, tmp_path / f"j{jobs}", monkeypatch)
            builds = sum(
                entry["value"]
                for entry in cold.telemetry["metrics"]["counters"]
                if entry["name"] == "candidates.builds"
            )
            intra = [
                s for s in cold.telemetry["spans"]
                if s["name"] == "candidates.intra"
            ]
            assert len(intra) == builds > 0
            seconds = cold.stage_seconds["intra"]
            assert seconds == sum(s["duration"] for s in intra) > 0.0
            if jobs == 1:
                assert seconds < cold.stage_seconds["candidates"]
        warm, _, _ = self._search(1, tmp_path / "j1", monkeypatch)
        assert warm.stage_seconds["intra"] == 0.0


def _barrier_at_candidates(monkeypatch, parties):
    """Make ``parties`` concurrent searches overlap: each waits for the
    others once it is inside its ``search`` span."""
    barrier = threading.Barrier(parties, timeout=60.0)
    original = PrimeParOptimizer.candidates_for

    def candidates_for(self, *args, **kwargs):
        barrier.wait()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PrimeParOptimizer, "candidates_for", candidates_for)


class TestScopedTelemetry:
    """Each search's telemetry is its own, whatever runs beside it."""

    SEARCHES = (("opt-6.7b", 4), ("llama2-70b", 8))

    @staticmethod
    def _search(model_key, devices):
        from repro import FabricProfiler, v100_cluster
        from repro.graph.models import MODELS_BY_KEY

        model = MODELS_BY_KEY[model_key]
        graph = build_block_graph(model.block_shape(batch=devices))
        optimizer = PrimeParOptimizer(FabricProfiler(v100_cluster(devices)))
        return optimizer.optimize(graph, n_layers=model.n_layers)

    @staticmethod
    def _telemetry(result):
        metrics = result.telemetry["metrics"]
        counters = sorted(
            (e["name"], sorted(e["labels"].items()), e["value"])
            for e in metrics["counters"] if e["value"]
        )
        histograms = sorted(
            (e["name"], sorted(e["labels"].items()), e["bucket_counts"])
            for e in metrics["histograms"] if e["count"]
        )
        spans = collections.Counter(
            (s["name"], s["path"]) for s in result.telemetry["spans"]
        )
        return counters, histograms, spans

    def test_concurrent_searches_match_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        for key, devices in self.SEARCHES:  # warm the disk cache
            self._search(key, devices)
        serial = {key: self._search(key, devices)
                  for key, devices in self.SEARCHES}
        _barrier_at_candidates(monkeypatch, len(self.SEARCHES))
        concurrent = {}

        def run(key, devices):
            concurrent[key] = self._search(key, devices)

        threads = [
            threading.Thread(target=run, args=search)
            for search in self.SEARCHES
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        for key, _ in self.SEARCHES:
            roots = [
                s for s in concurrent[key].telemetry["spans"]
                if s["path"] == "search"
            ]
            assert len(roots) == 1, key
            assert self._telemetry(concurrent[key]) == self._telemetry(
                serial[key]
            ), key

    def test_searches_without_a_collector_keep_no_spans(
        self, tmp_path, monkeypatch
    ):
        from repro.api import SearchRequest
        from repro.obs import Span
        from repro.serve import PlanService, PlanStore

        def held_spans():
            gc.collect()
            return sum(isinstance(o, Span) for o in gc.get_objects())

        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        request = SearchRequest(model="opt-6.7b", devices=2, batch=8)
        PlanService(store=PlanStore(use_disk=False)).search(request)
        before = held_spans()
        for _ in range(50):
            payload = PlanService(store=PlanStore(use_disk=False)).search(
                request
            )
            assert payload["source"] == "computed"
        assert held_spans() == before


class TestTraceSpans:
    def test_trace_carries_optimizer_span_track(self, profiler4, small_block):
        from repro.sim.engine import EventDrivenSimulator

        collector = SpanCollector()
        with use_collector(collector):
            plan = PrimeParOptimizer(profiler4).optimize(small_block).plan
            report = EventDrivenSimulator(profiler4).run(
                small_block, plan, global_batch=4
            )
        doc = timeline_to_trace(
            report.timeline, profiler4.topology, spans=collector.export()
        )
        span_events = [
            e
            for e in doc["traceEvents"]
            if e["pid"] == SPAN_PID and e.get("ph") == "X"
        ]
        assert span_events, "optimizer spans missing from the trace"
        assert {"search", "sim.run"} <= {e["name"] for e in span_events}
        names = [
            e
            for e in doc["traceEvents"]
            if e["pid"] == SPAN_PID and e.get("ph") == "M"
        ]
        assert any(
            e["args"]["name"] == "optimizer (search spans)" for e in names
        )


class TestLoweringTelemetry:
    """A fault sweep lowers its plan once: one span, one counter tick."""

    FAULTS = "straggler=1.0:1.5"

    @staticmethod
    def _lowerings(counters) -> float:
        return sum(
            e["value"] for e in counters if e["name"] == "sim.lowerings"
        )

    def test_sweep_has_one_lower_span(self, tmp_path, monkeypatch, profiler4,
                                      small_block):
        from repro.sim.faults import FaultModel, evaluate_robustness

        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        plan = PrimeParOptimizer(profiler4).optimize(small_block).plan
        registry, collector = MetricsRegistry(), SpanCollector()
        with use_registry(registry), use_collector(collector):
            evaluate_robustness(
                profiler4, small_block, plan, 2,
                FaultModel.from_spec(self.FAULTS), scenarios=3, seed=0,
            )
        spans = collector.export()
        lowers = [s for s in spans if s["name"] == "sim.lower"]
        assert len(lowers) == 1
        assert lowers[0]["path"].startswith("faults.evaluate/")
        assert lowers[0]["attrs"]["edges"] == len(small_block.edges)
        assert self._lowerings(registry.snapshot()["counters"]) == 1
        # The nominal plus three straggler scenarios, one run_model each.
        runs = [s for s in spans if s["path"] == "faults.evaluate/sim.run"]
        assert len(runs) == 4

    def test_faults_cli_metrics_count_one_lowering_per_plan(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "m.json"
        with use_registry(MetricsRegistry()), use_collector(SpanCollector()):
            code = main([
                "faults", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "4", "--faults", self.FAULTS, "--scenarios", "2",
                "--layers", "2", "--json", "--metrics-out", str(path),
            ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["report"]["outcomes"]
        doc = json.loads(path.read_text())
        # ``primepar faults`` scores one plan: one lowering.
        assert self._lowerings(doc["counters"]) == 1
        lowers = [s for s in doc["spans"] if s["name"] == "sim.lower"]
        assert len(lowers) == 1

    def test_explain_json_still_writes_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "m.json"
        with use_registry(MetricsRegistry()), use_collector(SpanCollector()):
            code = main([
                "explain", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "4", "--json", "--metrics-out", str(path),
            ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "plan"
        doc = json.loads(path.read_text())
        assert any(s["path"] == "search" for s in doc["spans"])


class TestDocumentAndLogging:
    def test_metrics_document_schema(self, tmp_path):
        registry, collector = MetricsRegistry(), SpanCollector()
        registry.counter("n").inc()
        with use_collector(collector):
            with span("s"):
                pass
        path = tmp_path / "m.json"
        written = write_metrics(str(path), registry, collector)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert loaded["schema"] == 1
        assert set(loaded) == {
            "schema", "counters", "gauges", "histograms", "spans",
        }
        assert loaded["counters"][0] == {
            "name": "n", "labels": {}, "value": 1.0,
        }
        assert [s["name"] for s in loaded["spans"]] == ["s"]

    def test_metrics_document_defaults_to_current(self):
        registry, collector = MetricsRegistry(), SpanCollector()
        registry.counter("only.here").inc()
        with use_registry(registry), use_collector(collector):
            doc = metrics_document()
        assert [e["name"] for e in doc["counters"]] == ["only.here"]

    def test_configure_logging_json_lines(self, capsys):
        import io

        stream = io.StringIO()
        logger = configure_logging(
            level="info", json_mode=True, stream=stream
        )
        logger.info("hello %s", "world")
        record = json.loads(stream.getvalue().strip())
        assert record["message"] == "hello world"
        assert record["level"] == "info"
        assert record["logger"] == "repro"
        # Re-configuring must not stack handlers.
        configure_logging(level="info", json_mode=True, stream=stream)
        assert len(logging.getLogger("repro").handlers) == 1

    def test_child_logger_routes_through_repro(self):
        import io

        stream = io.StringIO()
        configure_logging(level="debug", json_mode=False, stream=stream)
        from repro.obs import get_logger

        get_logger("cli").debug("diagnostic")
        assert "repro.cli" in stream.getvalue()
        assert "diagnostic" in stream.getvalue()


class TestCli:
    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr()

    def test_metrics_out_and_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "m.json"
        code, _ = self._run(
            [
                "search", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "4", "--metrics-out", str(path),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(path.read_text())
        counter_names = {e["name"] for e in doc["counters"]}
        assert "dp.states_expanded" in counter_names
        assert "cache.misses" in counter_names
        assert any(s["path"] == "search" for s in doc["spans"])

        code, out = self._run(["report", str(path)], capsys)
        assert code == 0
        assert "dp.states_expanded" in out.out
        assert "span" in out.out

        code, out = self._run(["report", str(path), "--prometheus"], capsys)
        assert code == 0
        assert "# TYPE primepar_dp_states_expanded counter" in out.out

    def test_cache_stats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        self._run(
            ["search", "--model", "opt-6.7b", "--devices", "4",
             "--batch", "4"],
            capsys,
        )
        code, out = self._run(["cache", "--stats"], capsys)
        assert code == 0
        assert "entries by kind" in out.out
        assert "candidates" in out.out
        # No table of this process's (always empty) cache traffic.
        assert "traffic" not in out.out

    def test_simulate_utilization_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PRIMEPAR_CACHE_DIR", str(tmp_path / "cache"))
        code, out = self._run(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "4", "--layers", "2",
            ],
            capsys,
        )
        assert code == 0
        assert "utilization" in out.out
        assert "dev0" in out.out
        # One memory figure, with its split by kind.
        (memory,) = [
            line for line in out.out.splitlines()
            if line.startswith("peak memory per device: ")
        ]
        assert " GiB over 2 layers (" in memory
        assert "parameters" in memory and "stash" in memory
        assert "tracked" not in memory
