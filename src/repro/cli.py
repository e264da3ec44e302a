"""Command-line interface: search, verify, compare, sweep, serve and report.

Installed as the ``primepar`` console script::

    primepar search   --model opt-175b --devices 16 --batch 16
    primepar verify   --spec N-P2x2 --bits 3
    primepar compare  --model bloom-176b --devices 16 --batch 16
    primepar sweep3d  --model llama2-70b --devices 32 --batch 32
    primepar simulate --model opt-6.7b --devices 8 --trace out.json
    primepar explain  --model opt-6.7b --devices 8 --links
    primepar faults   --model opt-175b --devices 32 --faults straggler=0.2:1.8
    primepar serve    --port 8780 --max-concurrent 2 --lru-size 256
    primepar cache    --stats
    primepar report   metrics.json

Request flags are generated from the :mod:`repro.api` dataclass fields —
the same schema the serving daemon and :class:`repro.serve.PlanClient`
speak — so names, defaults, allowed values and help text match every
front-end, and a bad ``--devices`` fails with the identical message
(exit code 2).  ``verify`` reports a malformed ``--spec`` or a ``--bits``
the spec does not consume the same way.

Global observability flags: ``--log-level``/``--log-json`` configure the
structured logger (stderr; result tables stay on stdout), and ``search`` /
``simulate`` accept ``--metrics-out PATH`` to dump the telemetry registry
(counters, gauges, histograms, spans) as schema-stable JSON that
``primepar report`` renders.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from . import (
    EventDrivenSimulator,
    ExplainRequest,
    FabricProfiler,
    PartitionSpec,
    Planner3D,
    PrimeParOptimizer,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
    build_block_graph,
    parse_sequence,
    v100_cluster,
    verify_spec,
)
from .api import ServeConfig, field_type, request_fields
from .baselines.alpa import alpa_optimizer
from .baselines.megatron import best_megatron_plan
from .graph.models import MODELS_BY_KEY
from .obs import (
    configure_logging,
    get_collector,
    get_logger,
    write_metrics,
)
from .obs.logsetup import LEVELS
from .obs.metrics import MetricsRegistry
from .reporting.tables import emit, format_table

logger = get_logger("cli")

#: Request fields a command leaves off its flags: ``deadline`` is the
#: server's budget, and only ``search`` honours ``include_temporal``.
_SKIP = ("deadline", "include_temporal")


def _add_request_flags(parser, request_cls, skip=_SKIP, only=None) -> None:
    """One flag per field of ``request_cls``, all spelled by :mod:`repro.api`.

    ``request_cls`` is a request type or :class:`~repro.api.ServeConfig`.
    Name, type, default, choices and help come from the field.  A boolean
    that defaults on gets ``--no-<flag>``; one that defaults off gets
    ``--<flag>``/``--no-<flag>``.  Without ``only``, ``request_cls`` becomes
    the command's request type (see :func:`request_body`).
    """
    if only is None:
        parser.set_defaults(request_type=request_cls)
    for f in request_fields(request_cls):
        if f.name in skip or (only is not None and f.name not in only):
            continue
        flag = f.metadata.get("flag", f.name).replace("_", "-")
        help_text = f.metadata["help"]
        if f.type == "bool" and f.default:
            parser.add_argument(
                f"--no-{flag}", dest=f.name, action="store_false",
                help=help_text,
            )
        elif f.type == "bool":
            parser.add_argument(
                f"--{flag}", dest=f.name, default=f.default,
                action=argparse.BooleanOptionalAction, help=help_text,
            )
        else:
            parser.add_argument(
                f"--{flag}", dest=f.name, type=field_type(f),
                default=f.default, choices=f.metadata.get("choices"),
                help=help_text + " (default: %(default)r)",
            )


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the search (1 = serial, 0 = all cores)",
    )


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", default="", metavar="PATH",
        help="dump the telemetry registry (metrics + spans) as JSON here",
    )


def _read_fault_file(spec: str):
    """``@file.json`` → the JSON fault model in that file; else ``spec``.

    Only the CLI reads files: the request types and the daemon take a
    spec string or a JSON object, never a path.
    """
    spec = spec.strip()
    if not spec.startswith("@"):
        return spec
    path = spec[1:]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ValidationError(
            f"cannot read fault spec file {path!r}: {exc}", "faults"
        ) from exc


def request_body(args, request_cls=None) -> Dict[str, Any]:
    """The flat ``request_cls`` body a command's flags spell.

    ``request_cls`` defaults to the command's request type.  Pass the body
    to ``request_cls.from_json``: validation errors raise
    :class:`repro.ValidationError` (exit code 2 in :func:`main`) with the
    exact message the serving daemon would return.
    """
    body = {
        f.name: getattr(args, f.name)
        for f in request_fields(request_cls or args.request_type)
        if hasattr(args, f.name)
    }
    if "faults" in body:
        body["faults"] = _read_fault_file(body["faults"])
    return body


def _setting(request: SearchRequest):
    model = MODELS_BY_KEY[request.model]
    profiler = FabricProfiler(v100_cluster(request.devices))
    graph = build_block_graph(model.block_shape(batch=request.batch))
    return model, profiler, graph


def _optimizer(args, request: SearchRequest, profiler) -> PrimeParOptimizer:
    return PrimeParOptimizer(
        profiler,
        alpha=request.alpha,
        include_temporal=request.include_temporal,
        beam=request.beam or None,
        jobs=args.jobs,
    )


def _plan_for(args, request: SearchRequest, profiler, graph, model):
    """The ``--plan`` to replay: Megatron's best or PrimePar's search."""
    if args.plan == "megatron":
        return best_megatron_plan(
            EventDrivenSimulator(profiler), graph, request.batch,
            model.n_layers,
        ).plan
    optimizer = _optimizer(args, request, profiler)
    return optimizer.optimize(graph, n_layers=model.n_layers).plan


def _write_metrics_if_requested(args) -> None:
    path = getattr(args, "metrics_out", "")
    if path:
        write_metrics(path)
        logger.info("telemetry metrics written to %s", path)


def cmd_search(args) -> int:
    request = SearchRequest.from_json(request_body(args))
    model, profiler, graph = _setting(request)
    batch = request.batch
    logger.info(
        "searching %s on %d devices (batch %d, beam %s, jobs %d)",
        model.name, request.devices, batch, request.beam or "exact", args.jobs,
    )
    result = _optimizer(args, request, profiler).optimize(
        graph, n_layers=model.n_layers
    )
    for stage, seconds in sorted(result.stage_seconds.items()):
        logger.debug("search stage %s: %.3fs", stage, seconds)
    emit(f"search: {result.elapsed:.2f}s  layer cost {result.cost:.4f}")
    rows = [[name, str(spec)] for name, spec in sorted(result.plan.items())]
    emit(format_table(["operator", "partition sequence P"], rows))
    report = EventDrivenSimulator(profiler).run_model(
        graph, result.plan, batch, model.n_layers
    )
    emit(
        f"\nsimulated: {report.throughput:.2f} samples/s, "
        f"{report.peak_memory_bytes / 2**30:.2f} GiB/device"
    )
    _write_metrics_if_requested(args)
    return 0


def cmd_verify(args) -> int:
    try:
        steps = parse_sequence(args.spec.replace("-", " "))
    except ValueError as exc:
        raise ValidationError(str(exc), "spec") from None
    try:
        spec = PartitionSpec(steps, args.bits)
    except ValueError as exc:
        raise ValidationError(str(exc), "bits") from None
    report = verify_spec(spec, seed=args.seed)
    emit(
        f"spec: {report.spec} over {2 ** args.bits} devices",
        f"all-reduce invocations: {report.allreduce_invocations}",
        f"point-to-point messages: {report.p2p_messages}",
    )
    for name, err in report.max_errors.items():
        emit(f"  max |{name} - reference| = {err:.3e}")
    emit("PASSED" if report.passed else "FAILED")
    return 0 if report.passed else 1


def cmd_compare(args) -> int:
    request = SearchRequest.from_json(request_body(args))
    model, profiler, graph = _setting(request)
    batch = request.batch
    simulator = EventDrivenSimulator(profiler)
    logger.info(
        "comparing baselines for %s on %d devices", model.name, request.devices
    )
    megatron = best_megatron_plan(simulator, graph, batch, model.n_layers)
    alpa = alpa_optimizer(profiler, beam=request.beam or None).optimize(graph)
    alpa_report = simulator.run_model(graph, alpa.plan, batch, model.n_layers)
    primepar = _optimizer(args, request, profiler).optimize(graph)
    pp_report = simulator.run_model(
        graph, primepar.plan, batch, model.n_layers
    )
    rows = []
    for label, report in (
        (f"megatron (d={megatron.dp_degree})", megatron.report),
        ("alpa", alpa_report),
        ("primepar", pp_report),
    ):
        rows.append(
            [
                label,
                f"{report.throughput:.2f}",
                f"{report.throughput / megatron.report.throughput:.3f}",
                f"{report.peak_memory_bytes / 2**30:.2f}",
                f"{report.collective_latency * 1e3:.0f}",
            ]
        )
    emit(
        format_table(
            ["system", "samples/s", "vs megatron", "GiB/dev", "collective ms"],
            rows,
            title=f"{model.name} on {request.devices} simulated V100s, "
            f"batch {batch}",
        )
    )
    return 0


def _emit_utilization(report, n_layers: int) -> None:
    """The post-run utilization summary of ``primepar simulate``."""
    util = report.utilization or {}
    busy = util.get("device_busy_fraction", {})
    if busy:
        rows = [
            [f"dev{device}", f"{fraction * 100:.1f}%"]
            for device, fraction in sorted(
                busy.items(), key=lambda kv: int(kv[0])
            )
        ]
        emit("", format_table(["device", "busy"], rows, title="utilization"))
    links = util.get("link_utilization", {})
    if links:
        hottest = sorted(links.items(), key=lambda kv: -kv[1])[:3]
        link_bytes = util.get("link_bytes", {})
        rows = [
            [
                key,
                f"{share * 100:.1f}%",
                f"{link_bytes.get(key, 0.0) / 2**20:.1f}",
            ]
            for key, share in hottest
        ]
        emit(
            "",
            format_table(
                ["link", "utilization", "MiB moved"], rows,
                title="hottest links",
            ),
        )
    watermark = util.get("memory_watermark")
    if watermark:
        composition = ", ".join(
            f"{kind} {resident / 2**30:.2f} GiB"
            for kind, resident in sorted(
                watermark.get("composition", {}).items()
            )
        )
        emit(
            f"\npeak memory per device: "
            f"{report.peak_memory_bytes / 2**30:.2f} GiB static model, "
            f"{watermark.get('peak_bytes', 0.0) / 2**30:.2f} GiB tracked "
            f"watermark over {n_layers} layers"
            + (f" ({composition})" if composition else "")
        )


def _emit_fault_replay(replay, fault_model, scenario_index, profiler, graph,
                       plan, n_layers, report):
    """Replay one sampled fault scenario on top of a nominal simulation."""
    from .sim.faults import FaultSweep, simulate_scenario

    scenario = fault_model.sample(
        profiler.topology, scenario_index, replay.seed, horizon=report.latency
    )
    outcome = simulate_scenario(
        FaultSweep(profiler, graph, plan, n_layers), scenario,
        fault_model.recovery, report.latency,
    )
    rows = [
        ["nominal", f"{outcome.nominal_latency * 1e3:.3f}"],
        ["compute delay", f"{outcome.compute_delay * 1e3:.3f}"],
        ["link delay", f"{outcome.link_delay * 1e3:.3f}"],
        ["recovery delay", f"{outcome.recovery_delay * 1e3:.3f}"],
        ["faulted", f"{outcome.latency * 1e3:.3f}"],
    ]
    emit(
        "",
        format_table(
            ["component", "ms"], rows,
            title=(
                f"fault scenario {scenario.index} (seed {replay.seed}): "
                f"{len(scenario.stragglers)} straggler(s), "
                f"{len(scenario.degraded_links)} degraded link(s), "
                f"{len(scenario.nic_flaps)} flap(s), "
                f"outage={'yes' if scenario.outage else 'no'}"
            ),
        ),
    )


def cmd_simulate(args) -> int:
    request = SimulateRequest.from_json(request_body(args))
    search, n_layers = request.search, request.n_layers
    replay = None
    if args.faults:
        # The replay reads --faults and --seed as a robustness request.
        replay = RobustnessRequest.from_json(
            request_body(args, RobustnessRequest)
        )
        fault_model = replay.fault_model()
    model, profiler, graph = _setting(search)
    plan = _plan_for(args, search, profiler, graph, model)
    simulator = EventDrivenSimulator(profiler)
    logger.info(
        "simulating %s plan on the event engine (%d devices, %d layers)",
        args.plan, search.devices, n_layers,
    )
    if args.profile:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
        try:
            report = simulator.run_model(graph, plan, search.batch, n_layers)
        finally:
            prof.disable()
            prof.dump_stats(args.profile)
        logger.info("cProfile stats written to %s", args.profile)
        emit(f"cProfile stats written to {args.profile}")
    else:
        report = simulator.run_model(graph, plan, search.batch, n_layers)
    emit(
        f"event engine: {model.name}, {search.devices} devices, "
        f"batch {search.batch}, {n_layers} layers",
        f"iteration latency {report.latency * 1e3:.3f} ms, "
        f"{report.throughput:.2f} samples/s, "
        f"{report.peak_memory_bytes / 2**30:.2f} GiB/device",
    )
    rows = [
        [kind, f"{seconds * 1e3:.3f}"]
        for kind, seconds in sorted(report.breakdown.items())
    ]
    emit(format_table(["kernel kind", "total ms"], rows))
    _emit_utilization(report, n_layers)
    if replay is not None:
        _emit_fault_replay(
            replay, fault_model, args.scenario, profiler, graph, plan,
            n_layers, report,
        )
    if args.trace:
        from .sim.trace import write_trace

        write_trace(
            args.trace,
            report.full_timeline(),
            profiler.topology,
            spans=get_collector().export(),
        )
        logger.info("trace written to %s", args.trace)
        emit(f"trace written to {args.trace}")
    _write_metrics_if_requested(args)
    return 0


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def emit_explanation(doc) -> None:
    """Render an explanation document as ``reporting`` tables."""
    components = doc["components"]
    total = doc["total_cost"]
    rows = [
        [
            name,
            _ms(components[name]),
            f"{components[name] / total * 100:.1f}%" if total else "-",
        ]
        for name in doc["component_order"]
    ]
    rows.append(["total", _ms(total), "100.0%"])
    title = (
        f"cost components ({doc['kind']}, "
        + (
            f"{doc['devices']} devices"
            if doc["kind"] == "plan"
            else doc["config"]
        )
        + ")"
    )
    emit(format_table(["component", "ms", "share"], rows, title=title))
    if doc["kind"] == "pipeline":
        emit(
            f"\nbubble fraction {doc['bubble_fraction'] * 100:.1f}%, "
            f"stage latency {_ms(doc['stage_latency'])} ms, "
            f"throughput {doc['throughput']:.2f} samples/s"
        )
        return
    rows = [
        [
            entry["operator"],
            entry["spec"],
            _ms(entry["compute"]),
            _ms(entry["intra_comm"]),
            _ms(entry["allreduce"]),
            f"{entry['memory_bytes'] / 2**30:.3f}",
        ]
        for entry in doc["per_layer"]
    ]
    emit(
        "",
        format_table(
            ["operator", "spec", "compute", "ring", "allreduce", "GiB"],
            rows,
            title="per layer (ms per iteration)",
        ),
    )
    rows = [
        [
            group["spec"],
            str(len(group["operators"])),
            _ms(group["compute"]),
            _ms(group["intra_comm"]),
            _ms(group["allreduce"]),
        ]
        for group in doc["by_primitive"]
    ]
    emit(
        "",
        format_table(
            ["primitive sequence", "ops", "compute", "ring", "allreduce"],
            rows,
            title="per primitive (ms per iteration)",
        ),
    )
    resharding = [e for e in doc["per_edge"] if e["cost"] > 0]
    if resharding:
        resharding.sort(key=lambda e: -e["cost"])
        rows = [
            [
                f"{e['src']} -> {e['dst']}",
                _ms(e["cost"]),
                _ms(e["forward"]),
                _ms(e["backward"]),
            ]
            for e in resharding[:8]
        ]
        emit(
            "",
            format_table(
                ["edge", "cost", "forward", "backward"],
                rows,
                title="inter-operator resharding (ms)",
            ),
        )
    links = doc.get("links", {})
    link_bytes = links.get("link_bytes", {})
    if link_bytes:
        hottest = sorted(link_bytes.items(), key=lambda kv: -kv[1])[:8]
        link_util = links.get("link_utilization", {})
        rows = [
            [
                key,
                f"{n_bytes / 2**20:.1f}",
                f"{link_util.get(key, 0.0) * 100:.1f}%",
            ]
            for key, n_bytes in hottest
        ]
        emit(
            "",
            format_table(
                ["link", "MiB moved", "utilization"],
                rows,
                title="per-link byte attribution (event engine, one layer)",
            ),
        )


def cmd_explain(args) -> int:
    from .core.explain import explain_pipeline, explain_plan

    request = ExplainRequest.from_json(request_body(args))
    search = request.search
    model, profiler, graph = _setting(search)
    if args.config3d:
        try:
            p, d, m = (int(x) for x in args.config3d.split(":"))
        except ValueError:
            raise ValidationError(
                f"--config3d expects p:d:m, got {args.config3d!r}", "config3d"
            ) from None
        if min(p, d, m) < 1 or p * d * m != search.devices:
            raise ValidationError(
                f"(p={p}, d={d}, m={m}) covers {p * d * m} devices, "
                f"cluster has {search.devices}",
                "config3d",
            )
        from .parallel3d.planner import Config3D

        planner = Planner3D(
            model,
            n_devices=search.devices,
            global_batch=search.batch,
            alpha=search.alpha,
            jobs=args.jobs,
        )
        logger.info(
            "explaining %s under (p=%d, d=%d, m=%d)", args.plan, p, d, m
        )
        try:
            result = planner.simulate(
                Config3D(pipeline=p, data=d, model=m), args.plan
            )
        except ValueError as exc:
            raise ValidationError(str(exc), "config3d") from None
        doc = explain_pipeline(result)
    else:
        plan = _plan_for(args, search, profiler, graph, model)
        logger.info(
            "explaining the %s plan on %d devices", args.plan, search.devices
        )
        doc = explain_plan(
            profiler,
            graph,
            plan,
            alpha=search.alpha,
            include_links=request.links,
            global_batch=search.batch,
        )
    _write_metrics_if_requested(args)
    if args.json:
        emit(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    emit_explanation(doc)
    return 0


def cmd_faults(args) -> int:
    from .sim.faults import robust_search

    request = RobustnessRequest.from_json(request_body(args))
    fault_model = request.fault_model()
    search = request.search
    model, profiler, graph = _setting(search)
    sim_layers = request.n_layers
    logger.info(
        "robust search for %s on %d devices (%d scenarios, seed %d, "
        "objective %s)",
        model.name, search.devices, request.scenarios, request.seed,
        request.objective,
    )
    result = robust_search(
        profiler,
        graph,
        global_batch=search.batch,
        n_layers=model.n_layers,
        fault_model=fault_model,
        objective=request.objective,
        blend=request.blend,
        scenarios=request.scenarios,
        seed=request.seed,
        sim_layers=sim_layers,
        alpha=search.alpha,
        beam=search.beam or None,
        jobs=args.jobs,
    )
    _write_metrics_if_requested(args)
    if args.json:
        emit(json.dumps(result.to_json(), indent=1, sort_keys=True))
        return 0
    rows = [
        [
            candidate.label,
            f"{candidate.report.nominal_latency * 1e3:.3f}",
            f"{candidate.report.p50 * 1e3:.3f}",
            f"{candidate.report.p95 * 1e3:.3f}",
            f"{candidate.report.p99 * 1e3:.3f}",
            f"{candidate.report.expected_recovery_cost * 1e3:.3f}",
            f"{candidate.score * 1e3:.3f}",
        ]
        for candidate in result.candidates
    ]
    emit(
        format_table(
            [
                "plan", "nominal ms", "p50 ms", "p95 ms", "p99 ms",
                "E[recovery] ms", f"{request.objective} score ms",
            ],
            rows,
            title=(
                f"{model.name} on {search.devices} devices, "
                f"{sim_layers} layers, {request.scenarios} scenarios "
                f"(seed {request.seed})"
            ),
        )
    )
    emit(f"\nbest plan under {request.objective}: {result.best.label}")
    return 0


def cmd_serve(args) -> int:
    from .serve.server import PlanServer

    config = ServeConfig(**request_body(args))
    server = PlanServer(config).start()
    emit(f"serving on http://{server.host}:{server.port}")
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")
        logger.info("bound port written to %s", args.port_file)
    logger.info(
        "serve knobs: max_concurrent=%d queue_depth=%d lru_size=%d "
        "deadline=%.1fs jobs=%d",
        config.max_concurrent, config.queue_depth, config.lru_size,
        config.deadline, config.jobs,
    )
    code = server.run_until_signal()
    emit("server stopped" + ("" if code == 0 else " (drain timed out)"))
    return code


def cmd_cache(args) -> int:
    from . import cache as diskcache

    if args.clear:
        removed = diskcache.clear()
        logger.info("cleared %d cache entries", removed)
        emit(f"cleared {removed} cache entries from {diskcache.cache_dir()}")
        return 0
    state = "enabled" if diskcache.cache_enabled() else "disabled (PRIMEPAR_CACHE)"
    emit(
        f"cache directory: {diskcache.cache_dir()}  [{state}]",
        f"entries: {diskcache.entry_count()}, "
        f"{diskcache.total_bytes() / 2**20:.2f} MiB",
    )
    if args.stats:
        rows = [
            [kind, str(count), f"{size / 2**20:.2f}"]
            for kind, (count, size) in sorted(
                diskcache.stats_by_kind().items()
            )
        ]
        emit(
            format_table(
                ["kind", "entries", "MiB"], rows, title="entries by kind"
            )
        )
        from .obs import get_registry

        counters = [
            entry
            for entry in get_registry().snapshot()["counters"]
            if entry["name"].startswith("cache.")
        ]
        rows = [
            [
                entry["name"],
                entry["labels"].get("kind", "-"),
                str(int(entry["value"])),
            ]
            for entry in counters
        ]
        emit(
            format_table(
                ["counter", "kind", "value"], rows,
                title="this-process cache traffic",
            )
        )
        from .serve.store import default_store

        lru = default_store().stats()
        emit(
            format_table(
                ["hits", "misses", "evictions", "entries", "bytes"],
                [
                    [
                        str(lru["hits"]),
                        str(lru["misses"]),
                        str(lru["evictions"]),
                        f"{lru['entries']}/{lru['max_entries']}",
                        str(lru["bytes"]),
                    ]
                ],
                title="in-memory plan store (this process)",
            )
        )
    return 0


def cmd_sweep3d(args) -> int:
    request = SearchRequest.from_json(request_body(args))
    model = MODELS_BY_KEY[request.model]
    logger.info(
        "3D sweep of %s over %d devices (jobs %d)",
        model.name, request.devices, args.jobs,
    )
    planner = Planner3D(
        model,
        n_devices=request.devices,
        global_batch=request.batch,
        microbatch=args.microbatch,
        alpha=request.alpha,
        jobs=args.jobs,
    )
    megatron = {str(r.config): r for r in planner.sweep("megatron")}
    primepar = {str(r.config): r for r in planner.sweep("primepar")}
    rows = [
        [
            config,
            f"{megatron[config].throughput:.2f}",
            f"{primepar[config].throughput:.2f}",
            f"{primepar[config].throughput / megatron[config].throughput:.2f}x",
        ]
        for config in megatron
    ]
    emit(
        format_table(
            ["(p,d,m)", "megatron", "primepar", "speedup"],
            rows,
            title=f"{model.name}: 3D parallelism on {request.devices} devices",
        )
    )
    return 0


def _labels_text(labels) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _cache_tier_table(document) -> str:
    """Disk vs in-memory cache-tier summary, or ``""`` when untouched.

    The disk tier aggregates the per-kind ``cache.*`` counters; the
    memory tier is the serving daemon's ``plan_store.*`` family.
    """

    def counter_total(name: str) -> float:
        return sum(
            e["value"]
            for e in document.get("counters", ())
            if e["name"] == name
        )

    def gauge_value(name: str) -> float:
        for e in document.get("gauges", ()):
            if e["name"] == name:
                return e["value"]
        return 0.0

    disk = [counter_total(f"cache.{c}") for c in ("hits", "misses", "stores")]
    memory = [
        counter_total(f"plan_store.{c}")
        for c in ("hits", "misses", "evictions")
    ]
    if not any(disk) and not any(memory):
        return ""
    rows = [
        [
            "memory (LRU)",
            f"{memory[0]:g}",
            f"{memory[1]:g}",
            f"{memory[2]:g}",
            "-",
            f"{gauge_value('plan_store.entries'):g}",
            f"{gauge_value('plan_store.bytes'):g}",
        ],
        [
            "disk",
            f"{disk[0]:g}",
            f"{disk[1]:g}",
            "-",
            f"{disk[2]:g}",
            "-",
            "-",
        ],
    ]
    return format_table(
        ["tier", "hits", "misses", "evictions", "stores", "entries", "bytes"],
        rows,
        title="cache tiers",
    )


def cmd_report(args) -> int:
    with open(args.metrics, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if args.prometheus:
        registry = MetricsRegistry()
        registry.merge_snapshot(document)
        emit(registry.to_prometheus().rstrip("\n"))
        return 0
    tiers = _cache_tier_table(document)
    if tiers:
        emit(tiers, "")
    counters = document.get("counters", [])
    if counters:
        rows = [
            [e["name"], _labels_text(e["labels"]), f"{e['value']:g}"]
            for e in counters
        ]
        emit(format_table(["counter", "labels", "value"], rows))
    gauges = document.get("gauges", [])
    if gauges:
        rows = [
            [e["name"], _labels_text(e["labels"]), f"{e['value']:g}"]
            for e in gauges
        ]
        emit("", format_table(["gauge", "labels", "value"], rows))
    histograms = document.get("histograms", [])
    if histograms:
        rows = [
            [
                e["name"],
                _labels_text(e["labels"]),
                str(e["count"]),
                f"{e['sum']:g}",
                f"{e['sum'] / e['count']:g}" if e["count"] else "-",
            ]
            for e in histograms
        ]
        emit("", format_table(
            ["histogram", "labels", "count", "sum", "mean"], rows
        ))
    if not any((tiers, counters, gauges, histograms, document.get("spans"))):
        emit("no metrics recorded")
        return 0
    spans = document.get("spans", [])
    if spans:
        totals = {}
        for entry in spans:
            path = entry["path"]
            count, total = totals.get(path, (0, 0.0))
            totals[path] = (count + 1, total + entry["duration"])
        rows = [
            [
                "  " * path.count("/") + path.rsplit("/", 1)[-1],
                str(count),
                f"{total * 1e3:.2f}",
            ]
            for path, (count, total) in sorted(totals.items())
        ]
        emit("", format_table(["span", "count", "total ms"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primepar",
        description="PrimePar reproduction: spatial-temporal tensor partitioning",
    )
    parser.add_argument(
        "--log-level", choices=LEVELS, default=None,
        help="structured-log verbosity (default: $PRIMEPAR_LOG_LEVEL or "
             "warning)",
    )
    parser.add_argument(
        "--log-json", action="store_true", default=None,
        help="emit JSON-lines logs (default: $PRIMEPAR_LOG_JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="search a partition strategy")
    _add_request_flags(search, SearchRequest, skip=("deadline",))
    _add_jobs(search)
    _add_metrics_out(search)
    search.set_defaults(func=cmd_search)

    verify = sub.add_parser("verify", help="verify a spec numerically")
    verify.add_argument("--spec", required=True, help='e.g. "N-P2x2"')
    verify.add_argument("--bits", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    compare = sub.add_parser("compare", help="compare against the baselines")
    _add_request_flags(compare, SearchRequest)
    _add_jobs(compare)
    compare.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep3d", help="3D parallelism sweep (Fig. 10)")
    _add_request_flags(sweep, SearchRequest)
    _add_jobs(sweep)
    sweep.add_argument("--microbatch", type=int, default=4)
    sweep.set_defaults(func=cmd_sweep3d)

    simulate = sub.add_parser(
        "simulate", help="replay a plan on the event-driven engine"
    )
    _add_request_flags(simulate, SimulateRequest)
    _add_request_flags(simulate, RobustnessRequest, only=("faults", "seed"))
    _add_jobs(simulate)
    simulate.add_argument(
        "--plan", choices=("primepar", "megatron"), default="primepar",
        help="partition plan to replay (default: primepar's search result)",
    )
    simulate.add_argument(
        "--trace", default="",
        help="write a Chrome/Perfetto trace JSON of the timeline here "
             "(includes an optimizer-span track)",
    )
    simulate.add_argument(
        "--profile", default="", metavar="PATH",
        help="profile the simulation with cProfile and dump pstats here "
             "(inspect with `python -m pstats PATH`)",
    )
    simulate.add_argument(
        "--scenario", type=int, default=0,
        help="with --faults: replay this sampled scenario index on top of "
             "the nominal run (default 0)",
    )
    _add_metrics_out(simulate)
    simulate.set_defaults(func=cmd_simulate)

    faults = sub.add_parser(
        "faults",
        help="rank plans by tail latency under a seeded fault model",
    )
    _add_request_flags(faults, RobustnessRequest)
    _add_jobs(faults)
    faults.add_argument(
        "--json", action="store_true",
        help="print the schema-stable robust-search JSON instead of tables",
    )
    _add_metrics_out(faults)
    faults.set_defaults(func=cmd_faults)

    explain = sub.add_parser(
        "explain", help="decompose a plan's predicted iteration cost"
    )
    _add_request_flags(explain, ExplainRequest)
    _add_jobs(explain)
    explain.add_argument(
        "--plan", choices=("primepar", "megatron"), default="primepar",
        help="partition plan to explain (default: primepar's search result)",
    )
    explain.add_argument(
        "--config3d", default="", metavar="P:D:M",
        help="explain a 3D configuration's iteration latency (pipeline "
             "bubble decomposition) instead of a flat tensor-parallel plan",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="print the schema-stable explanation JSON instead of tables",
    )
    _add_metrics_out(explain)
    explain.set_defaults(func=cmd_explain)

    serve = sub.add_parser(
        "serve", help="run the plan-serving HTTP daemon"
    )
    _add_request_flags(serve, ServeConfig, skip=("retry_after",))
    serve.add_argument(
        "--port-file", default="", metavar="PATH",
        help="write the bound port here once listening (for scripts/CI)",
    )
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent search cache"
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete all cache entries"
    )
    cache.add_argument(
        "--stats", action="store_true",
        help="per-kind entry counts/sizes and this-process hit/miss counters",
    )
    cache.set_defaults(func=cmd_cache)

    report = sub.add_parser(
        "report", help="render a --metrics-out JSON dump as tables"
    )
    report.add_argument("metrics", help="path to a --metrics-out JSON file")
    report.add_argument(
        "--prometheus", action="store_true",
        help="print the Prometheus text exposition format instead",
    )
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_mode=args.log_json)
    try:
        return args.func(args)
    except ValidationError as exc:
        logger.error("invalid request: %s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
