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
(exit code 2).  ``verify`` reports a malformed ``--spec``, a ``--bits``
the spec does not consume or a negative ``--seed`` the same way.

``search``, ``simulate``, ``explain`` and ``faults`` answer through an
in-process :class:`repro.serve.PlanService` with a fresh in-memory plan
store (the disk tier is shared as usual) and only render its payloads,
so a command gives the same answer as the daemon's endpoint.  They import
:mod:`repro.serve` when they run, so ``verify``, ``report`` and ``cache``
never load it.

Global observability flags: ``--log-level``/``--log-json`` configure the
structured logger (stderr; result tables stay on stdout), and ``search``,
``simulate``, ``explain`` and ``faults`` accept ``--metrics-out PATH`` to
dump the telemetry registry (counters, gauges, histograms, spans) as
schema-stable JSON that ``primepar report`` renders; only then, or for
``simulate --trace``, does a command run under a root span collector.
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
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
    parse_sequence,
    verify_spec,
)
from .api import ServeConfig, field_type, plan_from_json, request_fields
from .baselines.portfolio import portfolio
from .graph.models import MODELS_BY_KEY
from .obs import (
    SpanCollector,
    configure_logging,
    get_collector,
    get_logger,
    use_collector,
    write_metrics,
)
from .obs.logsetup import LEVELS
from .obs.metrics import MetricsRegistry
from .reporting.tables import emit, format_table

logger = get_logger("cli")

#: Request fields a command leaves off its flags: ``deadline`` is the
#: server's budget, and only ``search`` honours ``include_temporal``.
_SKIP = ("deadline", "include_temporal")


def _add_request_flags(parser, request_cls, skip=_SKIP) -> None:
    """One flag per field of ``request_cls``, all spelled by :mod:`repro.api`.

    ``request_cls`` is a request type or :class:`~repro.api.ServeConfig`,
    and becomes the command's request type (see :func:`request_body`).
    Name, type, default, choices and help come from the field.  A boolean
    that defaults on gets ``--no-<flag>``; one that defaults off gets
    ``--<flag>``/``--no-<flag>``.
    """
    parser.set_defaults(request_type=request_cls)
    for f in request_fields(request_cls):
        if f.name in skip:
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


def request_body(args) -> Dict[str, Any]:
    """The flat body of the command's request type that its flags spell.

    Pass the body to the request type's ``from_json`` (or a
    :class:`~repro.serve.PlanService` entry): validation errors raise
    :class:`repro.ValidationError` (exit code 2 in :func:`main`) with the
    exact message the serving daemon would return.
    """
    body = {
        f.name: getattr(args, f.name)
        for f in request_fields(args.request_type)
        if hasattr(args, f.name)
    }
    if "faults" in body:
        body["faults"] = _read_fault_file(body["faults"])
    return body


def _service(args):
    """An in-process :class:`~repro.serve.PlanService` for one command.

    Its in-memory plan store starts empty, as in a new process; the disk
    tier is shared as usual.
    """
    from .serve.service import PlanService
    from .serve.store import PlanStore

    return PlanService(store=PlanStore(), jobs=args.jobs)


def _answer(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A service payload less the keys that say how it travelled."""
    from .serve.service import TRANSPORT_KEYS

    return {k: v for k, v in payload.items() if k not in TRANSPORT_KEYS}


def render_search(found: Dict[str, Any], simulated: Dict[str, Any]) -> None:
    """``primepar search``: a search payload and its full-depth replay."""
    emit(
        f"search: {found['elapsed']:.2f}s  layer cost {found['cost']:.4f}  "
        f"(plan {found['source']})"
    )
    rows = [[name, spec] for name, spec in found["plan"].items()]
    emit(format_table(["operator", "partition sequence P"], rows))
    emit(
        f"\nsimulated: {simulated['throughput']:.2f} samples/s, "
        f"{simulated['peak_memory_bytes'] / 2**30:.2f} GiB/device"
    )


def cmd_search(args) -> int:
    service, body = _service(args), request_body(args)
    render_search(
        service.search_from_request(body), service.simulate_from_request(body)
    )
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
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}", "seed")
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
    from .serve.service import _setting

    request = SearchRequest.from_json(request_body(args))
    model, topology, graph = _setting(request)
    profiler = FabricProfiler(topology)
    batch = request.batch
    simulator = EventDrivenSimulator(profiler)
    logger.info(
        "comparing baselines for %s on %d devices", model.name, request.devices
    )
    plans = portfolio(
        profiler, graph, global_batch=batch, n_layers=model.n_layers,
        alpha=request.alpha, beam=request.beam or None, jobs=args.jobs,
    )
    megatron = plans.megatron
    rows = []
    for label, report in (
        (f"megatron (d={megatron.dp_degree})", megatron.report),
        ("alpa", simulator.run_model(
            graph, plans.conventional.plan, batch, model.n_layers
        )),
        ("primepar", simulator.run_model(
            graph, plans.primepar.plan, batch, model.n_layers
        )),
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
            f"batch {batch}, alpha {request.alpha:g} s/byte",
        )
    )
    return 0


def _emit_utilization(payload: Dict[str, Any]) -> None:
    """The utilization summary of a simulate payload."""
    util = payload["utilization"] or {}
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
    composition = ", ".join(
        f"{kind} {resident / 2**30:.2f} GiB"
        for kind, resident in sorted(
            util.get("memory_watermark", {}).get("composition", {}).items()
        )
    )
    emit(
        f"\npeak memory per device: "
        f"{payload['peak_memory_bytes'] / 2**30:.2f} GiB over "
        f"{payload['layers']} layers"
        + (f" ({composition})" if composition else "")
    )


def render_simulate(payload: Dict[str, Any]) -> None:
    """``primepar simulate``: a simulate payload as tables."""
    emit(
        f"event engine: {MODELS_BY_KEY[payload['model']].name}, "
        f"{payload['devices']} devices, batch {payload['batch']}, "
        f"{payload['layers']} layers",
        f"iteration latency {payload['latency'] * 1e3:.3f} ms, "
        f"{payload['throughput']:.2f} samples/s, "
        f"{payload['peak_memory_bytes'] / 2**30:.2f} GiB/device",
    )
    rows = [
        [kind, f"{seconds * 1e3:.3f}"]
        for kind, seconds in payload["breakdown"].items()
    ]
    emit(format_table(["kernel kind", "total ms"], rows))
    _emit_utilization(payload)


def _write_trace(path: str, payload: Dict[str, Any]) -> None:
    """Replay a simulate payload's plan once more for its full timeline.

    The replay is a report-cache hit, whose clock is the payload's
    ``latency``.
    """
    from .serve.service import _setting
    from .sim.trace import write_trace

    _, topology, graph = _setting(
        SearchRequest(
            model=payload["model"], devices=payload["devices"],
            batch=payload["batch"],
        )
    )
    report = EventDrivenSimulator(FabricProfiler(topology)).run_model(
        graph, plan_from_json(payload["plan"], topology.n_bits),
        payload["batch"], payload["layers"],
    )
    write_trace(
        path, report.full_timeline(), topology,
        spans=get_collector().export(),
    )
    logger.info("trace written to %s", path)
    emit(f"trace written to {path}")


def cmd_simulate(args) -> int:
    service, body = _service(args), request_body(args)
    if args.profile:
        import cProfile

        prof = cProfile.Profile()
        try:
            payload = prof.runcall(service.simulate_from_request, body)
        finally:
            prof.dump_stats(args.profile)
        logger.info("cProfile stats written to %s", args.profile)
        emit(f"cProfile stats written to {args.profile}")
    else:
        payload = service.simulate_from_request(body)
    render_simulate(payload)
    if args.trace:
        _write_trace(args.trace, payload)
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
    body = request_body(args)
    if args.config3d:
        from .core.explain import explain_pipeline

        request = ExplainRequest.from_json(body)
        search = request.search
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
            MODELS_BY_KEY[search.model],
            n_devices=search.devices,
            global_batch=search.batch,
            alpha=search.alpha,
            jobs=args.jobs,
        )
        logger.info(
            "explaining %s under (p=%d, d=%d, m=%d)", request.plan, p, d, m
        )
        try:
            result = planner.simulate(
                Config3D(pipeline=p, data=d, model=m), request.plan
            )
        except ValueError as exc:
            raise ValidationError(str(exc), "config3d") from None
        doc = explain_pipeline(result)
    else:
        doc = _answer(_service(args).explain_from_request(body))
    if args.json:
        emit(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    emit_explanation(doc)
    return 0


def render_robustness(payload: Dict[str, Any], plan: str) -> None:
    """``primepar faults``: a robustness payload as tables."""
    report = payload["report"]
    tails = ("nominal_latency", "p50", "p95", "p99", "expected_recovery_cost")
    emit(
        format_table(
            [
                "plan", "nominal ms", "p50 ms", "p95 ms", "p99 ms",
                "E[recovery] ms", f"{payload['objective']} score ms",
            ],
            [[plan, *(_ms(report[k]) for k in tails), _ms(payload["score"])]],
            title=(
                f"{MODELS_BY_KEY[payload['model']].name} on "
                f"{payload['devices']} devices, {payload['layers']} layers, "
                f"{report['n_scenarios']} scenarios (seed {report['seed']})"
            ),
        )
    )
    delays = ("latency", "compute_delay", "link_delay", "recovery_delay")
    faults = ("stragglers", "degraded_links", "nic_flaps", "outage")
    rows = [
        [
            str(o["index"]),
            *(_ms(o[k]) for k in delays),
            *(str(o[k]) for k in faults),
        ]
        for o in report["outcomes"]
    ]
    headers = ["scenario", *(k.replace("_", " ") for k in delays + faults)]
    emit("", format_table(headers, rows, title="per scenario (ms)"))


def cmd_faults(args) -> int:
    payload = _answer(_service(args).robustness_from_request(request_body(args)))
    if args.json:
        emit(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    render_robustness(payload, args.plan)
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
    return 0


def cmd_sweep3d(args) -> int:
    request = SearchRequest.from_json(request_body(args))
    if args.microbatch < 0:
        raise ValidationError(
            f"microbatch must be >= 0, got {args.microbatch}", "microbatch"
        )
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
    sweep.add_argument(
        "--microbatch", type=int, default=4,
        help="sequences per pipeline micro-batch (0 = 1)",
    )
    sweep.set_defaults(func=cmd_sweep3d)

    simulate = sub.add_parser(
        "simulate", help="replay a plan on the event-driven engine"
    )
    _add_request_flags(simulate, SimulateRequest)
    _add_jobs(simulate)
    simulate.add_argument(
        "--trace", default="",
        help="write a Chrome/Perfetto trace JSON of the timeline here "
             "(includes an optimizer-span track)",
    )
    simulate.add_argument(
        "--profile", default="", metavar="PATH",
        help="profile the request (plan lookup or search, then the "
             "replay) with cProfile and dump pstats here (inspect with "
             "`python -m pstats PATH`)",
    )
    _add_metrics_out(simulate)
    simulate.set_defaults(func=cmd_simulate)

    faults = sub.add_parser(
        "faults",
        help="score a plan's tail latency under a seeded fault model",
    )
    _add_request_flags(faults, RobustnessRequest)
    _add_jobs(faults)
    faults.add_argument(
        "--json", action="store_true",
        help="print the /v1/robustness answer as JSON instead of tables",
    )
    _add_metrics_out(faults)
    faults.set_defaults(func=cmd_faults)

    explain = sub.add_parser(
        "explain", help="decompose a plan's predicted iteration cost"
    )
    _add_request_flags(explain, ExplainRequest)
    _add_jobs(explain)
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
        help="also list entry counts and sizes per kind",
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
    metrics_out = getattr(args, "metrics_out", "")
    keep_spans = metrics_out or getattr(args, "trace", "")
    try:
        with use_collector(SpanCollector() if keep_spans else get_collector()):
            code = args.func(args)
            if metrics_out:
                write_metrics(metrics_out)
                logger.info("telemetry metrics written to %s", metrics_out)
            return code
    except ValidationError as exc:
        logger.error("invalid request: %s", exc)
        return 2


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())
