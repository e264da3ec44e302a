"""Command-line interface."""

import json

import pytest

from repro.api import (
    MAX_BATCH,
    MAX_LAYERS,
    RobustnessRequest,
    SearchRequest,
    SimulateRequest,
    ValidationError,
)
from repro.cli import (
    build_parser,
    cmd_sweep3d,
    cmd_verify,
    main,
    request_body,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.model == "opt-6.7b"
        assert args.devices == 8
        assert args.batch == 0
        assert args.include_temporal
        assert SearchRequest.from_json(request_body(args)).batch == 8

    def test_verify_args(self):
        args = build_parser().parse_args(
            ["verify", "--spec", "P2x2", "--bits", "2"]
        )
        assert args.spec == "P2x2"
        assert args.bits == 2

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--model", "gpt-5"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert not hasattr(args, "engine")
        assert args.plan == "primepar"
        assert args.trace == ""

    def test_simulate_rejects_negative_layers(self):
        args = build_parser().parse_args(["simulate", "--layers", "-3"])
        with pytest.raises(ValidationError) as err:
            SimulateRequest.from_json(request_body(args))
        assert err.value.field == "layers"
        assert main(["simulate", "--devices", "4", "--layers", "-3"]) == 2

    @pytest.mark.parametrize(
        "argv", [["simulate"], ["faults", "--scenarios", "1"]]
    )
    def test_layers_bounded(self, capsys, argv):
        argv = argv + ["--devices", "2", "--layers"]
        assert main(argv + [str(MAX_LAYERS + 1)]) == 2
        assert (
            f"invalid request: layers must be in [0, {MAX_LAYERS}], "
            f"got {MAX_LAYERS + 1}" in capsys.readouterr().err
        )
        assert main(argv + [str(MAX_LAYERS)]) == 0

    def test_alpha_bounded(self, capsys):
        assert main(["search", "--devices", "2", "--alpha", "1e300"]) == 2
        assert "invalid request: alpha must be in [0, 1.0]" in (
            capsys.readouterr().err
        )

    def test_batch_bounded(self, capsys):
        argv = ["search", "--devices", "2", "--batch"]
        assert main(argv + [str(MAX_BATCH + 1)]) == 2
        assert (
            f"invalid request: batch must be in [0, {MAX_BATCH}], "
            f"got {MAX_BATCH + 1}" in capsys.readouterr().err
        )
        assert main(argv + [str(MAX_BATCH)]) == 0

    def test_serve_port_bounded(self, capsys):
        """An out-of-range port exits 2 before the daemon binds."""
        assert main(["serve", "--port", "70000"]) == 2
        assert (
            "invalid request: port must be in [0, 65535], got 70000"
            in capsys.readouterr().err
        )

    def test_sweep3d_rejects_negative_microbatch(self, capsys):
        args = build_parser().parse_args(["sweep3d", "--microbatch", "-4"])
        with pytest.raises(ValidationError) as err:
            cmd_sweep3d(args)
        assert err.value.field == "microbatch"
        capsys.readouterr()
        assert main(["sweep3d", "--devices", "4", "--microbatch", "-4"]) == 2
        assert (
            "invalid request: microbatch must be >= 0, got -4"
            in capsys.readouterr().err
        )

    def test_explain_rejects_config3d_device_mismatch(self, capsys):
        assert main(["explain", "--devices", "8", "--config3d", "2:2:4"]) == 2
        assert (
            "invalid request: (p=2, d=2, m=4) covers 16 devices, cluster has 8"
            in capsys.readouterr().err
        )

    def test_explain_rejects_malformed_config3d(self, capsys):
        assert main(["explain", "--devices", "8", "--config3d", "2:x:4"]) == 2
        assert (
            "invalid request: --config3d expects p:d:m, got '2:x:4'"
            in capsys.readouterr().err
        )

    def test_explain_rejects_config3d_batch_split(self, capsys):
        argv = ["explain", "--devices", "8", "--batch", "12"]
        assert main(argv + ["--config3d", "1:8:1"]) == 2
        assert (
            "invalid request: (p=1, d=8, m=1): global batch 12 does not split"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "spec, bits, field, message",
        [
            ("N-P2x2", "4", "bits", "sequence consumes 3 bits but cluster has 4"),
            ("N-P2x2", "0", "bits", "sequence consumes 3 bits but cluster has 0"),
            ("bogus", "2", "spec", "unrecognised partition step token: 'bogus'"),
            ("P2x2", "2 --seed -1", "seed", "seed must be >= 0, got -1"),
        ],
    )
    def test_verify_rejects_bad_spec_or_bits(
        self, capsys, spec, bits, field, message
    ):
        argv = ["verify", "--spec", spec, "--bits", *bits.split()]
        with pytest.raises(ValidationError) as err:
            cmd_verify(build_parser().parse_args(argv))
        assert err.value.field == field
        capsys.readouterr()
        assert main(argv) == 2
        assert f"invalid request: {message}" in capsys.readouterr().err

    def test_fault_file_is_read_by_the_cli(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"straggler_rate": 0.5}))
        args = build_parser().parse_args(["faults", "--faults", f"@{path}"])
        request = RobustnessRequest.from_json(request_body(args))
        assert request.faults == {"straggler_rate": 0.5}
        assert request.fault_model().straggler_rate == 0.5
        missing = build_parser().parse_args(
            ["faults", "--faults", f"@{tmp_path / 'absent.json'}"]
        )
        with pytest.raises(ValidationError) as err:
            request_body(missing)
        assert err.value.field == "faults"


class TestCommands:
    def test_verify_pass(self, capsys):
        assert main(["verify", "--spec", "P2x2", "--bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out
        assert "all-reduce invocations: 0" in out

    def test_verify_megatron_spec(self, capsys):
        assert main(["verify", "--spec", "B-N", "--bits", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_search_small(self, capsys):
        code = main(
            ["search", "--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partition sequence" in out
        assert "samples/s" in out

    def test_search_no_temporal(self, capsys):
        code = main(
            [
                "search", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--no-temporal",
            ]
        )
        assert code == 0
        assert "P2x2" not in capsys.readouterr().out

    def test_compare_small(self, capsys):
        code = main(
            ["compare", "--model", "opt-6.7b", "--devices", "4", "--batch", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "megatron" in out and "primepar" in out

    def test_compare_alpa_row_is_conventional_search(self, capsys):
        """The ``alpa`` row is PrimePar's own search without the temporal
        primitive, under the comparison's alpha, replayed at full depth."""
        from repro import (
            EventDrivenSimulator, FabricProfiler, PrimeParOptimizer,
            build_block_graph, v100_cluster,
        )
        from repro.graph.models import OPT_6_7B

        alpha = 3e-11
        code = main(
            ["compare", "--model", "opt-6.7b", "--devices", "4",
             "--batch", "8", "--alpha", str(alpha)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f"alpha {alpha:g} s/byte")
        (row,) = [line for line in lines if line.startswith("alpa ")]
        samples, _, memory, collective = [
            cell.strip() for cell in row.split("|")[1:]
        ]
        profiler = FabricProfiler(v100_cluster(4))
        graph = build_block_graph(OPT_6_7B.block_shape(batch=8))
        plan = PrimeParOptimizer(
            profiler, alpha=alpha, include_temporal=False
        ).optimize(graph).plan
        report = EventDrivenSimulator(profiler).run_model(
            graph, plan, 8, OPT_6_7B.n_layers
        )
        assert samples == f"{report.throughput:.2f}"
        assert memory == f"{report.peak_memory_bytes / 2**30:.2f}"
        assert collective == f"{report.collective_latency * 1e3:.0f}"

    def test_simulate_event_with_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event engine" in out
        assert "iteration latency" in out
        doc = json.loads(trace_path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events and all(e["dur"] > 0 for e in events)

    def test_faults_reads_fault_file(self, capsys, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(
            json.dumps({"straggler_rate": 1.0, "straggler_slowdown": 1.5})
        )
        code = main(
            [
                "faults", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "4", "--faults", f"@{path}", "--scenarios", "2",
                "--layers", "1", "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["fault_model"]["straggler_rate"] == 1.0
        assert report["n_scenarios"] == len(report["outcomes"]) == 2

    def test_simulate_megatron(self, capsys):
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "1", "--plan", "megatron",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "event engine" in out

    def test_simulate_profile_writes_pstats(self, capsys, tmp_path):
        import pstats

        profile_path = tmp_path / "sim.pstats"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--plan", "megatron",
                "--profile", str(profile_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"cProfile stats written to {profile_path}" in out
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_simulate_metrics_out_has_engine_counters(
        self, capsys, tmp_path
    ):
        """Splice, report-cache and event-queue counters reach the dump."""
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "simulate", "--model", "opt-6.7b", "--devices", "4",
                "--batch", "8", "--layers", "2", "--plan", "megatron",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads(metrics_path.read_text())
        names = {entry["name"] for entry in doc["counters"]}
        assert "sim.splice" in names
        assert "sim.queue_pushes" in names
        assert "sim.contention_flushes" in names
        assert any(
            entry["name"] == "cache.hits"
            and entry["labels"].get("kind") == "simreport"
            for entry in doc["counters"]
        )
