#!/usr/bin/env python3
"""Diff benchmark JSON against checked-in baselines, with teeth.

The repo checks full-run benchmark results into ``benchmarks/results/``
(``BENCH_serve.json``, ``BENCH_sim_speed.json``, ``BENCH_robustness.json``,
``BENCH_opt_speed.json``).  This tool turns them into a regression gate:

* **full mode** (default) — compare a current run's file against the
  baseline of the same name, metric by metric, failing when a metric
  regresses past its per-metric relative threshold (latency may rise at
  most X%, throughput/speedups may fall at most Y%) or when an exact
  invariant (replay bit-identity, zero errors, exactly one coalesced
  search) breaks::

      PYTHONPATH=src python benchmarks/bench_serve.py --out /tmp/r/BENCH_serve.json
      python tools/bench_compare.py --current-dir /tmp/r

* **--smoke mode** (CI) — smoke configurations are deliberately smaller
  than the checked-in full runs, so ratios against the baselines are
  meaningless; instead validate the current smoke outputs against
  *absolute* bounds and structural invariants, and additionally verify the
  checked-in baselines still parse and carry every metric the full-mode
  thresholds reference (schema drift fails here, not at 2am)::

      python tools/bench_compare.py --smoke --current-dir /tmp/r

Exit status: 0 when every check passes, 1 otherwise; one line per check.
Paths use dots for keys and ``[*]`` to fan out over a list or a dict's
values (``block_replay[*].identical``); a fanned-out threshold compares the
current and baseline values element by element.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO_ROOT / "benchmarks" / "results"

#: Full-mode relative thresholds: (file, metric path, direction, max
#: fractional regression).  ``higher_worse`` metrics may rise by at most
#: the fraction; ``lower_worse`` metrics may fall by at most it.
THRESHOLDS: List[Tuple[str, str, str, float]] = [
    ("BENCH_serve.json", "warm.p50_ms", "higher_worse", 0.25),
    ("BENCH_serve.json", "warm.p95_ms", "higher_worse", 0.25),
    ("BENCH_serve.json", "cold.p95_ms", "higher_worse", 0.50),
    ("BENCH_serve.json", "throughput.rps", "lower_worse", 0.25),
    ("BENCH_sim_speed.json", "contended_replay.speedup_warm",
     "lower_worse", 0.50),
    ("BENCH_sim_speed.json", "fig9_pipeline_replay.speedup_warm",
     "lower_worse", 0.50),
    # The cold engine alone: live fault-graph execute vs the frozen one.
    ("BENCH_sim_speed.json", "faulted_execute.speedup",
     "lower_worse", 0.50),
    # A transfer-free DAG's one-pass schedule vs the event loop on it.
    ("BENCH_sim_speed.json",
     "faulted_execute.classes.transfer_free.speedup_vs_loop",
     "lower_worse", 0.50),
    # Kernels each fault-sweep DAG holds: the build is deterministic, so
    # no allowance; kernels that shape no schedule must not come back.
    ("BENCH_sim_speed.json", "faulted_execute.classes[*].kernels",
     "higher_worse", 0.0),
    # Seconds to build each class's fault-sweep template once (the live
    # graph fills its execution tables as it appends).
    ("BENCH_sim_speed.json", "faulted_execute.classes[*].build_seconds",
     "higher_worse", 0.50),
    # The same template built by stacking one lowered layer's blocks, vs
    # lowering every layer (the graphs must be equal: ``identical``).
    ("BENCH_sim_speed.json", "faulted_execute.classes[*].build_speedup",
     "lower_worse", 0.50),
    # The robustness metrics are deterministic simulation outputs (seeded
    # scenarios, nearest-rank percentiles) — any drift is a model change,
    # so the tolerance is tight rather than a noise allowance.
    ("BENCH_robustness.json", "nominal_latency", "higher_worse", 0.02),
    ("BENCH_robustness.json", "fault_classes.mixed.p99",
     "higher_worse", 0.02),
    ("BENCH_robustness.json", "fault_classes.compute.p99",
     "higher_worse", 0.02),
    # Sweep wall time, bound by event replay (each DAG shape is built once
    # per sweep).  Mixed is the slowest class.
    ("BENCH_robustness.json", "fault_classes.compute.wall_seconds",
     "higher_worse", 0.50),
    ("BENCH_robustness.json", "fault_classes.link.wall_seconds",
     "higher_worse", 0.50),
    ("BENCH_robustness.json", "fault_classes.mixed.wall_seconds",
     "higher_worse", 0.50),
    # One entry per scale (4/8/16/32 devices).  Warm searches are bound by
    # the segment DP, cold ones by the candidate builds.
    ("BENCH_opt_speed.json", "scales[*].runs.warm_serial.elapsed_seconds",
     "higher_worse", 0.50),
    ("BENCH_opt_speed.json", "scales[*].runs.cold_serial.elapsed_seconds",
     "higher_worse", 0.50),
    # Eq. 8-9 edge pricing of the warm serial search, on its own, so a
    # pricing regression cannot hide behind a faster Bellman pass.
    ("BENCH_opt_speed.json", "scales[*].runs.warm_serial.edge_pricing_seconds",
     "higher_worse", 0.50),
    # Disk bytes a cold-serial search leaves: deterministic pickles, so the
    # allowance is for a schema change, not noise.
    ("BENCH_opt_speed.json", "scales[*].cache_bytes", "higher_worse", 0.10),
]

#: Exact invariants that must hold in *every* run (full or baseline).
INVARIANTS: List[Tuple[str, str, Any]] = [
    ("BENCH_serve.json", "throughput.errors", 0),
    ("BENCH_serve.json", "coalesced.searches", 1.0),
    ("BENCH_sim_speed.json", "block_replay[*].identical", True),
    ("BENCH_sim_speed.json", "contended_replay.identical", True),
    ("BENCH_sim_speed.json", "fig9_pipeline_replay.identical", True),
    ("BENCH_sim_speed.json", "model_replay.identical", True),
    ("BENCH_sim_speed.json", "sweep.identical", True),
    ("BENCH_sim_speed.json", "faulted_execute.identical", True),
    ("BENCH_robustness.json", "determinism.serial_equals_parallel", True),
    ("BENCH_robustness.json", "fault_classes[*].reports_identical", True),
    ("BENCH_opt_speed.json", "scales[*].identical", True),
    ("BENCH_opt_speed.json", "sweep.identical", True),
]

#: Smoke-mode absolute bounds on the current run: (file, path, op, bound).
SMOKE_BOUNDS: List[Tuple[str, str, str, float]] = [
    ("BENCH_serve.json", "warm.p95_ms", "<", 50.0),
    ("BENCH_serve.json", "tracing.p95_ms", "<", 50.0),
    ("BENCH_serve.json", "throughput.rps", ">", 1.0),
    ("BENCH_sim_speed.json", "contended_replay.speedup_warm", ">", 1.0),
    ("BENCH_sim_speed.json", "faulted_execute.classes[*].build_speedup",
     ">", 1.0),
    ("BENCH_robustness.json", "nominal_latency", ">", 0.0),
    ("BENCH_opt_speed.json", "scales[*].runs.warm_serial.elapsed_seconds",
     "<", 10.0),
    ("BENCH_opt_speed.json", "scales[*].runs.cold_serial.elapsed_seconds",
     "<", 10.0),
    ("BENCH_opt_speed.json", "scales[*].runs.warm_serial.edge_pricing_seconds",
     ">", 0.0),
    ("BENCH_opt_speed.json", "scales[*].cache_bytes", ">", 0.0),
]


def resolve(doc: Any, path: str) -> Iterator[Any]:
    """Yield every value at a dotted path; ``[*]`` fans out over a list or
    a dict's values."""
    segment, _, rest = path.partition(".")
    fan_out = segment.endswith("[*]")
    key = segment[:-3] if fan_out else segment
    if not isinstance(doc, dict) or key not in doc:
        raise KeyError(path)
    value = doc[key]
    if fan_out:
        if isinstance(value, dict):
            value = list(value.values())
        if not isinstance(value, list):
            raise KeyError(path)
        for item in value:
            if rest:
                yield from resolve(item, rest)
            else:
                yield item
    elif rest:
        yield from resolve(value, rest)
    else:
        yield value


class Checker:
    """Accumulates pass/fail lines; one instance per invocation."""

    def __init__(self) -> None:
        self.failures = 0
        self.checks = 0

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
        print(("  ok   " if ok else "  FAIL ") + message)

    def load(self, directory: Path, name: str) -> Optional[Any]:
        path = directory / name
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            self.record(False, f"{path}: missing")
        except ValueError as exc:
            self.record(False, f"{path}: invalid JSON ({exc})")
        return None

    def invariants(self, doc: Any, name: str, label: str) -> None:
        for file_name, path, expected in INVARIANTS:
            if file_name != name:
                continue
            try:
                values = list(resolve(doc, path))
            except KeyError:
                self.record(False, f"{label} {name}:{path}: missing")
                continue
            bad = [v for v in values if v != expected]
            self.record(
                not bad,
                f"{label} {name}:{path} == {expected!r}"
                + (f" (violated by {bad!r})" if bad else ""),
            )


def check_smoke(checker: Checker, current: Path, baseline: Path) -> None:
    """Absolute bounds on fresh smoke output + baseline schema health."""
    for name in sorted({f for f, *_ in SMOKE_BOUNDS + INVARIANTS}):
        doc = checker.load(current, name)
        if doc is None:
            continue
        checker.invariants(doc, name, "current")
        for file_name, path, op, bound in SMOKE_BOUNDS:
            if file_name != name:
                continue
            try:
                values = list(resolve(doc, path))
            except KeyError:
                checker.record(False, f"current {name}:{path}: missing")
                continue
            for value in values:
                ok = value < bound if op == "<" else value > bound
                checker.record(
                    ok, f"current {name}:{path} = {value:g} {op} {bound:g}"
                )
    # Baselines must still parse and carry every full-mode metric, so a
    # schema change cannot silently disarm the full comparison.
    for name in sorted({f for f, *_ in THRESHOLDS}):
        doc = checker.load(baseline, name)
        if doc is None:
            continue
        for file_name, path, _, _ in THRESHOLDS:
            if file_name != name:
                continue
            try:
                values = list(resolve(doc, path))
                ok = all(isinstance(v, (int, float)) for v in values)
            except KeyError:
                ok = False
            checker.record(ok, f"baseline {name}:{path} present and numeric")


def check_full(checker: Checker, current: Path, baseline: Path) -> None:
    """Relative per-metric comparison of a full run against the baseline."""
    names = sorted({f for f, *_ in THRESHOLDS + INVARIANTS})
    for name in names:
        cur = checker.load(current, name)
        base = checker.load(baseline, name)
        if cur is None or base is None:
            continue
        checker.invariants(cur, name, "current")
        for file_name, path, direction, limit in THRESHOLDS:
            if file_name != name:
                continue
            try:
                cur_values = list(resolve(cur, path))
                base_values = list(resolve(base, path))
            except KeyError:
                checker.record(False, f"{name}:{path}: missing")
                continue
            if not base_values or len(cur_values) != len(base_values):
                checker.record(
                    False,
                    f"{name}:{path}: {len(cur_values)} value(s), baseline "
                    f"has {len(base_values)}",
                )
                continue
            for i, (cur_value, base_value) in enumerate(
                zip(cur_values, base_values)
            ):
                label = path if len(base_values) == 1 else f"{path}[{i}]"
                if base_value == 0:
                    checker.record(True, f"{name}:{label}: zero baseline, skipped")
                    continue
                change = cur_value / base_value - 1.0
                if direction == "higher_worse":
                    ok = change <= limit
                else:
                    ok = change >= -limit
                checker.record(
                    ok,
                    f"{name}:{label} {base_value:g} -> {cur_value:g} "
                    f"({change:+.1%}, limit {'+' if direction == 'higher_worse' else '-'}{limit:.0%})",
                )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="validate smoke outputs against absolute bounds instead of "
             "ratios (smoke configs differ from the full-run baselines)",
    )
    parser.add_argument(
        "--current-dir", default=str(DEFAULT_BASELINE_DIR), metavar="DIR",
        help="directory holding the current run's BENCH_*.json "
             "(default: the checked-in results directory)",
    )
    parser.add_argument(
        "--baseline-dir", default=str(DEFAULT_BASELINE_DIR), metavar="DIR",
        help="directory holding the baseline BENCH_*.json "
             "(default: benchmarks/results)",
    )
    args = parser.parse_args(argv)
    current = Path(args.current_dir)
    baseline = Path(args.baseline_dir)
    checker = Checker()
    print(
        f"bench_compare ({'smoke' if args.smoke else 'full'}): "
        f"current={current} baseline={baseline}"
    )
    if args.smoke:
        check_smoke(checker, current, baseline)
    else:
        check_full(checker, current, baseline)
    print(
        f"{checker.checks} checks, {checker.failures} failure(s)"
    )
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
