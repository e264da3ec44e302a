"""The benchmark regression gate (``tools/bench_compare.py``)."""

import copy
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_compare  # noqa: E402


def _run(*argv):
    return bench_compare.main([str(a) for a in argv])


def test_checked_in_baselines_pass_against_themselves(capsys):
    """Every registered metric resolves and every invariant holds."""
    assert _run() == 0
    out = capsys.readouterr().out
    assert "BENCH_opt_speed.json:scales[*].identical == True" in out
    assert "scales[*].runs.warm_serial.elapsed_seconds[3]" in out


def test_reports_identical_fans_out_over_fault_classes(tmp_path, capsys):
    """One class whose report drifted from per-replay lowering fails."""
    path = bench_compare.DEFAULT_BASELINE_DIR / "BENCH_robustness.json"
    doc = json.loads(path.read_text())
    flags = bench_compare.resolve(doc, "fault_classes[*].reports_identical")
    assert list(flags) == [True] * len(doc["fault_classes"])
    doc["fault_classes"]["link"]["reports_identical"] = False
    (tmp_path / "BENCH_robustness.json").write_text(json.dumps(doc))
    assert _run("--smoke", "--current-dir", tmp_path) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  FAIL") and "BENCH_robustness" in line
    ]
    assert len(failures) == 1
    assert "fault_classes[*].reports_identical" in failures[0]


def test_fanned_out_threshold_compares_each_scale(tmp_path, capsys):
    baseline = json.loads(
        (bench_compare.DEFAULT_BASELINE_DIR / "BENCH_opt_speed.json").read_text()
    )
    current = copy.deepcopy(baseline)
    current["scales"][-1]["runs"]["warm_serial"]["elapsed_seconds"] *= 2.0
    current["scales"][0]["cache_bytes"] *= 2
    current["scales"][1]["runs"]["warm_serial"]["edge_pricing_seconds"] *= 2.0
    base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
    for directory, doc in ((base_dir, baseline), (cur_dir, current)):
        directory.mkdir()
        for path in bench_compare.DEFAULT_BASELINE_DIR.glob("BENCH_*.json"):
            (directory / path.name).write_text(path.read_text())
        (directory / "BENCH_opt_speed.json").write_text(json.dumps(doc))
    assert _run("--current-dir", cur_dir, "--baseline-dir", base_dir) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  FAIL")
    ]
    assert len(failures) == 3
    last = len(baseline["scales"]) - 1
    assert f"warm_serial.elapsed_seconds[{last}]" in failures[0]
    assert "warm_serial.edge_pricing_seconds[1]" in failures[1]
    assert "scales[*].cache_bytes[0]" in failures[2]


def test_fault_dag_kernels_cannot_regrow(tmp_path, capsys):
    """One fault class whose DAG holds one more kernel than the baseline
    fails; one that holds fewer passes."""
    baseline = json.loads(
        (bench_compare.DEFAULT_BASELINE_DIR / "BENCH_sim_speed.json").read_text()
    )
    current = copy.deepcopy(baseline)
    classes = current["faulted_execute"]["classes"]
    compute, link = list(classes)[:2]
    classes[compute]["kernels"] += 1
    classes[link]["kernels"] -= 1
    base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
    for directory, doc in ((base_dir, baseline), (cur_dir, current)):
        directory.mkdir()
        for path in bench_compare.DEFAULT_BASELINE_DIR.glob("BENCH_*.json"):
            (directory / path.name).write_text(path.read_text())
        (directory / "BENCH_sim_speed.json").write_text(json.dumps(doc))
    assert _run("--current-dir", cur_dir, "--baseline-dir", base_dir) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  FAIL")
    ]
    assert len(failures) == 1
    assert "faulted_execute.classes[*].kernels[0]" in failures[0]


def test_smoke_requires_edge_pricing_seconds(tmp_path, capsys):
    """A smoke run whose warm serial search lacks its edge-pricing time
    fails, even with every search in its time bounds."""
    for path in bench_compare.DEFAULT_BASELINE_DIR.glob("BENCH_*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    doc = json.loads((tmp_path / "BENCH_opt_speed.json").read_text())
    for entry in doc["scales"]:
        for run in entry["runs"].values():
            run["elapsed_seconds"] = 1.0
    del doc["scales"][0]["runs"]["warm_serial"]["edge_pricing_seconds"]
    (tmp_path / "BENCH_opt_speed.json").write_text(json.dumps(doc))
    assert _run("--smoke", "--current-dir", tmp_path) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  FAIL")
    ]
    assert failures == [
        "  FAIL current BENCH_opt_speed.json:"
        "scales[*].runs.warm_serial.edge_pricing_seconds: missing"
    ]


def test_smoke_bounds_catch_a_cold_search_blow_up(tmp_path, capsys):
    """A smoke run whose cold serial search exceeds its absolute bound
    fails, even with every warm search in bounds."""
    for path in bench_compare.DEFAULT_BASELINE_DIR.glob("BENCH_*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    doc = json.loads((tmp_path / "BENCH_opt_speed.json").read_text())
    for entry in doc["scales"]:
        for run in entry["runs"].values():
            run["elapsed_seconds"] = 1.0
    doc["scales"][0]["runs"]["cold_serial"]["elapsed_seconds"] = 11.0
    (tmp_path / "BENCH_opt_speed.json").write_text(json.dumps(doc))
    assert _run("--smoke", "--current-dir", tmp_path) == 1
    failures = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("  FAIL")
    ]
    assert failures == [
        "  FAIL current BENCH_opt_speed.json:"
        "scales[*].runs.cold_serial.elapsed_seconds = 11 < 10"
    ]
