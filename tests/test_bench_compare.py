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


def test_fanned_out_threshold_compares_each_scale(tmp_path, capsys):
    baseline = json.loads(
        (bench_compare.DEFAULT_BASELINE_DIR / "BENCH_opt_speed.json").read_text()
    )
    current = copy.deepcopy(baseline)
    current["scales"][-1]["runs"]["warm_serial"]["elapsed_seconds"] *= 2.0
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
    assert len(failures) == 1
    last = len(baseline["scales"]) - 1
    assert f"warm_serial.elapsed_seconds[{last}]" in failures[0]
