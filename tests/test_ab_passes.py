"""scripts/ab_passes.py times two source trees pass by pass in one
process and requires both to write the same report bytes for every op.
These tests check its output and its identity check, never a time."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_passes.py"


def ab_passes(a, b, passes=2):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "hull-scan", "--seed", "1",
         "--passes", str(passes), str(a), str(b)],
        capture_output=True, text=True, cwd=ROOT,
    )


def copy_of_src(tmp_path):
    shutil.copytree(ROOT / "src" / "lpgaps", tmp_path / "lpgaps",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_a_tree_against_itself_writes_identical_reports(tmp_path):
    tree = copy_of_src(tmp_path)
    run = ab_passes(ROOT / "src", tree)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert list(result) == [
        "workload", "seed", "ops", "passes", "a", "b", "a_median_s",
        "b_median_s", "median_ratio", "b_wins", "identical_reports",
    ]
    assert (result["workload"], result["seed"], result["ops"], result["passes"]) == (
        "hull-scan", 1, 36, 2)
    assert result["identical_reports"] is True
    assert result["b_wins"] in (0, 1, 2)
    assert all(result[k] > 0 for k in ("a_median_s", "b_median_s", "median_ratio"))
    # reports went to a temporary directory and no bytecode was written
    assert sorted(p.name for p in (tree / "lpgaps").iterdir()) == sorted(
        p.name for p in (ROOT / "src" / "lpgaps").glob("*.py"))


def test_trees_that_write_different_reports_are_refused(tmp_path):
    tree = copy_of_src(tmp_path)
    reports = tree / "lpgaps" / "reports.py"
    text = reports.read_text()
    assert 'SCHEMA = "lpgaps-report/1"' in text
    reports.write_text(text.replace('SCHEMA = "lpgaps-report/1"', 'SCHEMA = "lpgaps-report/0"'))
    run = ab_passes(ROOT / "src", tree, passes=1)
    assert run.returncode == 1
    assert "op 0 (hull-scan --vertices" in run.stderr
    assert "wrote different reports" in run.stderr
    assert run.stdout == ""
