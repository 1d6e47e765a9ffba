"""scripts/work_counts.py counts the simplex work of one benchmark pass:
LP solves, basis changes, bound flips and row eliminations. The seed-1
counts of each workload are pinned, so a change that adds or drops a
solve, a pivot or an elimination anywhere in a pass shows here, where a
wall time could not."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "work_counts", ROOT / "scripts" / "work_counts.py")
work_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(work_counts)


@pytest.mark.parametrize("workload, counts", [
    ("hull-scan", (828, 869, 0, 23_892)),
    ("cutting-plane", (71, 349, 0, 978)),
    ("valley-gap", (18, 173, 0, 346)),
])
def test_a_seed_one_pass_makes_the_pinned_work(workload, counts):
    # (LP solves, basis changes, bound flips, row eliminations)
    got = work_counts.work_counts(workload, 1)
    assert list(got) == list(work_counts.COUNTS)
    assert tuple(got.values()) == counts
