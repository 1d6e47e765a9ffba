"""scripts/check_bench_records.py passes the repository's benchmark
records and refuses incomplete ones."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_bench_records.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(directory):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(directory)],
        capture_output=True, text=True, timeout=60,
    )


def null_claim_record():
    """A record claiming no gain, with both medians of every end-to-end
    metric on every workload."""
    medians = {"parent_median": 1.0, "change_median": 1.0}
    return {
        "claim": None,
        "revisions": {"parent": "p", "change": "c"},
        "workloads": {
            w["name"]: {"metrics": {m["name"]: dict(medians) for m in BENCHMARK["end_to_end"]}}
            for w in BENCHMARK["workloads"]
        },
    }


def test_the_repository_records_pass():
    result = check(ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(" BENCH_*.json checked\n")


def test_a_complete_null_claim_record_passes(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "BENCH_x.json").write_text(json.dumps(null_claim_record()))
    result = check(tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 BENCH_*.json checked\n"


def without_one_median(record):
    workload = BENCHMARK["workloads"][-1]["name"]
    metric = BENCHMARK["end_to_end"][-1]["name"]
    del record["workloads"][workload]["metrics"][metric]["change_median"]
    return json.dumps(record), f"({workload}, {metric}) lacks change_median"


def claimed_without_a_median(record):
    workload = BENCHMARK["workloads"][0]["name"]
    record["claim"] = {"workload": workload, "metric": "wall_s"}
    del record["workloads"][workload]["metrics"]["wall_s"]["parent_median"]
    return json.dumps(record), f"claimed ({workload}, wall_s) lacks parent_median"


@pytest.mark.parametrize("make", [
    lambda record: ('{"claim": null,', "not valid JSON"),
    claimed_without_a_median,
    without_one_median,
], ids=["invalid-json", "claim-without-median", "null-claim-without-median"])
def test_an_incomplete_record_is_refused(tmp_path, make):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    text, message = make(null_claim_record())
    (tmp_path / "BENCH_x.json").write_text(text)
    result = check(tmp_path)
    assert result.returncode == 1
    assert message in result.stderr
