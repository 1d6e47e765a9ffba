#!/usr/bin/env python3
"""Check the benchmark records of a checkout.

Every BENCH_*.json must be valid JSON with "claim", "revisions" and
"workloads" keys, and hold pairs for every workload of BENCHMARK.json.
A record that claims a gain names its (workload, metric), which must
have both medians; a record whose claim is null must have both medians
of every end-to-end metric of BENCHMARK.json on every workload. Prints
the number of records checked; exits 1 with one line per fault.

Usage:
    python scripts/check_bench_records.py [DIR]   (default: .)
"""

import json
import pathlib
import sys


def main() -> None:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    ends = [m["name"] for m in benchmark["end_to_end"]]
    paths = sorted(root.glob("BENCH_*.json"))
    errors = [] if paths else ["no BENCH_*.json file"]
    for path in paths:
        try:
            record = json.loads(path.read_text())
        except ValueError as error:
            errors.append(f"{path}: not valid JSON: {error}")
            continue
        keys = record if isinstance(record, dict) else {}
        missing = [k for k in ("claim", "revisions", "workloads") if k not in keys]
        if missing:
            errors.append(f"{path}: missing {', '.join(missing)}")
            continue
        workloads = record["workloads"]
        absent = [n for n in names if n not in workloads]
        if absent:
            errors.append(f"{path}: no pairs for workload {', '.join(absent)}")
        claim = record["claim"]
        if claim is None:
            # a record that claims no gain still shows every
            # end-to-end metric of every workload on both sides
            for name in names:
                metrics = workloads.get(name, {}).get("metrics", {})
                for metric in ends:
                    measured = metrics.get(metric, {})
                    medians = [k for k in ("parent_median", "change_median")
                               if k not in measured]
                    if medians:
                        errors.append(f"{path}: ({name}, {metric}) lacks {', '.join(medians)}")
            continue
        workload, metric = claim.get("workload"), claim.get("metric")
        measured = workloads.get(workload, {}).get("metrics", {}).get(metric, {})
        medians = [k for k in ("parent_median", "change_median") if k not in measured]
        if medians:
            errors.append(f"{path}: claimed ({workload}, {metric}) lacks {', '.join(medians)}")
    print(f"{len(paths)} BENCH_*.json checked")
    sys.exit("\n".join(errors) or None)


if __name__ == "__main__":
    main()
