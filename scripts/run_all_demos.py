#!/usr/bin/env python3
"""Reproduce every headline demonstration into an output directory.

Writes one JSON report per experiment (plus CSV where the result is a
table) through the CLI's own two steps, so the artifacts double as
worked examples of the report formats. Each demo runs once, through
``cli.run``; a tabled demo's CSV is rendered from the same result by
the same write step, ``cli.write_report``, as its JSON. A failing demo
stops the script with its traceback. Each demo's wall seconds, and
their total, go to stderr, so stdout and the reports stay the same from
one run to the next.

Usage:
    python scripts/run_all_demos.py [--outdir out]
"""

import argparse
import sys
import time
from pathlib import Path

from lpgaps import cli
from lpgaps.reports import write_text
from lpgaps.valleys import (
    flow_arcs_to_text,
    gen_valley_instance,
    instance_to_text,
    three_circulation_flow,
)

DEMOS = [
    # the 2D chain: omit the middle facet of the 4-vertex arc
    ("hull_adversary_v4", ["hull-adversary", "--vertices", "4", "--omit", "1"]),
    # keep 6 of the 8-vertex arc's 7 facets: every subset, enumerated
    ("hull_scan_v8_one_short", ["hull-scan", "--vertices", "8", "--budget", "6"]),
    # storage-budgeted model: keep 32 of 63 facets, 100 seeded samples
    ("hull_scan_v64_half", [
        "hull-scan", "--vertices", "64", "--budget", "32",
        "--samples", "100", "--seed", "0",
    ]),
    # the ten-valley instance: degree relaxation certifies 0 against 10
    ("valley_gap_k10", [
        "valley-gap", "--valleys", "10", "--cities-per-valley", "2",
        "--relaxation", "degree", "--threshold", "9",
    ]),
    # cutting planes pay constraint by constraint until the gap closes
    ("cutting_plane_k4", [
        "cutting-plane", "--valleys", "4", "--cities-per-valley", "2",
    ]),
    # six valleys: the loop closes the gap in 9 rounds and ends complete
    # on an optimal tour of cost 6
    ("cutting_plane_k6", [
        "cutting-plane", "--valleys", "6", "--cities-per-valley", "2",
    ]),
    # decision form: the relaxation happily accepts a phantom cost 9
    ("decide_k10_lp", [
        "decide", "--valleys", "10", "--cities-per-valley", "2",
        "--threshold", "9", "--via", "lp-relaxation",
    ]),
    ("decide_k10_ilp", [
        "decide", "--valleys", "10", "--cities-per-valley", "2",
        "--threshold", "9", "--via", "ilp",
    ]),
    # exact storage bounds and the doubling table
    ("space_single_factorial", [
        "space-bounds", "--mode", "single", "--count", "3628800",
    ]),
    ("space_growth", ["space-bounds", "--mode", "growth"]),
    # the integer-grid monotonicity illusion and its half-step refutation
    ("model_demo_integer", ["model-demo", "--start", "0", "--end", "8", "--step", "1"]),
    ("model_demo_half", ["model-demo", "--start", "0", "--end", "8", "--step", "1/2"]),
]

TABLED = {"hull_scan_v8_one_short", "hull_scan_v64_half", "cutting_plane_k4",
          "cutting_plane_k6", "space_growth"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="report directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    # the three-circulation witness, exercised through the file formats
    inst = gen_valley_instance(10, 2)
    instance_path = outdir / "valleys_k10.instance"
    flow_path = outdir / "three_circulations.flow"
    write_text(instance_path, instance_to_text(inst))
    write_text(flow_path, flow_arcs_to_text(three_circulation_flow(inst)))
    check_flow = ("check_flow_three_circulations", [
        "check-flow", "--instance", str(instance_path), "--flow", str(flow_path),
        *[arg for v in range(10) for arg in ("--cut-valley", str(v))],
    ])

    total_s = 0.0
    for name, argv in [*DEMOS, check_flow]:
        start = time.perf_counter()
        args, result = cli.run([*argv, "--output", str(outdir / f"{name}.json")])
        cli.write_report(args, result)
        print(f"{name:36s} -> {args.output}")
        if name in TABLED:
            args.format, args.output = "csv", str(outdir / f"{name}.csv")
            cli.write_report(args, result)
            print(f"{name:36s} -> {args.output}")
        wall_s = time.perf_counter() - start
        total_s += wall_s
        print(f"{name:36s} {wall_s:.3f} s", file=sys.stderr)
    print(f"{'total':36s} {total_s:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
