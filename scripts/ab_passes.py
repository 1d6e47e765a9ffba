#!/usr/bin/env python3
"""Time two lpgaps source trees against each other, pass by pass, in one
process.

Each tree (a directory holding an ``lpgaps`` package, such as a
checkout's src/) is loaded as its own package, ``lpgaps_a`` and
``lpgaps_b``, so both run in the same interpreter on the same host
state. The op list that perfbench/workloads.py makes for one workload
and seed runs through each tree's ``cli.main`` in alternating passes,
a then b on even passes and b then a on odd ones, after one untimed
warm-up pass of each. Every op must exit 0 and write the same report
bytes from both trees, or the script exits 1 naming the first op that
differs. Reports go to one temporary directory and no bytecode is
written, so neither tree nor the checkout is touched.

The last line of stdout is one JSON object: the median of the per-pass
time ratios b / a, the number of passes in which b was faster, both
trees' median pass times, and ``identical_reports``. Alternating in one
process cancels the slow drift of a shared host that separate runs see;
the ratios are wall times, so compare medians over many passes.

Usage:
    python3 scripts/ab_passes.py --workload hull-scan --seed 1 --passes 40 OLD/src src
"""

import argparse
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True


def _workloads():
    """perfbench/workloads.py, the benchmark's op lists."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def load_cli(src: Path, name: str):
    """The ``cli`` module of the lpgaps package under src, imported as
    the package ``name``; the package's own imports are relative, so it
    loads none of another tree's modules."""
    package = Path(src).resolve() / "lpgaps"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no lpgaps package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, ops, outdir: Path) -> tuple[float, list[bytes]]:
    """Run every op once through cli.main, each report written under
    outdir. Returns the pass's wall seconds and the report bytes."""
    reports = []
    elapsed = 0.0
    for index, op in enumerate(ops):
        path = outdir / f"op{index}.json"
        argv = [*op.argv(), "--output", str(path)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed += time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"error: {' '.join(argv)} exited {code}")
        reports.append(path.read_bytes())
    return elapsed, reports


def ab_passes(a_src: Path, b_src: Path, workload: str, seed: int, passes: int) -> dict:
    """Alternate passes of the workload's op list over both trees and
    summarise them; exits 1 when the trees write different reports."""
    ops = _workloads().make_ops(workload, seed)
    clis = {"a": load_cli(a_src, "lpgaps_a"), "b": load_cli(b_src, "lpgaps_b")}
    times = {"a": [], "b": []}
    # a report records its output path, so both trees write to the same
    # paths, each report read before the other tree overwrites it
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(passes + 1):
            order = ("a", "b") if index % 2 == 0 else ("b", "a")
            reports = {}
            for side in order:
                elapsed, reports[side] = run_pass(clis[side], ops, Path(tmp))
                if index:
                    times[side].append(elapsed)
            for op_index, (a, b) in enumerate(zip(reports["a"], reports["b"])):
                if a != b:
                    raise SystemExit(
                        f"error: op {op_index} ({' '.join(ops[op_index].argv())}) "
                        f"wrote different reports from {a_src} and {b_src}")
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    return {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "passes": passes,
        "a": str(a_src),
        "b": str(b_src),
        "a_median_s": round(statistics.median(times["a"]), 5),
        "b_median_s": round(statistics.median(times["b"]), 5),
        "median_ratio": round(statistics.median(ratios), 4),
        "b_wins": sum(r < 1 for r in ratios),
        "identical_reports": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(_workloads().WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("a", type=Path, help="the baseline tree, e.g. a parent's src/")
    parser.add_argument("b", type=Path, help="the tree timed against it")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, not {args.passes}")
    print(json.dumps(ab_passes(args.a, args.b, args.workload, args.seed, args.passes)))


if __name__ == "__main__":
    main()
