#!/usr/bin/env python3
"""lpgaps benchmark: seeded closed-loop streams of in-process CLI runs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hull-scan --seed 1 --seconds 30 --trace 0

One client, one process pinned to one CPU, no threads: each op is one
``lpgaps.cli.main`` call that writes a JSON report to a file under
``.perfbench/`` in the checkout, and the next op starts when it returns.
A pass is the workload's op list for the seed; a run measures
round(--seconds / pass_s) passes, so it lasts about --seconds on the
seed revision. Every report is checked against its closed-form exact
answer, and the SHA-256 of each pass's report bytes must be the same in
every pass. Every timing is scaled to a reference host speed measured
by a probe kernel between ops (see REFERENCE_PROBE_S).

--trace 0 prints the end-to-end metrics. --trace 1 runs half the passes
untraced and half with spans around every call into an lpgaps module,
requires both halves to give the same report digest, and prints the
per-layer metrics. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7
# On a shared host the CPU speed can switch between states for seconds
# at a time and drift by a third over minutes (it did on the 2-vCPU Xeon
# the benchmark was defined on). Every timed interval is therefore
# bracketed by probe_host() and scaled by REFERENCE_PROBE_S / probe time:
# timings are in seconds at a fixed host speed, the probe's fast-state
# time on that Xeon. The raw pass times are printed too.
REFERENCE_PROBE_S = 0.0055


def import_lpgaps():
    """Import lpgaps from this checkout's src/, and from nowhere else."""
    if not (SRC / "lpgaps" / "__init__.py").is_file():
        raise SystemExit(f"error: no lpgaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lpgaps.cli
    import lpgaps.ilp

    if Path(lpgaps.__file__).resolve().parent != SRC / "lpgaps":
        raise SystemExit(f"error: imported lpgaps from {lpgaps.__file__}, not {SRC}")
    return lpgaps


def measure_setup(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of the time from process start to
    the point where the first op could run: import lpgaps, make the ops.
    Each time is scaled to the reference host speed."""
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import lpgaps.cli, workloads; workloads.make_ops(sys.argv[3], int(sys.argv[4]))"
    )
    argv = [sys.executable, "-c", probe, str(SRC), str(BENCH_DIR), workload, str(seed)]

    def measure():
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        return time.perf_counter() - start

    return statistics.median(host_scaled(measure)[0] for _ in range(SETUP_PROBES))


def probe_host() -> float:
    """Seconds for a fixed exact-arithmetic kernel of the benchmark's own
    (Fraction elimination of a 12x12 matrix, twice), unrelated to lpgaps."""
    n = 12
    total = 0.0
    for _ in range(2):
        a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
        start = time.perf_counter()
        for c in range(n):
            for r in range(c + 1, n):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        total += time.perf_counter() - start
    return total


def host_scaled(measure):
    """Run `measure()` (returns seconds) between two host probes and scale
    its time to the reference host speed."""
    before = probe_host()
    seconds = measure()
    return seconds * 2 * REFERENCE_PROBE_S / (before + probe_host()), seconds


def run_pass(lpgaps, ops, workdir: Path, totals=None, tracer=None):
    """Run every op once, in order. Returns (scaled wall seconds, raw wall
    seconds, scaled per-op latencies, exit codes, report bytes). With a
    tracer, each op's spans are folded into `totals` after the op."""
    limit = lpgaps.ilp.EXHAUSTIVE_CITY_LIMIT
    latencies, codes, reports = [], [], []
    raw_wall = 0.0
    for index, op in enumerate(ops):
        path = workdir / f"op{index}.json"
        argv = [*op.argv(), "--output", str(path)]

        def measure():
            start = time.perf_counter()
            codes.append(lpgaps.cli.main(argv))
            return time.perf_counter() - start

        scaled, raw = host_scaled(measure)
        latencies.append(scaled)
        raw_wall += raw
        reports.append(path.read_bytes() if codes[-1] == 0 else b"")
        if tracer is not None:
            totals.add(tracer.take(), limit)
    return sum(latencies), raw_wall, latencies, codes, reports


class Verdicts:
    """Exact checks of every op of every pass. Identical report bytes get
    the verdict of their first check."""

    def __init__(self, ops):
        self.ops = ops
        self.cache: dict[tuple[int, bytes], tuple[bool, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.solves = 0
        self.errors: list[str] = []

    def record(self, codes, reports) -> str:
        """Check one pass; returns the SHA-256 of its report bytes."""
        digest = hashlib.sha256()
        for index, (op, code, report) in enumerate(zip(self.ops, codes, reports)):
            digest.update(report)
            self.attempted += 1
            key = (index, hashlib.sha256(report).digest())
            if key not in self.cache:
                ok, solves = code == 0, 0
                if ok:
                    try:
                        solves = workloads.check_report(op, report)
                    except workloads.CheckError as exc:
                        ok = False
                        self.errors.append(f"{' '.join(op.argv())}: {exc}")
                else:
                    self.errors.append(f"{' '.join(op.argv())}: exit {code}")
                self.cache[key] = (ok, solves)
            ok, solves = self.cache[key]
            self.failed += not ok
            self.solves += solves
        return digest.hexdigest()


def tail(pass_latencies: list[list[float]]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the run's op
    latencies with at least ten samples beyond it. Every pass repeats the
    same ops, so each sample is first replaced by the median of its op
    over the passes: the tail is that of the workload's inputs, not of
    one noisy repeat."""
    per_op = [statistics.median(repeats) for repeats in zip(*pass_latencies)]
    ordered = sorted(per_op * len(pass_latencies))
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            revision = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "nproc": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    lpgaps = import_lpgaps()
    # the vCPUs change speed independently: staying on one keeps each host
    # probe on the CPU that ran the interval it brackets
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, args.seed)
    passes = max(2, round(args.seconds / workloads.WORKLOADS[args.workload].pass_s))
    verdicts = Verdicts(ops)
    digests = set()
    walls, latencies = [], []  # latencies: one list per untraced pass
    traced_walls, raw_walls = [], []
    totals = spans.LayerTotals()
    untraced = passes if not args.trace else max(2, math.ceil(passes / 2))

    # reports embed their --output path, so it is relative and fixed per
    # (workload, seed): the digest then compares across runs and checkouts
    os.chdir(ROOT)
    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(untraced):
            wall, raw, lat, codes, reports = run_pass(lpgaps, ops, workdir)
            walls.append(wall)
            raw_walls.append(raw)
            latencies.append(lat)
            digests.add(verdicts.record(codes, reports))
        if args.trace:
            tracer = spans.Tracer()
            with tracer.installed():
                for _ in range(untraced):
                    wall, raw, _, codes, reports = run_pass(
                        lpgaps, ops, workdir, totals, tracer)
                    traced_walls.append(wall)
                    raw_walls.append(raw)
                    digests.add(verdicts.record(codes, reports))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in verdicts.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    correct = verdicts.failed == 0 and len(digests) == 1
    fail_ratio = verdicts.failed / verdicts.attempted

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        # span times are raw, so shares take the raw traced wall
        metrics = totals.metrics(len(traced_walls), sum(raw_walls[len(walls):]), overhead)
        metrics["fail_ratio"] = (fail_ratio, "ratio")
    else:
        percentile, tail_s = tail(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(x for lat in latencies for x in lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "lp_solves_per_s": (verdicts.solves / len(walls) / statistics.median(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    info = {
        "workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
        "passes": len(walls) + len(traced_walls),
        "pass_walls_s": [round(w, 3) for w in walls + traced_walls],
        "raw_pass_walls_s": [round(w, 3) for w in raw_walls],
        "report_sha256": sorted(digests), "fail_ratio": fail_ratio,
        **environment(),
    }
    if not args.trace:
        info["op_tail_percentile"] = round(percentile, 2)
        info["op_tail_sample_count"] = len(latencies) * len(ops)
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
