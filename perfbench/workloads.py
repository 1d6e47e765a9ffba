"""Seeded op streams and closed-form exact checks for the benchmark.

An op is one lpgaps CLI experiment. A workload's pass is a fixed list of
ops made from the workload seed; every pass of a run repeats the same
list, so every pass must produce the same report bytes.

The seed chooses the hull-scan subset seeds, which (intra, crossing)
cost pair each valley op gets, and the op order. The number of ops of
each size is fixed, and the cost pairs of each size come in Latin
transversals (every intra cost once, every crossing cost once), so the
seed varies the inputs without varying the total work much.

Nothing here imports lpgaps: the expected values are computed from the
closed forms of the two constructions, independently of the solver.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

INTRA = (Fraction(0), Fraction(1, 7), Fraction(1, 3))
CROSSING = (Fraction(1), Fraction(5, 3), Fraction(2))


@dataclass(frozen=True)
class Workload:
    subcommand: str
    # (size, ops per pass): size is (V, budget) for hull-scan and
    # (valleys, cities per valley) for the valley workloads
    mix: tuple[tuple[tuple[int, int], int], ...]
    # typical pass wall time at the seed revision (Python 3.11, 2 vCPU);
    # a run measures round(--seconds / pass_s) passes, so the op count
    # of a run, and with it the rank that op_tail_ms reads, does not
    # depend on timing noise
    pass_s: float


WORKLOADS = {
    # many small 2-variable LPs with <= rows only: per-solve overhead
    # (model build, tableau setup, ratio test) and CLI/report cost dominate
    "hull-scan": Workload(
        "hull-scan",
        tuple(((v, v // 2), 12) for v in (32, 48, 64)),
        pass_s=3.8,
    ),
    # a growing degenerate equality LP re-solved from scratch every round:
    # where a warm start or a faster pivot kernel shows
    "cutting-plane": Workload(
        "cutting-plane",
        (((4, 2), 9), ((3, 3), 3), ((5, 2), 1)),
        pass_s=7.5,
    ),
    # one large one-shot LP plus the exact TSP oracle: a warm start
    # leaves it flat, a Held-Karp rewrite moves it
    "valley-gap": Workload(
        "valley-gap",
        (((6, 2), 3), ((7, 2), 3), ((8, 2), 6), ((9, 1), 3), ((10, 1), 3)),
        pass_s=6.0,
    ),
}


@dataclass(frozen=True)
class Op:
    subcommand: str
    size: tuple[int, int]
    intra: Fraction = Fraction(0)
    crossing: Fraction = Fraction(1)
    seed: int = 0

    def argv(self) -> list[str]:
        a, b = self.size
        if self.subcommand == "hull-scan":
            return ["hull-scan", "--vertices", str(a), "--budget", str(b),
                    "--samples", "1", "--seed", str(self.seed)]
        argv = [self.subcommand, "--valleys", str(a), "--cities-per-valley", str(b),
                "--intra-cost", str(self.intra), "--crossing-cost", str(self.crossing)]
        if self.subcommand == "valley-gap":
            opt = tour_optimum(self)
            argv += ["--relaxation", "degree",
                     "--threshold", str(opt), "--threshold", str(opt - 1)]
        return argv


def _cost_pairs(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """`count` cost pairs taken transversal by transversal from a random
    Latin square over INTRA x CROSSING."""
    crossing = rng.sample(CROSSING, len(CROSSING))
    shifts = rng.sample(range(len(INTRA)), len(INTRA))
    pairs = [
        (INTRA[i], crossing[(i + shift) % len(crossing)])
        for shift in shifts
        for i in rng.sample(range(len(INTRA)), len(INTRA))
    ]
    return pairs[:count]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The pass op list of `workload` for `seed`; the same seed always
    gives the same list."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for size, count in spec.mix:
        if spec.subcommand == "hull-scan":
            ops += [Op("hull-scan", size, seed=rng.randrange(1 << 30)) for _ in range(count)]
        else:
            ops += [Op(spec.subcommand, size, intra, crossing)
                    for intra, crossing in _cost_pairs(rng, count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Closed forms and exact checks


class CheckError(Exception):
    """A report disagrees with the exact expected answer."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def tour_optimum(op: Op) -> Fraction:
    """k passes between valleys plus k(c-1) moves inside them."""
    k, c = op.size
    return k * op.crossing + k * (c - 1) * op.intra


def degree_optimum(op: Op) -> Fraction:
    """Every city leaves once along its cheapest arc: inside its valley
    when it has company there, across a pass when it is alone."""
    k, c = op.size
    return k * c * (op.intra if c >= 2 else op.crossing)


def _facet(V: int, i: int) -> tuple[int, int]:
    """Facet i of the V-vertex arc: y <= slope*x + intercept."""
    return 2 * V - 2 * i - 1, i * (i + 1)


def _model_vertices(V: int, kept: list[int]) -> list[tuple[Fraction, Fraction]]:
    """Vertices of {0 <= x <= V-1, y >= 0, y <= facet i for i in kept}.
    The kept facets are tangents of one concave chain, so the upper
    boundary breaks only where consecutive kept facets meet."""
    lines = [_facet(V, i) for i in kept]
    top = [(Fraction(0), Fraction(lines[0][1]))]
    for (s1, b1), (s2, b2) in zip(lines, lines[1:]):
        x = Fraction(b2 - b1, s1 - s2)
        top.append((x, s1 * x + b1))
    s, b = lines[-1]
    top.append((Fraction(V - 1), Fraction(s * (V - 1) + b)))
    vertices = [(Fraction(0), Fraction(0)), *top, (Fraction(V - 1), Fraction(0))]
    for x, y in vertices:
        _require(0 <= x <= V - 1 and y >= 0, "checker: vertex outside the box")
        _require(all(y <= si * x + bi for si, bi in lines),
                 "checker: vertex violates a kept facet")
    return vertices


def _check_hull_scan(op: Op, result: dict) -> int:
    V, budget = op.size
    _require(result["vertex_count"] == V and result["budget"] == budget, "scan size")
    _require(not result["enumerated"] and result["seed"] == op.seed, "scan regime")
    _require(len(result["rows"]) == 1, "one sampled subset")
    solves = 0
    for row in result["rows"]:
        kept, omitted = row["kept"], row["omitted"]
        _require(len(kept) == budget, "kept subset size")
        _require(sorted(kept + omitted) == list(range(V - 1)), "kept/omitted split")
        vertices = _model_vertices(V, kept)
        worst: Optional[tuple[Fraction, int, tuple]] = None
        for j in omitted:
            slope, intercept = _facet(V, j)
            relaxed, witness = max((y - slope * x, (x, y)) for x, y in vertices)
            gap = relaxed - intercept
            _require(gap > 0, f"facet {j}: no phantom gap")
            if worst is None or gap > worst[0]:
                worst = (gap, j, witness)
        gap, j, (x, y) = worst
        slope, intercept = _facet(V, j)
        _require(row["bounded"] is True, "row bounded")
        _require(row["worst_facet"] == j, "worst facet")
        _require([Fraction(v) for v in row["objective"]] == [-slope, 1], "objective")
        _require(Fraction(row["true_max"]) == intercept, "true_max == i(i+1)")
        _require(Fraction(row["relaxed_max"]) == y - slope * x, "relaxed_max")
        _require(Fraction(row["gap"]) == gap, "gap")
        solves += len(omitted)
    return solves


def _check_instance(op: Op, info: dict) -> None:
    k, c = op.size
    _require(info["n"] == k * c and info["valleys"] == k
             and info["cities_per_valley"] == c, "instance size")
    _require(Fraction(info["intra_cost"]) == op.intra
             and Fraction(info["crossing_cost"]) == op.crossing, "instance costs")


def _check_cutting_plane(op: Op, result: dict) -> int:
    _check_instance(op, result["instance"])
    trace = result["trace"]
    _require(trace["complete"] is True, "loop complete")
    _require(trace["final_integral"] is True, "final point integral")
    values = [Fraction(r["lp_value"]) for r in trace["rounds"]]
    _require(bool(values), "at least one round")
    _require([r["round_index"] for r in trace["rounds"]] == list(range(1, len(values) + 1)),
             "round numbering")
    _require(all(a <= b for a, b in zip(values, values[1:])), "round values nondecreasing")
    optimum = tour_optimum(op)
    _require(Fraction(trace["final_value"]) == optimum == values[-1], "final value")
    _require(result["oracle_cost"] is not None
             and Fraction(result["oracle_cost"]) == optimum, "oracle cost")
    return len(values)


def _check_valley_gap(op: Op, result: dict) -> int:
    _check_instance(op, result["instance"])
    k, c = op.size
    n = k * c
    lp, ilp = degree_optimum(op), tour_optimum(op)
    _require(result["relaxation"]["kind"] == "degree", "relaxation kind")
    _require(Fraction(result["lp_value"]) == lp, "lp_value")
    _require(Fraction(result["ilp_value"]) == ilp, "ilp_value")
    _require(Fraction(result["gap"]) == ilp - lp, "gap")
    _require(result["variables_used"] == n * (n - 1)
             and result["constraints_used"] == 2 * n, "model size")
    answers = result["decision_answers"]
    _require([Fraction(a["threshold"]) for a in answers] == [ilp, ilp - 1], "thresholds")
    for a in answers:
        x = Fraction(a["threshold"])
        _require(a["lp_answer"] is (lp <= x) and a["ilp_answer"] is (ilp <= x)
                 and a["agree"] is ((lp <= x) == (ilp <= x)), f"answers at {x}")
    return 1


_CHECKS = {
    "hull-scan": _check_hull_scan,
    "cutting-plane": _check_cutting_plane,
    "valley-gap": _check_valley_gap,
}


def check_report(op: Op, report: bytes) -> int:
    """Verify one report against the exact expected answers; returns the
    number of exact LP answers it carries. Raises CheckError."""
    try:
        doc = json.loads(report)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    _require(doc.get("schema") == "lpgaps-report/1", "schema")
    _require(doc.get("subcommand") == op.subcommand, "subcommand")
    try:
        return _CHECKS[op.subcommand](op, doc["result"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckError(f"malformed report: {exc!r}") from None
