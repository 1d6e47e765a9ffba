"""Valley-structured TSP instances, their LP relaxations, and cut machinery.

An instance places k clusters ("valleys") of c cities each; travel inside
a valley costs intra_cost, travel between valleys costs crossing_cost
(a "mountain" pass). With intra_cost 0 and crossing_cost 1 the integer
optimum is exactly k while the degree-only relaxation circulates inside
valleys at cost 0, which is the whole point: a relaxation that omits the
exponential cut family certifies values no tour can reach.

Flow variables are per-arc: one weight in [0,1] for every ordered city
pair. The cutting-plane loop adds one most-violated subtour cut per
round until the separation oracle is silent or the round budget runs
out, recording the model size it had to pay for correctness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .lp import (
    EQUAL,
    GREATER_EQ,
    Constraint,
    LinearProgram,
    SolveStatus,
    linear_program,
    solve_lp,
    with_constraints,
)
from .rationals import (
    Rational,
    body_lines,
    format_rational,
    is_integral,
    parse_rational,
    require_exact,
)


@dataclass(frozen=True)
class ValleyParams:
    valleys: int
    cities_per_valley: int
    intra_cost: Rational
    crossing_cost: Rational


@dataclass(frozen=True)
class TspInstance:
    n: int
    valley_of: tuple[int, ...]
    cost: tuple[tuple[Rational, ...], ...]  # diagonal entries are unused
    params: Optional[ValleyParams] = None

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValidationError(f"an instance needs at least 2 cities, not {n}")
        if (len(self.valley_of) != n or len(self.cost) != n
                or any(len(row) != n for row in self.cost)):
            raise ValidationError("instance dimensions are inconsistent")
        if sorted(set(self.valley_of)) != list(range(max(self.valley_of) + 1)):
            raise ValidationError("valley ids must be 0..k-1 with none missing")
        for row in self.cost:
            require_exact(row, "costs")

    @property
    def valley_count(self) -> int:
        return max(self.valley_of) + 1

    def valley_cities(self, valley: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.valley_of[i] == valley)


# the relaxation is dense with one column per arc, n(n - 1) of them: on
# a 2-vCPU host (Python 3.11) decide via the LP relaxation took 3 s at
# n = 40, 8 s at 50 and 19 s at 60, and cutting-plane --rounds 5 took
# 11-17 s at 40
MAX_CITIES = 40


def gen_valley_instance(
    valleys: int,
    cities_per_valley: int,
    intra_cost=Fraction(0),
    crossing_cost=Fraction(1),
) -> TspInstance:
    """Valley-major city numbering: city v*c + t is slot t of valley v."""
    eps = Fraction(intra_cost)
    big = Fraction(crossing_cost)
    if valleys < 2:
        raise ValidationError("need at least 2 valleys")
    if cities_per_valley < 1:
        raise ValidationError("need at least 1 city per valley")
    if not (big > eps >= 0):
        raise ValidationError("crossing cost must exceed intra cost, intra cost >= 0")
    n = valleys * cities_per_valley
    if n > MAX_CITIES:
        raise ValidationError(
            f"a valley instance has at most {MAX_CITIES} cities, not "
            f"{valleys} x {cities_per_valley} = {n}"
        )
    valley_of = tuple(i // cities_per_valley for i in range(n))
    cost = tuple(
        tuple(
            eps if valley_of[i] == valley_of[j] else big
            for j in range(n)
        )
        for i in range(n)
    )
    return TspInstance(
        n, valley_of, cost,
        ValleyParams(valleys, cities_per_valley, eps, big),
    )


def instance_from_cost_matrix(cost: Sequence[Sequence]) -> TspInstance:
    """Ad-hoc instance with every city in its own valley."""
    n = len(cost)
    rows = tuple(tuple(Fraction(c) for c in row) for row in cost)
    return TspInstance(n, tuple(range(n)), rows)


# ---------------------------------------------------------------------------
# Arc variable indexing (shared by every relaxation and flow)

def arc_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


# ---------------------------------------------------------------------------
# Relaxations

def degree_lp(inst: TspInstance) -> LinearProgram:
    """One [0,1] variable per arc; out-degree and in-degree equal 1 at
    every city; minimize total arc cost. n(n-1) variables, 2n rows."""
    n = inst.n
    arcs = arc_list(n)
    num = len(arcs)
    objective = [inst.cost[i][j] for (i, j) in arcs]
    one = Fraction(1)
    # rows 0..n-1 are out-degrees, rows n..2n-1 in-degrees
    coeffs = [[Fraction(0)] * num for _ in range(2 * n)]
    for idx, (i, j) in enumerate(arcs):
        coeffs[i][idx] = one
        coeffs[n + j][idx] = one
    rows = [Constraint(tuple(row), EQUAL, one) for row in coeffs]
    return linear_program(
        objective, "min", rows, upper_bounds=[one] * num
    )


def subtour_cut(inst: TspInstance, subset: Iterable[int]) -> Constraint:
    """Cut form of subtour elimination for S: total flow leaving S >= 1."""
    S = _checked_subset(inst, subset)
    n = inst.n
    inside = set(S)
    zero = Fraction(0)
    one = Fraction(1)
    coeffs = [
        one if (i in inside and j not in inside) else zero
        for (i, j) in arc_list(n)
    ]
    return Constraint(tuple(coeffs), GREATER_EQ, one)


def _checked_subset(inst: TspInstance, subset: Iterable[int]) -> tuple[int, ...]:
    S = tuple(sorted(set(subset)))
    if any(not 0 <= c < inst.n for c in S):
        raise ValidationError(f"subset references cities outside 0..{inst.n - 1}")
    if not 2 <= len(S) <= inst.n - 1:
        raise ValidationError("subtour subsets must have 2..n-1 cities")
    return S


def relaxation_with_cuts(
    inst: TspInstance, cut_subsets: Iterable[Iterable[int]]
) -> LinearProgram:
    return with_constraints(
        degree_lp(inst), [subtour_cut(inst, S) for S in cut_subsets]
    )


# ---------------------------------------------------------------------------
# Fractional flows

@dataclass(frozen=True)
class FlowSolution:
    arcs: tuple[tuple[int, int, Rational], ...]
    total_cost: Rational


def flow_from_arcs(
    inst: TspInstance, arcs: Iterable[tuple[int, int, Rational]]
) -> FlowSolution:
    """Validate arc records and price the flow against the instance.
    Weights must be exact rationals: a float is refused, not read as its
    binary fraction."""
    seen = set()
    rows = []
    total = Fraction(0)
    for (i, j, w) in arcs:
        require_exact((w,), "arc weights")
        wf = Fraction(w)
        if not (0 <= i < inst.n and 0 <= j < inst.n):
            raise ValidationError(f"arc ({i},{j}) references unknown cities")
        if i == j:
            raise ValidationError(f"self-loop arc at city {i}")
        if (i, j) in seen:
            raise ValidationError(f"duplicate arc ({i},{j})")
        if not 0 <= wf <= 1:
            raise ValidationError(f"arc ({i},{j}) weight {wf} outside [0,1]")
        seen.add((i, j))
        rows.append((i, j, wf))
        total += wf * inst.cost[i][j]
    return FlowSolution(tuple(rows), total)


def three_circulation_flow(inst: TspInstance) -> FlowSolution:
    """Three cycle covers at weight 1/3 each. Cover r walks every valley
    except valley r in increasing order (crossing k-1 mountain passes)
    and covers the skipped valley with its internal cycle. The combined
    flow is degree-feasible and its crossing cost is (k-1) * crossing
    cost, strictly below the k-crossing integer optimum, while the
    skipped valleys' cuts are violated at 2/3."""
    k = inst.valley_count
    if k < 4:
        raise ValidationError("three-circulation witness needs 4+ valleys")
    weight = Fraction(1, 3)
    combined: dict[tuple[int, int], Fraction] = {}

    def add(i: int, j: int) -> None:
        combined[(i, j)] = combined.get((i, j), Fraction(0)) + weight

    for skipped in range(3):
        ring = [v for v in range(k) if v != skipped]
        for pos, v in enumerate(ring):
            cities = inst.valley_cities(v)
            for t in range(len(cities) - 1):
                add(cities[t], cities[t + 1])
            nxt = inst.valley_cities(ring[(pos + 1) % len(ring)])
            add(cities[-1], nxt[0])
        skipped_cities = inst.valley_cities(skipped)
        if len(skipped_cities) < 2:
            raise ValidationError(
                "three-circulation witness needs 2+ cities per valley"
            )
        for t in range(len(skipped_cities)):
            add(skipped_cities[t], skipped_cities[(t + 1) % len(skipped_cities)])
    return flow_from_arcs(
        inst, [(i, j, w) for (i, j), w in sorted(combined.items())]
    )


# ---------------------------------------------------------------------------
# Feasibility checking

@dataclass(frozen=True)
class DegreeImbalance:
    city: int
    out_weight: Rational
    in_weight: Rational


@dataclass(frozen=True)
class CutEvaluation:
    subset: tuple[int, ...]
    value: Rational
    satisfied: bool


@dataclass(frozen=True)
class FlowReport:
    degree_ok: bool
    imbalances: tuple[DegreeImbalance, ...]
    cut_evaluations: tuple[CutEvaluation, ...]
    violated_cuts: tuple[tuple[int, ...], ...]
    total_cost: Rational
    crossing_cost: Rational


def check_flow_feasibility(
    inst: TspInstance,
    flow: FlowSolution,
    cut_subsets: Iterable[Iterable[int]] = (),
) -> FlowReport:
    """Exact verification of degree rows, the given cuts, and cost.
    Never alters the flow."""
    zero = Fraction(0)
    out_w = [zero] * inst.n
    in_w = [zero] * inst.n
    crossing = zero
    total = zero
    for (i, j, w) in flow.arcs:
        out_w[i] += w
        in_w[j] += w
        total += w * inst.cost[i][j]
        if inst.valley_of[i] != inst.valley_of[j]:
            crossing += w * inst.cost[i][j]
    one = Fraction(1)
    imbalances = tuple(
        DegreeImbalance(c, out_w[c], in_w[c])
        for c in range(inst.n)
        if out_w[c] != one or in_w[c] != one
    )
    evaluations = []
    violated = []
    for subset in cut_subsets:
        S = _checked_subset(inst, subset)
        inside = set(S)
        value = sum(
            (w for (i, j, w) in flow.arcs if i in inside and j not in inside),
            zero,
        )
        ok = value >= one
        evaluations.append(CutEvaluation(S, value, ok))
        if not ok:
            violated.append(S)
    return FlowReport(
        degree_ok=not imbalances,
        imbalances=imbalances,
        cut_evaluations=tuple(evaluations),
        violated_cuts=tuple(violated),
        total_cost=total,
        crossing_cost=crossing,
    )


# ---------------------------------------------------------------------------
# Separation: exact min-cut probes from city 0 on integer capacities

def _max_flow_min_cut(
    n: int, capacity: list[list[int]], source: int, sink: int
) -> tuple[int, tuple[int, ...]]:
    """Edmonds-Karp on integer capacities; returns (value, source side)."""
    residual = [row[:] for row in capacity]
    flow_value = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for w in range(n):
                if parent[w] < 0 and residual[u][w] > 0:
                    parent[w] = u
                    queue.append(w)
        if parent[sink] < 0:
            # the search ran out before the sink: it visited exactly
            # the source side of a minimum cut
            return flow_value, tuple(i for i in range(n) if parent[i] >= 0)
        bottleneck = None
        w = sink
        while w != source:
            u = parent[w]
            cap = residual[u][w]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            w = u
        w = sink
        while w != source:
            u = parent[w]
            residual[u][w] -= bottleneck
            residual[w][u] += bottleneck
            w = u
        flow_value += bottleneck


def separate_subtour(
    inst: TspInstance, point: Sequence[Rational]
) -> Optional[tuple[int, ...]]:
    """Most-violated subtour cut under the point, or None if every cut
    holds. The point must be exact, nonnegative and degree-feasible. It
    is scaled once to integers over the lcm of its denominators, and
    exact min-cuts from city 0 to every other city decide. They reach
    the global minimum because a degree-feasible point sends as much
    flow out of every subset as into it. A disconnected support needs
    no search of its own: the point is a circulation, so a probe toward
    a city outside city 0's component finds no path and returns that
    component at value 0. Ties go to the lexicographically smallest
    subset among candidates."""
    n = inst.n
    arcs = arc_list(n)
    if len(point) != len(arcs):
        raise ValidationError("point length does not match the arc count")
    require_exact(point, "separation point entries")
    if any(w < 0 for w in point):
        raise ValidationError("separation requires a nonnegative point")
    # with every entry a multiple of 1/scale, 1 becomes scale and every
    # comparison and augmenting path is the one the rationals would give
    scale = lcm(*(w.denominator for w in point))
    weight = [[0] * n for _ in range(n)]
    out_w = [0] * n
    in_w = [0] * n
    for (i, j), w in zip(arcs, point):
        wi = w.numerator * (scale // w.denominator)
        weight[i][j] = wi
        out_w[i] += wi
        in_w[j] += wi
    if any(out_w[c] != scale or in_w[c] != scale for c in range(n)):
        raise ValidationError("separation requires a degree-feasible point")

    # Degree feasibility makes out(S) = in(S) = out(V - S) for every S,
    # so a cut whose source side avoids city 0 has the value of its
    # complement, which a probe from city 0 finds; on a value tie the
    # side holding 0 is the lexicographically smaller one anyway. Probes
    # toward city 0 can therefore neither lower the minimum nor win a tie.
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for other in range(1, n):
        cand = _max_flow_min_cut(n, weight, 0, other)
        if cand[0] < scale and (best is None or cand < best):
            best = cand
    return best[1] if best else None


# ---------------------------------------------------------------------------
# Cutting-plane loop

@dataclass(frozen=True)
class CutRound:
    round_index: int
    lp_value: Rational
    cut_added: Optional[tuple[int, ...]]
    constraint_count: int  # rows in the LP solved this round


@dataclass(frozen=True)
class CuttingPlaneTrace:
    rounds: tuple[CutRound, ...]
    cuts: tuple[tuple[int, ...], ...]
    final_value: Rational
    final_point: tuple[Rational, ...]
    final_integral: bool
    complete: bool  # False when the round budget ran out with a violation left


# the round budget of a cutting-plane loop when none is given
DEFAULT_ROUNDS = 50


def cutting_plane_loop(
    inst: TspInstance, max_rounds: int = DEFAULT_ROUNDS
) -> CuttingPlaneTrace:
    """Solve, separate, add one cut, repeat. Each round's program is
    the last one with its violated cut appended as a new last row, so
    the degree LP is built once, and each round's solve starts from the
    last round's tableau: the cut enters with an artificial that phase 1
    drives out from the last basis, instead of a cold two-phase solve.
    Values are nondecreasing because each round's feasible region
    shrinks. The valley LPs are degenerate, so the warm path may end a
    round at another optimal vertex than a cold solve would; the loop
    can then stop, complete and at the tour optimum, on a fractional
    point no subtour cut separates (``final_integral`` false, as at
    six 2-city valleys)."""
    if max_rounds < 1:
        raise ValidationError("max_rounds must be at least 1")
    cuts: list[tuple[int, ...]] = []
    rounds: list[CutRound] = []
    complete = False
    program = degree_lp(inst)
    outcome = None
    for rnd in range(1, max_rounds + 1):
        outcome = solve_lp(program, start=outcome)
        if outcome.status is not SolveStatus.OPTIMAL:  # pragma: no cover
            raise AssertionError(f"relaxation solve came back {outcome.status}")
        violated = separate_subtour(inst, outcome.point)
        rounds.append(
            CutRound(rnd, outcome.value, violated, len(program.constraints))
        )
        if violated is None:
            complete = True
            break
        cuts.append(violated)
        program = with_constraints(program, [subtour_cut(inst, violated)])
    return CuttingPlaneTrace(
        rounds=tuple(rounds),
        cuts=tuple(cuts),
        final_value=outcome.value,
        final_point=outcome.point,
        final_integral=all(is_integral(x) for x in outcome.point),
        complete=complete,
    )


# ---------------------------------------------------------------------------
# File formats (documented in the README with a worked k=4 example)

def instance_to_text(inst: TspInstance) -> str:
    lines = ["lpgaps-instance 1", f"n {inst.n}"]
    lines.append("valleys " + " ".join(str(v) for v in inst.valley_of))
    lines.append("costs")
    for row in inst.cost:
        lines.append(" ".join(format_rational(c) for c in row))
    return "\n".join(lines) + "\n"


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"not an integer: {token!r}") from None


def instance_from_text(text: str) -> TspInstance:
    fields: dict[str, str] = {}
    cost_rows: list[tuple[Rational, ...]] = []
    for ln in body_lines(text, "lpgaps-instance"):
        key, _, rest = ln.partition(" ")
        if key in fields:
            raise ValidationError(f"repeated instance field {key!r}")
        if "costs" in fields:
            cost_rows.append(tuple(parse_rational(t) for t in ln.split()))
        elif key in ("n", "valleys", "costs"):
            fields[key] = rest
        else:
            raise ValidationError(f"unknown instance field {key!r}")
    if "n" not in fields or "valleys" not in fields:
        raise ValidationError("instance needs n and valleys fields")
    valley_of = tuple(_int(t) for t in fields["valleys"].split())
    return TspInstance(_int(fields["n"]), valley_of, tuple(cost_rows))


def flow_arcs_to_text(flow: FlowSolution) -> str:
    lines = ["lpgaps-flow 1"]
    for (i, j, w) in flow.arcs:
        lines.append(f"{i} {j} {format_rational(w)}")
    return "\n".join(lines) + "\n"


def flow_arcs_from_text(text: str) -> list[tuple[int, int, Rational]]:
    arcs = []
    for ln in body_lines(text, "lpgaps-flow"):
        toks = ln.split()
        if len(toks) != 3:
            raise ValidationError(f"bad flow arc line: {ln!r}")
        arcs.append((_int(toks[0]), _int(toks[1]), parse_rational(toks[2])))
    return arcs
