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
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .lp import (
    EQUAL,
    GREATER_EQ,
    Constraint,
    LinearProgram,
    LpOutcome,
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

    @property
    def valley_count(self) -> int:
        return max(self.valley_of) + 1

    def valley_cities(self, valley: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.valley_of[i] == valley)


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
    if n < 2:
        raise ValidationError("need at least 2 cities")
    rows = tuple(tuple(Fraction(c) for c in row) for row in cost)
    if any(len(r) != n for r in rows):
        raise ValidationError("cost matrix must be square")
    return TspInstance(n, tuple(range(n)), rows)


# ---------------------------------------------------------------------------
# Arc variable indexing (shared by every relaxation and flow)

def arc_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def arc_index_map(n: int) -> dict[tuple[int, int], int]:
    return {arc: idx for idx, arc in enumerate(arc_list(n))}


# ---------------------------------------------------------------------------
# Relaxations

def degree_lp(inst: TspInstance) -> LinearProgram:
    """One [0,1] variable per arc; out-degree and in-degree equal 1 at
    every city; minimize total arc cost. n(n-1) variables, 2n rows."""
    n = inst.n
    arcs = arc_list(n)
    num = len(arcs)
    objective = [inst.cost[i][j] for (i, j) in arcs]
    zero = Fraction(0)
    one = Fraction(1)
    rows = []
    for city in range(n):
        coeffs = [zero] * num
        for idx, (i, _) in enumerate(arcs):
            if i == city:
                coeffs[idx] = one
        rows.append(Constraint(tuple(coeffs), EQUAL, one))
    for city in range(n):
        coeffs = [zero] * num
        for idx, (_, j) in enumerate(arcs):
            if j == city:
                coeffs[idx] = one
        rows.append(Constraint(tuple(coeffs), EQUAL, one))
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


def valley_cut_subsets(inst: TspInstance) -> tuple[tuple[int, ...], ...]:
    """The k per-valley cut subsets (needs at least 2 cities per valley)."""
    subsets = []
    for v in range(inst.valley_count):
        cities = inst.valley_cities(v)
        if len(cities) < 2:
            raise ValidationError(
                f"valley {v} has {len(cities)} city; a cut subset needs 2"
            )
        subsets.append(cities)
    return tuple(subsets)


# ---------------------------------------------------------------------------
# Fractional flows

@dataclass(frozen=True)
class FlowSolution:
    arcs: tuple[tuple[int, int, Rational], ...]
    total_cost: Rational


def flow_from_arcs(
    inst: TspInstance, arcs: Iterable[tuple[int, int, Rational]]
) -> FlowSolution:
    """Validate arc records and price the flow against the instance."""
    seen = set()
    rows = []
    total = Fraction(0)
    for (i, j, w) in arcs:
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


def tour_flow(inst: TspInstance, tour: Sequence[int]) -> FlowSolution:
    """Unit flow along a tour's arcs."""
    if sorted(tour) != list(range(inst.n)):
        raise ValidationError("tour must visit every city exactly once")
    one = Fraction(1)
    arcs = [
        (tour[i], tour[(i + 1) % len(tour)], one) for i in range(len(tour))
    ]
    return flow_from_arcs(inst, arcs)


def flow_to_point(inst: TspInstance, flow: FlowSolution) -> tuple[Rational, ...]:
    index = arc_index_map(inst.n)
    point = [Fraction(0)] * len(index)
    for (i, j, w) in flow.arcs:
        point[index[(i, j)]] = w
    return tuple(point)


def valley_internal_cycles_flow(inst: TspInstance) -> FlowSolution:
    """The canonical fractional-below-integer witness: each valley
    circulates internally at unit weight, so every degree row is met at
    intra-only cost while every valley cut is violated outright."""
    arcs = []
    one = Fraction(1)
    for v in range(inst.valley_count):
        cities = inst.valley_cities(v)
        if len(cities) < 2:
            raise ValidationError("internal circulation needs 2+ cities per valley")
        for t in range(len(cities)):
            arcs.append((cities[t], cities[(t + 1) % len(cities)], one))
    return flow_from_arcs(inst, arcs)


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
# Separation: weak components first, then exact min-cut probes from city 0

def _weak_components(n: int, weight: list[list[Fraction]]) -> list[tuple[int, ...]]:
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in range(n):
                if not seen[w] and (weight[u][w] != 0 or weight[w][u] != 0):
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def _max_flow_min_cut(
    n: int, capacity: list[list[Fraction]], source: int, sink: int
) -> tuple[Fraction, tuple[int, ...]]:
    """Edmonds-Karp with exact capacities; returns (value, source side)."""
    residual = [row[:] for row in capacity]
    flow_value = Fraction(0)
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
            break
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
    side = [False] * n
    side[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in range(n):
            if not side[w] and residual[u][w] > 0:
                side[w] = True
                queue.append(w)
    return flow_value, tuple(i for i in range(n) if side[i])


def separate_subtour(
    inst: TspInstance, point: Sequence[Rational]
) -> Optional[tuple[int, ...]]:
    """Most-violated subtour cut under the point, or None if every cut
    holds. Disconnected support is detected first (those cuts have value
    exactly 0); otherwise exact min-cuts from city 0 to every other city
    decide, which reach the global minimum because a degree-feasible
    point sends as much flow out of every subset as into it. Ties go to
    the lexicographically smallest subset among candidates."""
    n = inst.n
    arcs = arc_list(n)
    if len(point) != len(arcs):
        raise ValidationError("point length does not match the arc count")
    zero = Fraction(0)
    weight = [[zero] * n for _ in range(n)]
    out_w = [zero] * n
    in_w = [zero] * n
    for (i, j), w in zip(arcs, point):
        wf = Fraction(w)
        weight[i][j] = wf
        out_w[i] += wf
        in_w[j] += wf
    one = Fraction(1)
    if any(out_w[c] != one or in_w[c] != one for c in range(n)):
        raise ValidationError("separation requires a degree-feasible point")

    # disconnected support is common in early cut rounds, and one search
    # over the support answers it for less than n - 1 max-flow probes
    comps = _weak_components(n, weight)
    if len(comps) > 1:
        return min(comps)

    # Degree feasibility makes out(S) = in(S) = out(V - S) for every S,
    # so a cut whose source side avoids city 0 has the value of its
    # complement, which a probe from city 0 finds; on a value tie the
    # side holding 0 is the lexicographically smaller one anyway. Probes
    # toward city 0 can therefore neither lower the minimum nor win a tie.
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for other in range(1, n):
        value, side = _max_flow_min_cut(n, weight, 0, other)
        if value < one:
            cand = (value, side)
            if best is None or cand < best:
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


def cutting_plane_loop(inst: TspInstance, max_rounds: int = 50) -> CuttingPlaneTrace:
    """Solve, separate, add one cut, repeat. Values are nondecreasing
    because each round's feasible region shrinks."""
    if max_rounds < 1:
        raise ValidationError("max_rounds must be at least 1")
    cuts: list[tuple[int, ...]] = []
    rounds: list[CutRound] = []
    complete = False
    outcome: Optional[LpOutcome] = None
    for rnd in range(1, max_rounds + 1):
        program = relaxation_with_cuts(inst, cuts)
        outcome = solve_lp(program)
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


def instance_from_text(text: str) -> TspInstance:
    n = None
    valley_of = None
    cost_rows: list[tuple[Rational, ...]] = []
    in_costs = False
    for ln in body_lines(text, "lpgaps-instance"):
        if in_costs:
            cost_rows.append(tuple(parse_rational(t) for t in ln.split()))
            continue
        key, _, rest = ln.partition(" ")
        if key == "n":
            n = int(rest)
        elif key == "valleys":
            valley_of = tuple(int(t) for t in rest.split())
        elif key == "costs":
            in_costs = True
        else:
            raise ValidationError(f"unknown instance field {key!r}")
    if n is None or valley_of is None:
        raise ValidationError("instance needs n and valleys fields")
    if len(valley_of) != n or len(cost_rows) != n or any(len(r) != n for r in cost_rows):
        raise ValidationError("instance dimensions are inconsistent")
    if sorted(set(valley_of)) != list(range(max(valley_of) + 1)):
        raise ValidationError("valley ids must be 0..k-1 with none missing")
    return TspInstance(n, valley_of, tuple(cost_rows))


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
        arcs.append((int(toks[0]), int(toks[1]), parse_rational(toks[2])))
    return arcs
