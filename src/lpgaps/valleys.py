"""Valley-structured TSP instances, their LP relaxations, and cut machinery.

An instance places k clusters ("valleys") of c cities each; travel inside
a valley costs intra_cost, travel between valleys costs crossing_cost
(a "mountain" pass). With intra_cost 0 and crossing_cost 1 the integer
optimum is exactly k while the degree-only relaxation circulates inside
valleys at cost 0, which is the whole point: a relaxation that omits the
exponential cut family certifies values no tour can reach.

Flow variables are per-arc: one weight in [0,1] for every ordered city
pair. The cutting-plane loop adds one violated subtour cut per round,
drawn from the last separation's cuts, until the separation oracle is
silent or the round budget runs out, recording how many cuts this loop
added (Bland's pivots choose them, so another loop may need fewer).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ValidationError
from .lp import (
    EQUAL,
    GREATER_EQ,
    Constraint,
    LinearProgram,
    LpOutcome,
    SolveStatus,
    solve_lp,
)
from .rationals import (
    Rational,
    body_lines,
    format_rational,
    is_integral,
    parse_rational,
    require_common_denominator,
    require_exact,
    require_indices,
    require_int,
    scale_to_ints,
)


@dataclass(frozen=True)
class InstanceInfo:
    """What a report records of an instance: its city count, and the
    valley parameters of a generated one (None for any other)."""
    n: int
    valleys: Optional[int] = None
    cities_per_valley: Optional[int] = None
    intra_cost: Optional[Rational] = None
    crossing_cost: Optional[Rational] = None


@dataclass(frozen=True)
class TspInstance:
    n: int
    valley_of: tuple[int, ...]
    cost: tuple[tuple[Rational, ...], ...]  # diagonal entries are unused
    params: Optional[InstanceInfo] = None

    def __post_init__(self):
        n = self.n
        require_int(n, 2, None, "city count")
        if (len(self.valley_of) != n or len(self.cost) != n
                or any(len(row) != n for row in self.cost)):
            raise ValidationError("instance dimensions are inconsistent")
        for v in self.valley_of:
            require_int(v, 0, n - 1, "valley id")
        if sorted(set(self.valley_of)) != list(range(max(self.valley_of) + 1)):
            raise ValidationError("valley ids must be 0..k-1 with none missing")
        for row in self.cost:
            require_exact(row, "costs")
        # a report records params, so they must describe this instance
        p, k = self.params, self.valley_count
        if p is not None and (
            p.n != n
            or p.valleys not in (None, k)
            or (p.cities_per_valley is not None and k * p.cities_per_valley != n)
        ):
            raise ValidationError(f"{p} disagrees with {n} cities in {k} valleys")

    @property
    def info(self) -> InstanceInfo:
        return self.params or InstanceInfo(self.n)

    @property
    def valley_count(self) -> int:
        return max(self.valley_of) + 1

    def valley_cities(self, valley: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.valley_of[i] == valley)


# the relaxation is dense with one column per arc, n(n - 1) of them, yet
# its solves do not bind: on a shared 2-vCPU host (Python 3.11), the
# degree solve of decide via the LP relaxation takes 0.02-0.03 s at
# n = 40 (0.08 s at 60 with the cap lifted) and five cut-loop rounds
# take 0.03-0.05 s. The cut loop's stall on 3-city valleys binds: (13, 3)
# completes in 0.27 s, but with the cap lifted (16, 3) takes 3.7 s and
# (18, 3) 54 s at the default rounds (ROADMAP item 4)
MAX_CITIES = 40


def gen_valley_instance(
    valleys: int,
    cities_per_valley: int,
    intra_cost=Fraction(0),
    crossing_cost=Fraction(1),
) -> TspInstance:
    """Valley-major city numbering: city v*c + t is slot t of valley v;
    the exact costs are recorded as Fractions, and a float is refused."""
    require_exact((intra_cost, crossing_cost), "valley costs")
    eps = Fraction(intra_cost)
    big = Fraction(crossing_cost)
    require_int(valleys, 2, None, "valley count")
    require_int(cities_per_valley, 1, None, "cities per valley")
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
        InstanceInfo(n, valleys, cities_per_valley, eps, big),
    )


def instance_from_cost_matrix(cost: Sequence[Sequence]) -> TspInstance:
    """Ad-hoc instance with every city in its own valley."""
    rows = tuple(tuple(row) for row in cost)
    return TspInstance(len(rows), tuple(range(len(rows))), rows)


# ---------------------------------------------------------------------------
# Arc variable indexing (shared by every relaxation and flow)

@cache
def arc_list(n: int) -> tuple[tuple[int, int], ...]:
    """Every ordered city pair, the arc variables' order; one immutable
    tuple per n, built once, since each cut-loop round reads it twice."""
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def _cover_columns(inst: TspInstance) -> tuple[int, ...]:
    """The arc columns, in arc_list order (arc (i, j) is column
    i * (n - 1) + j, less 1 when j > i), of the cycle cover that
    successor swaps reach from the tour 0, 1, ..., n - 1. For cities a <
    c, giving a the successor of c and c that of a is kept when it makes
    no self-loop and strictly lowers the cost (on the costs scaled to
    ints, as the tour oracle reads them). Pairs are scanned in index
    order, each improvement kept at once, until a sweep keeps none or n
    sweeps have run: at most n^3 / 2 pair checks. A cycle cover is a
    vertex of the degree program; a cut it breaks is a row the dual
    simplex repairs."""
    n = inst.n
    scaled, _ = scale_to_ints([c for row in inst.cost for c in row])
    cost = [scaled[i * n:(i + 1) * n] for i in range(n)]
    succ = [*range(1, n), 0]
    for _ in range(n):
        kept = False
        for a in range(n):
            for c in range(a + 1, n):
                b, d = succ[a], succ[c]
                if (a == d or c == b
                        or cost[a][d] + cost[c][b] >= cost[a][b] + cost[c][d]):
                    continue
                succ[a], succ[c] = d, b
                kept = True
        if not kept:
            break
    return tuple(i * (n - 1) + j - (j > i) for i, j in enumerate(succ))


# ---------------------------------------------------------------------------
# Relaxations

def degree_lp(inst: TspInstance) -> LinearProgram:
    """One [0,1] variable per arc; out-degree and in-degree equal 1 at
    every city; minimize total arc cost. n(n-1) variables, 2n rows."""
    n = inst.n
    arcs = arc_list(n)
    num = len(arcs)
    objective = [inst.cost[i][j] for (i, j) in arcs]
    # rows 0..n-1 are out-degrees, rows n..2n-1 in-degrees
    coeffs = [[0] * num for _ in range(2 * n)]
    for idx, (i, j) in enumerate(arcs):
        coeffs[i][idx] = 1
        coeffs[n + j][idx] = 1
    rows = [Constraint(row, EQUAL, 1) for row in coeffs]
    return LinearProgram(objective, "min", rows, upper_bounds=(1,) * num)


def subtour_cut(inst: TspInstance, subset: Iterable[int]) -> Constraint:
    """Cut form of subtour elimination for S: total flow leaving S >= 1.
    The one way a cut row is made, so every row's subset is checked:
    2..n-1 distinct cities. Distinct subsets give distinct rows."""
    inside = set(_checked_subset(inst, subset))
    coeffs = [int(i in inside and j not in inside) for (i, j) in arc_list(inst.n)]
    return Constraint(coeffs, GREATER_EQ, 1)


def _checked_subset(inst: TspInstance, subset: Iterable[int]) -> tuple[int, ...]:
    """The subset's cities, distinct city indices, sorted."""
    S = tuple(subset)
    require_indices(S, inst.n, "city")
    if not 2 <= len(S) <= inst.n - 1:
        raise ValidationError("subtour subsets must have 2..n-1 cities")
    return tuple(sorted(S))


def relaxation_with_cuts(
    inst: TspInstance, cut_subsets: Iterable[Iterable[int]]
) -> LinearProgram:
    """The degree LP with one subtour cut per subset. Two subsets that
    name one city set are refused, since they build one row; the error
    names the first such set in order of appearance."""
    subsets = [tuple(S) for S in cut_subsets]
    cuts = [subtour_cut(inst, S) for S in subsets]
    first: dict[Constraint, int] = {}
    repeated = [first[row] for k, row in enumerate(cuts)
                if first.setdefault(row, k) != k]
    if repeated:
        raise ValidationError(
            f"cut subset {sorted(subsets[min(repeated)])} is named more than once"
        )
    program = degree_lp(inst)
    return replace(program, constraints=program.constraints + tuple(cuts))


def solve_relaxation(
    inst: TspInstance, program: LinearProgram, start: Optional[LpOutcome] = None
) -> LpOutcome:
    """The optimal outcome of a relaxation program of inst: its degree
    LP, with or without subtour cuts. Every tour relaxation is solved
    here, the gap report's degree and degree+cuts programs and every
    round of the cutting-plane loop. With no start, the solve is cold
    and starts at one corner: the cycle cover that successor swaps
    reach from the tour 0, 1, ..., n - 1 (_cover_columns), each of its
    arcs at 1 and every other at 0. A cycle cover is a vertex of the
    degree LP, where every degree row's zero-span slack is basic at 0,
    so the dual simplex makes no basis change on the degree LP; at eight
    2-city valleys with costs (0, 1) the whole solve makes none. A cut
    the cover breaks is repaired by the dual simplex, and the primal
    simplex walks down from there. With a start, an earlier outcome over
    this program's first rows, the solve is warm and re-optimises from
    that outcome's tableau. Every tour satisfies each such program,
    whose arcs lie in [0, 1], so the solve comes back optimal."""
    outcome = (solve_lp(program, at_upper=_cover_columns(inst)) if start is None
               else solve_lp(program, start=start))
    if outcome.status is not SolveStatus.OPTIMAL:  # pragma: no cover
        raise AssertionError(f"relaxation solve came back {outcome.status}")
    return outcome


# ---------------------------------------------------------------------------
# Fractional flows: tuples of (i, j, weight) arc records

def flow_from_arcs(
    inst: TspInstance, arcs: Iterable[tuple[int, int, Rational]]
) -> tuple[tuple[int, int, Fraction], ...]:
    """Validate arc records against the instance, without pricing the
    flow: check_flow_feasibility alone sums its cost. Weights must be
    exact rationals: a float is refused, not read as its binary
    fraction. Each record is checked as it arrives, before the
    next is drawn, so a lazy reader such as flow_arcs_from_text stops at
    the first refused one: a self-loop, an unknown city, a repeated arc,
    a weight outside [0, 1], or weights so far that need a common
    denominator above 10**MAX_LITERAL_DIGITS. Since repeats are refused,
    at most n(n - 1) + 1 records are drawn."""
    checked: dict[tuple[int, int], Fraction] = {}

    def weights():
        for (i, j, w) in arcs:
            require_exact((w,), "arc weights")
            wf = Fraction(w)
            require_indices((i, j), inst.n, "city")
            if (i, j) in checked:
                raise ValidationError(f"duplicate arc ({i},{j})")
            if not 0 <= wf <= 1:
                raise ValidationError(f"arc ({i},{j}) weight {wf} outside [0,1]")
            checked[(i, j)] = wf
            yield wf

    require_common_denominator(weights(), "arc weights")
    return tuple((i, j, w) for (i, j), w in checked.items())


def three_circulation_flow(inst: TspInstance) -> tuple[tuple[int, int, Fraction], ...]:
    """Three cycle covers at weight 1/3 each. Cover r is two closed
    walks: one through the cities of every valley except valley r, in
    valley order (crossing k-1 mountain passes), and valley r's own
    cycle. An arc the covers use m times carries m/3. The combined flow
    is degree-feasible and its crossing cost is (k-1) * crossing cost,
    strictly below the k-crossing integer optimum, while the skipped
    valleys' cuts are violated at 2/3."""
    k = inst.valley_count
    if k < 4:
        raise ValidationError("three-circulation witness needs 4+ valleys")
    if any(len(inst.valley_cities(v)) < 2 for v in range(3)):
        raise ValidationError("three-circulation witness needs 2+ cities per valley")
    uses: Counter[tuple[int, int]] = Counter()
    for skipped in range(3):
        ring = [c for v in range(k) if v != skipped for c in inst.valley_cities(v)]
        for walk in (ring, inst.valley_cities(skipped)):
            uses.update(zip(walk, walk[1:] + walk[:1]))
    return tuple((i, j, Fraction(m, 3)) for (i, j), m in sorted(uses.items()))


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
    arcs: Iterable[tuple[int, int, Rational]],
    cut_subsets: Iterable[Iterable[int]] = (),
) -> FlowReport:
    """Exact verification of a flow's degree rows, the given cuts, and
    cost. The (i, j, weight) arc records are checked by flow_from_arcs
    as they are drawn, and summed only once every one has passed."""
    flow = flow_from_arcs(inst, arcs)
    zero = Fraction(0)
    out_w = [zero] * inst.n
    in_w = [zero] * inst.n
    crossing = zero
    total = zero
    for (i, j, w) in flow:
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
    for subset in cut_subsets:
        S = _checked_subset(inst, subset)
        value = _cut_value(S, flow)
        evaluations.append(CutEvaluation(S, value, value >= one))
    return FlowReport(
        degree_ok=not imbalances,
        imbalances=imbalances,
        cut_evaluations=tuple(evaluations),
        violated_cuts=tuple(e.subset for e in evaluations if not e.satisfied),
        total_cost=total,
        crossing_cost=crossing,
    )


# ---------------------------------------------------------------------------
# Separation: exact min-cut probes from city 0 on integer capacities

def _search(
    n: int, capacity: list[list[int]], source: int, sink: int = -1
) -> list[int]:
    """Breadth-first search from source along arcs of positive capacity,
    stopped when it reaches the sink (with no sink, when it has reached
    all it can): each city's parent on the search, source for source
    itself and -1 for a city not reached."""
    parent = [-1] * n
    parent[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == sink:
            break
        for w in range(n):
            if parent[w] < 0 and capacity[u][w] > 0:
                parent[w] = u
                queue.append(w)
    return parent


def _max_flow_min_cut(
    n: int, capacity: list[list[int]], source: int, sink: int
) -> tuple[int, tuple[int, ...]]:
    """Edmonds-Karp on integer capacities; returns (value, source side)."""
    residual = [row[:] for row in capacity]
    flow_value = 0
    while True:
        parent = _search(n, residual, source, sink)
        if parent[sink] < 0:
            # the search ran out before the sink: it visited exactly
            # the source side of a minimum cut
            return flow_value, tuple(i for i in range(n) if parent[i] >= 0)
        path = []
        w = sink
        while w != source:
            path.append((parent[w], w))
            w = parent[w]
        bottleneck = min(residual[u][w] for u, w in path)
        for u, w in path:
            residual[u][w] -= bottleneck
            residual[w][u] += bottleneck
        flow_value += bottleneck


def _components(n: int, weight: list[list[int]]) -> list[tuple[int, ...]]:
    """The components of the support graph, one undirected edge per arc
    of positive weight, each sorted and listed by its least city. The
    weights must be a circulation: then every arc of positive weight
    lies on a directed cycle, so the cities a search along such arcs
    reaches from a city are its whole component, and one search from
    each city not yet reached finds them all."""
    found: list[tuple[int, ...]] = []
    for start in range(n):
        if not any(start in component for component in found):
            parent = _search(n, weight, start)
            found.append(tuple(i for i in range(n) if parent[i] >= 0))
    return found


def _cut_value(
    subset: Iterable[int], arcs: Iterable[tuple[int, int, Rational]]
) -> Rational:
    """The exact weight the (i, j, w) arc records send out of the
    subset; the one sum behind a flow report's cut values and the cut
    loop's pool."""
    inside = set(subset)
    leaving = (w for (i, j, w) in arcs if i in inside and j not in inside)
    return sum(leaving, Fraction(0))


def separate_subtour(
    inst: TspInstance, point: Sequence[Rational]
) -> tuple[tuple[int, ...], ...]:
    """Violated subtour cuts under the point, each a subset of 2..n-1
    cities in increasing order; () if every cut holds. The point must be
    exact, nonnegative and degree-feasible. It is scaled once to
    integers over the lcm of its denominators. When its support graph
    (one undirected edge per arc of positive weight) has more than one
    component, every component is returned, listed by least city so
    that city 0's comes first: the point is a circulation, so each
    one's cut value is 0, and no min-cut search is needed. Otherwise
    exact min-cuts from city 0 to every other city decide, and the one
    most-violated cut is returned alone. They reach the global minimum
    because a degree-feasible point sends as much flow out of every
    subset as into it. Ties go to the lexicographically smallest subset
    among candidates."""
    n = inst.n
    arcs = arc_list(n)
    if len(point) != len(arcs):
        raise ValidationError("point length does not match the arc count")
    require_exact(point, "separation point entries")
    # with every entry a multiple of 1/scale, 1 becomes scale and every
    # comparison and augmenting path is the one the rationals would give
    ints, scale = scale_to_ints(point)
    if any(w < 0 for w in ints):
        raise ValidationError("separation requires a nonnegative point")
    weight = [[0] * n for _ in range(n)]
    out_w = [0] * n
    in_w = [0] * n
    for (i, j), wi in zip(arcs, ints):
        weight[i][j] = wi
        out_w[i] += wi
        in_w[j] += wi
    if any(out_w[c] != scale or in_w[c] != scale for c in range(n)):
        raise ValidationError("separation requires a degree-feasible point")
    # the point is a circulation, as _components needs, and a city's
    # out-degree is 1, so no component is a single city
    components = _components(n, weight)
    if len(components) > 1:
        return tuple(components)

    # Degree feasibility makes out(S) = in(S) = out(V - S) for every S,
    # so a cut whose source side avoids city 0 has the value of its
    # complement, which a probe from city 0 finds; on a value tie the
    # side holding 0 is the lexicographically smaller one anyway. Probes
    # toward city 0 can therefore neither lower the minimum nor win a tie.
    probes = (_max_flow_min_cut(n, weight, 0, other) for other in range(1, n))
    best = min((cut for cut in probes if cut[0] < scale), default=None)
    return (best[1],) if best else ()


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

    @property
    def tour_optimum(self) -> Optional[Rational]:
        """The exact cost of a cheapest tour, when this loop proved it,
        else None. A loop that ends complete on an integral point has:
        that point is a cycle cover of the degree LP that no subtour cut
        separates, so one Hamiltonian cycle, and its value is optimal
        over a relaxation of the TSP, so no tour costs less."""
        return self.final_value if self.complete and self.final_integral else None


# the round budget of a cutting-plane loop when none is given
DEFAULT_ROUNDS = 50


def cutting_plane_loop(
    inst: TspInstance, max_rounds: int = DEFAULT_ROUNDS
) -> CuttingPlaneTrace:
    """Solve, take a violated cut, add it, repeat. Each round's program
    is the last one with its cut appended as a new last row, so the
    degree LP is built once. Each round is one solve_relaxation: round 1
    is cold, from the cycle cover, and each later round warm, from the
    last round's outcome, where the cut enters with its slack basic
    below 0 and the dual simplex re-optimises from the last optimal
    basis. A separation may return several cuts (one per component
    of a disconnected support); they wait in a pool, and each round
    keeps the pool's cuts that its point still violates (exact cut value
    below 1) and adds the first of them, separating again only when none
    is left. A round adds one cut, so a round is one solve. No cut is
    added twice: a cut already in the program holds at every later
    point. Values are nondecreasing because each round's feasible region
    shrinks. The valley LPs are degenerate, so the warm path may end a
    round at another optimal vertex than a cold solve would; the loop
    can then stop, complete and at the tour optimum, on a fractional
    point no subtour cut separates (``final_integral`` false)."""
    require_int(max_rounds, 1, None, "max_rounds")
    rounds: list[CutRound] = []
    program = degree_lp(inst)
    outcome = None
    pool: list[tuple[int, ...]] = []
    for rnd in range(1, max_rounds + 1):
        outcome = solve_relaxation(inst, program, outcome)
        # the last separation's cuts this point still violates, in order
        arcs = [(i, j, x) for (i, j), x in zip(arc_list(inst.n), outcome.point) if x]
        pool = [S for S in pool if _cut_value(S, arcs) < 1]
        pool = pool or list(separate_subtour(inst, outcome.point))
        violated = pool.pop(0) if pool else None
        rounds.append(
            CutRound(rnd, outcome.value, violated, len(program.constraints))
        )
        if violated is None:
            break
        cut = subtour_cut(inst, violated)
        program = replace(program, constraints=program.constraints + (cut,))
    return CuttingPlaneTrace(
        rounds=tuple(rounds),
        cuts=tuple(r.cut_added for r in rounds if r.cut_added is not None),
        final_value=outcome.value,
        final_point=outcome.point,
        final_integral=all(is_integral(x) for x in outcome.point),
        complete=rounds[-1].cut_added is None,
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


# an instance file holds n^2 costs, and parsing them is most of what
# check-flow does: on a shared 2-vCPU host (Python 3.11), with a tour
# flow, parsing takes 0.011 s at n = 40, 0.27 s at 200 and 1.7 s at 500,
# and a whole check-flow process 0.17-0.23 s (16 MB peak), 0.36-0.49 s
# (18 MB) and 1.6-1.9 s (31 MB)
MAX_FILE_CITIES = 200


def _field(lines: Iterator[str], key: str) -> str:
    """The value of the next line, which must be the key field."""
    got, _, value = next(lines, "").partition(" ")
    if got != key:
        found = repr(got) if got else "the end of the file"
        raise ValidationError(f"expected the {key} field, not {found}")
    return value


def instance_from_text(text: str) -> TspInstance:
    """Read an instance file: the fields n, valleys and costs, in the
    order instance_to_text writes them, then n cost rows. A file with
    fewer than 2 or more than MAX_FILE_CITIES cities is refused at its
    n field, a valleys field whose id count is not n before any id is
    parsed, and a cost row whose entry count is not n and an (n + 1)-th
    cost row before any of their entries is parsed."""
    lines = body_lines(text, "lpgaps-instance")
    n = _int(_field(lines, "n"))
    require_int(n, 2, None, "city count")
    if n > MAX_FILE_CITIES:
        raise ValidationError(
            f"an instance file has at most {MAX_FILE_CITIES} cities, not {n}"
        )
    ids = _field(lines, "valleys").split()
    if len(ids) != n:
        raise ValidationError(f"the valleys field has {len(ids)} ids, not n = {n}")
    valley_of = tuple(_int(t) for t in ids)
    if _field(lines, "costs"):
        raise ValidationError("the costs field takes no value")
    cost_rows: list[tuple[Rational, ...]] = []
    for ln in lines:
        tokens = ln.split()
        if len(tokens) != n:
            raise ValidationError(
                f"cost row {len(cost_rows)} has {len(tokens)} entries, not n = {n}"
            )
        if len(cost_rows) == n:
            raise ValidationError(
                f"an instance of {n} cities has {n} cost rows, not more"
            )
        cost_rows.append(tuple(parse_rational(t) for t in tokens))
    require_common_denominator((c for row in cost_rows for c in row), "costs")
    return TspInstance(n, valley_of, tuple(cost_rows))


def flow_arcs_to_text(arcs: Iterable[tuple[int, int, Rational]]) -> str:
    lines = ["lpgaps-flow 1"]
    for (i, j, w) in arcs:
        lines.append(f"{i} {j} {format_rational(w)}")
    return "\n".join(lines) + "\n"


def _flow_arc(line: str) -> tuple[int, int, Rational]:
    toks = line.split()
    if len(toks) != 3:
        raise ValidationError(f"bad flow arc line: {line!r}")
    return (_int(toks[0]), _int(toks[1]), parse_rational(toks[2]))


def flow_arcs_from_text(text: str) -> Iterator[tuple[int, int, Rational]]:
    """The arc records of a flow file, each parsed from its line only
    when it is drawn; the header is checked at the call.
    check_flow_feasibility checks the records as it draws them
    (flow_from_arcs), so a flow file is read only up to its first
    refused record."""
    return map(_flow_arc, body_lines(text, "lpgaps-flow"))
