"""Independent oracles the tests check the solvers against.

Nothing here touches the simplex, the TSP oracle, or the separation
code: LP optima come from brute-force vertex enumeration over exact
hyperplane intersections, tour optima from direct permutation scans,
minimum subtour cuts from scans over every city subset, and hull
envelopes from piecewise-linear geometry. Expected values in
the test suite are computed by these first and then asserted against
the production path, exactly.

The valley witnesses the tests feed the production path are built here
too: each valley's cut subset, a tour's unit flow, the flow that circles
inside every valley, and a flow's point in the arc LP.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

from lpgaps.errors import ValidationError
from lpgaps.lp import EQUAL, GREATER_EQ, LESS_EQ, LinearProgram
from lpgaps.valleys import arc_list, flow_from_arcs


def solve_square(rows, rhs):
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(rhs)
    M = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if M[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def point_feasible(lp: LinearProgram, x) -> bool:
    for j in range(lp.num_vars):
        if x[j] < lp.lower_bounds[j]:
            return False
        ub = lp.upper_bounds[j]
        if ub is not None and x[j] > ub:
            return False
    for con in lp.constraints:
        lhs = sum(a * v for a, v in zip(con.coeffs, x))
        if con.relation == LESS_EQ and lhs > con.rhs:
            return False
        if con.relation == GREATER_EQ and lhs < con.rhs:
            return False
        if con.relation == EQUAL and lhs != con.rhs:
            return False
    return True


def vertex_enumeration_optimum(lp: LinearProgram):
    """Best objective value over every basic feasible point (each an
    intersection of num_vars hyperplanes drawn from rows and bounds).
    None when no feasible vertex exists. Sound as a full LP optimum for
    programs whose feasible region is bounded."""
    n = lp.num_vars
    planes = []
    for con in lp.constraints:
        planes.append((list(con.coeffs), con.rhs))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        planes.append((list(unit), lp.lower_bounds[j]))
        if lp.upper_bounds[j] is not None:
            planes.append((list(unit), lp.upper_bounds[j]))
    best = None
    for combo in combinations(range(len(planes)), n):
        x = solve_square(
            [planes[i][0] for i in combo], [planes[i][1] for i in combo]
        )
        if x is None or not point_feasible(lp, x):
            continue
        value = sum(c * v for c, v in zip(lp.objective, x))
        if best is None:
            best = value
        elif lp.sense == "max":
            best = max(best, value)
        else:
            best = min(best, value)
    return best


def brute_force_tour_cost(inst) -> Fraction:
    """Minimum tour cost by scanning every permutation; exact."""
    n = inst.n
    best = None
    for perm in permutations(range(1, n)):
        order = (0,) + perm
        total = sum(
            inst.cost[order[i]][order[(i + 1) % n]] for i in range(n)
        )
        if best is None or total < best:
            best = total
    return best


def subtour_cut_value(weights, subset) -> Fraction:
    """Total weight on arcs leaving subset; weights maps (i, j) to flow."""
    inside = set(subset)
    return sum(
        (w for (i, j), w in weights.items() if i in inside and j not in inside),
        Fraction(0),
    )


def brute_force_min_subtour_cut(n, weights) -> Fraction:
    """Smallest subtour-cut value over every subset of 2..n-1 cities, by
    scanning all of them; exact. Needs n >= 3."""
    return min(
        subtour_cut_value(weights, S)
        for size in range(2, n)
        for S in combinations(range(n), size)
    )


def weak_component(n, weights, city):
    """The cities joined to city by a path of support arcs, in either
    direction, by a breadth-first search; weights maps (i, j) to flow."""
    seen = {city}
    queue = deque([city])
    while queue:
        u = queue.popleft()
        for w in range(n):
            if w not in seen and (weights.get((u, w), 0) != 0
                                  or weights.get((w, u), 0) != 0):
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def is_valid_tour(n: int, tour) -> bool:
    return len(tour) == n and sorted(tour) == list(range(n))


def valley_cut_subsets(inst) -> tuple[tuple[int, ...], ...]:
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


def tour_flow(inst, tour):
    """Unit flow along a tour's arcs."""
    if sorted(tour) != list(range(inst.n)):
        raise ValidationError("tour must visit every city exactly once")
    one = Fraction(1)
    arcs = [
        (tour[i], tour[(i + 1) % len(tour)], one) for i in range(len(tour))
    ]
    return flow_from_arcs(inst, arcs)


def arc_index_map(n: int) -> dict[tuple[int, int], int]:
    return {arc: idx for idx, arc in enumerate(arc_list(n))}


def flow_to_point(inst, flow) -> tuple[Fraction, ...]:
    index = arc_index_map(inst.n)
    point = [Fraction(0)] * len(index)
    for (i, j, w) in flow.arcs:
        point[index[(i, j)]] = w
    return tuple(point)


def valley_internal_cycles_flow(inst):
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


def envelope_relaxed_max(poly, omitted: int, kept):
    """Adversarial optimum over kept facets + box by direct geometry:
    the objective y - slope_j*x restricted to the kept upper envelope is
    concave piecewise linear, so its maximum sits at a facet crossing or
    a box end. None when no kept facet bounds y (unbounded)."""
    if not kept:
        return None
    slope_j = poly.facets[omitted].slope
    lines = [(poly.facets[i].slope, poly.facets[i].intercept) for i in kept]
    xs = {Fraction(0), poly.x_max}
    for (s1, b1), (s2, b2) in combinations(lines, 2):
        if s1 == s2:
            continue
        x = (b2 - b1) / (s1 - s2)
        if 0 <= x <= poly.x_max:
            xs.add(x)
    best = None
    for x in xs:
        y = min(s * x + b for s, b in lines)
        if y < 0:
            y = Fraction(0)  # y >= 0 box side
        value = y - slope_j * x
        if best is None or value > best:
            best = value
    return best


def best_vertex_value(poly, objective):
    return max(
        objective[0] * x + objective[1] * y for (x, y) in poly.vertices
    )


def random_bounded_lp(rng):
    """Seeded random program with <= 3 variables, <= 6 rows, and finite
    variable boxes (so vertex enumeration is a complete LP oracle)."""
    from lpgaps.lp import linear_program

    n = rng.randint(1, 3)
    m = rng.randint(1, 6)

    def coef():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rows = [
        (
            [coef() for _ in range(n)],
            rng.choice(["<=", "<=", ">=", ">=", "="]),
            coef(),
        )
        for _ in range(m)
    ]
    return linear_program(
        [coef() for _ in range(n)],
        rng.choice(["max", "min"]),
        rows,
        upper_bounds=[Fraction(rng.randint(1, 4)) for _ in range(n)],
    )
