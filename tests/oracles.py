"""Independent oracles the tests check the solvers against.

Nothing here touches the simplex, the TSP oracle, or the separation
code: LP optima come from brute-force vertex enumeration over exact
hyperplane intersections, tour optima from direct permutation scans
or a plain-list Held-Karp, minimum subtour cuts from scans over every
city subset (or, where n is too large to scan, a plain Stoer-Wagner
minimum cut), and hull envelopes from piecewise-linear geometry.
Expected values in the test suite are computed by these first and then
asserted against the production path, exactly.

The valley witnesses the tests feed the production path are built here
too: each valley's cut subset, a tour's unit flow, the flow that circles
inside every valley, and a flow's point in the arc LP; a flow is a
tuple of (i, j, weight) arc records.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from lpgaps.errors import ValidationError
from lpgaps.lp import EQUAL, GREATER_EQ, LESS_EQ, LinearProgram
from lpgaps.valleys import arc_list


def _exact(value) -> Fraction:
    """value as a Fraction; an int or a Fraction only, so a float cannot
    turn the oracle's arithmetic inexact."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"the oracle takes exact values, not {value!r}")
    return Fraction(value)


def solve_square(rows, rhs):
    """Exact Gaussian elimination over Fractions, whatever mix of ints
    and Fractions it is given; None when the system is singular."""
    n = len(rhs)
    M = [[_exact(x) for x in (*r, b)] for r, b in zip(rows, rhs)]
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


def assignment_optimum(cost) -> Fraction:
    """Minimum cost of an assignment of n rows to n columns that never
    pairs row i with column i, exact: the Hungarian algorithm (Kuhn
    1955; Munkres 1957) in its shortest augmenting path form, over
    Fractions, with dual potentials u on rows and w on columns. Rows
    and columns count from 1; column 0 stands for the row being added.
    A forbidden cell is never read and stays at no slack (None). cost
    is a square matrix of ints or Fractions, n >= 2."""
    n = len(cost)
    c = [[_exact(x) for x in row] for row in cost]
    u, w = [Fraction(0)] * (n + 1), [Fraction(0)] * (n + 1)
    match = [0] * (n + 1)  # match[j]: the row assigned column j, 0 if none
    for i in range(1, n + 1):
        match[0] = i
        slack = [None] * (n + 1)  # least reduced cost into column j so far
        back = [0] * (n + 1)  # the column whose row reached column j
        done = [False] * (n + 1)
        j0 = 0
        while match[j0]:
            done[j0] = True
            row = match[j0]
            delta, j1 = None, 0
            for j in range(1, n + 1):
                if done[j]:
                    continue
                if j != row:
                    reduced = c[row - 1][j - 1] - u[row] - w[j]
                    if slack[j] is None or reduced < slack[j]:
                        slack[j], back[j] = reduced, j0
                if slack[j] is not None and (delta is None or slack[j] < delta):
                    delta, j1 = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    u[match[j]] += delta
                    w[j] -= delta
                elif slack[j] is not None:
                    slack[j] -= delta
            j0 = j1
        while j0:
            match[j0] = match[back[j0]]
            j0 = back[j0]
    return sum(c[match[j] - 1][j - 1] for j in range(1, n + 1))


def held_karp_cost(cost) -> Fraction:
    """The exact cost of a cheapest tour, by a plain Held-Karp that
    shares nothing with the production oracle: costs scaled to ints by
    the lcm of their denominators, and one plain list per mask of the
    cities 1..n-1 (bit j - 1 for city j), whose entry j - 1 is the
    cheapest path from city 0 through the mask's cities ending at city
    j, or None while no such path is known. Each path is pushed forward
    by one arc to every city outside its mask, masks in increasing
    order, so a mask's entries are final before it is read. cost is a
    square matrix of ints or Fractions, n >= 2; its diagonal is never
    read."""
    n = len(cost)
    c = [[_exact(x) for x in row] for row in cost]
    scale = lcm(*(x.denominator for row in c for x in row))
    w = [[int(x * scale) for x in row] for row in c]
    m = n - 1
    best = [[None] * m for _ in range(1 << m)]
    for j in range(m):
        best[1 << j][j] = w[0][j + 1]
    for mask, ends in enumerate(best):
        outside = [k for k in range(m) if not mask >> k & 1]
        for j, value in enumerate(ends):
            if value is None:
                continue
            arcs = w[j + 1]
            for k in outside:
                nxt = best[mask | 1 << k]
                if nxt[k] is None or value + arcs[k + 1] < nxt[k]:
                    nxt[k] = value + arcs[k + 1]
    total = min(best[-1][j] + w[j + 1][0] for j in range(m))
    return Fraction(total, scale)


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


def min_subtour_cut(n, weights) -> Fraction:
    """Smallest out-flow of a set of 1..n-1 cities under a circulation
    (weights maps (i, j) to flow, and every city's out-flow equals its
    in-flow), by Stoer and Wagner's minimum cut (1997) of the symmetrised
    flow, halved: a circulation's out-flow of S equals its in-flow, so
    the symmetric cut of S is twice its out-flow. Where every city's
    out-flow is 1, a single city's set and its complement give 1, so
    this equals brute_force_min_subtour_cut; exact, in O(n^3) steps.
    Needs n >= 2."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), x in weights.items():
        w[i][j] += x
        w[j][i] += x
    cities = list(range(n))
    best = None
    while len(cities) > 1:
        # one phase: add the city most tightly joined to those added,
        # until one is left; the last one's join to the rest is a cut
        joined = {v: w[cities[0]][v] for v in cities[1:]}
        order = [cities[0]]
        while joined:
            last = max(joined, key=joined.get)
            cut = joined.pop(last)
            order.append(last)
            for v in joined:
                joined[v] += w[last][v]
        if best is None or cut < best:
            best = cut
        # merge the last city into the one added before it
        s, t = order[-2], order[-1]
        for v in range(n):
            w[s][v] += w[t][v]
            w[v][s] = w[s][v]
        w[s][s] = Fraction(0)
        cities.remove(t)
    return best / 2


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
    return tuple(
        (tour[i], tour[(i + 1) % len(tour)], one) for i in range(len(tour))
    )


def arc_index_map(n: int) -> dict[tuple[int, int], int]:
    return {arc: idx for idx, arc in enumerate(arc_list(n))}


def flow_to_point(inst, flow) -> tuple[Fraction, ...]:
    index = arc_index_map(inst.n)
    point = [Fraction(0)] * len(index)
    for (i, j, w) in flow:
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
    return tuple(arcs)


def envelope_relaxed_max(poly, omitted: int, kept):
    """Adversarial optimum over kept facets + box by direct geometry:
    the objective y - slope_j*x restricted to the kept upper envelope is
    concave piecewise linear, so its maximum sits at a facet crossing or
    a box end. None when no kept facet bounds y (unbounded)."""
    if not kept:
        return None
    # facet i of gen_arc's chain, in closed form: y <= (2V - 2i - 1)*x + i*(i + 1)
    V = poly.vertex_count
    x_max = Fraction(V - 1)
    slope_j = Fraction(2 * V - 2 * omitted - 1)
    lines = [(Fraction(2 * V - 2 * i - 1), Fraction(i * (i + 1))) for i in kept]
    xs = {Fraction(0), x_max}
    for (s1, b1), (s2, b2) in combinations(lines, 2):
        if s1 == s2:
            continue
        x = (b2 - b1) / (s1 - s2)
        if 0 <= x <= x_max:
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


def shows_a_gap(row) -> bool:
    """An adversarial gap or a scan row admits a phantom optimum: its
    truncated model is unbounded or beats the true maximum."""
    return not row.bounded or row.gap > 0


def best_vertex_value(poly, objective):
    return max(
        objective[0] * x + objective[1] * y for (x, y) in poly.vertices
    )


def random_bounded_lp(rng):
    """Seeded random program with <= 3 variables, <= 6 rows, and finite
    variable boxes (so vertex enumeration is a complete LP oracle)."""
    from lpgaps.lp import Constraint, LinearProgram

    n = rng.randint(1, 3)
    m = rng.randint(1, 6)

    def coef():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    rows = [
        Constraint(
            [coef() for _ in range(n)],
            rng.choice(["<=", "<=", ">=", ">=", "="]),
            coef(),
        )
        for _ in range(m)
    ]
    return LinearProgram(
        [coef() for _ in range(n)],
        rng.choice(["max", "min"]),
        rows,
        upper_bounds=[Fraction(rng.randint(1, 4)) for _ in range(n)],
    )
