import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from lpgaps import valleys
from lpgaps.errors import ValidationError
from lpgaps.ilp import tsp_oracle
from lpgaps.lp import EQUAL, GREATER_EQ, Constraint, SolveStatus, _Tableau, solve_lp
from lpgaps.valleys import (
    MAX_CITIES,
    InstanceInfo,
    TspInstance,
    arc_list,
    check_flow_feasibility,
    cutting_plane_loop,
    degree_lp,
    flow_arcs_from_text,
    flow_arcs_to_text,
    flow_from_arcs,
    gen_valley_instance,
    instance_from_cost_matrix,
    instance_from_text,
    instance_to_text,
    relaxation_with_cuts,
    separate_subtour,
    solve_relaxation,
    subtour_cut,
    three_circulation_flow,
)

from oracles import (
    assignment_optimum,
    brute_force_min_subtour_cut,
    flow_to_point,
    min_subtour_cut,
    point_feasible,
    subtour_cut_value,
    tour_flow,
    valley_cut_subsets,
    valley_internal_cycles_flow,
    weak_component,
)


def test_generated_instance_arc_costs():
    inst = gen_valley_instance(4, 2)
    assert inst.n == 8
    arcs = arc_list(8)
    intra = [a for a in arcs if inst.valley_of[a[0]] == inst.valley_of[a[1]]]
    inter = [a for a in arcs if inst.valley_of[a[0]] != inst.valley_of[a[1]]]
    assert len(intra) == 8 and len(inter) == 48
    assert all(inst.cost[i][j] == 0 for i, j in intra)
    assert all(inst.cost[i][j] == 1 for i, j in inter)


def test_degenerate_valleys_give_complete_digraph():
    inst = gen_valley_instance(10, 1)
    assert inst.n == 10
    assert all(
        inst.cost[i][j] == 1 for i in range(10) for j in range(10) if i != j
    )


def test_generation_validation():
    with pytest.raises(ValidationError):
        gen_valley_instance(1, 2)
    with pytest.raises(ValidationError):
        gen_valley_instance(4, 0)
    with pytest.raises(ValidationError):
        gen_valley_instance(4, 2, intra_cost=1, crossing_cost=1)
    with pytest.raises(ValidationError):
        gen_valley_instance(4, 2, intra_cost=-1, crossing_cost=1)


def test_instances_check_themselves_when_made():
    # dataclasses.replace builds through the same constructor
    inst = gen_valley_instance(2, 2)
    with pytest.raises(ValidationError, match="dimensions are inconsistent"):
        replace(inst, n=3)
    with pytest.raises(ValidationError, match="none missing"):
        replace(inst, valley_of=(0, 0, 2, 2))
    with pytest.raises(ValidationError, match="city count must be at least 2, not 1"):
        instance_from_cost_matrix([[0]])
    with pytest.raises(ValidationError, match="dimensions are inconsistent"):
        instance_from_cost_matrix([[0, 1], [1]])


def test_instances_refuse_params_that_describe_another_instance():
    unit = ((0, 1), (1, 0))
    with pytest.raises(ValidationError, match="disagrees with 2 cities in 2 valleys"):
        TspInstance(2, (0, 1), unit, InstanceInfo(7, 5, 3, 0, 1))
    for params in (
        InstanceInfo(2, 1, 2),  # two valleys, not one
        InstanceInfo(2, 2, 2),  # 2 x 2 is not 2 cities
        InstanceInfo(3),
    ):
        with pytest.raises(ValidationError, match="disagrees"):
            TspInstance(2, (0, 1), unit, params)
    # what generation records, and a city count alone, describe it
    for params in (InstanceInfo(2, 2, 1, 0, 1), InstanceInfo(2)):
        assert TspInstance(2, (0, 1), unit, params).info == params
    inst = gen_valley_instance(3, 2)
    with pytest.raises(ValidationError, match="disagrees"):
        replace(inst, valley_of=(0, 0, 0, 1, 1, 1))


def test_float_costs_are_refused_where_made():
    # they used to reach tsp_oracle and fail there with AttributeError
    inst = gen_valley_instance(2, 2)
    floats = tuple(tuple(float(c) for c in row) for row in inst.cost)
    with pytest.raises(ValidationError, match="costs must be exact rationals"):
        replace(inst, cost=floats)
    # the builder takes costs as given, so the check sees the float
    with pytest.raises(ValidationError, match="costs must be exact rationals"):
        instance_from_cost_matrix([[0, 0.5], [0.5, 0]])
    assert instance_from_cost_matrix([[0, 2], [1, 0]]).cost == ((0, 2), (1, 0))


def test_float_valley_costs_are_refused():
    # a valley instance records its costs as p/q in every report, so 0.1
    # used to be recorded as 3602879701896397/36028797018963968
    with pytest.raises(ValidationError, match="valley costs must be exact"):
        gen_valley_instance(3, 2, 0.1, 1)


def test_rejects_instances_above_the_city_cap():
    assert gen_valley_instance(MAX_CITIES // 2, 2).n == MAX_CITIES
    for valleys, cities in [(MAX_CITIES + 1, 1), (MAX_CITIES // 2 + 1, 2)]:
        with pytest.raises(ValidationError, match=f"at most {MAX_CITIES}"):
            gen_valley_instance(valleys, cities)


def test_degree_lp_shape():
    inst = gen_valley_instance(4, 2)
    lp = degree_lp(inst)
    assert lp.num_vars == 8 * 7
    assert len(lp.constraints) == 16
    assert all(c.relation == "=" for c in lp.constraints)
    assert lp.upper_bounds == (1,) * lp.num_vars


def dense_degree_rows(n):
    """The degree rows as degree_lp once built them on every call:
    out-degrees of cities 0..n-1, then in-degrees, each = 1."""
    arcs = arc_list(n)
    return [
        Constraint([int(end == city) for end in ends], EQUAL, 1)
        for ends in ([i for i, _ in arcs], [j for _, j in arcs])
        for city in range(n)
    ]


def test_degree_rows_are_built_once_per_city_count_and_never_change():
    # two instances of one city count share one tuple of rows, equal to
    # a fresh dense build row by row, and solving from it changes none
    first = gen_valley_instance(4, 2)
    second = gen_valley_instance(2, 4, Fraction(1, 7), Fraction(5, 3))
    rows = degree_lp(first).constraints
    assert degree_lp(second).constraints is rows
    assert list(rows) == dense_degree_rows(8)
    for inst in (first, second):
        solve_relaxation(inst, degree_lp(inst))
        solve_lp(degree_lp(inst))
        cutting_plane_loop(inst)
    assert degree_lp(first).constraints is rows
    assert list(rows) == dense_degree_rows(8)
    assert list(degree_lp(gen_valley_instance(3, 2)).constraints) == dense_degree_rows(6)


def test_degree_lp_value_with_free_valley_circulation():
    inst = gen_valley_instance(10, 2)
    out = solve_lp(degree_lp(inst))
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == 0
    # exhibit the internal-cycles point: feasible and matching the
    # solver's optimum, hence itself optimal
    witness = valley_internal_cycles_flow(inst)
    assert point_feasible(degree_lp(inst), flow_to_point(inst, witness))
    assert check_flow_feasibility(inst, witness).total_cost == out.value


def test_degree_lp_value_when_every_arc_costs_one():
    out = solve_lp(degree_lp(gen_valley_instance(10, 1)))
    assert out.value == 10


def seeded_cost_matrix(rng, n):
    """An n-city matrix of positive rationals with a zero diagonal."""
    return [
        [0 if i == j else Fraction(rng.randint(1, 30), rng.randint(1, 6))
         for j in range(n)]
        for i in range(n)
    ]


def test_assignment_oracle_matches_a_scan_of_every_derangement():
    rng = random.Random(2024)
    for n in range(2, 7):
        for _ in range(5):
            cost = seeded_cost_matrix(rng, n)
            best = min(
                sum(cost[i][p[i]] for i in range(n))
                for p in permutations(range(n))
                if all(p[i] != i for i in range(n))
            )
            assert assignment_optimum(cost) == best


@pytest.mark.parametrize("n", [8, 20, 40])
def test_degree_lp_value_is_the_assignment_optimum(n):
    # the degree LP is an assignment problem with the diagonal forbidden,
    # so its optimum is integral; vertex enumeration cannot reach these
    # sizes, and one case per size keeps the slow 40-city cold solve single
    cost = seeded_cost_matrix(random.Random(n), n)
    out = solve_lp(degree_lp(instance_from_cost_matrix(cost)))
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == assignment_optimum(cost)


def test_relaxation_rows_are_ints():
    # 0/1 entries enter the tableau as they are, never as Fractions
    inst = gen_valley_instance(3, 2)
    lp = relaxation_with_cuts(inst, [(0, 1)])
    entries = [e for con in lp.constraints for e in (*con.coeffs, con.rhs)]
    assert {type(e) for e in (*entries, *lp.upper_bounds)} == {int}


def test_no_cut_subset_gives_the_degree_lp():
    inst = gen_valley_instance(3, 2)
    assert relaxation_with_cuts(inst, ()) == degree_lp(inst)


def test_subtour_cut_construction():
    inst = gen_valley_instance(4, 2)
    cut = subtour_cut(inst, (0, 1))  # valley 0
    assert cut.relation == GREATER_EQ
    assert cut.rhs == 1
    hot = [arc for arc, c in zip(arc_list(8), cut.coeffs) if c == 1]
    assert len(hot) == 12
    assert all(i in (0, 1) and j not in (0, 1) for i, j in hot)
    assert sum(1 for c in cut.coeffs if c != 0) == 12


def test_subtour_cut_validation():
    inst = gen_valley_instance(4, 2)
    for bad in [(0,), tuple(range(8)), (0, 99)]:
        with pytest.raises(ValidationError):
            subtour_cut(inst, bad)


def test_a_city_named_twice_in_a_subset_is_refused():
    # (0, 0, 1) was read as the cut of {0, 1}, by each of the three
    # functions that take cut subsets
    inst = gen_valley_instance(3, 2)
    flow = valley_internal_cycles_flow(inst)
    takers = [
        lambda S: subtour_cut(inst, S),
        lambda S: relaxation_with_cuts(inst, [S]),
        lambda S: check_flow_feasibility(inst, flow, [S]),
    ]
    for take in takers:
        with pytest.raises(ValidationError, match="names a city more than once"):
            take((1, 0, 1))
    # a subset in any order is still the sorted one
    report = check_flow_feasibility(inst, flow, [(1, 0)])
    assert report.cut_evaluations[0].subset == (0, 1)


def test_a_cut_subset_named_twice_is_refused():
    # the second would repeat the first one's row: both orders name {0, 1}
    inst = gen_valley_instance(3, 2)
    with pytest.raises(ValidationError, match=r"cut subset \[0, 1\] is named more"):
        relaxation_with_cuts(inst, [(0, 1), (1, 0)])
    # of several repeated sets, the error names the one that appears
    # first, not the one whose repeat comes first
    for subsets, named in [
        ([(2, 3), (1, 0), (3, 2), (0, 1)], "[2, 3]"),
        ([(0, 1), (2, 3), (3, 2), (1, 0)], "[0, 1]"),
    ]:
        with pytest.raises(ValidationError) as info:
            relaxation_with_cuts(inst, subsets)
        assert str(info.value) == f"cut subset {named} is named more than once"


def test_two_protected_valleys_force_two_crossings():
    inst = gen_valley_instance(10, 2)
    subsets = valley_cut_subsets(inst)[:2]
    out = solve_lp(relaxation_with_cuts(inst, subsets))
    assert out.value == 2


def test_all_valley_cuts_reach_integer_optimum():
    inst = gen_valley_instance(4, 2)
    out = solve_lp(relaxation_with_cuts(inst, valley_cut_subsets(inst)))
    assert out.value == tsp_oracle(inst) == 4


def test_separation_finds_disconnected_valley():
    inst = gen_valley_instance(4, 2)
    point = flow_to_point(inst, valley_internal_cycles_flow(inst))
    # every valley is a component of the support, city 0's first
    assert separate_subtour(inst, point) == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_separation_refuses_a_point_of_the_wrong_length():
    inst = gen_valley_instance(4, 2)
    point = flow_to_point(inst, valley_internal_cycles_flow(inst))
    with pytest.raises(ValidationError, match="point length does not match"):
        separate_subtour(inst, point[:-1])


def test_separation_accepts_tours():
    inst = gen_valley_instance(4, 2)
    # valley-major numbering: 0..n-1 makes k crossings, an optimal tour
    point = flow_to_point(inst, tour_flow(inst, tuple(range(inst.n))))
    assert separate_subtour(inst, point) == ()


def test_separation_accepts_two_half_weight_tours():
    inst = gen_valley_instance(4, 2)
    t1 = tuple(range(8))
    t2 = (0, 2, 4, 6, 1, 3, 5, 7)
    half = Fraction(1, 2)
    combined: dict[tuple[int, int], Fraction] = {}
    for tour in (t1, t2):
        for i in range(8):
            arc = (tour[i], tour[(i + 1) % 8])
            combined[arc] = combined.get(arc, Fraction(0)) + half
    point = flow_to_point(
        inst, flow_from_arcs(inst, [(i, j, w) for (i, j), w in combined.items()])
    )
    assert separate_subtour(inst, point) == ()


def test_separation_soundness_on_random_tour_mixtures():
    rng = random.Random(2024)
    inst = gen_valley_instance(3, 2)
    n = inst.n
    for _ in range(40):
        tours = []
        for _ in range(3):
            rest = list(range(1, n))
            rng.shuffle(rest)
            tours.append((0,) + tuple(rest))
        weights = [Fraction(1, 3)] * 3
        combined: dict[tuple[int, int], Fraction] = {}
        for tour, w in zip(tours, weights):
            for i in range(n):
                arc = (tour[i], tour[(i + 1) % n])
                combined[arc] = combined.get(arc, Fraction(0)) + w
        point = flow_to_point(
            inst,
            flow_from_arcs(inst, [(i, j, w) for (i, j), w in combined.items()]),
        )
        # re-evaluate each returned cut independently
        for subset in separate_subtour(inst, point):
            inside = set(subset)
            value = sum(
                w for (i, j), w in combined.items() if i in inside and j not in inside
            )
            assert value < 1
            assert 2 <= len(subset) <= n - 1


def _random_derangement(rng, n):
    while True:
        sigma = list(range(n))
        rng.shuffle(sigma)
        if all(sigma[i] != i for i in range(n)):
            return sigma


@pytest.mark.parametrize("n", range(3, 9))
def test_separation_matches_brute_force_min_cut(n):
    """On convex mixes of derangements (cycle covers, so degree-feasible
    points with and without subtours), separation answers () exactly
    when every cut holds and otherwise returns minimum-value cuts: every
    component of a disconnected support, or one cut of a connected one."""
    rng = random.Random(1000 + n)
    inst = instance_from_cost_matrix([[0] * n for _ in range(n)])
    for _ in range(60):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        weights: dict[tuple[int, int], Fraction] = {}
        for part in parts:
            sigma = _random_derangement(rng, n)
            for i in range(n):
                arc = (i, sigma[i])
                weights[arc] = weights.get(arc, Fraction(0)) + Fraction(
                    part, sum(parts)
                )
        point = [weights.get(arc, Fraction(0)) for arc in arc_list(n)]
        best = brute_force_min_subtour_cut(n, weights)
        cuts = separate_subtour(inst, point)
        if best >= 1:
            assert cuts == ()
        else:
            assert cuts
            for subset in cuts:
                assert 2 <= len(subset) <= n - 1
                assert list(subset) == sorted(set(subset))
                assert subtour_cut_value(weights, subset) == best
        # a disconnected support is cut at every component, city 0's
        # first; a connected one at a single cut
        component = weak_component(n, weights, 0)
        if len(component) < n:
            assert cuts[0] == component
            assert cuts == tuple(weak_component(n, weights, S[0]) for S in cuts)
            assert sorted(c for S in cuts for c in S) == list(range(n))
            assert [S[0] for S in cuts] == sorted(S[0] for S in cuts)
        else:
            assert len(cuts) <= 1


@pytest.mark.parametrize("n", range(9, 21))
def test_separation_returns_every_component_past_the_brute_force_scan(n):
    """On convex mixes of cycle covers that each derange two to four
    fixed blocks of cities, the support has a component per block or
    more; separation returns exactly its weak components, listed by
    least city."""
    rng = random.Random(2000 + n)
    inst = instance_from_cost_matrix([[0] * n for _ in range(n)])
    for _ in range(20):
        sizes = [2] * rng.randint(2, 4)
        for _ in range(n - sum(sizes)):
            sizes[rng.randrange(len(sizes))] += 1
        cities = list(range(n))
        rng.shuffle(cities)
        blocks = []
        for size in sizes:
            blocks.append(cities[:size])
            cities = cities[size:]
        parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        weights: dict[tuple[int, int], Fraction] = {}
        for part in parts:
            for block in blocks:
                sigma = _random_derangement(rng, len(block))
                for t, city in enumerate(block):
                    arc = (city, block[sigma[t]])
                    weights[arc] = weights.get(arc, Fraction(0)) + Fraction(
                        part, sum(parts)
                    )
        point = [weights.get(arc, Fraction(0)) for arc in arc_list(n)]
        components = sorted({weak_component(n, weights, c) for c in range(n)})
        assert len(components) >= len(blocks)
        assert separate_subtour(inst, point) == tuple(components)


def _reversed_double_cycle_point():
    """Degree-feasible with negative entries: weight 2 on the cycle
    0 -> 1 -> 2 -> 0 and -1 on each reverse arc."""
    forward = {(0, 1), (1, 2), (2, 0)}
    return [Fraction(2) if arc in forward else Fraction(-1) for arc in arc_list(3)]


@pytest.mark.parametrize(
    "inst, point",
    [
        (gen_valley_instance(3, 2), [Fraction(0)] * len(arc_list(6))),
        (gen_valley_instance(3, 1), [0.5] * 6),
        (gen_valley_instance(3, 1), _reversed_double_cycle_point()),
    ],
    ids=["zero", "float", "negative"],
)
def test_separation_rejects_degree_infeasible_points(inst, point):
    with pytest.raises(ValidationError):
        separate_subtour(inst, point)


def test_cutting_plane_closes_small_instance():
    inst = gen_valley_instance(4, 2)
    trace = cutting_plane_loop(inst, max_rounds=50)
    assert trace.complete
    assert trace.final_value == tsp_oracle(inst) == 4
    values = [r.lp_value for r in trace.rounds]
    assert values == sorted(values)
    counts = [r.constraint_count for r in trace.rounds]
    assert counts[0] == 16
    assert all(b == a + 1 for a, b in zip(counts, counts[1:]))
    assert trace.rounds[-1].cut_added is None


def test_cutting_plane_trivial_instance_stops_immediately():
    inst = instance_from_cost_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    trace = cutting_plane_loop(inst)
    assert trace.complete
    assert len(trace.rounds) == 1
    assert trace.final_value == 3


def test_cutting_plane_six_valleys():
    inst = gen_valley_instance(6, 2)
    trace = cutting_plane_loop(inst, max_rounds=80)
    assert trace.complete
    assert trace.final_value == 6  # oracle budget covers n=12 via held-karp
    assert tsp_oracle(inst) == 6


# the cost pairs the cutting-plane benchmark draws from
INTRA_COSTS = (Fraction(0), Fraction(1, 7), Fraction(1, 3))
CROSSING_COSTS = (Fraction(1), Fraction(5, 3), Fraction(2))


def record_separations(monkeypatch):
    """Patch the loop's separation; the returned list gets each point
    it separates."""
    points = []

    def recording_separate(inst, point):
        points.append(point)
        return separate_subtour(inst, point)

    monkeypatch.setattr(valleys, "separate_subtour", recording_separate)
    return points


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (5, 2)])
@pytest.mark.parametrize("intra", INTRA_COSTS)
@pytest.mark.parametrize("crossing", CROSSING_COSTS)
def test_cut_loop_invariants(monkeypatch, shape, intra, crossing):
    # every round's point, recorded from the loop's solves, and every
    # separation the loop runs
    seen = []

    def recording_solve(*args, **kwargs):
        outcome = solve_lp(*args, **kwargs)
        seen.append(outcome.point)
        return outcome

    monkeypatch.setattr(valleys, "solve_lp", recording_solve)
    separations = record_separations(monkeypatch)
    inst = gen_valley_instance(*shape, intra, crossing)
    trace = cutting_plane_loop(inst)
    arcs = arc_list(inst.n)
    assert trace.complete and trace.final_integral
    values = [r.lp_value for r in trace.rounds]
    assert values == sorted(values)
    assert len(seen) == len(trace.rounds) == len(trace.cuts) + 1
    # the pool spares a separation on some rounds, never adds one
    assert 1 <= len(separations) <= len(trace.rounds)
    assert len(set(trace.cuts)) == len(trace.cuts)
    for k, (point, cut) in enumerate(zip(seen, trace.cuts)):
        # each round's point is feasible for the cuts before it and
        # violates the cut it adds
        assert point_feasible(relaxation_with_cuts(inst, trace.cuts[:k]), point)
        assert subtour_cut_value(dict(zip(arcs, point)), cut) < 1
    assert seen[-1] == trace.final_point
    assert point_feasible(relaxation_with_cuts(inst, trace.cuts), trace.final_point)
    assert brute_force_min_subtour_cut(
        inst.n, dict(zip(arcs, trace.final_point))
    ) >= 1
    assert trace.final_value == values[-1] == tsp_oracle(inst)


# one SHA-256 over the repr of every cut loop on a valley shape with
# k >= 2, c >= 1 and k * c <= 20, under each benchmark cost pair: it
# pins every round value, cut, row count and final point of 138 loops,
# so a change to how a relaxation is built or solved that moves the
# optimal vertex of any round shows here
SHORT_LOOPS_SHA256 = "ee5ba4922b94f88ab85577821a0d64d5e1c5ec8e31999311fd41bd87d3e73997"


def test_every_short_cut_loop_keeps_its_trace():
    digest = hashlib.sha256()
    loops = 0
    for intra, crossing in zip(INTRA_COSTS, CROSSING_COSTS):
        for k in range(2, 21):
            for c in range(1, 20 // k + 1):
                inst = gen_valley_instance(k, c, intra, crossing)
                digest.update(repr(cutting_plane_loop(inst)).encode())
                loops += 1
    assert loops == 138
    assert digest.hexdigest() == SHORT_LOOPS_SHA256


def test_cutting_plane_twenty_valleys_completes_within_the_default_rounds(monkeypatch):
    # one separation of a disconnected support yields every component's
    # cut, and later rounds add them from the pool without separating
    # again; cutting city 0's component alone took 208 rounds on it
    separations = record_separations(monkeypatch)
    inst = gen_valley_instance(20, 2)
    trace = cutting_plane_loop(inst)  # the default round budget
    assert trace.complete and trace.final_value == 20
    assert len(separations) < len(trace.rounds)
    weights = dict(zip(arc_list(inst.n), trace.final_point))
    assert min_subtour_cut(inst.n, weights) >= 1


# a random metric instance, arc costs drawn from {1, 2, 3, 5, 8, 13} and
# closed under shortest paths, on which the loop ends on a fractional
# vertex of the subtour LP
FRACTIONAL_END_COSTS = [
    [0, 1, 3, 2, 1, 2],
    [2, 0, 5, 1, 2, 1],
    [3, 3, 0, 2, 4, 4],
    [1, 2, 4, 0, 2, 2],
    [4, 3, 7, 3, 0, 4],
    [1, 2, 4, 2, 1, 0],
]


def test_cutting_plane_ends_on_a_fractional_point():
    # the warm loop reaches the tour optimum on a fractional vertex of
    # the subtour LP: no subtour cut separates it, so the loop is done
    inst = instance_from_cost_matrix(FRACTIONAL_END_COSTS)
    trace = cutting_plane_loop(inst)
    assert trace.complete and len(trace.rounds) == 3
    assert trace.final_value == 12 == tsp_oracle(inst)
    assert not trace.final_integral
    assert {x.denominator for x in trace.final_point} == {1, 2}
    weights = dict(zip(arc_list(inst.n), trace.final_point))
    assert brute_force_min_subtour_cut(inst.n, weights) >= 1


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 10), st.data())
def test_property_min_subtour_cut_matches_the_subset_scan(n, data):
    # a point of the degree LP: a mix of up to four cycle covers, each
    # the cities in a drawn order cut into cycles of 2 or more, with
    # positive weights summing to 1
    weights = {}
    parts = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    for part in parts:
        order = data.draw(st.permutations(range(n)))
        cycles = [[order[0], order[1]]]
        for k, city in enumerate(order[2:], start=2):
            if len(cycles[-1]) >= 2 and n - k >= 2 and data.draw(st.booleans()):
                cycles.append([city])
            else:
                cycles[-1].append(city)
        for cycle in cycles:
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                weights[i, j] = weights.get((i, j), 0) + Fraction(part, sum(parts))
    assert min_subtour_cut(n, weights) == brute_force_min_subtour_cut(n, weights)


def test_cutting_plane_five_four_city_valleys_stays_within_its_pivots(monkeypatch):
    # round 1 starts at a cycle cover and each cut is re-optimised by the
    # dual simplex from the last optimal basis: 62 basis changes in 11
    # rounds (138 in 26 when each separation gave city 0's component
    # alone), where a primal feasibility search from the last basis took
    # 1,466 in 60, and one that pivoted on after every row held, 5,085
    changes = 0
    replace_basis = _Tableau._replace

    def counting_replace(self, *args):
        nonlocal changes
        changes += 1
        return replace_basis(self, *args)

    monkeypatch.setattr(_Tableau, "_replace", counting_replace)
    trace = cutting_plane_loop(gen_valley_instance(5, 4), 80)
    assert trace.complete and trace.final_value == 5
    assert changes <= 300, changes


def test_cutting_plane_budget_marks_incomplete():
    trace = cutting_plane_loop(gen_valley_instance(4, 2), max_rounds=2)
    assert not trace.complete
    assert len(trace.rounds) == 2
    assert trace.rounds[-1].cut_added is not None


def test_cutting_plane_validation():
    with pytest.raises(ValidationError):
        cutting_plane_loop(gen_valley_instance(4, 2), max_rounds=0)


@pytest.mark.parametrize("crossing", [Fraction(1), Fraction(5, 2)])
def test_generated_instance_optimum_is_valley_count_times_crossing(crossing):
    # free intra travel: the optimum pays exactly one pass per valley
    for k in range(2, 11):
        inst = gen_valley_instance(k, 1, crossing_cost=crossing)
        assert tsp_oracle(inst) == k * crossing
    for k in (2, 4, 6):
        inst = gen_valley_instance(k, 2, crossing_cost=crossing)
        assert tsp_oracle(inst) == k * crossing


def test_relaxation_ordering_under_random_cuts():
    rng = random.Random(505)
    inst = gen_valley_instance(3, 2)
    n = inst.n
    oracle_cost = tsp_oracle(inst)
    base = solve_lp(degree_lp(inst)).value
    for _ in range(10):
        size = rng.randint(2, n - 1)
        subsets = [tuple(sorted(rng.sample(range(n), size)))]
        if rng.random() < 0.5:
            subsets.append(tuple(sorted(rng.sample(range(n), 2))))
        cut_value = solve_lp(relaxation_with_cuts(inst, subsets)).value
        assert base <= cut_value <= oracle_cost


def test_check_flow_internal_cycles():
    inst = gen_valley_instance(10, 2)
    flow = valley_internal_cycles_flow(inst)
    report = check_flow_feasibility(inst, flow, valley_cut_subsets(inst))
    assert report.degree_ok
    assert report.total_cost == 0
    assert len(report.violated_cuts) == 10
    assert all(e.value == 0 for e in report.cut_evaluations)


def test_check_flow_optimal_tour():
    inst = gen_valley_instance(10, 2)
    flow = tour_flow(inst, tuple(range(inst.n)))
    report = check_flow_feasibility(inst, flow, valley_cut_subsets(inst))
    assert report.degree_ok
    assert report.total_cost == 10
    assert not report.violated_cuts


def test_check_flow_reports_degree_violation():
    inst = gen_valley_instance(4, 2)
    flow = flow_from_arcs(inst, [(0, 1, 1), (0, 2, 1)])
    report = check_flow_feasibility(inst, flow)
    assert not report.degree_ok
    city0 = [im for im in report.imbalances if im.city == 0]
    assert city0 and city0[0].out_weight == 2


def test_flow_validation():
    inst = gen_valley_instance(4, 2)
    with pytest.raises(ValidationError):
        flow_from_arcs(inst, [(0, 0, 1)])
    with pytest.raises(ValidationError):
        flow_from_arcs(inst, [(0, 9, 1)])
    with pytest.raises(ValidationError):
        flow_from_arcs(inst, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        flow_from_arcs(inst, [(0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 2))])
    with pytest.raises(ValidationError):
        tour_flow(inst, (0, 1, 2))


def test_flow_float_weight_is_refused():
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(ValidationError, match="exact rationals"):
        flow_from_arcs(gen_valley_instance(3, 1), [(0, 1, 0.1)])


@pytest.mark.parametrize("arcs, message", [
    ([(0, 1, 0.5), (1, 0, 0.5)], "exact rationals"),
    ([(0, 9, 1)], "city indices"),
    ([(0, 1, 1), (0, 1, 1)], "duplicate arc"),
    ([(0, 1, Fraction(-1, 2))], "outside"),
])
def test_check_flow_refuses_every_record_flow_from_arcs_refuses(arcs, message):
    # unchecked, the float pair summed to a float cost of 0.0 and city 9
    # raised IndexError
    with pytest.raises(ValidationError, match=message):
        check_flow_feasibility(gen_valley_instance(2, 2), arcs)


def test_three_circulation_witness_structure():
    inst = gen_valley_instance(10, 2)
    flow = three_circulation_flow(inst)
    report = check_flow_feasibility(inst, flow, valley_cut_subsets(inst))
    assert report.degree_ok
    assert report.crossing_cost == 9
    assert report.total_cost == 9
    skipped = {e.subset: e.value for e in report.cut_evaluations[:3]}
    assert all(v == Fraction(2, 3) for v in skipped.values())
    assert all(e.value == 1 for e in report.cut_evaluations[3:])
    assert report.violated_cuts == tuple(
        inst.valley_cities(v) for v in range(3)
    )


def unit_cost_instance(valley_of):
    n = len(valley_of)
    cost = tuple(tuple(Fraction(int(i != j)) for j in range(n)) for i in range(n))
    return TspInstance(n, valley_of, cost)


def test_three_circulation_needs_room():
    with pytest.raises(ValidationError, match="needs 4\\+ valleys"):
        three_circulation_flow(gen_valley_instance(3, 2))
    # valley 1 has one city: covers 0 and 2 walk through it, cover 1
    # would circle it
    one_city = unit_cost_instance((0, 0, 1, 2, 2, 3, 3))
    for inst in (gen_valley_instance(10, 1), one_city):
        with pytest.raises(ValidationError, match="needs 2\\+ cities per valley"):
            three_circulation_flow(inst)


def test_three_circulation_walks_one_city_valleys_past_the_third():
    inst = unit_cost_instance((0, 0, 1, 1, 2, 2, 3))
    flow = three_circulation_flow(inst)
    report = check_flow_feasibility(inst, flow, [])
    assert report.degree_ok
    assert dict(((i, j), w) for i, j, w in flow)[(5, 6)] == Fraction(2, 3)


def test_an_instance_records_its_report_description():
    inst = gen_valley_instance(3, 2, Fraction(1, 7), Fraction(5, 3))
    assert inst.info == InstanceInfo(6, 3, 2, Fraction(1, 7), Fraction(5, 3))
    # an instance that was not generated knows only its city count
    assert instance_from_cost_matrix([[0, 1], [1, 0]]).info == InstanceInfo(2)
    assert instance_from_text(instance_to_text(inst)).info == InstanceInfo(6)


def test_instance_text_round_trip():
    inst = gen_valley_instance(4, 2, Fraction(1, 3), Fraction(7, 2))
    text = instance_to_text(inst)
    back = instance_from_text(text)
    assert back.n == inst.n
    assert back.valley_of == inst.valley_of
    assert back.cost == inst.cost


def test_instance_text_errors():
    with pytest.raises(ValidationError):
        instance_from_text("bogus")
    with pytest.raises(ValidationError):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 0 0\ncosts\n0 1\n")
    with pytest.raises(ValidationError, match="not an integer: 'two'"):
        instance_from_text("lpgaps-instance 1\nn two\nvalleys 0 1\ncosts\n0 1\n1 0\n")
    with pytest.raises(ValidationError, match="not an integer: 'x'"):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 0 x\ncosts\n0 1\n1 0\n")
    with pytest.raises(ValidationError, match="city count must be at least 2, not 0"):
        instance_from_text("lpgaps-instance 1\nn 0\nvalleys\ncosts\n")
    with pytest.raises(ValidationError, match="city count must be at least 2, not 1"):
        instance_from_text("lpgaps-instance 1\nn 1\nvalleys 0\ncosts\n0\n")
    body = "valleys 0 1\ncosts\n0 1\n1 0\n"
    with pytest.raises(ValidationError, match="must be 'lpgaps-instance 1', not"):
        instance_from_text("lpgaps-instance 7\nn 2\n" + body)
    with pytest.raises(ValidationError, match="missing lpgaps-instance header"):
        instance_from_text("lpgaps-instance-extra\nn 2\n" + body)
    # the fields come in the order instance_to_text writes them, so a
    # repeated, unknown, missing or misplaced field is refused where
    # another was expected
    with pytest.raises(ValidationError, match="expected the valleys field, not 'n'"):
        instance_from_text("lpgaps-instance 1\nn 5\nn 2\n" + body)
    with pytest.raises(ValidationError, match="expected the costs field, not 'valleys'"):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 1 0\n" + body)
    with pytest.raises(ValidationError, match="expected the costs field, not 'cost'"):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 0 1\ncost\n0 1\n1 0\n")
    with pytest.raises(ValidationError, match="expected the valleys field, not 'costs'"):
        instance_from_text("lpgaps-instance 1\nn 2\ncosts\n0 1\n1 0\n")
    with pytest.raises(ValidationError, match="expected the n field, not 'valleys'"):
        instance_from_text("lpgaps-instance 1\nvalleys 0 1\nn 2\ncosts\n0 1\n1 0\n")
    with pytest.raises(ValidationError, match="expected the costs field, not the end"):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 0 1\n")
    # every line after the costs field is a cost row, a second costs
    # line too, and the field itself takes no value
    with pytest.raises(ValidationError, match="cost row 2 has 1 entries, not n = 2"):
        instance_from_text("lpgaps-instance 1\nn 2\n" + body + "costs\n")
    with pytest.raises(ValidationError, match="the costs field takes no value"):
        instance_from_text("lpgaps-instance 1\nn 2\nvalleys 0 1\ncosts 1 2\n0 1\n1 0\n")


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_instance_file_city_count_is_checked_at_its_field(n):
    # the valleys field that follows has two ids, which the old check
    # named instead: "the valleys field has 2 ids, not n = -3"
    text = f"lpgaps-instance 1\nn {n}\nvalleys 0 1\ncosts\n0 1\n1 0\n"
    with pytest.raises(ValidationError, match=f"city count must be at least 2, not {n}"):
        instance_from_text(text)


def test_flow_text_round_trip():
    inst = gen_valley_instance(4, 2)
    flow = valley_internal_cycles_flow(inst)
    arcs = flow_arcs_from_text(flow_arcs_to_text(flow))
    assert flow_from_arcs(inst, arcs) == flow


def test_flow_text_errors():
    with pytest.raises(ValidationError):
        flow_arcs_from_text("nope")
    with pytest.raises(ValidationError):
        list(flow_arcs_from_text("lpgaps-flow 1\n0 1\n"))
    with pytest.raises(ValidationError, match="not an integer: 'zero'"):
        list(flow_arcs_from_text("lpgaps-flow 1\nzero 1 1\n"))
    with pytest.raises(ValidationError, match="must be 'lpgaps-flow 1', not"):
        flow_arcs_from_text("lpgaps-flow 99\n0 1 1\n")
    with pytest.raises(ValidationError, match="missing lpgaps-flow header"):
        flow_arcs_from_text("lpgaps-flow-extra 1\n0 1 1\n")


costs = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def instances(draw, min_cities=2, max_cities=7):
    n = draw(st.integers(min_cities, max_cities))
    # valley ids ranked onto 0..k-1, so none is missing
    raw = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rank = {v: r for r, v in enumerate(sorted(set(raw)))}
    cost = draw(st.lists(
        st.lists(costs, min_size=n, max_size=n), min_size=n, max_size=n,
    ))
    return TspInstance(n, tuple(rank[v] for v in raw), tuple(map(tuple, cost)))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_instance_text_round_trips(inst):
    back = instance_from_text(instance_to_text(inst))
    assert (back.n, back.valley_of, back.cost) == (inst.n, inst.valley_of, inst.cost)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flow_text_round_trips(data):
    inst = data.draw(instances())
    arcs = data.draw(st.lists(
        st.sampled_from(arc_list(inst.n)), unique=True, max_size=inst.n * 2,
    ))
    weights = st.fractions(min_value=0, max_value=1, max_denominator=60)
    flow = flow_from_arcs(inst, [(i, j, data.draw(weights)) for i, j in arcs])
    back = list(flow_arcs_from_text(flow_arcs_to_text(flow)))
    assert back == list(flow)
    assert flow_from_arcs(inst, back) == flow


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subtour_cuts_never_lower_the_degree_lp_minimum(data):
    inst = data.draw(instances(min_cities=3, max_cities=5))
    subsets = st.lists(
        st.integers(0, inst.n - 1), min_size=2, max_size=inst.n - 1, unique=True,
    )
    first, second = data.draw(subsets), data.draw(subsets)
    base = solve_lp(degree_lp(inst)).value
    one_cut = solve_lp(relaxation_with_cuts(inst, [first])).value
    assert base <= one_cut
    if sorted(first) == sorted(second):
        # a second copy of one cut would only repeat its row
        with pytest.raises(ValidationError, match="named more than once"):
            relaxation_with_cuts(inst, [first, second])
    else:
        two_cuts = solve_lp(relaxation_with_cuts(inst, [first, second])).value
        assert one_cut <= two_cuts
