import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import point_feasible, random_bounded_lp, vertex_enumeration_optimum
from test_pivot_path import (
    RANDOM_PROGRAMS,
    RANDOM_PROGRAMS_SEED,
    seeded_boxed_program,
)
from lpgaps.errors import ValidationError
from lpgaps import lp as lp_module
from lpgaps.lp import (
    Constraint,
    SolveStatus,
    _eliminate,
    _Tableau,
    constraint,
    linear_program,
    solve_lp,
    with_constraints,
)
from lpgaps.valleys import degree_lp, gen_valley_instance


def three_facet_program():
    # max y - 5x over {y <= 7x, y <= 5x+2, y <= 3x+6, 0 <= x <= 3, y >= 0}
    return linear_program(
        [-5, 1],
        "max",
        [([-7, 1], "<=", 0), ([-5, 1], "<=", 2), ([-3, 1], "<=", 6)],
        upper_bounds=[3, None],
    )


def test_maximize_single_variable():
    out = solve_lp(linear_program([1], "max", [([1], "<=", 1)]))
    assert out.status is SolveStatus.OPTIMAL
    assert out.point == (Fraction(1),)
    assert out.value == 1


def test_infeasible_single_variable():
    out = solve_lp(linear_program([1], "max", [([1], "<=", -1)]))
    assert out.status is SolveStatus.INFEASIBLE
    assert out.point is None


def test_three_facet_program_against_oracle():
    lp = three_facet_program()
    expected = vertex_enumeration_optimum(lp)
    assert expected == 2  # frozen from the oracle
    out = solve_lp(lp)
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == expected
    assert point_feasible(lp, out.point)


def test_unbounded_detection():
    out = solve_lp(linear_program([0, 1], "max", [([1, 0], "<=", 1)]))
    assert out.status is SolveStatus.UNBOUNDED


def test_bound_conflict_is_infeasible():
    out = solve_lp(linear_program([1], "max", lower_bounds=[2], upper_bounds=[1]))
    assert out.status is SolveStatus.INFEASIBLE


def test_negative_lower_bounds_and_minimize():
    lp = linear_program(
        [1], "min", [([1], ">=", -3)], lower_bounds=[-5], upper_bounds=[5]
    )
    out = solve_lp(lp)
    assert out.value == -3


def test_beale_cycling_example_terminates():
    lp = linear_program(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        "max",
        [
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    assert solve_lp(lp).value == Fraction(1, 20)


def test_equality_rows_with_artificials():
    lp = linear_program(
        [1, 1], "min", [([1, 1], "=", 5), ([1, 0], "<=", 2)]
    )
    assert solve_lp(lp).value == 5


def test_redundant_equality_rows_are_dropped():
    lp = linear_program(
        [1, 1], "max",
        [([1, 1], "=", 2), ([2, 2], "=", 4), ([1, 0], "<=", 1)],
    )
    out = solve_lp(lp)
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == 2


def test_validation_errors():
    with pytest.raises(ValidationError):
        linear_program([], "max")
    with pytest.raises(ValidationError):
        linear_program([1], "sideways")
    with pytest.raises(ValidationError):
        linear_program([1, 2], "max", [([1], "<=", 0)])
    with pytest.raises(ValidationError):
        constraint([1], "!=", 0)
    # dataclasses.replace builds through the same constructor, so a
    # malformed copy is refused where it is made, not at a later solve
    lp = three_facet_program()
    assert lp.num_vars == 2
    with pytest.raises(ValidationError, match="one entry per variable"):
        replace(lp, objective=(Fraction(1),) * 3)
    with pytest.raises(ValidationError, match="unknown sense"):
        replace(lp, sense="sideways")
    with pytest.raises(ValidationError, match="1 coefficients for 2 variables"):
        with_constraints(lp, [constraint([1], "<=", 0)])
    with pytest.raises(ValidationError, match="unknown relation '!='"):
        Constraint((Fraction(1),), "!=", Fraction(0))


def test_floats_are_refused_where_made():
    # a float used to pass the shape checks and fail inside a solve with
    # AttributeError: 'float' object has no attribute 'denominator'
    lp = linear_program([1, 1], "max", [([1, 1], "<=", 3)])
    with pytest.raises(ValidationError, match="objective entries must be exact"):
        replace(lp, objective=(0.5, 1.0))
    with pytest.raises(ValidationError, match="lower bounds must be exact"):
        replace(lp, lower_bounds=(0.0, Fraction(0)))
    with pytest.raises(ValidationError, match="upper bounds must be exact"):
        replace(lp, upper_bounds=(None, 2.5))
    with pytest.raises(ValidationError, match="row entries must be exact"):
        Constraint((Fraction(1), 0.5), "<=", Fraction(3))
    with pytest.raises(ValidationError, match="row entries must be exact"):
        replace(lp.constraints[0], rhs=3.0)
    # ints are exact: a program built from them solves as before
    assert solve_lp(replace(lp, objective=(1, 2))).value == 6


def test_simplex_matches_vertex_enumeration_sample():
    # the full 1000-trial run is acceptance criterion 7; this is a
    # faster slice with a different seed for everyday development
    rng = random.Random(1105)
    for _ in range(250):
        lp = random_bounded_lp(rng)
        out = solve_lp(lp)
        reference = vertex_enumeration_optimum(lp)
        if out.status is SolveStatus.OPTIMAL:
            assert reference is not None
            assert out.value == reference
            assert point_feasible(lp, out.point)
        else:
            assert out.status is SolveStatus.INFEASIBLE
            assert reference is None


def test_added_constraint_never_improves_maximum():
    rng = random.Random(7311)
    checked = 0
    while checked < 150:
        lp = random_bounded_lp(rng)
        if lp.sense != "max":
            continue
        base = solve_lp(lp)
        if base.status is not SolveStatus.OPTIMAL:
            continue
        extra = constraint(
            [Fraction(rng.randint(-2, 2)) for _ in range(lp.num_vars)],
            "<=",
            Fraction(rng.randint(-2, 4)),
        )
        tightened = solve_lp(with_constraints(lp, [extra]))
        if tightened.status is SolveStatus.OPTIMAL:
            assert tightened.value <= base.value
        else:
            assert tightened.status is SolveStatus.INFEASIBLE
        checked += 1


def test_deterministic_outcomes():
    lp = three_facet_program()
    assert solve_lp(lp) == solve_lp(lp)
    rng = random.Random(99)
    for _ in range(25):
        program = random_bounded_lp(rng)
        assert solve_lp(program) == solve_lp(program)


# Tableau-like int entries: mostly zero, either sign, now and then large.
entries = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-(10**12), 10**12)
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_eliminate_matches_fraction_reference(data):
    width = data.draw(st.integers(1, 8))
    col = data.draw(st.integers(0, width - 1))
    row = data.draw(st.lists(entries, min_size=width, max_size=width))
    # denominators of 1 on both sides take the path without a gcd
    den = data.draw(st.one_of(st.just(1), st.integers(1, 60)))
    val = data.draw(entries)
    # a pivot row as _replace leaves it: positive at col, gcd 1 over
    # its entries and its value
    prow = data.draw(st.lists(entries, min_size=width, max_size=width))
    prow[col] = data.draw(st.one_of(st.just(1), st.integers(2, 12)))
    pval = data.draw(entries)
    g = gcd(pval, *prow)
    prow = [x // g for x in prow]
    pval //= g
    pden = prow[col]
    nz = [j for j, x in enumerate(prow) if x]
    before = list(row)

    out, out_den, out_val = _eliminate(row, den, val, prow, pden, pval, col, nz)

    assert row == before  # tableau copies share rows: never written
    f = Fraction(row[col], den)
    assert [Fraction(x, out_den) for x in out] == [
        Fraction(x, den) - f * Fraction(y, pden) for x, y in zip(row, prow)
    ]
    assert Fraction(out_val, out_den) == Fraction(val, den) - f * Fraction(pval, pden)
    assert out[col] == 0
    assert out_den > 0
    assert gcd(out_den, out_val, *out) == 1


# Properties over programs random_bounded_lp never draws: denominators up
# to 7 (so tableau rows carry denominators above 1), negative lower
# bounds, fixed variables (lo == hi) and equality rows. Every box is
# finite, so vertex enumeration is a complete oracle. Each row passes
# within a drawn offset of an anchor point in the box; a negative offset
# cuts the anchor off, so both feasible and infeasible programs occur.
small_rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(1, 7)
)
offsets = st.builds(Fraction, st.integers(-1, 3), st.integers(1, 7))


@st.composite
def boxed_programs(draw):
    n = draw(st.integers(1, 3))
    vector = st.lists(small_rationals, min_size=n, max_size=n)
    lower = draw(vector)
    spans = [
        draw(st.builds(Fraction, st.integers(0, 4), st.integers(1, 7)))
        for _ in range(n)
    ]
    anchor = [
        lo + s * Fraction(draw(st.integers(0, 4)), 4)
        for lo, s in zip(lower, spans)
    ]

    def row():
        coeffs = draw(vector)
        relation = draw(st.sampled_from(["<=", "<=", ">=", "="]))
        offset = draw(offsets)
        if relation == ">=":
            offset = -offset
        elif relation == "=":
            offset = min(offset, 0)
        lhs = sum(a * x for a, x in zip(coeffs, anchor))
        return constraint(coeffs, relation, lhs + offset)

    lp = linear_program(
        draw(vector),
        draw(st.sampled_from(["max", "min"])),
        [row() for _ in range(draw(st.integers(1, 5)))],
        lower_bounds=lower,
        upper_bounds=[lo + s for lo, s in zip(lower, spans)],
    )
    return lp, row()


@settings(max_examples=200, deadline=None)
@given(boxed_programs())
def test_property_matches_vertex_enumeration(case):
    lp, _ = case
    out = solve_lp(lp)
    reference = vertex_enumeration_optimum(lp)
    if out.status is SolveStatus.OPTIMAL:
        assert out.value == reference
        assert point_feasible(lp, out.point)
    else:
        assert out.status is SolveStatus.INFEASIBLE
        assert reference is None


@settings(max_examples=200, deadline=None)
@given(boxed_programs())
def test_property_added_row_never_improves(case):
    lp, extra = case
    base = solve_lp(lp)
    tightened = solve_lp(with_constraints(lp, [extra]))
    if tightened.status is SolveStatus.INFEASIBLE:
        return
    assert tightened.status is SolveStatus.OPTIMAL
    assert point_feasible(lp, tightened.point)
    assert base.status is SolveStatus.OPTIMAL
    if lp.sense == "max":
        assert tightened.value <= base.value
    else:
        assert tightened.value >= base.value


@settings(max_examples=200, deadline=None)
@given(boxed_programs(), st.data())
def test_property_warm_start_matches_cold(case, data):
    lp, _ = case
    first = solve_lp(lp)
    other = replace(
        lp,
        objective=tuple(data.draw(
            st.lists(small_rationals, min_size=lp.num_vars, max_size=lp.num_vars)
        )),
        sense=data.draw(st.sampled_from(["max", "min"])),
    )
    if first.status is SolveStatus.INFEASIBLE:
        with pytest.raises(ValidationError):
            solve_lp(other, start=first)
        return
    cold = solve_lp(other)
    warm = solve_lp(other, start=first)
    assert warm.status is cold.status
    assert warm.value == cold.value
    assert point_feasible(other, warm.point)
    # the start is copied, never changed: it gives the same outcome
    # twice, and a zero objective, optimal everywhere, still stops at
    # the start's own point
    assert solve_lp(other, start=first) == warm
    idle = replace(lp, objective=(Fraction(0),) * lp.num_vars)
    assert solve_lp(idle, start=first).point == first.point


def tableau_snapshot(tab):
    return ([list(row) for row in tab.A], list(tab.d), list(tab.v),
            list(tab.basis), list(tab.state), list(tab.ub), tab.region,
            tab.first_art, tab.ncols)


@settings(max_examples=200, deadline=None)
@given(boxed_programs(), st.data())
def test_property_appended_rows_warm_match_cold(case, data):
    # rows of every relation, satisfied or violated by the start's
    # point, appended to a solved program; half the time the box is
    # opened upward, so unbounded starts occur, and violated rows make
    # some results infeasible
    lp, _ = case
    if data.draw(st.booleans()):
        lp = replace(lp, upper_bounds=(None,) * lp.num_vars)
    first = solve_lp(lp)
    if first.tableau is None:
        return
    # an unbounded outcome has no point; rows then pass near the
    # lower corner instead
    point = first.point or lp.lower_bounds
    extra = []
    for _ in range(data.draw(st.integers(1, 3))):
        coeffs = data.draw(
            st.lists(small_rationals, min_size=lp.num_vars, max_size=lp.num_vars)
        )
        lhs = sum(a * x for a, x in zip(coeffs, point))
        relation = data.draw(st.sampled_from(["<=", ">=", "="]))
        offset = data.draw(offsets) * data.draw(st.sampled_from([1, -1]))
        extra.append(constraint(coeffs, relation, lhs + offset))
    grown = with_constraints(lp, extra)
    before = tableau_snapshot(first.tableau)
    warm = solve_lp(grown, start=first)
    cold = solve_lp(grown)
    assert tableau_snapshot(first.tableau) == before
    assert warm.status is cold.status
    assert warm.value == cold.value
    if warm.status is SolveStatus.OPTIMAL:
        assert point_feasible(grown, warm.point)
    if warm.tableau is not None:
        # a warm outcome starts the next round just as a cold one does
        more = with_constraints(grown, extra[:1])
        again, fresh = solve_lp(more, start=warm), solve_lp(more)
        assert (again.status, again.value) == (fresh.status, fresh.value)


def test_appended_rows_reach_infeasible_and_unbounded():
    # x - y <= 4 with y unbounded above: maximizing y is unbounded
    lp = linear_program([0, 1], "max", [([1, -1], "<=", 4)])
    start = solve_lp(lp)
    assert start.status is SolveStatus.UNBOUNDED
    capped = with_constraints(lp, [constraint([0, 1], "<=", 3)])
    out = solve_lp(capped, start=start)
    assert (out.status, out.value) == (SolveStatus.OPTIMAL, 3)
    still = with_constraints(lp, [constraint([1, 0], "=", 2)])
    assert solve_lp(still, start=start).status is SolveStatus.UNBOUNDED
    # y <= 3 and x <= y + 4 keep x + y at most 10: phase 1 from the
    # start's basis proves the new row unreachable
    walled = with_constraints(capped, [constraint([1, 1], ">=", 11)])
    assert solve_lp(walled, start=out).status is SolveStatus.INFEASIBLE
    assert solve_lp(walled).status is SolveStatus.INFEASIBLE


def test_rows_enter_by_one_rule_cold_and_warm(monkeypatch):
    # a <=, a >= and an = row, each strictly satisfied, tight and
    # violated at the lower corner (1, -2), where a.x = 1/2 - 6 = -11/2
    coeffs, corner_lhs, d = [Fraction(1, 2), 3], Fraction(-11, 2), Fraction(3, 2)
    rows = [
        (coeffs, relation, corner_lhs + delta)
        for relation, deltas in (("<=", (d, 0, -d)), (">=", (-d, 0, d)),
                                 ("=", (d, 0, -d)))
        for delta in deltas
    ]
    bounds = dict(lower_bounds=[1, -2], upper_bounds=[4, None])
    lp = linear_program([1, 1], "max", rows, **bounds)
    # minimizing x + y over the bounds alone stops at the lower corner
    start = solve_lp(linear_program([1, 1], "min", **bounds))
    assert start.point == (1, -2)

    # the layout phase 1 prices first, before any pivot
    priced = []
    original = _Tableau.price

    def recording_price(self, cost):
        values = [Fraction(v, d) for v, d in zip(self.v, self.d)]
        priced.append((list(self.basis), values, self.first_art))
        return original(self, cost)

    monkeypatch.setattr(_Tableau, "price", recording_price)
    layouts = []
    for solve_start in (None, start):
        priced.clear()
        solve_lp(lp, start=solve_start)
        layouts.append(priced[0])
    # slack columns 2..7 belong to the six inequality rows in order and
    # artificials start at column 8: a <= row keeps its slack basic when
    # b - a.x >= 0, a >= row only when b - a.x < 0, an = row never
    expected = (
        [2, 3, 8, 5, 9, 10, 11, 12, 13],
        [d, 0, d, d, 0, d, d, 0, d],
        8,
    )
    assert layouts == [expected, expected]


@pytest.mark.parametrize("valleys, cities", [(3, 2), (4, 2), (3, 3)])
def test_warm_start_leaves_the_shared_rows_unchanged(valleys, cities):
    # a warm solve copies the start's index lists but shares its rows,
    # so any in-place row write would show up in the start's tableau
    lp = degree_lp(gen_valley_instance(valleys, cities))
    start = solve_lp(lp)
    tab = start.tableau

    def snapshot():
        return ([list(row) for row in tab.A], list(tab.d), list(tab.v),
                list(tab.basis), list(tab.state))

    before = snapshot()
    rng = random.Random(10 * valleys + cities)
    other = replace(
        lp, objective=tuple(Fraction(rng.randint(-4, 4)) for _ in lp.objective)
    )
    warm = solve_lp(other, start=start)
    assert snapshot() == before
    assert warm.value == solve_lp(other).value


def test_digest_programs_take_every_value_update(monkeypatch):
    # the 300 seeded programs of the pivot digest, solved as it solves
    # them, reach each move that writes a value outside the elimination:
    # a row scaled to cover a denominator, a bound flip across a span
    # that is not an integer, and a basis change whose leaving column
    # stops at a nonzero upper bound (856 scalings; 153 such flips and
    # 115 such leaves, numbers the pinned pivots fix)
    seen = {"scaled": 0, "fractional flip": 0, "leave at upper": 0}
    scaled, flip, replace_row = lp_module._scaled, _Tableau._flip, _Tableau._replace

    def counting_scaled(*args):
        seen["scaled"] += 1
        return scaled(*args)

    def counting_flip(self, enter, direction):
        seen["fractional flip"] += self.ub[enter].denominator > 1
        return flip(self, enter, direction)

    def counting_replace(self, p, enter, value, leave_state):
        seen["leave at upper"] += leave_state < 0 and self.ub[self.basis[p]] > 0
        return replace_row(self, p, enter, value, leave_state)

    monkeypatch.setattr(lp_module, "_scaled", counting_scaled)
    monkeypatch.setattr(_Tableau, "_flip", counting_flip)
    monkeypatch.setattr(_Tableau, "_replace", counting_replace)
    rng = random.Random(RANDOM_PROGRAMS_SEED)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(rng)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=rng.choice(["max", "min"]),
        )
        solve_lp(other, start=first)
    assert min(seen.values()) >= 100, seen


def test_warm_start_from_an_unbounded_outcome():
    lp = linear_program([0, 1], "max", [([1, 0], "<=", 1)])
    start = solve_lp(lp)
    assert start.status is SolveStatus.UNBOUNDED
    out = solve_lp(replace(lp, objective=(Fraction(1), Fraction(-1))), start=start)
    assert out.status is SolveStatus.OPTIMAL
    assert out.point == (1, 0) and out.value == 1
    again = solve_lp(replace(lp, sense="min"), start=out)
    assert again.status is SolveStatus.OPTIMAL and again.value == 0


def test_warm_start_accepts_an_equal_region_built_anew():
    start = solve_lp(three_facet_program())
    lp = replace(three_facet_program(), objective=(Fraction(-3), Fraction(1)))
    assert lp.constraints is not start.tableau.region[0]
    assert solve_lp(lp, start=start) == solve_lp(lp)


def test_warm_start_refuses_another_region():
    lp = three_facet_program()
    start = solve_lp(lp)
    # rows appended after the start's are the cut loop's warm start
    appended = with_constraints(lp, [constraint([1, 0], "<=", 2)])
    warm = solve_lp(appended, start=start)
    cold = solve_lp(appended)
    assert (warm.status, warm.value) == (cold.status, cold.value)
    other_row = replace(
        lp, constraints=lp.constraints[:1] + (constraint([-5, 1], "<=", 3),)
        + lp.constraints[2:]
    )
    others = [
        other_row,
        with_constraints(other_row, [constraint([1, 0], "<=", 2)]),
        replace(lp, constraints=lp.constraints[:2]),
        replace(lp, lower_bounds=(Fraction(1, 2),) + lp.lower_bounds[1:]),
        replace(lp, upper_bounds=(Fraction(2),) + lp.upper_bounds[1:]),
        replace(lp, upper_bounds=lp.upper_bounds[:1] + (Fraction(9),)),
        replace(appended, upper_bounds=(Fraction(2),) + lp.upper_bounds[1:]),
    ]
    for other in others:
        with pytest.raises(ValidationError, match="different region"):
            solve_lp(other, start=start)


@pytest.mark.parametrize("infeasible", [
    linear_program([1], "max", [([1], "<=", -1)]),
    linear_program([1], "max", lower_bounds=[2], upper_bounds=[1]),
])
def test_warm_start_refuses_an_infeasible_outcome(infeasible):
    start = solve_lp(infeasible)
    assert start.status is SolveStatus.INFEASIBLE
    with pytest.raises(ValidationError, match="no tableau"):
        solve_lp(infeasible, start=start)
