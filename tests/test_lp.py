import random
import re
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from unittest.mock import patch

from oracles import (
    point_feasible,
    random_bounded_lp,
    solve_square,
    vertex_enumeration_optimum,
)
from test_pivot_path import (
    APPENDED_ROWS_SEED,
    RANDOM_PROGRAMS,
    RANDOM_PROGRAMS_SEED,
    seeded_appended_rows,
    seeded_boxed_program,
)
from lpgaps.errors import ValidationError
from lpgaps.gaps import integrality_gap
from lpgaps.lp import (
    Constraint,
    LinearProgram,
    SolveStatus,
    _eliminate,
    _Tableau,
    constraint,
    linear_program,
    solve_lp,
    with_constraints,
)
from lpgaps.valleys import cutting_plane_loop, degree_lp, gen_valley_instance


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


def test_optimal_points_and_values_are_fractions():
    # built with int entries: the 0 of the point (1, 0) is the lower
    # bound of a column that never moves, and must be a Fraction all the
    # same, since a report writes a Fraction as text and an int as a
    # JSON number
    direct = LinearProgram(
        (Constraint((1, 1), "<=", 1),), (1, 0), "max", (0, 0), (None, None)
    )
    cold = solve_lp(direct)
    assert (cold.point, cold.value) == ((1, 0), 1)
    warm = solve_lp(replace(direct, objective=(0, 1)), start=cold)
    grown = with_constraints(direct, [Constraint((0, 1), ">=", 1)])
    for out in (cold, warm, solve_lp(grown, start=cold),
                solve_lp(three_facet_program())):
        assert out.status is SolveStatus.OPTIMAL
        assert type(out.value) is Fraction
        assert all(type(x) is Fraction for x in out.point), out.point


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


def test_equality_rows_with_zero_span_slacks():
    lp = linear_program(
        [1, 1], "min", [([1, 1], "=", 5), ([1, 0], "<=", 2)]
    )
    assert solve_lp(lp).value == 5


def test_redundant_equality_rows_keep_their_slack_basic_at_zero():
    # x + y = 2 and 2x + 2y = 4 are one row twice: once x + y is basic
    # over one of them, the other's zero-span slack can never leave, and
    # stays basic at 0 in the kept tableau
    lp = linear_program(
        [1, 1], "max",
        [([1, 1], "=", 2), ([2, 2], "=", 4), ([1, 0], "<=", 1)],
    )
    out = solve_lp(lp)
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == 2
    tab = out.tableau
    assert len(tab.basis) == 3
    zero_span = [(b, row[-2]) for b, row in zip(tab.basis, tab.A) if tab.ub[b] == 0]
    assert zero_span and all(value == 0 for _, value in zero_span)


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


@pytest.mark.parametrize("build", [
    lambda: linear_program([0.1], "max"),
    lambda: linear_program([1], "max", upper_bounds=[0.5]),
    lambda: linear_program([1], "max", lower_bounds=["1/2"]),
    lambda: constraint([0.1], "<=", 1),
    lambda: constraint([1], "<=", "3"),
], ids=["objective", "upper", "lower-text", "coeff", "rhs-text"])
def test_builders_refuse_what_they_used_to_convert(build):
    # the builders once wrapped every value in Fraction(...), so 0.1
    # became 3602879701896397/36028797018963968 and "3" became 3 before
    # any check saw them
    with pytest.raises(ValidationError, match="must be exact rationals"):
        build()


def test_builders_take_exact_values_as_given():
    half = Fraction(1, 2)
    row = constraint([1, half], "<=", 3)
    assert row == Constraint((1, half), "<=", 3)
    assert [type(e) for e in (*row.coeffs, row.rhs)] == [int, Fraction, int]
    lp = linear_program([2, half], "max", [row])
    assert lp.objective == (2, half)
    assert (lp.lower_bounds, lp.upper_bounds) == ((0, 0), (None, None))
    assert type(lp.lower_bounds[0]) is int


def test_oracle_solves_int_systems_exactly():
    # on ints, / is float division; the oracle converts to Fractions
    assert solve_square([[3]], [1]) == [Fraction(1, 3)]
    assert type(solve_square([[3]], [1])[0]) is Fraction
    with pytest.raises(TypeError):
        solve_square([[0.5]], [1])


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
    row += [val, den]  # each row ends in its value, then its denominator
    # a pivot row as _replace leaves it: positive at col, over its entry
    # there, gcd 1 over its entries and its value
    prow = data.draw(st.lists(entries, min_size=width, max_size=width))
    prow[col] = data.draw(st.one_of(st.just(1), st.integers(2, 12)))
    pval = data.draw(entries)
    g = gcd(pval, *prow)
    prow = [x // g for x in prow + [pval]]
    pval //= g
    pden = prow[col]
    prow.append(pden)
    nz = [j for j, x in enumerate(prow[:-1]) if x]
    before, out = list(row), row

    assert _eliminate(row, prow, col, nz) is None

    # row is written in place, so the reference reads the snapshot
    assert row is out and len(row) == width + 2
    out_den = row[-1]
    f = Fraction(before[col], den)
    assert [Fraction(x, out_den) for x in row[:-1]] == [
        Fraction(x, den) - f * Fraction(y, pden)
        for x, y in zip(before[:-1], prow[:-1])
    ]
    assert Fraction(row[-2], out_den) == Fraction(val, den) - f * Fraction(pval, pden)
    assert row[col] == 0
    assert out_den > 0
    assert gcd(*row) == 1


def full_row_eliminate(row, prow, col):
    """The textbook update of rows that end in their denominators: the
    whole row scaled by the pivot row's denominator pden, less f times
    the pivot row, over the denominator scaled by pden, then divided by
    the gcd of them all."""
    f, pden = row[col], prow[-1]
    out = [x * pden - f * y for x, y in zip(row[:-1], prow[:-1])]
    out.append(row[-1] * pden)
    g = gcd(*out)
    return [x // g for x in out]


# Mostly zero, as tableau rows are: about five entries in six are 0.
sparse_entries = st.one_of(st.just(0), st.just(0), st.just(0), entries)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_property_eliminate_matches_the_full_row_update(data):
    # the smallest multiplier and the nonzero-only scale and divide give
    # the ints of the full-row update: lowest terms over a positive
    # denominator leaves one form of the row's values
    width = data.draw(st.integers(1, 30))
    col = data.draw(st.integers(0, width - 1))
    # a pivot row as _replace leaves it: positive at col, gcd 1 over its
    # entries and its value; a unit entry at col gives pden == 1
    prow = data.draw(st.lists(sparse_entries, min_size=width + 1, max_size=width + 1))
    prow[col] = data.draw(st.one_of(st.just(1), st.integers(2, 60)))
    g = gcd(*prow)
    prow = [x // g for x in prow]
    pden = prow[col]
    prow.append(pden)
    # f is a multiple of a divisor of pden: 1, one between, or pden
    # itself, where pden divides f and the row needs no scale
    share = data.draw(st.sampled_from([q for q in range(1, pden + 1) if pden % q == 0]))
    f = share * data.draw(st.one_of(st.integers(1, 9), st.integers(1, 10**12)))
    row = data.draw(st.lists(sparse_entries, min_size=width + 1, max_size=width + 1))
    row[col] = data.draw(st.sampled_from([f, -f]))
    row.append(data.draw(st.one_of(st.just(1), st.integers(1, 60))))
    nz = [j for j, x in enumerate(prow[:-1]) if x]
    expected = full_row_eliminate(row, prow, col)

    _eliminate(row, prow, col, nz)

    assert row == expected


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


@settings(max_examples=200, deadline=None)
@given(boxed_programs(), st.data())
def test_property_any_corner_start_matches_the_lower_corner(case, data):
    lp, _ = case
    at_upper = data.draw(
        st.lists(st.integers(0, lp.num_vars - 1), unique=True), label="at_upper"
    )
    lower = solve_lp(lp)
    out = solve_lp(lp, at_upper=at_upper)
    reference = vertex_enumeration_optimum(lp)
    assert out.status is lower.status
    if out.status is SolveStatus.OPTIMAL:
        assert out.value == lower.value == reference
        assert point_feasible(lp, out.point)
    else:
        assert out.status is SolveStatus.INFEASIBLE
        assert reference is None


def test_a_cold_start_stands_at_the_corner_it_names():
    # with no row and a zero objective the start is already optimal; a
    # zero-span column sits at its one value whichever bound is named
    lp = linear_program(
        [0, 0, 0, 0], "max",
        lower_bounds=[-1, Fraction(1, 2), 3, 0],
        upper_bounds=[2, Fraction(7, 3), 3, None],
    )
    assert solve_lp(lp).point == (-1, Fraction(1, 2), 3, 0)
    assert solve_lp(lp, at_upper=[2, 0]).point == (2, Fraction(1, 2), 3, 0)
    assert solve_lp(lp, at_upper=(1,)).point == (-1, Fraction(7, 3), 3, 0)


def never_pivot(*args):
    raise AssertionError("a tableau was made or pivoted before the refusal")


@pytest.mark.parametrize("at_upper, message", [
    ((2,), "indices must be ints in 0..1"),
    ((-1,), "indices must be ints in 0..1"),
    ((0, 1.0), "indices must be ints in 0..1"),
    ((Fraction(0),), "indices must be ints in 0..1"),
    (("0",), "indices must be ints in 0..1"),
    ((True,), "indices must be ints in 0..1"),
    ((0, 0), "names a column more than once"),
    ((0, 1), "column 1 has no upper bound"),
])
def test_corner_start_refuses_a_bad_index_before_any_pivot(
    monkeypatch, at_upper, message
):
    lp = linear_program(
        [1, 1], "max", [([1, 1], "<=", 1)], upper_bounds=[1, None]
    )
    for name in ("__init__", "copy", "run", "_replace", "_flip"):
        monkeypatch.setattr(_Tableau, name, never_pivot)
    with pytest.raises(ValidationError, match=re.escape(message)):
        solve_lp(lp, at_upper=at_upper)


def test_corner_start_refuses_a_warm_start_before_any_pivot(monkeypatch):
    lp = linear_program([1, 1], "max", [([1, 1], "<=", 1)], upper_bounds=[1, 1])
    start = solve_lp(lp)
    for name in ("__init__", "copy", "run", "_replace", "_flip"):
        monkeypatch.setattr(_Tableau, name, never_pivot)
    with pytest.raises(ValidationError, match="a warm start keeps its own point"):
        solve_lp(lp, start, at_upper=[0])


@st.composite
def integer_programs(draw):
    """The shape of seeded_boxed_program with every entry an int: the
    objective, the sense, rows as (coeffs, relation, rhs), and the lower
    and upper bounds, each row within an offset of an anchor point."""
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    lower = draw(vector)
    spans = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    anchor = [lo + draw(st.integers(0, s)) for lo, s in zip(lower, spans)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = draw(vector)
        relation = draw(st.sampled_from(["<=", "<=", ">=", "="]))
        offset = draw(st.integers(-1, 3))
        if relation == ">=":
            offset = -offset
        elif relation == "=":
            offset = min(offset, 0)
        lhs = sum(a * x for a, x in zip(coeffs, anchor))
        rows.append((coeffs, relation, lhs + offset))
    upper = [lo + s for lo, s in zip(lower, spans)]
    return draw(vector), draw(st.sampled_from(["max", "min"])), rows, lower, upper


def solve_recording_pivots(lp, start=None):
    """solve_lp(lp, start) and every _replace call it makes."""
    events = []
    original = _Tableau._replace

    def recording_replace(self, *args):
        events.append(args)
        return original(self, *args)

    with patch.object(_Tableau, "_replace", recording_replace):
        out = solve_lp(lp, start=start)
    return out, events


@settings(max_examples=200, deadline=None)
@given(integer_programs())
def test_property_int_program_pivots_as_its_fraction_twin(case):
    # a builder takes ints as given; the tableau must pivot on them as
    # on the equal Fractions, and return Fractions all the same
    objective, sense, rows, lower, upper = case

    def build(wrap):
        return linear_program(
            map(wrap, objective), sense,
            [(map(wrap, coeffs), rel, wrap(rhs)) for coeffs, rel, rhs in rows],
            lower_bounds=map(wrap, lower), upper_bounds=map(wrap, upper),
        )

    ints, fractions = build(int), build(Fraction)
    assert ints == fractions
    assert {type(x) for x in (*ints.objective, *ints.lower_bounds)} == {int}
    outcomes = []
    for lp in (ints, fractions):
        cold, events = solve_recording_pivots(lp)
        outcomes.append((cold.status, cold.point, cold.value, events))
        if cold.tableau is not None:
            # the other sense prices the same int row again, warm
            flipped = replace(lp, sense="min" if sense == "max" else "max")
            warm, events = solve_recording_pivots(flipped, start=cold)
            outcomes.append((warm.status, warm.point, warm.value, events))
        if cold.point is not None:
            assert type(cold.value) is Fraction
            assert all(type(x) is Fraction for x in cold.point)
    half = len(outcomes) // 2
    assert outcomes[:half] == outcomes[half:]


def tableau_snapshot(tab):
    return ([list(row) for row in tab.A], list(tab.basis), list(tab.state),
            list(tab.ub), tab.region, tab.ncols, list(tab.A[-1]), tab.objective)


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
    # y <= 3 and x <= y + 4 keep x + y at most 10: the dual simplex from
    # the start's basis proves the new row unreachable
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

    # the layout each solve appends its rows in, before any pivot: a
    # cold solve from the tableau of the bounds and a warm one from the
    # start's, both at the corner
    appended = []
    original_append = _Tableau.append_rows

    def recording_append_rows(self, program):
        original_append(self, program)
        values = [Fraction(row[-2], row[-1]) for row in self.A[:self.m]]
        rows = [list(row) for row in self.A]
        appended.append(
            (list(self.basis), values, self.ncols, list(self.ub), list(self.state), rows)
        )

    monkeypatch.setattr(_Tableau, "append_rows", recording_append_rows)
    solve_lp(lp)
    solve_lp(lp, start=start)
    # both price lp's objective before the rows enter, so the two row
    # stores agree int for int, the cost row included
    cold, warm = appended
    assert cold == warm
    # slack columns 2..10 belong to the nine rows in order, each basic
    # at b - a.x for a <= or = row and a.x - b for a >= row, out of its
    # bounds where the row is violated, for the dual simplex to repair:
    # an inequality row's slack has no upper bound, and an = row's has
    # span 0, so its d and -d are both out of bounds; every slack is
    # basic, so none may enter
    assert cold[:5] == (
        [2, 3, 4, 5, 6, 7, 8, 9, 10],
        [d, 0, -d, d, 0, -d, d, 0, -d],
        11,
        [3, None] + [None] * 6 + [0] * 3,
        [1, 1] + [0] * 9,
    )


def assert_prices_its_objective(lp, outcome):
    """The outcome's cost row, the last of its rows, value included, is,
    int for int and in lowest terms, a fresh pricing of lp's signed
    objective at its final basis and point."""
    tab = outcome.tableau
    assert len(tab.A) == len(tab.basis) + 1
    row = tab._reduced(lp.objective)
    if lp.sense == "min":
        # the negated costs' row: entries and value negated, over the
        # same denominator
        row = [-x for x in row[:-1]] + row[-1:]
    assert tab.objective == (lp.objective, lp.sense)
    assert len(row) == tab.ncols + 2
    assert tab.A[-1] == row
    assert row[-1] > 0 and gcd(*row) == 1
    assert not any(tab.A[-1][b] for b in tab.basis)


def test_digest_programs_keep_the_row_a_fresh_pricing_gives():
    # the 300 seeded programs of the pivot digest, solved cold, warm
    # with a new objective, and warm with rows appended under the same
    # objective (the cut loop's round) and under a new one; 190, 190, 91
    # and 91 of these solves keep a tableau
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    checked = [0, 0, 0, 0]
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=programs.choice(["max", "min"]),
        )
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        regrown = replace(grown, objective=other.objective, sense=other.sense)
        solves = [(lp, first), (other, solve_lp(other, start=first)),
                  (grown, solve_lp(grown, start=first)),
                  (regrown, solve_lp(regrown, start=first))]
        for kind, (program, outcome) in enumerate(solves):
            if outcome.tableau is not None:
                assert_prices_its_objective(program, outcome)
                checked[kind] += 1
    assert min(checked) > 80, checked


def test_digest_programs_read_values_off_the_int_tableau(monkeypatch):
    # the 300 seeded programs of the pivot digest, solved cold, warm with
    # a new objective and warm with rows appended: an optimum's value is
    # the cost row's, -sign * A[-1][-2] / A[-1][-1], which equals c.x summed in
    # Fractions over its point, and every row enters with the int value
    # b - a.x at the point of the tableau it enters, among them rows
    # tight there, rows over nonzero lower bounds, over columns at their
    # upper bound and over spans that are not ints
    seen = dict.fromkeys(["row", "tight", "lower", "upper", "unit"], 0)
    append_rows, reduced = _Tableau.append_rows, _Tableau._reduced
    at = []  # the point of the tableau append_rows is extending

    def checking_append_rows(self, lp):
        at.append(self.point())
        append_rows(self, lp)
        at.pop()

    def checking_reduced(self, values, rhs=0):
        row = reduced(self, values, rhs)
        if at:
            x = at[-1]
            value = Fraction(row[-2], row[-1])
            assert value == rhs - sum(a * xj for a, xj in zip(values, x))
            moved = [j for j in range(self.n) if values[j]]
            seen["row"] += 1
            seen["tight"] += row[-2] == 0
            seen["lower"] += any(self.lower[j] for j in moved)
            seen["upper"] += any(self.state[j] < 0 for j in moved)
            seen["unit"] += any(self.unit[j] > 1 for j in moved)
        return row

    monkeypatch.setattr(_Tableau, "append_rows", checking_append_rows)
    monkeypatch.setattr(_Tableau, "_reduced", checking_reduced)
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    optima = 0
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        solves = [(lp, first)]
        if first.tableau is not None:
            other = replace(
                lp,
                objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                                for _ in range(lp.num_vars)),
                sense=programs.choice(["max", "min"]),
            )
            grown = with_constraints(
                lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
            )
            solves += [(other, solve_lp(other, start=first)),
                       (grown, solve_lp(grown, start=first))]
        for program, outcome in solves:
            if outcome.status is not SolveStatus.OPTIMAL:
                continue
            tab, sign = outcome.tableau, 1 if program.sense == "max" else -1
            assert outcome.value == Fraction(-sign * tab.A[-1][-2], tab.A[-1][-1])
            assert outcome.value == sum(
                (c * x for c, x in zip(program.objective, outcome.point)), Fraction(0)
            )
            optima += 1
    # 471 optima; 1,402 rows, of them 194 tight, 1,355 over a nonzero
    # lower bound, 179 over a column at its upper bound, 1,034 over a
    # span that is not an int
    assert optima > 400 and min(seen.values()) > 100, (optima, seen)


def test_cut_loop_makes_one_point_per_round(monkeypatch):
    # appended rows read their values off the int tableau and the value
    # of an optimum off its cost row, so each round's solve makes the
    # Fraction point once, for the outcome it returns
    points = 0
    point = _Tableau.point

    def counting_point(self):
        nonlocal points
        points += 1
        return point(self)

    monkeypatch.setattr(_Tableau, "point", counting_point)
    trace = cutting_plane_loop(gen_valley_instance(4, 2))
    assert trace.complete and points == len(trace.rounds) > 1


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (5, 2)])
def test_cut_loop_rounds_keep_the_row_a_fresh_pricing_gives(monkeypatch, shape):
    solves = []

    def recording_solve(lp, start=None, **kwargs):
        before = None if start is None else tableau_snapshot(start.tableau)
        outcome = solve_lp(lp, start=start, **kwargs)
        after = None if start is None else tableau_snapshot(start.tableau)
        solves.append((lp, outcome, before, after))
        return outcome

    monkeypatch.setattr("lpgaps.valleys.solve_lp", recording_solve)
    trace = cutting_plane_loop(gen_valley_instance(*shape))
    assert trace.complete and len(solves) == len(trace.rounds)
    for lp, outcome, before, after in solves:
        assert_prices_its_objective(lp, outcome)
        # each warm round's dual simplex pivots the copy, never the start
        assert before == after


def test_cut_loop_prices_its_objective_once(monkeypatch):
    # the first round prices the degree LP's objective at the cycle
    # cover it starts at; its 16 degree rows enter with zero-span
    # slacks, all basic at 0 there; every later round's cut enters with
    # an unbounded slack and the dual simplex re-optimises over the cost
    # row it has, and no round prices anything else
    inst = gen_valley_instance(4, 2)
    objective = degree_lp(inst).objective
    priced = {"objective": 0, "other": 0}
    appended = []
    dual_rounds = 0
    price, append_rows = _Tableau.price, _Tableau.append_rows
    dual = _Tableau.dual

    def counting_price(self, cost, *args):
        priced["objective" if tuple(cost) == objective else "other"] += 1
        return price(self, cost, *args)

    def counting_append_rows(self, lp):
        before = self.ncols
        append_rows(self, lp)
        spans = self.ub[before:]
        appended.append((spans, [row[-2] for row in self.A[self.m - len(spans):self.m]]))

    def counting_dual(self):
        nonlocal dual_rounds
        dual_rounds += 1
        return dual(self)

    monkeypatch.setattr(_Tableau, "price", counting_price)
    monkeypatch.setattr(_Tableau, "append_rows", counting_append_rows)
    monkeypatch.setattr(_Tableau, "dual", counting_dual)
    trace = cutting_plane_loop(inst)
    assert appended[0] == ([0] * 16, [0] * 16)
    assert all(spans == [None] for spans, _ in appended[1:])
    assert dual_rounds == len(appended) == len(trace.rounds) > 1
    assert priced == {"objective": 1, "other": 0}


def test_cold_and_warm_solves_run_over_the_cost_row_alone(monkeypatch):
    # a cold solve whose equality row's slack starts at 1 and a warm
    # start that appends the same row each reach a feasible basis by the
    # dual simplex, so the primal runs once, over the constraint rows and
    # the cost row, with no other row pushed on top
    lp = linear_program([1, 1], "max", [([1, 2], "<=", 5)], upper_bounds=[3, 3])
    start = solve_lp(lp)
    before = tableau_snapshot(start.tableau)
    rows_over_basis = []
    run = _Tableau.run

    def recording_run(self):
        rows_over_basis.append(len(self.A) - len(self.basis))
        return run(self)

    monkeypatch.setattr(_Tableau, "run", recording_run)
    grown = with_constraints(lp, [constraint([1, -1], "=", 1)])
    cold = solve_lp(grown)
    assert rows_over_basis == [1]
    assert_prices_its_objective(grown, cold)
    rows_over_basis.clear()
    warm = solve_lp(grown, start=start)
    assert rows_over_basis == [1]
    assert tableau_snapshot(start.tableau) == before
    assert_prices_its_objective(grown, warm)
    for out in (cold, warm):
        assert (out.status, out.value) == (SolveStatus.OPTIMAL, Fraction(11, 3))


def test_warm_appends_after_an_optimum_leave_the_primal_nothing(monkeypatch):
    # from an optimal start, appended inequality rows (the cut loop's
    # rounds and the digest programs' rows made <= or >=) are repaired
    # by the dual simplex over the start's cost row, which ends at an
    # optimum: the run() after it makes no basis change and no bound flip
    # (the loop's first round, a cold solve from a cycle cover, is not
    # counted)
    moves = {"run": 0, "dual": 0}
    in_run = after_dual = warm = False
    replace_basis, flip, run, dual = (
        _Tableau._replace, _Tableau._flip, _Tableau.run, _Tableau.dual)

    def counting_replace(self, *args):
        moves["run"] += in_run
        return replace_basis(self, *args)

    def counting_flip(self, *args):
        moves["run"] += in_run
        return flip(self, *args)

    def counting_run(self):
        nonlocal in_run, after_dual
        in_run, after_dual = after_dual, False
        try:
            return run(self)
        finally:
            in_run = False

    def counting_dual(self):
        nonlocal after_dual
        moves["dual"] += warm
        status = dual(self)
        # an infeasible verdict ends the solve, with no run after it
        after_dual = warm and status is SolveStatus.OPTIMAL
        return status

    def loop_solve(lp, start=None, **kwargs):
        nonlocal warm
        warm = start is not None
        return solve_lp(lp, start=start, **kwargs)

    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    starts = []
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.status is SolveStatus.OPTIMAL:
            rows = [replace(con, relation="<=") if con.relation == "=" else con
                    for con in seeded_appended_rows(rows_rng, lp, first.point)]
            starts.append((with_constraints(lp, rows), first))
    monkeypatch.setattr("lpgaps.valleys.solve_lp", loop_solve)
    with patch.object(_Tableau, "_replace", counting_replace), \
            patch.object(_Tableau, "_flip", counting_flip), \
            patch.object(_Tableau, "run", counting_run), \
            patch.object(_Tableau, "dual", counting_dual):
        warm = True
        solved = [solve_lp(grown, start=first) for grown, first in starts]
        trace = cutting_plane_loop(gen_valley_instance(5, 2))
    assert trace.complete
    assert moves["dual"] == len(starts) + len(trace.rounds) - 1
    assert moves["run"] == 0, moves
    statuses = {out.status for out in solved}
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def test_a_row_no_column_repairs_is_infeasible(monkeypatch):
    # x + 2y <= 5 in the box [0, 3]^2 keeps x + y at most 4: the dual
    # simplex finds no column that moves x + y >= 7's slack back up
    lp = linear_program([1, 1], "max", [([1, 2], "<=", 5)], upper_bounds=[3, 3])
    start = solve_lp(lp)
    assert (start.status, start.value) == (SolveStatus.OPTIMAL, 4)
    grown = with_constraints(lp, [constraint([1, 1], ">=", 7)])
    verdicts = []
    dual = _Tableau.dual

    def recording_dual(self):
        verdicts.append(dual(self))
        return verdicts[-1]

    monkeypatch.setattr(_Tableau, "dual", recording_dual)
    assert solve_lp(grown, start=start).status is SolveStatus.INFEASIBLE
    assert verdicts == [SolveStatus.INFEASIBLE]
    assert vertex_enumeration_optimum(grown) is None
    assert solve_lp(grown).status is SolveStatus.INFEASIBLE
    monkeypatch.undo()
    # and every warm infeasible verdict over the digest programs' appended
    # rows, each checked by enumerating the grown program's vertices
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    infeasible = 0
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        if solve_lp(grown, start=first).status is SolveStatus.INFEASIBLE:
            assert vertex_enumeration_optimum(grown) is None
            infeasible += 1
    assert infeasible > 20, infeasible


def test_dual_degenerate_ties_terminate_and_match_a_cold_solve(monkeypatch):
    # max x over [0, 2]^3 with x + y + z <= 6 stops at (2, 0, 0), where y
    # and z cost nothing: y + z >= 1's slack leaves first, with y and z
    # tied at ratio 0, and y, the smaller index, enters; then x + y <= 2's
    # slack leaves, and z, at ratio 0, takes y down before x, at ratio 1,
    # would fall
    lp = linear_program([1, 0, 0], "max", [([1, 1, 1], "<=", 6)],
                        upper_bounds=[2, 2, 2])
    start = solve_lp(lp)
    assert start.point == (2, 0, 0)
    entered = []
    replace_basis = _Tableau._replace

    def recording_replace(self, p, enter, *args):
        entered.append(enter)
        return replace_basis(self, p, enter, *args)

    grown = with_constraints(lp, [constraint([0, 1, 1], ">=", 1),
                                  constraint([1, 1, 0], "<=", 2)])
    monkeypatch.setattr(_Tableau, "_replace", recording_replace)
    warm = solve_lp(grown, start=start)
    monkeypatch.undo()
    assert entered == [1, 2]
    cold = solve_lp(grown)
    assert (warm.status, warm.value) == (cold.status, cold.value)
    assert warm.point == (2, 0, 1) and warm.value == 2
    # the digest programs with half their costs zeroed, so that reduced
    # costs of 0 and tied ratios abound, each grown warm and cold
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        lp = replace(lp, objective=tuple(
            c if j % 2 else 0 for j, c in enumerate(lp.objective)))
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        warm, cold = solve_lp(grown, start=first), solve_lp(grown)
        assert (warm.status, warm.value) == (cold.status, cold.value)


def test_an_appended_equality_rows_slack_leaves_through_the_dual_for_good(monkeypatch):
    # the start (3, 1) has x - y = 2, so x - y = 1 enters with its
    # zero-span slack, column 3, basic at 1 - 2 = -1; the dual simplex
    # takes it out at the one basis change, x entering, that makes the
    # row hold, and it stops at 0 with state 0, so no later pivot may
    # let it back in
    lp = linear_program([1, 1], "max", [([1, 2], "<=", 5)], upper_bounds=[3, 3])
    start = solve_lp(lp)
    assert start.point == (3, 1)
    leaving = []
    in_dual = False
    replace_basis, dual = _Tableau._replace, _Tableau.dual

    def recording_replace(self, p, enter, *args):
        leaving.append((in_dual, self.basis[p], enter))
        return replace_basis(self, p, enter, *args)

    def recording_dual(self):
        nonlocal in_dual
        in_dual = True
        try:
            return dual(self)
        finally:
            in_dual = False

    monkeypatch.setattr(_Tableau, "_replace", recording_replace)
    monkeypatch.setattr(_Tableau, "dual", recording_dual)
    grown = with_constraints(lp, [constraint([1, -1], "=", 1)])
    warm = solve_lp(grown, start=start)
    tab = warm.tableau
    assert tab.ub[3] == 0
    assert leaving == [(True, 3, 0)]
    assert 3 not in tab.basis and tab.state[3] == 0
    assert (warm.status, warm.value) == (SolveStatus.OPTIMAL, Fraction(11, 3))
    assert warm.point == (Fraction(7, 3), Fraction(4, 3))


def assert_no_dead_column(tab):
    """Every column the tableau stores is basic, may enter, or is fixed,
    as an equality row's zero-span slack is once it leaves the basis.
    Each row holds one entry per column, then its value and its
    denominator, and every basic variable is a column."""
    assert len(tab.state) == len(tab.ub) == tab.ncols
    assert all(len(row) == tab.ncols + 2 for row in tab.A)
    assert all(b < tab.ncols for b in tab.basis)
    basic = set(tab.basis)
    dead = [j for j in range(tab.ncols)
            if j not in basic and tab.state[j] == 0 and tab.ub[j] != 0]
    assert not dead, dead


def test_kept_tableaux_store_no_dead_column(monkeypatch):
    # the 300 seeded programs of the pivot digest, solved cold, warm
    # with a new objective and warm with rows appended, many of them
    # through dual basis changes
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    checked = [0, 0, 0]
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=programs.choice(["max", "min"]),
        )
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        solves = [first, solve_lp(other, start=first), solve_lp(grown, start=first)]
        for kind, outcome in enumerate(solves):
            if outcome.tableau is not None:
                assert_no_dead_column(outcome.tableau)
                checked[kind] += 1
    assert min(checked) > 80, checked

    # every round of the cut loop, the first from a cycle cover and each
    # later one by the dual simplex
    kept = []

    def recording_solve(lp, start=None, **kwargs):
        outcome = solve_lp(lp, start=start, **kwargs)
        kept.append(outcome.tableau)
        return outcome

    monkeypatch.setattr("lpgaps.valleys.solve_lp", recording_solve)
    for shape in [(4, 2), (6, 2), (3, 3)]:
        kept.clear()
        trace = cutting_plane_loop(gen_valley_instance(*shape))
        assert trace.complete and len(kept) == len(trace.rounds) > 1
        for tab in kept:
            assert_no_dead_column(tab)


def assert_zero_span_slacks_rest_at_zero(lp, tab):
    """lp's equality rows each have one zero-span slack, a column past
    the structural ones, which is basic at 0 or nonbasic with state 0."""
    values = {b: row[-2] for b, row in zip(tab.basis, tab.A)}
    zero_span = [j for j in range(tab.n, tab.ncols) if tab.ub[j] == 0]
    assert len(zero_span) == sum(con.relation == "=" for con in lp.constraints)
    for j in zero_span:
        assert values[j] == 0 if j in values else tab.state[j] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_zero_span_slacks_rest_at_zero(seed):
    # a program of the digest's generator with an equality row, solved
    # cold, warm with a new objective and warm with rows appended: every
    # tableau kept holds each equality row's slack at 0
    rng = random.Random(seed)
    lp = seeded_boxed_program(rng)
    assume(any(con.relation == "=" for con in lp.constraints))
    first = solve_lp(lp)
    solves = [(lp, first)]
    if first.tableau is not None:
        other = replace(
            lp,
            objective=tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=rng.choice(["max", "min"]),
        )
        grown = with_constraints(
            lp, seeded_appended_rows(rng, lp, first.point or lp.lower_bounds)
        )
        solves += [(other, solve_lp(other, start=first)),
                   (grown, solve_lp(grown, start=first))]
    for program, outcome in solves:
        if outcome.tableau is not None:
            assert_zero_span_slacks_rest_at_zero(program, outcome.tableau)


@contextmanager
def primal_start_checks():
    """Patch _Tableau so that every run() (the primal simplex) asserts
    that it starts where the dual simplex leaves a feasible region:
    every basic variable a column, every basic value within its bounds
    (a zero-span slack's at 0), and no row over the constraint rows but
    the cost row. Yields the count of runs."""
    seen = {"primal runs": 0}
    run = _Tableau.run

    def checking_run(self):
        assert len(self.A) == self.m + 1
        assert all(b < self.ncols for b in self.basis)
        for b, row in zip(self.basis, self.A):
            assert row[-2] >= 0
            assert self.ub[b] is None or row[-2] <= self.ub[b] * row[-1]
        seen["primal runs"] += 1
        return run(self)

    with patch.object(_Tableau, "run", checking_run):
        yield seen


@settings(max_examples=200, deadline=None)
@given(boxed_programs())
def test_property_the_primal_starts_at_a_feasible_basis(case):
    # the dual simplex is the only feasibility method: cold, or warm
    # with a row appended, the primal starts at a feasible basis
    lp, extra = case
    with primal_start_checks():
        first = solve_lp(lp)
        if first.tableau is not None:
            solve_lp(with_constraints(lp, [extra]), start=first)


def test_digest_programs_start_the_primal_at_a_feasible_basis():
    # the 300 seeded programs of the pivot digest, solved cold and warm
    # with rows appended: each primal run starts at a feasible basis
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    with primal_start_checks() as seen:
        for _ in range(RANDOM_PROGRAMS):
            lp = seeded_boxed_program(programs)
            first = solve_lp(lp)
            if first.tableau is None:
                continue
            grown = with_constraints(
                lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
            )
            solve_lp(grown, start=first)
    assert seen["primal runs"] > 200, seen


def test_cold_solves_reach_the_dual_with_either_row():
    # the 300 seeded programs of the pivot digest, solved cold, start the
    # dual simplex both with the cost row they price at the lower corner,
    # when no column improves it there, and with the zero row otherwise;
    # every solve whose dual makes a basis change, with either row,
    # matches vertex enumeration
    moving = {"cost row": 0, "zero row": 0}
    dual, replace_basis = _Tableau.dual, _Tableau._replace
    kind, in_dual, changes = None, False, 0

    def recording_dual(self):
        nonlocal kind, in_dual
        r = self.A[-1]
        improves = any(d * r[j] > 0 for j, d in enumerate(self.state))
        kind, in_dual = ("zero row" if improves else "cost row"), True
        try:
            return dual(self)
        finally:
            in_dual = False

    def counting_replace(self, *args):
        nonlocal changes
        changes += in_dual
        return replace_basis(self, *args)

    programs = random.Random(RANDOM_PROGRAMS_SEED)
    with patch.object(_Tableau, "dual", recording_dual), \
            patch.object(_Tableau, "_replace", counting_replace):
        for _ in range(RANDOM_PROGRAMS):
            lp = seeded_boxed_program(programs)
            changes = 0
            out = solve_lp(lp)
            if not changes:
                continue
            moving[kind] += 1
            reference = vertex_enumeration_optimum(lp)
            if out.status is SolveStatus.OPTIMAL:
                assert out.value == reference
                assert point_feasible(lp, out.point)
            else:
                assert (out.status, reference) == (SolveStatus.INFEASIBLE, None)
    assert min(moving.values()) > 40, moving


def test_the_gap_reports_degree_solve_makes_no_basis_change():
    # at eight 2-city valleys with costs (0, 1) the solve starts at the
    # valley 2-cycles, a cycle cover where every degree row holds and its
    # zero-span slack is basic at 0, so the dual simplex makes no basis
    # change; every cover arc costs 0, so the cover is an optimum and the
    # primal makes none either
    changes = []
    replace_basis = _Tableau._replace

    def counting_replace(self, *args):
        changes.append(None)
        return replace_basis(self, *args)

    with patch.object(_Tableau, "_replace", counting_replace):
        report = integrality_gap(gen_valley_instance(8, 2, 0, 1))
    assert report.lp_value == 0
    assert changes == []


@pytest.mark.parametrize("valleys, cities", [(3, 2), (4, 2), (3, 3)])
def test_warm_start_leaves_the_shared_rows_unchanged(valleys, cities):
    # a warm solve copies the start's rows and writes its copies in
    # place, so a row the copy shared would show the write in the start
    lp = degree_lp(gen_valley_instance(valleys, cities))
    start = solve_lp(lp)
    tab = start.tableau

    def snapshot():
        return ([list(row) for row in tab.A], list(tab.basis), list(tab.state))

    before = snapshot()
    rng = random.Random(10 * valleys + cities)
    other = replace(
        lp, objective=tuple(Fraction(rng.randint(-4, 4)) for _ in lp.objective)
    )
    warm = solve_lp(other, start=start)
    assert snapshot() == before
    assert warm.value == solve_lp(other).value


def shared_lists(tab, other):
    """The names of tab's mutable lists that other holds too."""
    theirs = {id(x) for x in (*other.A, other.basis, other.state, other.ub)}
    mine = [(f"A[{i}]", row) for i, row in enumerate(tab.A)] + [
        ("basis", tab.basis), ("state", tab.state), ("ub", tab.ub)]
    return [name for name, x in mine if id(x) in theirs]


def test_warm_start_shares_no_list_with_its_start(monkeypatch):
    # a tableau writes its rows in place, so a warm start owns every list
    # it holds: checked as the start is copied, after rows are appended
    # and on the outcome, for the 300 seeded programs of the pivot
    # digest warm with a new objective and warm with rows appended
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    copy, append_rows = _Tableau.copy, _Tableau.append_rows
    starts = []
    checked = {"copy": 0, "append": 0, "same rows": 0, "appended rows": 0}

    def checking_copy(self):
        out = copy(self)
        assert shared_lists(out, self) == []
        checked["copy"] += 1
        return out

    def checking_append_rows(self, lp):
        append_rows(self, lp)
        if starts:
            assert shared_lists(self, starts[-1]) == []
            checked["append"] += 1

    monkeypatch.setattr(_Tableau, "copy", checking_copy)
    monkeypatch.setattr(_Tableau, "append_rows", checking_append_rows)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        starts.clear()
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        starts.append(first.tableau)
        other = replace(
            lp,
            objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=programs.choice(["max", "min"]),
        )
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        before = tableau_snapshot(first.tableau)
        for kind, program in [("same rows", other), ("appended rows", grown)]:
            warm = solve_lp(program, start=first)
            if warm.tableau is not None:
                assert shared_lists(warm.tableau, first.tableau) == []
                checked[kind] += 1
        assert tableau_snapshot(first.tableau) == before
    assert checked["copy"] == 2 * checked["append"] > 160, checked
    assert min(checked.values()) > 80, checked


def test_pivots_enter_a_column_and_write_every_row_in_place(monkeypatch):
    # the 300 seeded programs of the pivot digest, solved cold, warm with
    # a new objective and warm with rows appended, and the cut loops at
    # (4, 2), (6, 2) and (3, 3): no basis change enters the value column
    # or past it, and across each basis change and bound flip every row
    # of the store is the list it was, one entry per column, then its
    # value and its denominator
    flip, replace_row = _Tableau._flip, _Tableau._replace
    moves = {"replace": 0, "flip": 0}

    def rows_stay(self, kind, move, *args):
        before = list(self.A)
        move(self, *args)
        assert len(self.A) == len(before)
        assert all(row is old for row, old in zip(self.A, before))
        assert all(len(row) == self.ncols + 2 for row in self.A)
        moves[kind] += 1

    def checking_replace(self, p, enter, leave_state):
        assert 0 <= enter < self.ncols
        rows_stay(self, "replace", replace_row, p, enter, leave_state)

    def checking_flip(self, enter, direction):
        assert 0 <= enter < self.ncols
        rows_stay(self, "flip", flip, enter, direction)

    monkeypatch.setattr(_Tableau, "_replace", checking_replace)
    monkeypatch.setattr(_Tableau, "_flip", checking_flip)
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=programs.choice(["max", "min"]),
        )
        grown = with_constraints(
            lp, seeded_appended_rows(rows_rng, lp, first.point or lp.lower_bounds)
        )
        solve_lp(other, start=first)
        solve_lp(grown, start=first)
    digest_moves = dict(moves)
    for shape in [(4, 2), (6, 2), (3, 3)]:
        assert cutting_plane_loop(gen_valley_instance(*shape)).complete
    # 772 basis changes and 115 flips over the digest programs, 266
    # basis changes over the cut loops
    cut_loop_replaces = moves["replace"] - digest_moves["replace"]
    assert min(digest_moves.values()) > 100 and cut_loop_replaces > 100, (
        digest_moves, moves)


def test_every_row_ends_in_its_denominator_in_lowest_terms(monkeypatch):
    # the 300 seeded programs of the pivot digest, solved cold and warm
    # with a new objective: after each basis change and bound flip, every
    # row of the store, the cost row included, ends in a
    # positive denominator and is in lowest terms with it, and the
    # tableau keeps no list of denominators beside its rows
    flip, replace_row = _Tableau._flip, _Tableau._replace
    moves = 0

    def checked(move):
        def checking(self, *args):
            nonlocal moves
            move(self, *args)
            assert not hasattr(self, "d")
            assert all(row[-1] > 0 and gcd(*row) == 1 for row in self.A)
            moves += 1
        return checking

    monkeypatch.setattr(_Tableau, "_replace", checked(replace_row))
    monkeypatch.setattr(_Tableau, "_flip", checked(flip))
    programs = random.Random(RANDOM_PROGRAMS_SEED)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(Fraction(programs.randint(-6, 6), programs.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=programs.choice(["max", "min"]),
        )
        solve_lp(other, start=first)
    assert moves > 500, moves


def test_digest_programs_take_every_integer_span_move(monkeypatch):
    # the 300 seeded programs of the pivot digest and the next 300 of the
    # same stream, solved as the digest solves them, reach each move that
    # integer spans keep in int arithmetic: a bound flip across a column
    # whose unit is above 1, a basis change whose leaving column stops at
    # a nonzero upper bound, and a row whose right-hand side has a
    # denominator its coefficients lack (174 flips, 306 leaves and 1,828
    # rows; the digest's 300 alone make 94 of those flips, since the
    # dual simplex that repairs a cold solve's rows flips no bound).
    # They also take each move the ratio test decides, in both entering
    # directions: a leaving structural or slack column stops at zero or
    # at its cap, and a flip goes up or down (637, 267, 86 and 43 basis
    # changes, 153 and 52 flips), so the pinned pivots guard both
    # candidate forms of the rule whichever way the entering column moves
    seen = {"flip over a unit": 0, "leave at upper": 0, "rhs denominator": 0}
    moves = {(enter, leave): 0 for enter in ("up", "down") for leave in ("zero", "cap")}
    moves.update({("flip", "up"): 0, ("flip", "down"): 0})
    way = {1: "up", -1: "down"}
    flip, replace_row, reduced = _Tableau._flip, _Tableau._replace, _Tableau._reduced

    def counting_flip(self, enter, direction):
        seen["flip over a unit"] += self.unit[enter] > 1
        moves["flip", way[direction]] += 1
        return flip(self, enter, direction)

    def counting_replace(self, p, enter, leave_state):
        seen["leave at upper"] += leave_state < 0 and self.ub[self.basis[p]] > 0
        if self.basis[p] < self.ncols:
            moves[way[self.state[enter]], "cap" if leave_state < 0 else "zero"] += 1
        return replace_row(self, p, enter, leave_state)

    def counting_reduced(self, values, rhs=0):
        coeff_den = lcm(*(Fraction(c).denominator for c in values))
        seen["rhs denominator"] += coeff_den % Fraction(rhs).denominator != 0
        return reduced(self, values, rhs)

    monkeypatch.setattr(_Tableau, "_flip", counting_flip)
    monkeypatch.setattr(_Tableau, "_replace", counting_replace)
    monkeypatch.setattr(_Tableau, "_reduced", counting_reduced)
    rng = random.Random(RANDOM_PROGRAMS_SEED)
    for _ in range(2 * RANDOM_PROGRAMS):
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
    assert min(moves.values()) >= 15, moves


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
