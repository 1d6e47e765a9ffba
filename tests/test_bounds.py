import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from lpgaps import bounds
from lpgaps.bounds import (
    MAX_GRID_POINTS,
    MAX_GROWTH_N,
    MAX_MODEL_X,
    MAX_SUBSET_TOTAL,
    WORKING_DIGITS,
    ceil_log2,
    min_symbols_single,
    min_symbols_subset,
    model_value,
    monotone_model_demo,
    subset_growth_table,
)
from lpgaps.errors import ValidationError


def test_single_solution_bounds():
    assert min_symbols_single(1).min_bits == 0
    assert min_symbols_single(2**20).min_bits == 20
    assert min_symbols_single(math.factorial(10)).min_bits == 22


def test_single_validation():
    with pytest.raises(ValidationError):
        min_symbols_single(0)


def test_subset_bounds():
    empty = min_symbols_subset(5, 0)
    assert empty.object_count == 1 and empty.min_bits == 0

    b42 = min_symbols_subset(4, 2)
    assert b42.object_count == 6 and b42.min_bits == 3

    b168 = min_symbols_subset(16, 8)
    assert b168.object_count == 12870 and b168.min_bits == 14
    assert b168.list_bits == 8 * 4


def test_subset_validation():
    with pytest.raises(ValidationError):
        min_symbols_subset(4, 5)
    with pytest.raises(ValidationError):
        min_symbols_subset(0, 0)


@given(st.integers(min_value=1, max_value=10**40))
def test_bracketing_invariant(count):
    bits = min_symbols_single(count).min_bits
    assert 2**bits >= count
    if count >= 2:
        assert count > 2 ** (bits - 1)
    else:
        assert bits == 0


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
def test_subset_bracketing(total, chosen):
    if chosen > total:
        chosen = total
    bound = min_symbols_subset(total, chosen)
    assert 2**bound.min_bits >= bound.object_count
    if bound.object_count >= 2:
        assert bound.object_count > 2 ** (bound.min_bits - 1)


def test_growth_doubles_per_step():
    table = subset_growth_table(4, 12)
    assert [n for n, _ in table] == list(range(4, 13))
    for (_, bits), (_, next_bits) in zip(table, table[1:]):
        assert next_bits >= 2 * bits


def test_ceil_log2_matches_bracketing():
    for k in [1, 2, 3, 4, 5, 127, 128, 129, 2**40 - 1, 2**40, 2**40 + 1]:
        b = ceil_log2(k)
        assert 2**b >= k and (k == 1 or 2 ** (b - 1) < k)
    with pytest.raises(ValidationError, match="count must be at least 1, not 0"):
        ceil_log2(0)


def test_integer_grid_is_exactly_monotone():
    scan = monotone_model_demo(0, 8, 1)
    assert scan.grid_monotone
    assert scan.witness is None
    # at integer x the sine term vanishes by identity: values are exact
    for x in scan.grid:
        value = model_value(x)
        assert isinstance(value, Fraction)
        assert value == x


def test_half_step_grid_finds_the_violation():
    scan = monotone_model_demo(0, 8, Fraction(1, 2))
    assert not scan.grid_monotone
    assert scan.witness == (Fraction(0), Fraction(1, 2))
    # f(1/2) = 1/2 + sin(sqrt(2) pi) which is about -0.4639
    low = float(scan.witness_values[1])
    assert -0.47 < low < -0.46


def test_single_point_grid_is_vacuously_monotone():
    scan = monotone_model_demo(0, 8, 100)
    assert scan.grid_monotone and scan.witness is None and len(scan.grid) == 1


def test_a_grid_stops_at_its_last_step_at_or_below_the_end():
    assert monotone_model_demo(0, 1, Fraction(2, 3)).grid == (0, Fraction(2, 3))
    grid = monotone_model_demo(Fraction(1, 3), 3, Fraction(2, 3)).grid
    assert grid == tuple(Fraction(k, 3) for k in (1, 3, 5, 7, 9))


def test_non_integer_values_are_high_precision():
    value = model_value(Fraction(1, 2))
    assert not isinstance(value, Fraction)
    assert abs(float(value) - (-0.46390253284987733)) < 1e-12


@pytest.mark.parametrize("x", [0.1, 2.0])
def test_model_value_refuses_floats(x):
    # 0.1 was read as its binary fraction, 3602879701896397/2**55, and
    # 2.0 as the exact 2
    with pytest.raises(ValidationError, match="exact rationals"):
        model_value(x)


@pytest.mark.parametrize("x", [Fraction(30001, 2), MAX_MODEL_X + Fraction(1, 2)])
def test_model_value_refuses_a_costly_point(x):
    # 30001/2 raised Python's int-to-str digit limit instead
    with pytest.raises(ValidationError, match=f"at most {MAX_MODEL_X}, not {x}"):
        model_value(x)


def test_model_value_evaluates_below_the_cap_and_integers_above_it():
    assert not isinstance(model_value(MAX_MODEL_X - Fraction(1, 2)), Fraction)
    assert model_value(5000) == Fraction(5000)


def test_precision_grows_with_x():
    # sin(2**x pi) needs the fractional part of 2**x, so a point works
    # past 60 digits once 2**x has digits of its own; compare with an
    # evaluation at twice the precision the point needs
    x = Fraction(1001, 2)
    value = model_value(x)
    with mpmath.workdps(2 * (WORKING_DIGITS + len(str(2**501)))):
        xf = mpmath.mpf(x.numerator) / x.denominator
        reference = mpmath.sin(mpmath.power(2, xf) * mpmath.pi) + xf
        assert abs(value - reference) < mpmath.mpf(10) ** -27
    assert mpmath.nstr(value, 12) == "500.7298329"


def test_demo_validation():
    with pytest.raises(ValidationError):
        monotone_model_demo(0, 8, 0)
    with pytest.raises(ValidationError):
        monotone_model_demo(8, 0, 1)


def test_demo_refuses_a_float_grid_value():
    # the grid is reported as p/q, so a float step used to be recorded
    # as its binary fraction
    with pytest.raises(ValidationError, match="grid values must be exact"):
        monotone_model_demo(0, 1, 0.1)


def test_subset_total_cap():
    # the largest count at the cap still renders as decimal text
    at_cap = min_symbols_subset(MAX_SUBSET_TOTAL, MAX_SUBSET_TOTAL // 2)
    assert len(str(at_cap.object_count)) <= 4215
    with pytest.raises(ValidationError, match=f"at most {MAX_SUBSET_TOTAL}, not"):
        min_symbols_subset(MAX_SUBSET_TOTAL + 1, 1)


def test_growth_cap_refuses_before_any_row(monkeypatch):
    def no_count(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(bounds, "comb", no_count)
    with pytest.raises(ValidationError, match=f"n_to must be at most {MAX_GROWTH_N}"):
        subset_growth_table(MAX_GROWTH_N, MAX_GROWTH_N + 1)


def test_grid_point_cap_refuses_before_any_point(monkeypatch):
    # an integer grid is exact and cheap, so the cap itself is accepted
    scan = monotone_model_demo(0, MAX_GRID_POINTS - 1, 1)
    assert len(scan.grid) == MAX_GRID_POINTS and scan.grid_monotone

    def no_value(x):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(bounds, "model_value", no_value)
    with pytest.raises(ValidationError, match=f"not {MAX_GRID_POINTS + 1}"):
        monotone_model_demo(0, Fraction(MAX_GRID_POINTS, 2), Fraction(1, 2))


def test_off_path_points_are_capped_before_any_point(monkeypatch):
    # integer points are exact at any x, and points up to the cap are
    # sampled
    assert monotone_model_demo(MAX_MODEL_X, 10 * MAX_MODEL_X, 1).grid_monotone
    below = monotone_model_demo(MAX_MODEL_X - 1, MAX_MODEL_X, Fraction(1, 2))
    assert len(below.grid) == 3

    def no_value(x):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(bounds, "model_value", no_value)
    with pytest.raises(ValidationError, match=f"at most {MAX_MODEL_X}, not 2001/2"):
        monotone_model_demo(0, MAX_MODEL_X + 1, Fraction(1, 2))
