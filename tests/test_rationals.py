import re
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from lpgaps.errors import ValidationError
from lpgaps.rationals import (
    MAX_LITERAL_DIGITS,
    body_lines,
    format_rational,
    parse_rational,
    require_indices,
    require_int,
    scale_to_ints,
)
from lpgaps.valleys import (
    flow_arcs_from_text,
    flow_from_arcs,
    gen_valley_instance,
    instance_from_cost_matrix,
    instance_from_text,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


@given(rationals, rationals, rationals)
def test_addition_associative_bit_identical(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    assert (left.numerator, left.denominator) == (right.numerator, right.denominator)


# rows may hold plain ints next to Fractions
@given(st.lists(st.one_of(rationals, st.integers(-10**6, 10**6)), max_size=8))
def test_scale_to_ints_is_exact_and_in_lowest_terms(values):
    ints, den = scale_to_ints(values)
    assert all(type(p) is int for p in ints)
    assert [Fraction(p, den) for p in ints] == values
    assert den > 0 and gcd(den, *ints) == 1


def scale_every_entry(values):
    """scale_to_ints as first written: every entry converted, zeros
    included, and the lcm taken over every denominator."""
    pairs = [a.as_integer_ratio() for a in values]
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


# mostly zeros, as in a dense relaxation row
@given(st.lists(
    st.one_of(st.just(Fraction(0)), st.just(0), rationals, st.integers(-10**6, 10**6)),
    max_size=40,
))
def test_scale_to_ints_skipping_zeros_matches_every_entry_formula(values):
    ints, den = scale_to_ints(values)
    assert (ints, den) == scale_every_entry(values)
    assert all(type(p) is int for p in ints)


@given(rationals)
def test_text_round_trip(value):
    text = format_rational(value)
    back = parse_rational(text)
    assert (back.numerator, back.denominator) == (value.numerator, value.denominator)
    if value.denominator == 1:
        assert "/" not in text
    else:
        assert text.endswith(f"/{value.denominator}")


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(0, 6))
def test_decimal_text_round_trip(mantissa, shift):
    value = Fraction(mantissa, 10**shift)
    digits = str(abs(mantissa)).rjust(shift + 1, "0")
    sign = "-" if mantissa < 0 else ""
    text = (
        sign + digits if shift == 0
        else sign + digits[:-shift] + "." + digits[-shift:]
    )
    assert parse_rational(text) == value


def test_parse_rejects_garbage():
    for bad in ("", "x", "1/0", "1//2", "--3"):
        with pytest.raises(ValidationError):
            parse_rational(bad)


@pytest.mark.parametrize("text", [
    "1e1001", "-1e1001", "1e-1001", "1e2200", "1e-2200", "1e10000000",
    "1e-10000000", "1" * 1002, "1/" + "3" * 1002, "12.5e999",
])
def test_parse_refuses_a_literal_beyond_the_size_limit(text):
    with pytest.raises(ValidationError, match="rational literal too large"):
        parse_rational(text)


def test_parse_reads_a_literal_at_the_size_limit():
    bound = 10**MAX_LITERAL_DIGITS
    assert parse_rational(f"1e{MAX_LITERAL_DIGITS}") == bound
    assert parse_rational(f"-1e-{MAX_LITERAL_DIGITS}") == Fraction(-1, bound)
    # the literal's own length lets trailing zeros reduce back within it
    assert parse_rational(f"100e-{MAX_LITERAL_DIGITS + 2}") == Fraction(1, bound)
    assert parse_rational(f"{bound}/{bound - 1}") == Fraction(bound, bound - 1)


@pytest.mark.parametrize(
    "reader, header",
    [
        (instance_from_text, "lpgaps-instance"),
        (flow_arcs_from_text, "lpgaps-flow"),
    ],
)
def test_readers_name_their_missing_header(reader, header):
    for text in ("", "# only a comment\n\n", "lpgaps-other 1\n"):
        with pytest.raises(ValidationError) as info:
            reader(text)
        assert str(info.value) == f"missing {header} header"


# every line boundary of str.splitlines, and characters that strip
# removes without ending a line
@given(st.lists(st.sampled_from([
    "a", "#", " ", "\t", "\x1f", "\xa0", "\n", "\r", "\r\n", "\v", "\f",
    "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]), max_size=30))
def test_body_lines_are_the_lines_splitlines_gives(pieces):
    text = "h 1\n" + "".join(pieces)
    expected = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    assert list(body_lines(text, "h")) == expected[1:]


def test_flow_reader_draws_lines_as_records_are_drawn():
    # a reader that split or stripped every line up front would hold
    # about 400,000 strings, tens of megabytes, before the first record
    text = "lpgaps-flow 1\n" + "0 1 1/3\n" * 400_000
    tracemalloc.start()
    try:
        records = flow_arcs_from_text(text)
        first = [next(records) for _ in range(3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(0, 1, Fraction(1, 3))] * 3
    assert peak < 1_000_000


def test_readers_refuse_a_common_denominator_beyond_the_size_limit():
    # two odd denominators 2 apart are coprime, so each literal is within
    # the limit and their lcm is about 10**1998
    near = 10 ** (MAX_LITERAL_DIGITS - 1)
    first, second = f"1/{near + 1}", f"1/{near + 3}"
    with pytest.raises(ValidationError, match="arc weights need a common denominator"):
        flow_from_arcs(
            gen_valley_instance(2, 1),
            flow_arcs_from_text(f"lpgaps-flow 1\n0 1 {first}\n1 0 {second}\n"),
        )
    with pytest.raises(ValidationError, match="costs need a common denominator"):
        instance_from_text(
            f"lpgaps-instance 1\nn 2\nvalleys 0 1\ncosts\n0 {first}\n{second} 0\n"
        )


def test_cost_matrix_refuses_a_common_denominator_beyond_the_size_limit():
    # n(n - 1) distinct odd denominators near the literal bound, pairwise
    # coprime enough that their lcm passes it at the second: at 6 cities
    # the tour oracle's value had a 19,909-bit denominator that no report
    # can render, and at 10 the scaled costs ran to 89,824 digits
    near = 10 ** (MAX_LITERAL_DIGITS - 1)
    n = 6
    costs = [[0 if i == j else Fraction(1, near + 2 * (i * n + j) + 1)
              for j in range(n)] for i in range(n)]
    with pytest.raises(ValidationError, match="costs need a common denominator"):
        instance_from_cost_matrix(costs)
    # one denominator at the bound, shared by every cost, is taken
    at_limit = Fraction(1, 10**MAX_LITERAL_DIGITS)
    inst = instance_from_cost_matrix(
        [[0 if i == j else (i + j) * at_limit for j in range(n)] for i in range(n)])
    assert inst.scaled_costs[1] == 10**MAX_LITERAL_DIGITS


def test_readers_take_a_common_denominator_at_the_size_limit():
    at_limit = f"1/{10**MAX_LITERAL_DIGITS}"
    arcs = flow_arcs_from_text(f"lpgaps-flow 1\n0 1 {at_limit}\n1 0 1/2\n")
    assert [w for _, _, w in arcs] == [Fraction(1, 10**MAX_LITERAL_DIGITS), Fraction(1, 2)]
    inst = instance_from_text(
        f"lpgaps-instance 1\nn 2\nvalleys 0 1\ncosts\n0 {at_limit}\n1/2 0\n"
    )
    assert inst.cost[0][1] == Fraction(1, 10**MAX_LITERAL_DIGITS)


@pytest.mark.parametrize("value, lo, hi, message", [
    (True, 0, 3, "k must be an int, not bool True"),
    (2.0, 0, 3, "k must be an int, not float 2.0"),
    (Fraction(2), 0, 3, "k must be an int, not Fraction Fraction(2, 1)"),
    ("2", 0, 3, "k must be an int, not str '2'"),
    (-1, 0, 3, "k must be at least 0, not -1"),
    (4, 0, 3, "k must be at most 3, not 4"),
    (0, 1, None, "k must be at least 1, not 0"),
])
def test_require_int_refuses(value, lo, hi, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        require_int(value, lo, hi, "k")


def test_require_int_accepts_its_range():
    for value, lo, hi in [(0, 0, 3), (3, 0, 3), (10**100, 1, None), (-5, -5, -5)]:
        require_int(value, lo, hi, "k")


@pytest.mark.parametrize("values, message", [
    ((0, 1.0), "row indices must be ints in 0..2, not 1.0"),
    ((False,), "row indices must be ints in 0..2, not False"),
    ((3,), "row indices must be ints in 0..2, not 3"),
    ((0, -1), "row indices must be ints in 0..2, not -1"),
    ((2, 0, 2), "[2, 0, 2] names a row more than once"),
])
def test_require_indices_refuses(values, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        require_indices(values, 3, "row")


def test_require_indices_accepts_distinct_ints_in_range():
    for values in [(), (2, 0, 1), [1]]:
        require_indices(values, 3, "row")
