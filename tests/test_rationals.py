from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpgaps.errors import ValidationError
from lpgaps.lp import lp_from_text
from lpgaps.rationals import format_rational, parse_rational, rat, rat_cmp
from lpgaps.valleys import flow_arcs_from_text, instance_from_text

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


def test_rat_canonical_forms():
    assert rat(1, 3) == Fraction(1, 3)
    half = rat(2, 4)
    assert (half.numerator, half.denominator) == (1, 2)
    neg = rat(1, -2)
    assert (neg.numerator, neg.denominator) == (-1, 2)


def test_rat_zero_denominator():
    with pytest.raises(ValidationError):
        rat(1, 0)


def test_rat_cmp_examples():
    assert rat_cmp(rat(1, 3), rat(1, 3)) == 0
    assert rat_cmp(rat(1, 3), rat(1, 2)) == -1
    assert rat_cmp(rat(-7, 2), rat(-4)) == 1


@given(rationals, rationals, rationals)
def test_addition_associative_bit_identical(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    assert (left.numerator, left.denominator) == (right.numerator, right.denominator)


@given(rationals, rationals)
def test_cmp_antisymmetric(a, b):
    assert rat_cmp(a, b) == -rat_cmp(b, a)


@given(rationals, rationals, rationals)
def test_cmp_transitive(a, b, c):
    x, y, z = sorted([a, b, c])
    assert rat_cmp(x, y) <= 0
    assert rat_cmp(y, z) <= 0
    assert rat_cmp(x, z) <= 0


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


@pytest.mark.parametrize(
    "reader, header",
    [
        (lp_from_text, "lpgaps-lp"),
        (instance_from_text, "lpgaps-instance"),
        (flow_arcs_from_text, "lpgaps-flow"),
    ],
)
def test_readers_name_their_missing_header(reader, header):
    for text in ("", "# only a comment\n\n", "lpgaps-other 1\n"):
        with pytest.raises(ValidationError) as info:
            reader(text)
        assert str(info.value) == f"missing {header} header"
