"""Exact rational scalars and their canonical text form.

Every solver in this package computes over ``Rational``, an alias of
:class:`fractions.Fraction`: arbitrary precision, reduced form, positive
denominator. No floating point appears on any correctness-critical path,
so "optimal", "infeasible" and "violated by x" are exact statements.

Text form is ``p/q`` in base 10, with ``/q`` omitted when q is 1. That
is the encoding used by all file formats and reports.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ValidationError

Rational = Fraction


def format_rational(value: Rational) -> str:
    """Render as "p/q", omitting "/q" for integers."""
    return str(Fraction(value))


# a literal's numerator and denominator are at most 10**MAX_LITERAL_DIGITS
MAX_LITERAL_DIGITS = 1000
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS


def parse_rational(text: str) -> Rational:
    """Parse "p/q", plain integer, or decimal text back to the exact value.

    A literal whose reduced numerator or denominator would exceed
    10**MAX_LITERAL_DIGITS is refused, so 1e1000 and 1e-1000 are the
    extremes of their kind. A decimal exponent is checked before it is
    expanded: one further from 0 than that bound plus the literal's
    length puts a nonzero mantissa beyond it, however the value reduces,
    and is refused (with a zero mantissa too), so 1e10000000 is refused
    at once, not after seconds of arithmetic.

    The bound keeps what reports render under Python's 4,300-digit
    limit on int-to-text conversion. Values a = p_a/q_a and b = p_b/q_b
    with every |p| and q at most 10**1000 have sums k*a + m*b over the
    one denominator lcm(q_a, q_b) <= 10**2000, with numerators at most
    (k + m) * 10**2000, and a ratio of two such sums (a gap ratio over
    a valley instance's two costs) is at most (k + m) * 10**4000 over at
    most that, under 4,300 digits for any count of terms below 10**299.
    A sum over many distinct denominators (a cost matrix or flow file
    that writes them) is not bounded this way, so the instance reader
    and flow_from_arcs also refuse costs or arc weights that need a
    common denominator above the same bound (require_common_denominator). With flow weights w = p/D in
    [0, 1] and costs c = r/E, D and E at most 10**1000 and |c| at most
    10**1000, a flow's cost, the sum of w*c over its arcs, has
    denominator at most 10**2000 and numerator at most (arcs) * 10**3000,
    and each degree or cut sum of weights is at most (arcs) * 10**1000
    over at most 10**1000: under 4,300 digits for any count of arcs
    below 10**1299."""
    literal = text.strip()
    exponent = literal.lower().partition("e")[2]
    try:
        if exponent and abs(int(exponent)) > MAX_LITERAL_DIGITS + len(literal):
            value = None
        else:
            value = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational literal: {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) > _LITERAL_BOUND:
        raise ValidationError(
            f"rational literal too large: its numerator and denominator "
            f"must be at most 10^{MAX_LITERAL_DIGITS}"
        )
    return value


def require_common_denominator(values: Iterable[Rational], what: str) -> None:
    """Refuse values whose common denominator, the lcm of theirs,
    exceeds 10**MAX_LITERAL_DIGITS (see parse_rational). It stops at
    the first value that takes the lcm past the bound, so no lcm it
    computes has more than twice the bound's digits."""
    den = 1
    for value in values:
        den = lcm(den, value.denominator)
        if den > _LITERAL_BOUND:
            raise ValidationError(
                f"{what} need a common denominator of at most "
                f"10^{MAX_LITERAL_DIGITS}"
            )


# the line boundaries of str.splitlines; a run between them is a line
_LINE = re.compile(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+")


def body_lines(text: str, header: str) -> Iterator[str]:
    """Lines of a file format after its header line, stripped, without
    blank lines and "#" comments. The first such line must be exactly
    header followed by version 1; it is checked at the call, and the
    other lines are found one at a time as they are drawn, so a reader
    that stops early never looks at the rest of the text."""
    stripped = (match.group().strip() for match in _LINE.finditer(text))
    lines = (ln for ln in stripped if ln and not ln.startswith("#"))
    first = next(lines, None)
    if first is None or first.split()[0] != header:
        raise ValidationError(f"missing {header} header")
    if first != f"{header} 1":
        raise ValidationError(
            f"the header line must be '{header} 1', not {first!r}"
        )
    return lines


_EXACT_TYPES = frozenset((int, Fraction))


def require_exact(values: Sequence, what: str) -> None:
    """Refuse any entry that is not an exact rational (an int or a
    Fraction), so a float is stopped where an object is made instead of
    failing inside a later solve."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) not in _EXACT_TYPES)
        raise ValidationError(
            f"{what} must be exact rationals, not {type(bad).__name__} {bad!r}"
        )


def require_int(value, lo: int, hi: Optional[int], what: str) -> None:
    """Refuse a count or index that is not an int in lo..hi (hi None
    leaves the range open above). The type must be int itself, so a
    bool, a float and a Fraction are refused even at an integral value:
    a report records the value it was given."""
    if type(value) is not int:
        raise ValidationError(
            f"{what} must be an int, not {type(value).__name__} {value!r}"
        )
    if value < lo:
        raise ValidationError(f"{what} must be at least {lo}, not {value}")
    if hi is not None and value > hi:
        raise ValidationError(f"{what} must be at most {hi}, not {value}")


def require_indices(values: Sequence, n: int, what: str) -> None:
    """Refuse values that are not distinct ints (not bools) in 0..n-1,
    each the index of a `what` among n: a negative index would pick an
    entry from the end, and a repeated one the same entry twice."""
    bad = [x for x in values if type(x) is not int or not 0 <= x < n]
    if bad:
        raise ValidationError(
            f"{what} indices must be ints in 0..{n - 1}, not {bad[0]!r}"
        )
    if len(set(values)) < len(values):
        raise ValidationError(f"{list(values)} names a {what} more than once")


def is_integral(value: Rational) -> bool:
    return value.denominator == 1


def scale_to_ints(values: Sequence[Rational]) -> tuple[list[int], int]:
    """values (Fractions or ints) as int numerators over the lcm of their
    reduced denominators, which leaves them with no common factor: the
    one way into the integer kernels (simplex, separation, Held-Karp).
    A zero adds nothing to the lcm and scales to 0, so only the nonzero
    entries, a few of a dense relaxation row, are converted; compress
    finds them, with no Python step for an int entry."""
    index = list(compress(range(len(values)), values))
    ratios = [values[i].as_integer_ratio() for i in index]
    den = lcm(*(q for _, q in ratios))
    ints = [0] * len(values)
    for i, (p, q) in zip(index, ratios):
        ints[i] = p * (den // q)
    return ints, den
