"""Exact rational scalars and their canonical text form.

Every solver in this package computes over ``Rational``, an alias of
:class:`fractions.Fraction`: arbitrary precision, reduced form, positive
denominator. No floating point appears on any correctness-critical path,
so "optimal", "infeasible" and "violated by x" are exact statements.

Text form is ``p/q`` in base 10, with ``/q`` omitted when q is 1. That
is the encoding used by all file formats and reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import ValidationError

Rational = Fraction


def format_rational(value: Rational) -> str:
    """Render as "p/q", omitting "/q" for integers."""
    return str(Fraction(value))


def parse_rational(text: str) -> Rational:
    """Parse "p/q", plain integer, or decimal text back to the exact value."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a rational literal: {text!r}") from None


def body_lines(text: str, header: str) -> list[str]:
    """Lines of a file format after its header line, stripped, without
    blank lines and "#" comments. The first such line must be exactly
    header followed by version 1."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or lines[0].split()[0] != header:
        raise ValidationError(f"missing {header} header")
    if lines[0] != f"{header} 1":
        raise ValidationError(
            f"the header line must be '{header} 1', not {lines[0]!r}"
        )
    return lines[1:]


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


def is_integral(value: Rational) -> bool:
    return value.denominator == 1


def scale_to_ints(values: Iterable[Rational]) -> tuple[list[int], int]:
    """values (Fractions or ints) as int numerators over the lcm of their
    reduced denominators, which leaves them with no common factor: the
    one way into the integer kernels (simplex, separation, Held-Karp)."""
    pairs = [a.as_integer_ratio() for a in values]
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den
