"""Information-theoretic storage bounds and the model-fidelity demo.

Bit bounds are computed by exact big-integer bracketing, never by
floating-point logarithms: min_bits is the unique b with
2**b >= count > 2**(b-1). The demo evaluates sin(2**x * pi) + x on a
rational grid; at nonnegative integer x the sine term is zero by
identity and the value is returned as an exact Fraction, so the
integer-grid "monotone" verdict is forced symbolically rather than
being a rounding accident. Elsewhere guarded high precision is used
with an error budget many orders below the ~0.96 violation signal. The
sine term needs the fractional part of 2**x to that precision, so the
working precision grows with the digits of 2**x, and with it the cost
of a point: model_value refuses a point off the exact path (one that
is not a nonnegative integer) above x = MAX_MODEL_X, and a grid with
such a point is refused before any point is evaluated.

mpmath is imported inside the functions that use it (model_value,
_to_mpf, _decreasing and _render), not at module level: lpgaps imports
this module for the bit bounds too, and only a demo grid point off the
exact path needs mpmath, whose import would otherwise cost every
process start-up time and resident memory. Python caches the module
after the first call, so later calls pay only a sys.modules lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import TYPE_CHECKING, Optional, Union

from .errors import ValidationError
from .rationals import Rational, require_exact, require_int

if TYPE_CHECKING:
    import mpmath

# |f(x+step) - f(x)| below this is treated as equal; genuine violations
# of the demo function are ~0.96, twenty-five orders of magnitude away
COMPARISON_GUARD = Fraction(1, 10**30)
WORKING_DIGITS = 60
# C(total, k) < 2**total has at most 4,215 digits at the cap, under
# Python's 4,300-digit limit for rendering an int in a report
MAX_SUBSET_TOTAL = 14_000
# on a 2-vCPU host (Python 3.11) growth row 20 takes 2 s and row 21 8 s
MAX_GROWTH_N = 20
MAX_GRID_POINTS = 10_000
# a point off the exact path works at more digits as x grows: on that
# host one takes 0.06 ms at x = 8, 0.23 ms at 1,000 (so a full grid at
# the cap takes about 2 s), 3.7 ms at 5,000 and 14 ms at 10,000
MAX_MODEL_X = 1_000


def ceil_log2(count: int) -> int:
    """Smallest b with 2**b >= count, by bit length (exact)."""
    require_int(count, 1, None, "count")
    return (count - 1).bit_length()


@dataclass(frozen=True)
class StorageBound:
    object_count: int
    min_bits: int
    derivation: str  # "single-solution" | "subset-of-solutions"
    list_bits: Optional[int] = None  # m * ceil(log2 N) list encoding, subsets only


def min_symbols_single(count: int) -> StorageBound:
    """Bits needed to point at one of `count` distinguishable objects."""
    return StorageBound(count, ceil_log2(count), "single-solution")


def min_symbols_subset(total: int, chosen: int) -> StorageBound:
    """Bits needed to point at one size-`chosen` subset of `total`
    objects: ceil(log2 C(total, chosen)). The list_bits field carries
    the naive list encoding (chosen entries, ceil(log2 total) bits each)
    for comparison."""
    require_int(total, 1, MAX_SUBSET_TOTAL, "total")
    require_int(chosen, 0, total, "chosen")
    count = comb(total, chosen)
    return StorageBound(
        count,
        ceil_log2(count),
        "subset-of-solutions",
        list_bits=chosen * ceil_log2(total),
    )


DEFAULT_N_FROM, DEFAULT_N_TO = 4, 12


def subset_growth_table(
    n_from: int = DEFAULT_N_FROM, n_to: int = DEFAULT_N_TO
) -> tuple[tuple[int, int], ...]:
    """(n, min_bits) for pointing at one size-2**n/4 subset of 2**n
    objects; the bit count at least doubles per unit n at these sizes."""
    require_int(n_from, 2, MAX_GROWTH_N, "n_from")
    require_int(n_to, n_from, MAX_GROWTH_N, "n_to")
    return tuple(
        (n, ceil_log2(comb(2**n, 2**n // 4)))
        for n in range(n_from, n_to + 1)
    )


# ---------------------------------------------------------------------------
# Monotonicity demo: f(x) = sin(2**x * pi) + x

def _integer_digits(x: Fraction) -> int:
    """Decimal digits of 2**ceil(x), an integer no smaller than 2**x;
    0 when x <= 0, where 2**x <= 1."""
    if x <= 0:
        return 0
    # _refuse_costly keeps a point off the exact path at most
    # MAX_MODEL_X, so the int has no more than 302 digits, under
    # Python's 4,300-digit limit on int-to-str conversion
    return len(str(1 << ceil(x)))


def _refuse_costly(x: Fraction) -> None:
    """Refuse a point off the exact path above MAX_MODEL_X, whose
    working precision would grow with the digits of 2**x."""
    if x > MAX_MODEL_X and x.denominator != 1:
        raise ValidationError(
            f"a point that is not an integer must be at most "
            f"{MAX_MODEL_X}, not {x}"
        )


def model_value(x: Rational) -> Union[Fraction, mpmath.mpf]:
    """f(x) = sin(2**x * pi) + x. Exact Fraction at integer x >= 0
    (2**x is an integer, so the sine term is identically zero);
    high-precision mpf elsewhere. The sine only sees the fractional part
    of 2**x, so the working precision is WORKING_DIGITS plus the digits
    of 2**x's integer part. A float is refused, not read as its binary
    fraction, and so is a point off the exact path above MAX_MODEL_X."""
    require_exact((x,), "x")
    x = Fraction(x)
    if x.denominator == 1 and x >= 0:
        return x
    _refuse_costly(x)
    import mpmath

    with mpmath.workdps(WORKING_DIGITS + _integer_digits(x)):
        xf = _to_mpf(x)
        return mpmath.sin(mpmath.power(2, xf) * mpmath.pi) + xf


def _to_mpf(v) -> mpmath.mpf:
    import mpmath

    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return v


def _decreasing(a, b) -> bool:
    """Does the sampled function strictly decrease from a to b? Exact
    when both are Fractions; otherwise guarded high precision."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return b < a
    import mpmath

    with mpmath.workdps(WORKING_DIGITS):
        diff = _to_mpf(b) - _to_mpf(a)
        return diff < -_to_mpf(COMPARISON_GUARD)


@dataclass(frozen=True)
class MonotoneScan:
    grid: tuple[Rational, ...]
    grid_monotone: bool
    witness: Optional[tuple[Rational, Rational]]  # (x1, x2) with f(x1) > f(x2)
    witness_values: Optional[tuple[str, str]]


def monotone_model_demo(grid_start, grid_end, step) -> MonotoneScan:
    """Sample f on start, start+step, ... and report whether the samples
    are nondecreasing; if not, the first violating adjacent pair. A grid
    with a non-integer point past x = MAX_MODEL_X, or a float, is refused."""
    require_exact((grid_start, grid_end, step), "grid values")
    start = Fraction(grid_start)
    end = Fraction(grid_end)
    incr = Fraction(step)
    if incr <= 0:
        raise ValidationError("step must be positive")
    if start > end:
        raise ValidationError("grid start must not exceed grid end")
    points = (end - start) // incr + 1
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"a grid has at most {MAX_GRID_POINTS} points, not {points}")
    grid = [start + k * incr for k in range(points)]
    for x in grid:
        _refuse_costly(x)
    values = [model_value(x) for x in grid]
    for i in range(len(grid) - 1):
        if _decreasing(values[i], values[i + 1]):
            return MonotoneScan(
                tuple(grid),
                grid_monotone=False,
                witness=(grid[i], grid[i + 1]),
                witness_values=(_render(values[i]), _render(values[i + 1])),
            )
    return MonotoneScan(tuple(grid), True, None, None)


def _render(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    import mpmath

    return mpmath.nstr(value, 20)
