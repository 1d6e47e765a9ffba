"""Linear programs over exact rationals and an exact simplex solver.

Programs are stated in inequality form: an objective to maximize or
minimize, rows with <= / >= / = relations, and per-variable bounds
(lower defaults to 0, upper is optional). The solver is a tableau
simplex over exact int rows (``_Tableau``). It handles variable bounds
natively (bounded variables never become extra rows) and uses Bland's
smallest-index rule throughout, in its primal and in its dual simplex
(Bland 1977), so it terminates on every input. Every row has one
logical column, its slack, and every basic variable is a column: an
equality row's slack has span 0, so once it leaves the basis it never
enters again, as an artificial never comes back (Dantzig 1963); bounded
dual simplex codes give each row one such logical variable (Koberstein
2005; Maros 2003). Rows with their right-hand sides, and costs, enter
once (``rationals.scale_to_ints``) and the point leaves once, as
Fractions: the pivot loop makes none. A returned status is a certainty,
not a numerical verdict.

A row and a program are made one way, by ``Constraint(...)`` and
``LinearProgram(...)``, ``dataclasses.replace`` included, and check
their own shape, and that every entry is an exact rational (an int or a
Fraction), when they are made, so no solve checks them again and a
float or a string is refused where it enters; a row checks only its own
entries. A program grows by ``replace(lp, constraints=lp.constraints +
rows)``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, ValidationError
from .rationals import Rational, require_exact, require_indices, scale_to_ints

LESS_EQ = "<="
GREATER_EQ = ">="
EQUAL = "="
_RELATIONS = (LESS_EQ, GREATER_EQ, EQUAL)

MAXIMIZE = "max"
MINIMIZE = "min"

_ZERO = Fraction(0)

# each primal or dual simplex run of a solve makes at most PIVOT_BUDGET +
# PIVOT_BUDGET_PER_LINE * (rows + columns) pivots and bound flips; the
# largest single solve measured made 5,185 basis changes
PIVOT_BUDGET = 10_000
PIVOT_BUDGET_PER_LINE = 200


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """A row, coeffs . x relation rhs, of exact values taken as given;
    coeffs may be any iterable and is stored as a tuple."""

    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational

    def __post_init__(self):
        if type(self.coeffs) is not tuple:
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {self.relation!r}")
        require_exact(self.coeffs, "row entries")
        require_exact((self.rhs,), "row entries")


@dataclass(frozen=True)
class LinearProgram:
    """A program of exact values taken as given; num_vars is
    len(objective). Each field may be any iterable and is stored as a
    tuple; missing bounds are 0 below and none above. A field given as
    a tuple, as ``replace`` passes every field it does not change, is
    kept as it is, so a copy with a new objective converts nothing."""

    objective: tuple[Rational, ...]
    sense: str
    constraints: tuple[Constraint, ...] = ()
    lower_bounds: Optional[tuple[Rational, ...]] = None
    upper_bounds: Optional[tuple[Optional[Rational], ...]] = None

    def __post_init__(self):
        if type(self.objective) is not tuple:
            object.__setattr__(self, "objective", tuple(self.objective))
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))
        n, lo, hi = self.num_vars, self.lower_bounds, self.upper_bounds
        if type(lo) is not tuple:
            lo = (0,) * n if lo is None else tuple(lo)
            object.__setattr__(self, "lower_bounds", lo)
        if type(hi) is not tuple:
            hi = (None,) * n if hi is None else tuple(hi)
            object.__setattr__(self, "upper_bounds", hi)
        if n < 1:
            raise ValidationError("a program needs at least one variable")
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValidationError(f"unknown sense {self.sense!r}")
        if len(lo) != n or len(hi) != n:
            raise ValidationError("bound vectors must have one entry per variable")
        require_exact(self.objective, "objective entries")
        require_exact(lo, "lower bounds")
        require_exact([b for b in hi if b is not None], "upper bounds")
        for idx, con in enumerate(self.constraints):
            if not isinstance(con, Constraint):
                raise ValidationError(
                    f"constraint {idx} is a {type(con).__name__}, not a Constraint"
                )
            if len(con.coeffs) != n:
                raise ValidationError(
                    f"constraint {idx}: {len(con.coeffs)} coefficients for "
                    f"{n} variables"
                )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpOutcome:
    status: SolveStatus
    point: Optional[tuple[Rational, ...]] = None
    value: Optional[Rational] = None
    # the final tableau when the region was feasible, so a later solve
    # over the same region can start from it; never part of a result
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)


def _eliminate(row: list[int], prow: list[int], col: int, nz: Sequence[int]) -> None:
    """Clear column col of row against the normalised pivot row prow,
    whose entry there equals its denominator (so its true entry there is
    1), values included, since each row ends in its value and then its
    denominator. nz lists the entries where prow is nonzero, the only
    ones the subtraction touches. row is written in place, scale and
    gcd divide included, so the list the caller holds is the updated row.

    With f = row[col], pden = prow[-1] and q = gcd(f, pden), the new row
    is row * (pden / q) - (f / q) * prow, its denominator scaled by pden
    / q: pden / q is the smallest multiplier that makes f * prow / pden
    whole, and none is needed when pden divides f. Scaling and dividing
    by the gcd touch only the row's nonzero entries, its denominator
    among them, since a zero stays zero. Any multiplier gives the same
    ints in the end: a row in lowest terms over a positive denominator is
    the only such form of its values."""
    f, pden = row[col], prow[-1]
    if pden > 1:
        q = gcd(f, pden)
        f //= q
        s = pden // q
        if s > 1:
            for j in compress(range(len(row)), row):
                row[j] *= s
    for j in nz:
        row[j] -= f * prow[j]
    _lowest(row)


def _lowest(row: list[int]) -> None:
    """Bring row to lowest terms in place: divide its nonzero entries,
    its positive denominator last among them, by their gcd, which is 1
    over a denominator of 1."""
    if row[-1] > 1:
        g = gcd(*row)
        if g > 1:
            for j in compress(range(len(row)), row):
                row[j] //= g


def _negate(row: list[int]) -> None:
    """Negate row's entries and value in place, its denominator left
    alone: the row of the negated values."""
    for j in _nonzero(row):
        row[j] = -row[j]


def _nonzero(row: list[int]) -> list[int]:
    """The entries where row is nonzero, its value included and its
    denominator not, the only ones its eliminations touch."""
    return list(compress(range(len(row) - 1), row))


class _Tableau:
    """Bounded-variable simplex state.

    Column layout: structural variables (shifted to lower bound 0), then
    one slack column per row, in row order; ``ncols`` counts them, and
    every basic variable is one of them. A new tableau has no constraint
    rows, only a zero cost row; ``append_rows`` adds every constraint
    row, with its slack. ``state[j]`` is the one fact the pivot rule
    needs about column j: ``1`` when it sits at its lower bound 0 and
    may rise, ``-1`` when it sits at its upper bound and may fall, ``0``
    when it never enters (basic, or fixed with zero span, as an equality
    row's slack is).

    Structural column j counts in steps of ``1 / unit[j]``, where
    ``unit[j]`` is its span's denominator (1 with no upper bound), so
    its span ``ub[j]`` is an int and its entries and cost enter divided
    by ``unit[j]``; every slack has unit 1, and no span but an equality
    row's, which is 0.

    Row i of the tableau is one list, the textbook ``[A | b]`` row over
    its denominator, ``[A | b | d]`` (fraction-free rows, the first step
    toward the exact kernel of QSopt_ex): ``ncols + 1`` integer
    numerators, its entry in column j at ``A[i][j]`` and then, at
    ``A[i][-2]``, the value of its basic variable j in j's units, a
    right-hand side that rides every elimination as in the
    integer-preserving tableaux of Edmonds and of Azulay and Pique, and
    last, at ``A[i][-1]``, their one positive integer denominator
    (``A[i][-2] / (A[i][-1] * unit[j])`` above its lower bound when j is
    structural). An elimination updates the value as one more entry and
    the denominator as one more nonzero entry, and leaves the row in
    lowest terms, the only form of its values over a positive
    denominator. Bland's rule reads only the signs of entries and exact
    comparisons of step ratios. A positive row scale changes neither,
    and a positive column scale multiplies each of that column's ratios,
    its own span included, by one constant, so the pivots are the ones a
    Fraction-per-entry tableau would make, in the same order. A basic
    column's entry equals its row's denominator.

    Rows ``0 .. m - 1``, ``m == len(basis)``, are the constraint rows,
    row i the one of basic column ``basis[i]``: the rows of ``program``,
    the program of the last solve over the tableau. Row m, the last, is
    the cost row, as the textbook tableau keeps its objective row
    (Dantzig 1963), and the pivot rules read it as ``A[-1]``: it prices
    ``program``'s objective and sense at the current basis, and is zero
    in every basic column, since each basis change eliminates the
    entering column from every row. Its value ``A[m][-2]`` over
    ``A[m][-1]`` is -(sign * costs) . x at the current point, where an
    optimum reads its value: the row is the one of a free basic column z
    with z + (sign * costs) . x = 0, so each elimination and bound flip
    moves it exactly as it moves a constraint row. Only one row prices
    given costs and is 0 in every basic column, and lowest terms over
    the row, value included, and its denominator fix its ints, so the
    row does not depend on the path to the basis: it is the row a fresh
    ``price`` at that basis and point gives.

    Rows are stored densely, one int per column, then the value and the
    denominator. A basis change lists the pivot row's nonzero entries
    once, and every elimination of that pivot subtracts only at those
    entries of its row. A row changes only through an elimination or a
    bound flip's value shift, and no row is scaled outside an
    elimination. Every write is in place, so no basis change or bound
    flip replaces a row of the store. A tableau owns every list it
    holds: each row of ``A``, and ``basis``, ``state`` and ``ub``, so
    ``copy`` copies each of them once. What it shares with a copy, the
    tuples ``unit``, ``lifted`` and ``lower`` and the frozen ``program``,
    is never written.
    """

    def __init__(self, lp: LinearProgram, at_upper: Iterable[int]):
        """The tableau of lp's bounds alone, with no constraint row and a
        zero cost row, at the corner the caller names: each column listed
        in at_upper at its upper bound, free to fall, and every other
        structural column at its lower bound, free to rise; a column of
        zero span never moves, at either bound.

        ``lower`` holds each lower bound as a Fraction, int bounds
        included, for ``point``: every zero bound is one shared
        Fraction(0), and only the nonzero ones, listed in ``lifted``,
        are converted, so a relaxation's n(n - 1) zero bounds make no
        Fraction."""
        n = lp.num_vars
        lo, hi = lp.lower_bounds, lp.upper_bounds
        self.n = self.ncols = n
        spans = [
            None if h is None else (h - l).as_integer_ratio() for l, h in zip(lo, hi)
        ]
        self.unit = tuple(1 if s is None else s[1] for s in spans)
        # only a span that is not an int makes _reduced divide by units
        self.whole_spans = all(u == 1 for u in self.unit)
        # the nonzero lower bounds, which _reduced folds into a rhs
        self.lifted = tuple((j, l) for j, l in enumerate(lo) if l)
        lower = [_ZERO] * n
        for j, l in self.lifted:
            lower[j] = Fraction(l)
        self.lower = tuple(lower)
        self.A: list[list[int]] = [[0] * (n + 1) + [1]]
        self.basis: list[int] = []
        # the program whose rows the tableau holds and whose objective
        # its cost row prices, once a solve has priced one
        self.program: Optional[LinearProgram] = None
        self.ub: list[Optional[int]] = [None if s is None else s[0] for s in spans]
        # fixed (zero-span) columns stay out of the scan: they can never
        # change value
        self.state = [0 if u == 0 else 1 for u in self.ub]
        for j in at_upper:
            if self.ub[j]:
                self.state[j] = -1

    @property
    def m(self) -> int:
        return len(self.basis)

    def copy(self) -> _Tableau:
        """A tableau that owns a copy of each of this one's lists, every
        row included, so pivoting it never changes this one: a warm
        start's one copy of its start."""
        out = copy(self)
        out.A = [list(row) for row in self.A]
        out.basis, out.state, out.ub = list(self.basis), list(self.state), list(self.ub)
        return out

    def append_rows(self, lp: LinearProgram) -> None:
        """Extend a tableau over a prefix of lp's rows to all of lp's
        rows: every row of every solve enters here, a cold solve's into
        the tableau of the bounds.

        Each new row gets one slack column, basic in it, has every basic
        column eliminated from it and goes in before the cost row; slack
        columns go in before every row's value and denominator, which
        stay last. The cost row costs 0 in the new columns: each new
        row's basic variable is one of them, so the old reduced costs and
        value stand at the new basis and the row still prices its
        objective, int for int in lowest terms. Each new row's int value b - a.x at the current
        point x comes from its own reduction against the basis
        (``_reduced``), as every row value does, so appending makes no
        Fraction point.

        A slack is basic at b - a.x for a <= or = row and a.x - b for a
        >= row, which is negated for it: a value out of the slack's
        bounds is a bound the slack breaks, for ``dual`` to repair. An
        inequality row's slack has no upper bound; an equality row's has
        span 0, so ``dual`` takes it to 0, and once it leaves the basis
        it keeps state 0 and never enters.

        Existing rows, ``state`` and ``ub`` are extended in place, since
        the tableau owns them."""
        rows = lp.constraints[self.m:]
        reduced = [self._reduced(con.coeffs, con.rhs) for con in rows]
        pad = [0] * len(rows)
        # the slack columns go in before each row's value
        ncols = self.ncols
        for row in self.A:
            row[ncols:ncols] = pad
        cost = self.A.pop()
        # every new slack is basic; an equality row's has span 0
        self.state += pad
        self.ub += [0 if con.relation == EQUAL else None for con in rows]
        self.ncols = ncols + len(rows)
        for slack, (con, row) in enumerate(zip(rows, reduced), ncols):
            row[ncols:ncols] = pad
            if con.relation == GREATER_EQ:
                _negate(row)
            row[slack] = row[-1]
            self.A.append(row)
            self.basis.append(slack)
        self.A.append(cost)

    def _reduced(self, values: Sequence[Rational], rhs: Rational = 0) -> list[int]:
        """values, each structural entry divided by its column's unit
        and padded with zeros to every column, then its value rhs -
        values.x at the current point x, as one int row ending in its
        denominator, with every basic column eliminated from it, in
        lowest terms.

        Nonzero lower bounds are folded into rhs before scaling, a column
        at its upper bound takes off its int entry times its int span
        (only the row's nonzero structural entries are looked at, a few
        of a relaxation row's n(n - 1)), and each elimination takes off a
        basic column's part with its row's value, as it does for any row
        in a basis change."""
        if self.lifted:
            rhs -= sum(values[j] * l for j, l in self.lifted)
        if not self.whole_spans:
            values = [Fraction(c, u) for c, u in zip(values, self.unit)]
        row, den = scale_to_ints([*values, rhs])
        ub, ncols = self.ub, self.ncols
        row[-1:-1] = [0] * (ncols + 1 - len(row))
        row.append(den)
        for j in compress(range(self.n), row):
            if self.state[j] < 0:
                row[-2] -= row[j] * ub[j]
        # basis is shorter than the row store, so zip stops before the
        # cost row
        for b, prow in zip(self.basis, self.A):
            if row[b]:
                _eliminate(row, prow, b, _nonzero(prow))
        return row

    def price(self, cost: Sequence[Rational], sign: int = 1) -> list[int]:
        """The cost row for maximizing sign * cost . x at the current
        basis, ending in its value, -(sign * cost) . x at the current
        point, and its denominator; a column past the end of cost has
        cost 0. A sign of -1 negates the row, which is what pricing the
        negated costs gives, since every elimination is linear in the
        row and a gcd has no sign. solve_lp calls it for an objective the
        tableau does not price yet, never again for the one it prices."""
        row = self._reduced(cost)
        if sign < 0:
            _negate(row)
        return row

    def _flip(self, enter: int, direction: int) -> None:
        """enter crosses its whole span, the int ub[enter] in its own
        units, the basis unchanged: each row's value numerator, next to
        its denominator at the end, falls by direction * ub[enter] times
        its entry in column enter, the cost rows' included, and no column
        entry or denominator changes. enter then sits at its other bound, free to
        move back: its state becomes -direction."""
        u = direction * self.ub[enter]
        for row in self.A:
            if row[enter]:
                row[-2] -= u * row[enter]
        self.state[enter] = -direction

    def _replace(self, p: int, enter: int, leave_state: int) -> None:
        """Make enter basic in row p; the leaving column takes
        leave_state, or 0 when it is fixed (an equality row's slack among
        them), so a fixed column never enters again.

        The step is row p's value, less the leaving column's int span
        when it stops there, in units of row p's entry in column enter:
        the normalised row's own value. The elimination moves every
        other row's value by it, and row p keeps it, plus enter's int
        span when enter leaves its upper bound, as enter's value; each
        span is added as a multiple of the pivot row's denominator."""
        leave = self.basis[p]
        prow = self.A[p]
        # the value shift comes first, since it may make the value
        # nonzero or zero
        if leave_state < 0:
            prow[-2] -= self.ub[leave] * prow[-1]
        nz = _nonzero(prow)
        from_upper = self.state[enter] < 0
        self.state[leave] = 0 if self.ub[leave] == 0 else leave_state
        self.state[enter] = 0
        self.basis[p] = enter
        # row p is normalised in place, over its entry in column enter,
        # made positive, in lowest terms: neither the sign nor a common
        # factor changes an entry to zero, so nz stands
        if prow[enter] < 0:
            _negate(prow)
        prow[-1] = prow[enter]
        _lowest(prow)
        for i, row in enumerate(self.A):
            if i != p and row[enter]:
                _eliminate(row, prow, enter, nz)
        if from_upper:
            prow[-2] += self.ub[enter] * prow[-1]

    def _pivot_budget(self) -> Iterator[None]:
        """One step per pivot or bound flip of a ``run`` or ``dual``, at
        most PIVOT_BUDGET + PIVOT_BUDGET_PER_LINE * (rows + columns) of
        them, then BudgetExceededError. Bland's rule never repeats a
        basis, but the bases it may visit grow exponentially with the
        program, so the cap is a work budget, not a cycle guard."""
        cap = PIVOT_BUDGET + PIVOT_BUDGET_PER_LINE * (self.m + self.ncols)
        yield from repeat(None, cap)
        raise BudgetExceededError(
            f"a simplex run took more than its budget of {cap} pivots over "
            f"{self.m} rows and {self.ncols} columns"
        )

    def run(self) -> SolveStatus:
        """Maximize the objective the last row prices. Bland's rule:
        smallest eligible entering index; ratio ties broken by smallest
        leaving-variable index (the entering variable's own bound counts
        as a candidate). Returns SolveStatus.OPTIMAL or
        SolveStatus.UNBOUNDED. It starts where ``dual`` leaves a feasible
        region: every basic value in its bounds, each zero-span slack
        still basic at 0."""
        state, ub, basis = self.state, self.ub, self.basis
        for _ in self._pivot_budget():
            # the last row is the cost row the rule reads; its denominator
            # is positive, so r[j] has the sign of the reduced cost, and a
            # column improves the objective when it may move that way
            r = self.A[-1]
            for enter, direction in enumerate(state):
                if direction * r[enter] > 0:
                    break
            else:
                return SolveStatus.OPTIMAL

            # ratio test over the constraint rows' unreduced int
            # numerator/denominator pairs; the entering variable's own int
            # span competes as candidate row -1. Entry (i, enter) is a /
            # row[-1] and row i's value row[-2] / row[-1], so the
            # denominator cancels. With s = a * direction, s > 0 drives the
            # value down, to zero after the step row[-2] / s; s < 0 drives
            # it up, to its int cap after (cap * row[-1] - row[-2]) / -s
            # (a zero-span slack's cap is 0), and an uncapped column sets
            # no limit.
            best_num, best_den = ub[enter], 1
            best_var = enter
            best_row = -1
            for i, row in enumerate(self.A[:len(basis)]):
                s = row[enter] * direction
                if s > 0:
                    tn, td = row[-2], s
                elif s < 0 and ub[basis[i]] is not None:
                    tn, td = ub[basis[i]] * row[-1] - row[-2], -s
                else:
                    continue
                if best_num is not None:
                    lhs = tn * best_den
                    rhs = best_num * td
                    if lhs > rhs or (lhs == rhs and basis[i] > best_var):
                        continue
                best_num, best_den = tn, td
                best_var = basis[i]
                best_row = i
            if best_num is None:
                return SolveStatus.UNBOUNDED
            if best_row < 0:
                # bound flip: enter crosses its whole span, basis unchanged
                self._flip(enter, direction)
                continue
            # the winning row's sign says which bound its column stops at
            rose = self.A[best_row][enter] * direction < 0
            self._replace(best_row, enter, -1 if rose else 1)

    def dual(self) -> SolveStatus:
        """Dual simplex (Lemke 1954) to a basis whose values all lie in
        their bounds, each between 0 and its int span, which is 0 for an
        equality row's slack. Bland's rule for the dual (Bland 1977): the
        leaving row is the one of the smallest basic index out of its
        bounds, and it stops at the bound it broke; the entering column
        is one whose move takes that value back, of the smallest
        |r[j]| / |row[p][j]| over the cost row r, ties to the smallest
        index. A cost row that no column improves, as at an optimal start
        and for nonnegative costs minimized at the lower corner, stays so
        at every pivot, so the dual ends at an optimum that leaves the
        primal nothing to do; otherwise r is a zero row, every ratio
        ties, and the smallest index enters, a pure feasibility method
        (Koberstein 2005, on the dual's phase 1) that the primal goes on
        from. Returns SolveStatus.INFEASIBLE when no column can move the
        leaving value back, which row p proves, and SolveStatus.OPTIMAL
        otherwise."""
        state, ub, basis, ncols = self.state, self.ub, self.basis, self.ncols
        r = self.A[-1]
        if any(d * r[j] > 0 for j, d in enumerate(state)):
            r = [0] * ncols
        for _ in self._pivot_budget():
            # the smallest basic index whose value is out of bounds, and
            # fall, the sign of the move its value needs: -1 to rise to
            # 0, 1 to fall to its cap
            p = leave = fall = None
            for i, (b, row) in enumerate(zip(basis, self.A)):
                if leave is not None and b > leave:
                    continue
                if row[-2] < 0:
                    p, leave, fall = i, b, -1
                elif ub[b] is not None and row[-2] > ub[b] * row[-1]:
                    p, leave, fall = i, b, 1
            if p is None:
                return SolveStatus.OPTIMAL
            # moving column j by direction d lowers row p's value by
            # row[p][j] * d, so it takes the value back when that has the
            # sign fall does; the ratios compare cross-multiplied, since
            # each side's denominator is its row's
            prow = self.A[p]
            best = best_r = best_a = None
            for j in compress(range(ncols), prow):
                if state[j] * prow[j] * fall > 0:
                    rj, aj = abs(r[j]), abs(prow[j])
                    if best is None or rj * best_a < best_r * aj:
                        best, best_r, best_a = j, rj, aj
            if best is None:
                return SolveStatus.INFEASIBLE
            # the leaving column stops at the bound it broke, free to
            # move back unless its span is 0
            self._replace(p, best, -fall)

    def point(self) -> list[Fraction]:
        """The structural point: each column at its lower bound, plus its
        span when it sits at its upper bound, plus its row's value when
        it is basic and that value is nonzero; spans and values are
        divided by their columns' units on the way out. Over a zero
        lower bound the span or value is the entry itself, so only a
        nonzero lower bound costs a Fraction addition."""
        x, unit, ub, n = list(self.lower), self.unit, self.ub, self.n
        for j, s in enumerate(self.state[:n]):
            if s < 0:
                span = Fraction(ub[j], unit[j])
                x[j] = x[j] + span if x[j] else span
        for b, row in zip(self.basis, self.A):
            if b < n and row[-2]:
                step = Fraction(row[-2], row[-1] * unit[b])
                x[b] = x[b] + step if x[b] else step
        return x


def solve_lp(
    lp: LinearProgram,
    start: Optional[LpOutcome] = None,
    *,
    at_upper: Iterable[int] = (),
) -> LpOutcome:
    """Exact simplex. The returned claims hold exactly: optimal points
    satisfy every constraint and no feasible point does strictly better;
    infeasible and unbounded are proven statuses.

    A cold solve starts from the tableau of lp's bounds alone, at the
    corner of the bound box the caller names: each column index listed
    in ``at_upper`` starts at its upper bound and every other column at
    its lower bound, so the default is the lower corner. Any corner
    gives the same status and value; at a feasible one, such as a cycle
    cover of a degree LP, no row is broken and the dual simplex makes no
    basis change. A listed column with no upper bound, and at_upper
    beside ``start`` (a warm start keeps its own point), raise
    ValidationError before any pivot.

    ``start`` is an earlier outcome whose program had lp's lower and
    upper bounds and lp's rows, or a prefix of them; only the objective
    or sense may differ otherwise. The solve copies start's final
    tableau (start itself is not changed). A start over another region,
    or one without a tableau (an infeasible outcome), raises
    ValidationError. Over the same rows and bounds the primal starts
    from a basis already optimal or close (the hull scan maximizes many
    objectives over one truncated model this way). Over more rows,
    appended after the start's, a start that was optimal for lp's
    objective keeps its cost row dual feasible, so the dual simplex ends
    at an optimum (the cutting-plane loop re-solves each round this way
    after adding its cut; Concorde re-solves its cutting-plane LPs so
    too).

    Either way the solve then takes one path: it prices lp's objective
    unless the cost row prices it already, so a start priced for lp's
    objective and sense keeps its cost row; it appends lp's rows past
    those the tableau holds, if any (``_Tableau.append_rows``), runs the
    dual simplex (``_Tableau.dual``), which takes every basic value into
    its bounds or returns INFEASIBLE; and it runs the primal simplex
    (``_Tableau.run``). Every tableau it pivots is exact, so a warm
    status is proven just as a cold one is; only a program with several
    optimal points may end at a different one of them.

    The optimal value is read off the cost row's value, which is
    -(sign * c) . x at the final point, rather than summed over the
    point; the point itself is made once, for the outcome."""
    at_upper = tuple(at_upper)
    # the lower corner, which every solve but a tour relaxation's cold
    # one starts at, checks nothing: a hull-scan pass makes about 800 solves
    if at_upper:
        if start is not None:
            raise ValidationError(
                "at_upper names a cold start's corner; a warm start keeps its own point"
            )
        require_indices(at_upper, lp.num_vars, "column")
        uncapped = [j for j in at_upper if lp.upper_bounds[j] is None]
        if uncapped:
            raise ValidationError(f"at_upper column {uncapped[0]} has no upper bound")
    if start is not None:
        if start.tableau is None:
            raise ValidationError(
                f"start has no tableau to start from (status {start.status.value})"
            )
        held = start.tableau.program
        if (
            (held.lower_bounds, held.upper_bounds) != (lp.lower_bounds, lp.upper_bounds)
            or held.constraints != lp.constraints[:len(held.constraints)]
        ):
            raise ValidationError("start was solved over a different region")
        tab = start.tableau.copy()
    else:
        for j in range(lp.num_vars):
            ub = lp.upper_bounds[j]
            if ub is not None and ub < lp.lower_bounds[j]:
                return LpOutcome(SolveStatus.INFEASIBLE)
        tab = _Tableau(lp, at_upper)
    # a cost row priced for this objective stands through appended rows,
    # so a cut-loop round prices nothing; a cold solve prices here, at its
    # corner, before any row enters
    sign = 1 if lp.sense == MAXIMIZE else -1
    held, tab.program = tab.program, lp
    if held is None or (held.objective, held.sense) != (lp.objective, lp.sense):
        tab.A[-1] = tab.price(lp.objective, sign)
    if tab.m < len(lp.constraints):
        tab.append_rows(lp)
        if tab.dual() is SolveStatus.INFEASIBLE:
            return LpOutcome(SolveStatus.INFEASIBLE)

    if tab.run() is SolveStatus.UNBOUNDED:
        return LpOutcome(SolveStatus.UNBOUNDED, tableau=tab)

    value = Fraction(-sign * tab.A[-1][-2], tab.A[-1][-1])
    return LpOutcome(SolveStatus.OPTIMAL, tuple(tab.point()), value, tab)
