"""Linear programs over exact rationals and a two-phase simplex solver.

Programs are stated in inequality form: an objective to maximize or
minimize, rows with <= / >= / = relations, and per-variable bounds
(lower defaults to 0, upper is optional). The solver is a tableau
simplex whose rows are stored densely, while a pivot updates only the
columns where the pivot row is nonzero. It handles variable bounds
natively (bounded variables never become extra rows) and uses Bland's
smallest-index rule throughout, so it terminates on every input. Each
column carries one signed state, the direction it may move if it enters
(up from its lower bound, down from its upper bound, or never), and
artificials are the columns from ``first_art`` on. All pivots are
exact: each tableau row is a list of Python ints over one positive int
denominator (fraction-free rows, the first step toward the exact kernel
of QSopt_ex), and the row's basic value is one more int numerator over
the same denominator, a right-hand side that rides every elimination
as in the integer-preserving tableaux of Edmonds and of Azulay and
Pique. Fractions appear only where a value leaves the kernel. A
returned status is a certainty, not a numerical verdict. Bland's rule
sees only signs and exact ratio comparisons, which no positive row
scale changes, so the int rows pivot exactly as a Fraction-per-entry
tableau does.

A row and a program check their own shape, and that every entry is an
exact rational, when they are made, whether by ``constraint``,
``linear_program``, ``with_constraints`` or ``dataclasses.replace``, so
no solve checks them again; a row checks only its own entries, and a
program's variables are the entries of its objective.

Rows enter a tableau one way only, appended at its current point x: a
row's slack starts basic when the row, oriented so that b - a.x >= 0,
reads <=, and one artificial at |b - a.x| otherwise. A cold solve
appends every row to the row-less tableau of the bounds, whose point is
the lower corner; phase 1 runs whenever an artificial is basic.

An outcome over a feasible region keeps its final tableau, and
``solve_lp(lp, start=outcome)`` starts from a copy of it. Over the same
rows and bounds, phase 1 is skipped and phase 2 starts from a basis
already optimal or close (the hull scan maximizes many objectives over
one truncated model this way). When lp has more rows, appended after
the start's, the copy drops its artificial columns and gains the new
rows at the start's point, in terms of its basis, and the same phase 1
and phase 2 run from there (the cutting-plane loop re-solves each round
this way after adding its cut). Either tableau is exact, so a warm
status is as much a proof as a cold one.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .rationals import Rational, require_exact

LESS_EQ = "<="
GREATER_EQ = ">="
EQUAL = "="
_RELATIONS = (LESS_EQ, GREATER_EQ, EQUAL)

MAXIMIZE = "max"
MINIMIZE = "min"


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: str
    rhs: Rational

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ValidationError(f"unknown relation {self.relation!r}")
        require_exact(self.coeffs, "row entries")
        require_exact((self.rhs,), "row entries")


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    """Build a constraint row, coercing ints/strings to exact rationals."""
    return Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    constraints: tuple[Constraint, ...]
    objective: tuple[Rational, ...]
    sense: str
    lower_bounds: tuple[Rational, ...]
    upper_bounds: tuple[Optional[Rational], ...]

    def __post_init__(self):
        n = self.num_vars
        if n < 1:
            raise ValidationError("a program needs at least one variable")
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValidationError(f"unknown sense {self.sense!r}")
        if len(self.lower_bounds) != n or len(self.upper_bounds) != n:
            raise ValidationError("bound vectors must have one entry per variable")
        require_exact(self.objective, "objective entries")
        require_exact(self.lower_bounds, "lower bounds")
        require_exact([b for b in self.upper_bounds if b is not None], "upper bounds")
        for idx, con in enumerate(self.constraints):
            if len(con.coeffs) != n:
                raise ValidationError(
                    f"constraint {idx}: {len(con.coeffs)} coefficients for "
                    f"{n} variables"
                )

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def linear_program(
    objective: Iterable,
    sense: str,
    constraints: Iterable = (),
    *,
    lower_bounds: Optional[Iterable] = None,
    upper_bounds: Optional[Iterable] = None,
) -> LinearProgram:
    """Assemble a program from plain values; num_vars is len(objective)."""
    obj = tuple(Fraction(c) for c in objective)
    n = len(obj)
    rows = tuple(
        c if isinstance(c, Constraint) else constraint(*c) for c in constraints
    )
    lo = (
        tuple(Fraction(0) for _ in range(n))
        if lower_bounds is None
        else tuple(Fraction(b) for b in lower_bounds)
    )
    hi = (
        tuple(None for _ in range(n))
        if upper_bounds is None
        else tuple(None if b is None else Fraction(b) for b in upper_bounds)
    )
    return LinearProgram(rows, obj, sense, lo, hi)


def with_constraints(lp: LinearProgram, extra: Iterable[Constraint]) -> LinearProgram:
    return replace(lp, constraints=lp.constraints + tuple(extra))


@dataclass(frozen=True)
class LpOutcome:
    status: SolveStatus
    point: Optional[tuple[Rational, ...]] = None
    value: Optional[Rational] = None
    # the final tableau when the region was feasible, so a later solve
    # over the same region can start from it; never part of a result
    tableau: Optional[_Tableau] = field(default=None, compare=False, repr=False)


def _eliminate(
    row: list[int], den: int, val: int, prow: list[int], pden: int, pval: int,
    col: int, nz: Sequence[int],
) -> tuple[list[int], int, int]:
    """Clear column col of row/den, whose value is val/den, against the
    normalised pivot row prow/pden with value pval/pden (prow[col] ==
    pden, so its true entry there is 1); returns the new row,
    denominator and value in lowest terms. nz lists the columns where
    prow is nonzero, the only ones the update touches. The result is a
    new list: row itself is never changed, since tableau copies share
    their rows."""
    f = row[col]
    out = list(row) if pden == 1 else [x * pden for x in row]
    for j in nz:
        out[j] -= f * prow[j]
    val = val * pden - f * pval
    den *= pden
    if den > 1:
        g = gcd(den, val, *out)
        if g > 1:
            den //= g
            val //= g
            out = [x // g for x in out]
    return out, den, val


def _scaled(row: list[int], den: int, val: int, k: int) -> tuple[list[int], int, int]:
    """row/den with value val/den, rewritten over the denominator k * den."""
    return [x * k for x in row], den * k, val * k


def _cover(
    row: list[int], den: int, val: int, q: Rational
) -> tuple[list[int], int, int, int]:
    """row/den with value val/den, scaled only when den does not cover
    q's denominator, and q as an int over the denominator returned."""
    k = q.denominator // gcd(q.denominator, den)
    if k > 1:
        row, den, val = _scaled(row, den, val, k)
    return row, den, val, q.numerator * (den // q.denominator)


def _nonzero(row: list[int]) -> list[int]:
    """The columns where row is nonzero, the only ones its eliminations
    touch."""
    return list(compress(range(len(row)), row))


def _int_row(values: Sequence[Rational]) -> tuple[list[int], int]:
    """values as int numerators over one positive denominator, in lowest
    terms: the lcm of reduced denominators leaves the numerators coprime
    to it."""
    den = lcm(*(a.denominator for a in values))
    return [a.numerator * (den // a.denominator) for a in values], den


class _Tableau:
    """Bounded-variable simplex state.

    Column layout: structural variables (shifted to lower bound 0), then
    one slack/surplus column per inequality row, then artificials from
    column ``first_art`` on. A new tableau has no rows; ``append_rows``
    adds every row, with its slack and any artificial. ``state[j]`` is
    the one fact the pivot rule needs about column j: ``1`` when it sits
    at its lower bound 0 and may rise, ``-1`` when it sits at its upper
    bound and may fall, ``0`` when it never enters (basic, artificial,
    or fixed with zero span).

    Row i of the tableau is ``A[i][j] / d[i]``: integer numerators over
    one positive integer denominator, and the value of its basic
    variable is the int ``v[i]`` over the same ``d[i]``. An elimination
    leaves row and value in lowest terms together; the reduced-cost row
    is ``r[j] / rd`` the same way. Bland's rule reads only the signs of
    entries and exact comparisons of step ratios, and scaling a row by
    a positive number changes neither, so the pivots are the ones a
    Fraction-per-entry tableau would make, in the same order. A basic
    column's entry equals its row's denominator.

    Nonbasic columns sit at a bound, so a basis change moves the values
    through the elimination itself: the pivot row's value, less the
    leaving column's upper bound when it stops there, over its entry in
    the entering column is the signed step. Only a bound flip writes
    values outside an elimination, and the pivot row takes the entering
    value. A row is scaled by an int only when a span or value has a
    denominator that its own does not cover.

    Rows are stored densely, one int per column. A basis change lists
    the pivot row's nonzero columns once, and every elimination of that
    pivot updates only those columns of a copy of its row. Rows are
    never written in place, only replaced by new lists, so a copy shares
    them and owns only the lists that index them.
    """

    def __init__(self, lp: LinearProgram):
        """The row-less tableau of lp's bounds: every structural column
        at its lower bound, free to rise unless its span is zero."""
        n = lp.num_vars
        lo, hi = lp.lower_bounds, lp.upper_bounds
        self.n = self.first_art = self.ncols = n
        # everything but the objective: a start must match it exactly
        self.region = ((), lo, hi)
        self.A: list[list[int]] = []
        self.d: list[int] = []
        self.v: list[int] = []
        self.basis: list[int] = []
        self.r: list[int] = [0] * n
        self.rd = 1
        self.ub: list[Optional[Fraction]] = [
            None if hi[j] is None else hi[j] - lo[j] for j in range(n)
        ]
        # fixed (zero-span) columns stay out of the scan: they can never
        # change value
        self.state = [0 if u == 0 else 1 for u in self.ub]

    @property
    def m(self) -> int:
        return len(self.A)

    def copy(self) -> _Tableau:
        out = copy(self)
        out.A, out.d, out.v = list(self.A), list(self.d), list(self.v)
        out.basis, out.state = list(self.basis), list(self.state)
        return out

    def append_rows(self, lp: LinearProgram) -> None:
        """Extend a tableau over a prefix of lp's rows, whose basis holds
        no artificial column, to all of lp's rows: every row of every
        solve enters here, a cold solve's into the row-less tableau.

        The artificial columns are dropped, each new row gets a slack
        column (an equality gets none) and has every basic column
        eliminated from it. At the current point x the row is oriented
        so that its right-hand side b - a.x is nonnegative (negated when
        b - a.x < 0). If it then reads <=, its slack starts basic;
        otherwise one artificial column starts basic at |b - a.x|, for
        phase 1 to drive to zero. So a <= row needs b - a.x >= 0 and a
        >= row b - a.x < 0 for a basic slack, and an equality row or a
        >= row tight at x takes an artificial. Existing rows are
        replaced by longer copies, never written in place."""
        rows = lp.constraints[len(self.region[0]):]
        self.region = (lp.constraints, lp.lower_bounds, lp.upper_bounds)
        fa = self.first_art
        x = [l + z for l, z in zip(lp.lower_bounds, self.solution())]
        # b - a.x for each row, read from x's nonzero entries only (at a
        # cold solve's lower corner often none), and whether it is negative
        xnz = [(j, xj) for j, xj in enumerate(x) if xj]
        res = [
            con.rhs - sum(con.coeffs[j] * xj for j, xj in xnz) if xnz else con.rhs
            for con in rows
        ]
        negative = [r < 0 for r in res]
        slack_basic = [
            con.relation == (GREATER_EQ if neg else LESS_EQ)
            for con, neg in zip(rows, negative)
        ]
        ncols = fa + sum(con.relation != EQUAL for con in rows)
        width = ncols + slack_basic.count(False)
        A = [row[:fa] + [0] * (width - fa) for row in self.A]
        old = list(zip(self.basis, A, self.d))
        self.state = self.state[:fa] + [1] * (ncols - fa) + [0] * (width - ncols)
        self.ub = self.ub[:fa] + [None] * (width - fa)
        slack, art = fa, ncols
        for con, r, flip, sb in zip(rows, res, negative, slack_basic):
            row, den = _int_row(con.coeffs)
            row += [0] * (width - self.n)
            for b, prow, pden in old:
                if row[b]:
                    nz = _nonzero(prow)
                    row, den, _ = _eliminate(row, den, 0, prow, pden, 0, b, nz)
            # the value r is read at x, not eliminated
            row, den, _, value = _cover(row, den, 0, r)
            if con.relation != EQUAL:
                row[slack] = den if con.relation == LESS_EQ else -den
                slack += 1
            if sb:
                basic = slack - 1
            else:
                basic = art
                art += 1
                row[basic] = -den if flip else den
            A.append([-e for e in row] if flip else row)
            self.d.append(den)
            self.basis.append(basic)
            self.v.append(-value if flip else value)
            self.state[basic] = 0
        self.A = A
        self.first_art, self.ncols = ncols, width

    def price(self, cost: Sequence[Rational]) -> None:
        """Set the reduced-cost row for maximizing cost . x: eliminate
        every basic column from the cost row."""
        r, rd = _int_row(cost)
        for i, b in enumerate(self.basis):
            if r[b]:
                prow = self.A[i]
                nz = _nonzero(prow)
                r, rd, _ = _eliminate(r, rd, 0, prow, self.d[i], 0, b, nz)
        self.r, self.rd = r, rd

    def _flip(self, enter: int, direction: int) -> None:
        """enter crosses its whole span u, the basis unchanged: each
        row's value falls by direction * u times its entry in column
        enter. A row whose entry there is not a multiple of u's
        denominator is scaled first."""
        u = self.ub[enter]
        un = u.numerator if direction > 0 else -u.numerator
        ud = u.denominator
        A, d, v = self.A, self.d, self.v
        for i, row in enumerate(A):
            a = row[enter]
            if a:
                if ud > 1:
                    k = ud // gcd(ud, a)
                    if k > 1:
                        A[i], d[i], v[i] = _scaled(row, d[i], v[i], k)
                        a *= k
                    a //= ud
                v[i] -= un * a

    def _replace(self, p: int, enter: int, value: Fraction, leave_state: int) -> None:
        """Make enter basic in row p at value; the leaving column takes
        leave_state, or 0 when it is artificial or fixed.

        The elimination moves every other row's value by the step: row
        p's value, less the leaving column's upper bound when it stops
        there, is what the step takes from it, in units of row p's
        entry in column enter."""
        leave = self.basis[p]
        A, d, v = self.A, self.d, self.v
        prow, dp, pval = A[p], d[p], v[p]
        if leave_state < 0:
            prow, dp, pval, u = _cover(prow, dp, pval, self.ub[leave])
            pval -= u
        if leave >= self.first_art or self.ub[leave] == 0:
            leave_state = 0
        self.state[leave] = leave_state
        self.state[enter] = 0
        self.basis[p] = enter
        if prow[enter] < 0:
            prow = [-x for x in prow]
            pval = -pval
        # the gcd divides prow[enter], so a unit pivot entry needs none
        g = gcd(pval, *prow) if prow[enter] > 1 else 1
        if g > 1:
            prow = [x // g for x in prow]
            pval //= g
        dp = prow[enter]
        nz = _nonzero(prow)
        for i, row in enumerate(A):
            if i != p and row[enter]:
                A[i], d[i], v[i] = _eliminate(
                    row, d[i], v[i], prow, dp, pval, enter, nz
                )
        if self.r[enter]:
            self.r, self.rd, _ = _eliminate(self.r, self.rd, 0, prow, dp, 0, enter, nz)
        # row p itself holds the entering value
        A[p], d[p], _, v[p] = _cover(prow, dp, 0, value)

    def run(self) -> str:
        """Maximize the objective last set by price(). Bland's rule:
        smallest eligible entering index; ratio ties broken by smallest
        leaving-variable index (the entering variable's own bound counts
        as a candidate). Returns "optimal" or "unbounded"."""
        # Bland's rule terminates; the cap only turns a would-be hang on
        # a broken invariant into a loud failure
        pivots_left = 10_000 + 200 * (self.m + self.ncols)
        state, ub, basis, d, v = self.state, self.ub, self.basis, self.d, self.v
        while True:
            pivots_left -= 1
            if pivots_left < 0:  # pragma: no cover
                raise AssertionError("pivot budget blown: anti-cycling broken")
            # rd > 0, so r[j] has the sign of the reduced cost, and a
            # column improves the objective when it may move that way
            r = self.r
            for enter, direction in enumerate(state):
                if direction * r[enter] > 0:
                    break
            else:
                return "optimal"

            # ratio test over unreduced int numerator/denominator pairs;
            # the entering variable's own bound competes as candidate row
            # -1. Entry (i, enter) is a / d[i] and row i's value v[i] /
            # d[i], so d[i] cancels: the step that zeroes the value is
            # v[i] / |a|, and the one that lifts it to cap u is
            # (u * d[i] - v[i]) / |a|.
            own = ub[enter]
            if own is None:
                best_num, best_den = None, 1
            else:
                best_num, best_den = own.numerator, own.denominator
            best_var = enter
            best_row = -1
            best_hits_upper = False
            up = direction > 0
            for i, row in enumerate(self.A):
                a = row[enter]
                if a == 0:
                    continue
                if (a > 0) == up:  # step drives v[i] down
                    tn = v[i]
                    td = a if up else -a
                    hits_upper = False
                else:  # step drives v[i] up toward its cap
                    cap = ub[basis[i]]
                    if cap is None:
                        continue
                    tn = cap.numerator * d[i] - v[i] * cap.denominator
                    td = cap.denominator * (-a if up else a)
                    hits_upper = True
                if best_num is not None:
                    lhs = tn * best_den
                    rhs = best_num * td
                    if lhs > rhs or (lhs == rhs and basis[i] > best_var):
                        continue
                best_num, best_den = tn, td
                best_var = basis[i]
                best_row = i
                best_hits_upper = hits_upper
            if best_num is None:
                return "unbounded"
            if best_row < 0:
                # bound flip: enter crosses its whole span, basis unchanged
                self._flip(enter, direction)
                state[enter] = -direction
                continue
            step = Fraction(best_num, best_den)
            value = step if up else own - step
            self._replace(best_row, enter, value, -1 if best_hits_upper else 1)

    def drive_out_artificials(self) -> None:
        """Degenerate swaps at step 0 that take every artificial out of
        the basis; a row with no other nonzero column is redundant and
        is dropped."""
        p = 0
        while p < self.m:
            if self.basis[p] < self.first_art:
                p += 1
                continue
            # every other basic column is zero in row p
            row = self.A[p]
            enter = next((j for j in range(self.first_art) if row[j]), -1)
            if enter >= 0:
                value = self.ub[enter] if self.state[enter] < 0 else Fraction(0)
                self._replace(p, enter, value, 0)
                p += 1
            else:
                del self.A[p], self.d[p], self.v[p], self.basis[p]

    def solution(self) -> list[Fraction]:
        z = [
            self.ub[j] if self.state[j] < 0 else Fraction(0) for j in range(self.n)
        ]
        for i in range(self.m):
            if self.basis[i] < self.n:
                z[self.basis[i]] = Fraction(self.v[i], self.d[i])
        return z


def solve_lp(lp: LinearProgram, start: Optional[LpOutcome] = None) -> LpOutcome:
    """Exact two-phase simplex. The returned claims hold exactly:
    optimal points satisfy every constraint and no feasible point does
    strictly better; infeasible and unbounded are proven statuses.

    A cold solve appends all of lp's rows to the row-less tableau of
    lp's bounds, at their lower corner (``_Tableau.append_rows``).
    ``start`` is an earlier outcome whose program had lp's lower and
    upper bounds and lp's rows, or a prefix of them; only the objective
    or sense may differ otherwise. The solve copies start's final
    tableau (start itself is not changed) and appends lp's rows past the
    prefix, if any, the same way at start's point. Phase 1 runs only
    when a row entered with an artificial, so a start over the same rows
    skips it and runs phase 2 from its own basis. Every tableau it
    pivots is exact, so a warm status is proven
    just as a cold one is; only a program with several optimal points
    may end at a different one of them. A start over another region,
    or one without a tableau (an infeasible outcome), raises
    ValidationError."""
    if start is not None:
        if start.tableau is None:
            raise ValidationError(
                f"start has no tableau to start from (status {start.status.value})"
            )
        rows, lo, hi = start.tableau.region
        if (lo, hi) != (lp.lower_bounds, lp.upper_bounds) or (
            rows != lp.constraints[:len(rows)]
        ):
            raise ValidationError("start was solved over a different region")
        tab = start.tableau.copy()
    else:
        for j in range(lp.num_vars):
            ub = lp.upper_bounds[j]
            if ub is not None and ub < lp.lower_bounds[j]:
                return LpOutcome(SolveStatus.INFEASIBLE)
        tab = _Tableau(lp)
    if len(tab.region[0]) < len(lp.constraints):
        tab.append_rows(lp)
    # an artificial is basic for each appended row whose slack could not
    # start basic: an equality row, a <= row with b - a.x < 0, or a >=
    # row with b - a.x >= 0
    if max(tab.basis, default=-1) >= tab.first_art:
        tab.price([-1 if j >= tab.first_art else 0 for j in range(tab.ncols)])
        status = tab.run()
        if status != "optimal":  # pragma: no cover - phase 1 is bounded above by 0
            raise AssertionError("phase 1 cannot be unbounded")
        # artificials never go negative: any nonzero numerator left basic
        # is infeasibility
        if any(tab.v[i] for i in range(tab.m) if tab.basis[i] >= tab.first_art):
            return LpOutcome(SolveStatus.INFEASIBLE)
        tab.drive_out_artificials()

    sign = 1 if lp.sense == MAXIMIZE else -1
    tab.price([sign * c for c in lp.objective] + [0] * (tab.ncols - tab.n))
    status = tab.run()
    if status == "unbounded":
        return LpOutcome(SolveStatus.UNBOUNDED, tableau=tab)

    z = tab.solution()
    x = tuple(lp.lower_bounds[j] + z[j] for j in range(lp.num_vars))
    value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))
    return LpOutcome(SolveStatus.OPTIMAL, x, value, tab)
