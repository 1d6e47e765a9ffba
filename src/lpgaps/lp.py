"""Linear programs over exact rationals and an exact simplex solver.

Programs are stated in inequality form: an objective to maximize or
minimize, rows with <= / >= / = relations, and per-variable bounds:
every variable is at least 0, and at most its upper bound, a whole
number, or has no cap. The solver is a tableau simplex over exact int
rows (``_Tableau``). It handles variable bounds natively (bounded
variables never become extra rows) and uses Bland's smallest-index rule
throughout, in its primal and in its dual simplex (Bland 1977), so it
terminates on every input. Every row has one logical column, its slack,
and every basic variable is a column: an equality row's slack has span
0, so once it leaves the basis it never enters again, as an artificial
never comes back (Dantzig 1963); bounded dual simplex codes give each
row one such logical variable (Koberstein 2005; Maros 2003). Rows with
their right-hand sides, and costs, enter once, as ints over the lcm of
their nonzero entries' denominators (the ints
``rationals.scale_to_ints`` gives), and the point leaves once, as
Fractions: the pivot loop makes none. A returned status is a certainty,
not a numerical verdict.

A row and a program are made one way, by ``Constraint(...)`` and
``LinearProgram(...)``, ``dataclasses.replace`` included, and check
their own shape, and that every entry is an exact rational (an int or a
Fraction) and every upper bound a whole one, when they are made, so no
solve checks them again and a float, a string or a fractional bound is
refused where it enters; a row checks only its own entries. A program
grows by ``replace(lp, constraints=lp.constraints + rows)``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, ValidationError
from .rationals import Rational, require_exact, require_indices

LESS_EQ = "<="
GREATER_EQ = ">="
EQUAL = "="
_RELATIONS = (LESS_EQ, GREATER_EQ, EQUAL)

MAXIMIZE = "max"
MINIMIZE = "min"

_ZERO = Fraction(0)
_COEFFS = attrgetter("coeffs")

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
    tuple. Every variable is at least 0; upper_bounds, keyword-only,
    gives each one's cap, None for none (the default for every
    variable) or a whole number, an int or a Fraction of denominator 1.
    A field given as a tuple, as ``replace`` passes every field it does
    not change, is kept as it is, so a copy with a new objective
    converts nothing."""

    objective: tuple[Rational, ...]
    sense: str
    constraints: tuple[Constraint, ...] = ()
    _: KW_ONLY
    upper_bounds: Optional[tuple[Optional[Rational], ...]] = None

    def __post_init__(self):
        if type(self.objective) is not tuple:
            object.__setattr__(self, "objective", tuple(self.objective))
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))
        n, hi = self.num_vars, self.upper_bounds
        if type(hi) is not tuple:
            hi = (None,) * n if hi is None else tuple(hi)
            object.__setattr__(self, "upper_bounds", hi)
        if n < 1:
            raise ValidationError("a program needs at least one variable")
        if self.sense not in (MAXIMIZE, MINIMIZE):
            raise ValidationError(f"unknown sense {self.sense!r}")
        if len(hi) != n:
            raise ValidationError("upper bounds must have one entry per variable")
        require_exact(self.objective, "objective entries")
        caps = [b for b in hi if b is not None]
        require_exact(caps, "upper bounds")
        split = [b for b in caps if b.denominator != 1]
        if split:
            raise ValidationError(f"upper bounds must be whole numbers, not {split[0]}")
        # every row checked at C speed; only a failure walks the rows, to
        # name the first bad one
        if not ({Constraint}.issuperset(map(type, self.constraints))
                and {n}.issuperset(map(len, map(_COEFFS, self.constraints)))):
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


def _eliminate(rows: Iterable[list[int]], prow: list[int], col: int, nz: list[int]) -> None:
    """Clear column col of each of rows against the normalised pivot row
    prow, whose entry there equals its denominator (so its true entry
    there is 1), values included, since each row ends in its value and
    then its denominator: the one elimination kernel, called once per
    basis change with every row it changes and once per basic column a
    new row is reduced against. nz lists the entries where prow is
    nonzero, the only ones the subtraction touches. Each row is written
    in place, scale and gcd divide included, so the list the caller
    holds is the updated row.

    With f = row[col], pden = prow[-1] and q = gcd(f, pden), the new row
    is row * (pden / q) - (f / q) * prow, its denominator scaled by pden
    / q: pden / q is the smallest multiplier that makes f * prow / pden
    whole, and none is needed when pden divides f. The row then goes to
    lowest terms: its nonzero entries, its positive denominator last
    among them, are divided by their gcd, which is 1 over a denominator
    of 1. Scaling and dividing touch only the row's nonzero entries,
    since a zero stays zero. Any multiplier gives the same ints in the
    end: a row in lowest terms over a positive denominator is the only
    such form of its values."""
    pden = prow[-1]
    cols = range(len(prow))
    for row in rows:
        f = row[col]
        if pden > 1:
            q = gcd(f, pden)
            f //= q
            s = pden // q
            if s > 1:
                for j in compress(cols, row):
                    row[j] *= s
        for j in nz:
            row[j] -= f * prow[j]
        if row[-1] > 1:
            g = gcd(*row)
            if g > 1:
                for j in compress(cols, row):
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

    Column layout: structural variables, then one slack column per row,
    in row order; ``ncols`` counts them, and every basic variable is one
    of them. Every column runs from 0 to its int upper bound ``ub[j]``,
    None for no cap: a structural column's is the program's own bound,
    and a slack has none, but an equality row's, which is 0. A new
    tableau has no constraint rows, only a zero cost row;
    ``append_rows`` adds every constraint row, with its slack.
    ``state[j]`` is the one fact the pivot rule needs about column j:
    ``1`` when it sits at 0 and may rise, ``-1`` when it sits at its
    upper bound and may fall, ``0`` when it never enters (basic, or
    fixed with zero span, as an equality row's slack is).

    Row i of the tableau is one list, the textbook ``[A | b]`` row over
    its denominator, ``[A | b | d]`` (fraction-free rows, the first step
    toward the exact kernel of QSopt_ex): ``ncols + 1`` integer
    numerators, its entry in column j at ``A[i][j]`` and then, at
    ``A[i][-2]``, the value of its basic variable, a right-hand side
    that rides every elimination as in the integer-preserving tableaux
    of Edmonds and of Azulay and Pique, and last, at ``A[i][-1]``, their
    one positive integer denominator. Every entry is in the program's
    own units: ``A[i][j] / A[i][-1]`` is the tableau entry and
    ``A[i][-2] / A[i][-1]`` the basic value. An elimination updates the
    value as one more entry and the denominator as one more nonzero
    entry, and leaves the row in lowest terms, the only form of its
    values over a positive denominator. Bland's rule reads only the
    signs of entries and exact comparisons of step ratios, which a
    positive row scale does not change, so the pivots are the ones a
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
    pricing (``_reduced`` of the costs, negated to minimize) at that
    basis and point gives.

    Rows are stored densely, one int per column, then the value and the
    denominator. A basis change lists the pivot row's nonzero entries
    once and clears the entering column from every other row that has
    it in one call of the elimination kernel, which subtracts only at
    those entries. A row changes only through an elimination or a bound
    flip's value shift, and no row is scaled outside an elimination.
    Every write is in place, so no basis change or bound flip replaces a
    row of the store. A new row or cost row (``_reduced``) is
    eliminated against the basic rows of its nonzero structural columns
    alone, so pricing a new objective costs its nonzero entries, not
    the tableau's rows.

    A tableau owns its row store ``A`` and ``basis``, ``state`` and
    ``ub``, which ``copy`` copies, setting every attribute itself. The
    row lists are copied on write: ``copy`` shares them and marks both
    tableaux ``shared``, and a shared tableau copies every row once
    (``_own``) just before its first write to any, in ``append_rows``
    and before the first basis change or bound flip of ``run``. So a
    warm solve never writes a list its start holds, and one that makes
    no basis change copies no constraint row (the hull scan's warm
    solves mostly do not); a new objective's cost row replaces
    ``A[-1]``. What a tableau shares with a copy for good, the frozen
    ``program``, is never written.
    """

    def __init__(self, lp: LinearProgram, at_upper: Iterable[int]):
        """The tableau of lp's bounds alone, with no constraint row and a
        zero cost row, at the corner the caller names: each column listed
        in at_upper at its upper bound, free to fall, and every other
        structural column at 0, free to rise; a column of zero span
        never moves, at either bound. ``ub`` holds each upper bound as
        an int."""
        n = lp.num_vars
        self.n = self.ncols = n
        self.A: list[list[int]] = [[0] * (n + 1) + [1]]
        # whether A's rows are shared with a copy (``copy``, ``_own``)
        self.shared = False
        self.basis: list[int] = []
        # the program whose rows the tableau holds and whose objective
        # its cost row prices, once a solve has priced one
        self.program: Optional[LinearProgram] = None
        self.ub: list[Optional[int]] = [
            None if h is None else int(h) for h in lp.upper_bounds]
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
        """A warm start's copy of its start, made attribute by attribute:
        its own row store ``A``, ``basis``, ``state`` and ``ub`` lists,
        over the same row lists, with the same column counts and the same
        frozen ``program``, and both tableaux marked shared, so whichever
        writes a row first copies every row first (``_own``) and pivoting
        the copy never changes this one. A solve that makes no basis
        change and appends no row copies no constraint row."""
        out = _Tableau.__new__(_Tableau)
        out.n, out.ncols, out.program = self.n, self.ncols, self.program
        out.A = list(self.A)
        out.basis, out.state, out.ub = list(self.basis), list(self.state), list(self.ub)
        self.shared = out.shared = True
        return out

    def _own(self) -> None:
        """Copy every row once, before the first write to any, when the
        rows are shared with a copy or with the tableau copied."""
        if self.shared:
            self.A = [list(row) for row in self.A]
            self.shared = False

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

        Existing rows, ``state`` and ``ub`` are extended in place; rows
        shared with a copy are copied first (``_own``), the one copy of
        the rows a warm start over appended rows makes."""
        rows = lp.constraints[self.m:]
        reduced = [self._reduced(con.coeffs, con.rhs) for con in rows]
        pad = [0] * len(rows)
        # the slack columns go in before each row's value
        ncols = self.ncols
        self._own()
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
        """values, zero in every slack column, then its value rhs -
        values.x at the current point x, as one int row ending in its
        denominator, with every basic column eliminated from it, in
        lowest terms: a new row, or the cost row of costs values.

        Only the nonzero entries of values are read, a few of a
        relaxation row's n(n - 1) and 2 of a hull-scan objective: each
        is taken as p / q in lowest terms and written as p times lcm /
        q, the lcm of the q and rhs's denominator, into a row of zeros:
        the ints ``rationals.scale_to_ints`` gives the dense row and rhs,
        with no common factor. A column at its upper bound takes off its
        int entry times its int bound, and each elimination takes off a
        basic column's part with its row's value, as it does for any row
        in a basis change.

        The work is that of the nonzero entries, not of the tableau: the
        row is 0 in every slack column, so the basic columns it has an
        entry in are among its nonzero structural ones, those of state 0
        and a nonzero span, and only their rows are eliminated, each
        found by its place in ``basis``. A basic column's row is 0 in
        every other basic column, so an elimination leaves the row's
        entries there as they were: the rows eliminated are the ones a
        walk over every basic row would find, and since a row in lowest
        terms over a positive denominator has one form, the order of the
        eliminations does not change the ints."""
        state, ub, basis = self.state, self.ub, self.basis
        index = list(compress(range(self.n), values))
        ratios = [values[j].as_integer_ratio() for j in index]
        top, bottom = rhs.as_integer_ratio()
        den = lcm(bottom, *(q for _, q in ratios))
        row = [0] * (self.ncols + 2)
        row[-2], row[-1] = top * (den // bottom), den
        basic = []
        for j, (p, q) in zip(index, ratios):
            row[j] = p * (den // q)
            if state[j] < 0:
                row[-2] -= row[j] * ub[j]
            elif not state[j] and ub[j] != 0:
                basic.append(j)
        for j in basic:
            prow = self.A[basis.index(j)]
            _eliminate((row,), prow, j, _nonzero(prow))
        return row

    def _flip(self, enter: int, direction: int) -> None:
        """enter crosses its whole span, the int ub[enter], the basis
        unchanged: each row's value numerator, next to its denominator
        at the end, falls by direction * ub[enter] times its entry in
        column enter, the cost row's included, and no column entry or
        denominator changes. enter then sits at its other bound, free to
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
        # made positive, in lowest terms: divided by the gcd of its ints,
        # signed as that entry. Neither the sign nor a common factor
        # changes an entry to zero, so nz stands
        prow[-1] = prow[enter]
        g = 1 if prow[-1] == 1 else gcd(*prow) * (-1 if prow[-1] < 0 else 1)
        if g != 1:
            for j in (*nz, -1):
                prow[j] //= g
        _eliminate([row for row in self.A if row[enter] and row is not prow],
                   prow, enter, nz)
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
            for i, (b, row) in enumerate(zip(basis, self.A)):
                s = row[enter] * direction
                if s > 0:
                    tn, td = row[-2], s
                elif s < 0 and ub[b] is not None:
                    tn, td = ub[b] * row[-1] - row[-2], -s
                else:
                    continue
                if best_num is not None:
                    lhs = tn * best_den
                    rhs = best_num * td
                    if lhs > rhs or (lhs == rhs and b > best_var):
                        continue
                best_num, best_den = tn, td
                best_var = b
                best_row = i
            if best_num is None:
                return SolveStatus.UNBOUNDED
            # the first move writes rows, so a shared store is copied here
            self._own()
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
        # the dual follows append_rows, which leaves the rows owned, and
        # holds the cost row across its pivots
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
        """The structural point: each column at 0, at its upper bound
        when it sits there, or at its row's value when it is basic and
        that value is nonzero, each a Fraction."""
        n, ub = self.n, self.ub
        x = [_ZERO] * n
        for j, s in enumerate(self.state[:n]):
            if s < 0:
                x[j] = Fraction(ub[j])
        for b, row in zip(self.basis, self.A):
            if b < n and row[-2]:
                x[b] = Fraction(row[-2], row[-1])
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
    0, so the default is the lower corner. A program with an upper
    bound below 0 is INFEASIBLE before any tableau is made. Any corner
    gives the same status and value; at a feasible one, such as a cycle
    cover of a degree LP, no row is broken and the dual simplex makes no
    basis change. A listed column with no upper bound, and at_upper
    beside ``start`` (a warm start keeps its own point), raise
    ValidationError before any pivot.

    ``start`` is an earlier outcome whose program had lp's upper bounds
    and lp's rows, or a prefix of them; only the objective or sense may
    differ otherwise. The solve copies start's final
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

    Either way the solve then takes one path: it prices lp's objective,
    the reduction of its costs (``_Tableau._reduced``) negated to
    minimize, unless the cost row prices it already, so a start priced
    for lp's objective and sense keeps its cost row; it appends lp's
    rows past those the tableau holds, if any (``_Tableau.append_rows``),
    runs the dual simplex (``_Tableau.dual``), which takes every basic
    value into its bounds or returns INFEASIBLE; and it runs the primal
    simplex (``_Tableau.run``). Every tableau it pivots is exact, so a warm
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
            held.upper_bounds != lp.upper_bounds
            or held.constraints != lp.constraints[:len(held.constraints)]
        ):
            raise ValidationError("start was solved over a different region")
        tab = start.tableau.copy()
    else:
        if any(ub is not None and ub < 0 for ub in lp.upper_bounds):
            return LpOutcome(SolveStatus.INFEASIBLE)
        tab = _Tableau(lp, at_upper)
    # a cost row priced for this objective stands through appended rows,
    # so a cut-loop round prices nothing; a cold solve prices here, at its
    # corner, before any row enters. Every elimination is linear in the
    # row and a gcd has no sign, so negating the row prices the negated
    # costs
    sign = 1 if lp.sense == MAXIMIZE else -1
    held, tab.program = tab.program, lp
    if held is None or (held.objective, held.sense) != (lp.objective, lp.sense):
        tab.A[-1] = cost = tab._reduced(lp.objective)
        if sign < 0:
            _negate(cost)
    if tab.m < len(lp.constraints):
        tab.append_rows(lp)
        if tab.dual() is SolveStatus.INFEASIBLE:
            return LpOutcome(SolveStatus.INFEASIBLE)

    if tab.run() is SolveStatus.UNBOUNDED:
        return LpOutcome(SolveStatus.UNBOUNDED, tableau=tab)

    value = Fraction(-sign * tab.A[-1][-2], tab.A[-1][-1])
    return LpOutcome(SolveStatus.OPTIMAL, tuple(tab.point()), value, tab)
