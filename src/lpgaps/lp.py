"""Linear programs over exact rationals and a two-phase simplex solver.

Programs are stated in inequality form: an objective to maximize or
minimize, rows with <= / >= / = relations, and per-variable bounds
(lower defaults to 0, upper is optional). The solver is a dense tableau
simplex that handles variable bounds natively (bounded variables never
become extra rows) and uses Bland's smallest-index rule throughout, so
it terminates on every input. Each column carries one signed state, the
direction it may move if it enters (up from its lower bound, down from
its upper bound, or never), and artificials are the columns from
``first_art`` on. All pivots are exact: each tableau row is
a list of Python ints over one positive int denominator (fraction-free
rows, the first step toward the exact kernel of QSopt_ex), and basic
values are Fractions. A returned status is a certainty, not a numerical
verdict. Bland's rule sees only signs and exact ratio comparisons, which
no positive row scale changes, so the int rows pivot exactly as a
Fraction-per-entry tableau does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ValidationError
from .rationals import Rational, body_lines, format_rational, parse_rational

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


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    """Build a constraint row, coercing ints/strings to exact rationals."""
    if relation not in _RELATIONS:
        raise ValidationError(f"unknown relation {relation!r}")
    return Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: tuple[Rational, ...]
    sense: str
    lower_bounds: tuple[Rational, ...]
    upper_bounds: tuple[Optional[Rational], ...]


def linear_program(
    objective: Iterable,
    sense: str,
    constraints: Iterable = (),
    *,
    lower_bounds: Optional[Iterable] = None,
    upper_bounds: Optional[Iterable] = None,
) -> LinearProgram:
    """Assemble and validate a program; num_vars is len(objective)."""
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
    lp = LinearProgram(n, rows, obj, sense, lo, hi)
    validate_lp(lp)
    return lp


def validate_lp(lp: LinearProgram) -> None:
    if lp.num_vars < 1:
        raise ValidationError("a program needs at least one variable")
    if lp.sense not in (MAXIMIZE, MINIMIZE):
        raise ValidationError(f"unknown sense {lp.sense!r}")
    if len(lp.objective) != lp.num_vars:
        raise ValidationError("objective length differs from num_vars")
    if len(lp.lower_bounds) != lp.num_vars or len(lp.upper_bounds) != lp.num_vars:
        raise ValidationError("bound vectors must have one entry per variable")
    for idx, con in enumerate(lp.constraints):
        if con.relation not in _RELATIONS:
            raise ValidationError(f"constraint {idx}: unknown relation {con.relation!r}")
        if len(con.coeffs) != lp.num_vars:
            raise ValidationError(
                f"constraint {idx}: {len(con.coeffs)} coefficients for "
                f"{lp.num_vars} variables"
            )


def with_constraints(lp: LinearProgram, extra: Iterable[Constraint]) -> LinearProgram:
    out = replace(lp, constraints=lp.constraints + tuple(extra))
    validate_lp(out)
    return out


def with_bounds(
    lp: LinearProgram,
    var: int,
    lower: Optional[Rational] = None,
    upper: Optional[Rational] = None,
) -> LinearProgram:
    """Copy of lp with variable var's bounds replaced (None keeps current)."""
    if not 0 <= var < lp.num_vars:
        raise ValidationError(f"variable index {var} out of range")
    lo = list(lp.lower_bounds)
    hi = list(lp.upper_bounds)
    if lower is not None:
        lo[var] = Fraction(lower)
    if upper is not None:
        hi[var] = Fraction(upper)
    return replace(lp, lower_bounds=tuple(lo), upper_bounds=tuple(hi))


@dataclass(frozen=True)
class LpOutcome:
    status: SolveStatus
    point: Optional[tuple[Rational, ...]] = None
    value: Optional[Rational] = None


@dataclass(frozen=True)
class Violation:
    kind: str  # "row" | "lower" | "upper"
    index: int
    amount: Rational


@dataclass(frozen=True)
class FeasibilityReport:
    satisfied: bool
    violations: tuple[Violation, ...]


def check_feasible(lp: LinearProgram, point: Sequence) -> FeasibilityReport:
    """Substitute point into every row and bound; report exact violations."""
    if len(point) != lp.num_vars:
        raise ValidationError(
            f"point has {len(point)} coordinates for {lp.num_vars} variables"
        )
    x = [Fraction(v) for v in point]
    bad: list[Violation] = []
    for j in range(lp.num_vars):
        if x[j] < lp.lower_bounds[j]:
            bad.append(Violation("lower", j, lp.lower_bounds[j] - x[j]))
        ub = lp.upper_bounds[j]
        if ub is not None and x[j] > ub:
            bad.append(Violation("upper", j, x[j] - ub))
    for idx, con in enumerate(lp.constraints):
        lhs = sum((a * v for a, v in zip(con.coeffs, x)), Fraction(0))
        if con.relation == LESS_EQ and lhs > con.rhs:
            bad.append(Violation("row", idx, lhs - con.rhs))
        elif con.relation == GREATER_EQ and lhs < con.rhs:
            bad.append(Violation("row", idx, con.rhs - lhs))
        elif con.relation == EQUAL and lhs != con.rhs:
            bad.append(Violation("row", idx, abs(lhs - con.rhs)))
    return FeasibilityReport(not bad, tuple(bad))


def objective_value(lp: LinearProgram, point: Sequence[Rational]) -> Rational:
    return sum((c * v for c, v in zip(lp.objective, point)), Fraction(0))


def _eliminate(
    row: list[int], den: int, prow: list[int], pden: int, col: int
) -> tuple[list[int], int]:
    """Clear column col of row/den against the normalised pivot row
    prow/pden (prow[col] == pden, so its true entry there is 1); returns
    the new row and denominator in lowest terms."""
    f = row[col]
    out = [x * pden - f * y for x, y in zip(row, prow)]
    den *= pden
    g = gcd(den, *out)
    if g > 1:
        den //= g
        out = [x // g for x in out]
    return out, den


class _Tableau:
    """Bounded-variable simplex state.

    Column layout: structural variables (shifted to lower bound 0), then
    one slack/surplus column per inequality row, then artificials from
    column ``first_art`` on. ``v`` holds current basic-variable values
    directly. ``state[j]`` is the one fact the pivot rule needs about
    column j: ``1`` when it sits at its lower bound 0 and may rise,
    ``-1`` when it sits at its upper bound and may fall, ``0`` when it
    never enters (basic, artificial, or fixed with zero span).

    Row i of the tableau is ``A[i][j] / d[i]``: integer numerators over
    one positive integer denominator, kept in lowest terms, and the
    reduced-cost row is ``r[j] / rd`` the same way. Bland's rule reads
    only the signs of entries and exact comparisons of step ratios, and
    scaling a row by a positive number changes neither, so the pivots
    are the ones a Fraction-per-entry tableau would make, in the same
    order. A basic column's entry equals its row's denominator.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        lo, hi = lp.lower_bounds, lp.upper_bounds
        self.n = n
        rows = []
        for con in lp.constraints:
            shift = sum((a * l for a, l in zip(con.coeffs, lo) if l), Fraction(0))
            rhs = con.rhs - shift
            coeffs = list(con.coeffs)
            rel = con.relation
            if rhs < 0:
                coeffs = [-a for a in coeffs]
                rhs = -rhs
                rel = {LESS_EQ: GREATER_EQ, GREATER_EQ: LESS_EQ, EQUAL: EQUAL}[rel]
            rows.append((coeffs, rel, rhs))
        m = len(rows)

        col = n
        slack_col = {}
        for i, (_, rel, _) in enumerate(rows):
            if rel != EQUAL:
                slack_col[i] = col
                col += 1
        self.first_art = col
        art_col = {}
        for i, (_, rel, _) in enumerate(rows):
            if rel != LESS_EQ:
                art_col[i] = col
                col += 1
        self.ncols = col

        # the lcm of a row's reduced denominators leaves its numerators
        # coprime to it, so every row starts in lowest terms
        self.A: list[list[int]] = []
        self.d: list[int] = []
        for i, (coeffs, rel, _) in enumerate(rows):
            den = lcm(*(a.denominator for a in coeffs))
            row = [0] * self.ncols
            row[:n] = [a.numerator * (den // a.denominator) for a in coeffs]
            if rel == LESS_EQ:
                row[slack_col[i]] = den
            elif rel == GREATER_EQ:
                row[slack_col[i]] = -den
            if i in art_col:
                row[art_col[i]] = den
            self.A.append(row)
            self.d.append(den)
        self.r: list[int] = [0] * self.ncols
        self.rd = 1
        self.v: list[Fraction] = [rhs for (_, _, rhs) in rows]
        self.basis: list[int] = [
            slack_col[i] if rows[i][1] == LESS_EQ else art_col[i] for i in range(m)
        ]
        self.ub: list[Optional[Fraction]] = [
            None if hi[j] is None else hi[j] - lo[j] for j in range(n)
        ] + [None] * (self.ncols - n)
        # basic and artificial columns start out of the scan, and fixed
        # (zero-span) columns stay out: they can never change value
        basic = set(self.basis)
        self.state = [
            0 if j in basic or j >= self.first_art or self.ub[j] == 0 else 1
            for j in range(self.ncols)
        ]

    @property
    def m(self) -> int:
        return len(self.A)

    def price(self, cost: Sequence[Rational]) -> None:
        """Set the reduced-cost row for maximizing cost . x: eliminate
        every basic column from the cost row."""
        rd = lcm(*(c.denominator for c in cost))
        r = [c.numerator * (rd // c.denominator) for c in cost]
        for i, b in enumerate(self.basis):
            if r[b]:
                r, rd = _eliminate(r, rd, self.A[i], self.d[i], b)
        self.r, self.rd = r, rd

    def _apply_step(self, enter: int, direction: int, t: Fraction) -> None:
        if not t.numerator:
            return
        sn = t.numerator if direction > 0 else -t.numerator
        sd = t.denominator
        v, d = self.v, self.d
        for i, row in enumerate(self.A):
            a = row[enter]
            if a:
                # v[i] - step * a / d[i], built as one Fraction
                vi = v[i]
                scale = sd * d[i]
                v[i] = Fraction(
                    vi.numerator * scale - sn * a * vi.denominator,
                    vi.denominator * scale,
                )

    def _replace(self, p: int, enter: int, value: Fraction, leave_state: int) -> None:
        """Make enter basic in row p at value; the leaving column takes
        leave_state, or 0 when it is artificial or fixed."""
        leave = self.basis[p]
        if leave >= self.first_art or self.ub[leave] == 0:
            leave_state = 0
        self.state[leave] = leave_state
        self.state[enter] = 0
        self.basis[p] = enter
        self.v[p] = value
        A, d = self.A, self.d
        prow = A[p]
        if prow[enter] < 0:
            prow = [-x for x in prow]
        g = gcd(*prow)
        if g > 1:
            prow = [x // g for x in prow]
        A[p] = prow
        dp = d[p] = prow[enter]
        for i, row in enumerate(A):
            if i != p and row[enter]:
                A[i], d[i] = _eliminate(row, d[i], prow, dp, enter)
        if self.r[enter]:
            self.r, self.rd = _eliminate(self.r, self.rd, prow, dp, enter)

    def run(self) -> str:
        """Maximize the objective last set by price(). Bland's rule:
        smallest eligible entering index; ratio ties broken by smallest
        leaving-variable index (the entering variable's own bound counts
        as a candidate). Returns "optimal" or "unbounded"."""
        # Bland's rule terminates; the cap only turns a would-be hang on
        # a broken invariant into a loud failure
        pivots_left = 10_000 + 200 * (self.m + self.ncols)
        state = self.state
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

            # ratio test over unreduced numerator/denominator pairs; the
            # entering variable's own bound competes as candidate row -1.
            # Entry (i, enter) is A[i][enter] / d[i], so the step that
            # zeroes v[i] is v[i] * d[i] / |A[i][enter]|.
            own = self.ub[enter]
            if own is None:
                best_num, best_den = None, 1
            else:
                best_num, best_den = own.numerator, own.denominator
            best_var = enter
            best_row = -1
            best_hits_upper = False
            for i, row in enumerate(self.A):
                a = row[enter]
                if a == 0:
                    continue
                if (a > 0) == (direction > 0):  # step drives v[i] down
                    room = self.v[i]
                    hits_upper = False
                else:  # step drives v[i] up toward its cap
                    cap = self.ub[self.basis[i]]
                    if cap is None:
                        continue
                    room = cap - self.v[i]
                    hits_upper = True
                tn = room.numerator * self.d[i]
                td = room.denominator * abs(a)
                if best_num is not None:
                    lhs = tn * best_den
                    rhs = best_num * td
                    if lhs > rhs or (lhs == rhs and self.basis[i] > best_var):
                        continue
                best_num, best_den = tn, td
                best_var = self.basis[i]
                best_row = i
                best_hits_upper = hits_upper
            if best_num is None:
                return "unbounded"
            best_t = Fraction(best_num, best_den)

            self._apply_step(enter, direction, best_t)
            if best_row < 0:
                # bound flip: enter crosses its whole span, basis unchanged
                state[enter] = -direction
                continue
            # the step also moved the leaving row's value; it now holds
            # the entering variable's
            value = best_t if direction > 0 else self.ub[enter] - best_t
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
                z[self.basis[i]] = self.v[i]
        return z


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact two-phase simplex. The returned claims hold exactly:
    optimal points satisfy every constraint and no feasible point does
    strictly better; infeasible and unbounded are proven statuses."""
    validate_lp(lp)
    for j in range(lp.num_vars):
        ub = lp.upper_bounds[j]
        if ub is not None and ub < lp.lower_bounds[j]:
            return LpOutcome(SolveStatus.INFEASIBLE)

    tab = _Tableau(lp)

    if tab.first_art < tab.ncols:
        tab.price([-1 if j >= tab.first_art else 0 for j in range(tab.ncols)])
        status = tab.run()
        if status != "optimal":  # pragma: no cover - phase 1 is bounded above by 0
            raise AssertionError("phase 1 cannot be unbounded")
        infeasibility = sum(
            (tab.v[i] for i in range(tab.m) if tab.basis[i] >= tab.first_art),
            Fraction(0),
        )
        if infeasibility != 0:
            return LpOutcome(SolveStatus.INFEASIBLE)
        tab.drive_out_artificials()

    sign = 1 if lp.sense == MAXIMIZE else -1
    tab.price([sign * c for c in lp.objective] + [0] * (tab.ncols - tab.n))
    status = tab.run()
    if status == "unbounded":
        return LpOutcome(SolveStatus.UNBOUNDED)

    z = tab.solution()
    x = tuple(lp.lower_bounds[j] + z[j] for j in range(lp.num_vars))
    return LpOutcome(SolveStatus.OPTIMAL, x, objective_value(lp, x))


# ---------------------------------------------------------------------------
# Text serialization ("p/q" scalars throughout)

_INF_TOKENS = ("inf", "none", "*")


def lp_to_text(lp: LinearProgram) -> str:
    lines = ["lpgaps-lp 1"]
    lines.append(f"vars {lp.num_vars}")
    lines.append(f"sense {lp.sense}")
    lines.append("objective " + " ".join(format_rational(c) for c in lp.objective))
    lines.append("lower " + " ".join(format_rational(b) for b in lp.lower_bounds))
    lines.append(
        "upper "
        + " ".join("inf" if b is None else format_rational(b) for b in lp.upper_bounds)
    )
    for con in lp.constraints:
        lines.append(
            "constraint "
            + " ".join(format_rational(c) for c in con.coeffs)
            + f" {con.relation} "
            + format_rational(con.rhs)
        )
    return "\n".join(lines) + "\n"


def lp_from_text(text: str) -> LinearProgram:
    fields: dict[str, str] = {}
    rows: list[Constraint] = []
    for ln in body_lines(text, "lpgaps-lp"):
        key, _, rest = ln.partition(" ")
        if key == "constraint":
            toks = rest.split()
            rel_positions = [i for i, t in enumerate(toks) if t in _RELATIONS]
            if len(rel_positions) != 1:
                raise ValidationError(f"bad constraint line: {ln!r}")
            k = rel_positions[0]
            if k != len(toks) - 2:
                raise ValidationError(f"bad constraint line: {ln!r}")
            rows.append(
                constraint(
                    [parse_rational(t) for t in toks[:k]],
                    toks[k],
                    parse_rational(toks[k + 1]),
                )
            )
        else:
            fields[key] = rest
    try:
        n = int(fields["vars"])
        sense = fields["sense"]
        objective = [parse_rational(t) for t in fields["objective"].split()]
        lower = [parse_rational(t) for t in fields["lower"].split()]
        upper = [
            None if t.lower() in _INF_TOKENS else parse_rational(t)
            for t in fields["upper"].split()
        ]
    except KeyError as exc:
        raise ValidationError(f"missing field {exc.args[0]!r}") from None
    if len(objective) != n:
        raise ValidationError("objective length differs from declared vars")
    return linear_program(
        objective, sense, rows, lower_bounds=lower, upper_bounds=upper
    )
