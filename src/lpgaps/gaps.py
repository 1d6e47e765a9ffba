"""LP-vs-ILP comparison reports and the decision-form tour question.

A RelaxationDesc names one relaxation: its kind, one of RELAXATIONS,
the cut subsets of a degree+cuts relaxation, each stored with its
cities sorted, and the round budget of the cutting-plane loop. A
GapReport pins down, for one instance and one relaxation, the exact
relaxation value, the exact integer optimum from the tour oracle, their
gap, and the rows and variables of the model it solved, which for the
cutting-plane loop count how many cuts this loop added over its rounds
(Bland's pivots choose them, so another loop may need fewer). Decision
answers record the YES/NO verdicts at thresholds: a relaxation may say
YES to a cost no tour achieves, and that recorded disagreement is the
artifact under study, never an error.

Every relaxation solve starts at one corner: the cycle cover that
successor swaps reach from the tour 0, 1, ..., n - 1, each cover arc at
1 (valleys.cover_columns), the start of the cutting-plane loop's first
round too. A cycle cover is a vertex of the degree LP, so no degree row
is broken there and the dual simplex makes no basis change on a degree
report; a fixed cut the cover breaks is repaired by the dual simplex,
and the primal simplex walks down from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ValidationError
from .ilp import tsp_oracle
from .lp import LinearProgram, SolveStatus, solve_lp
from .rationals import Rational, require_exact, require_int
from .valleys import (
    InstanceInfo,
    TspInstance,
    cover_columns,
    cutting_plane_loop,
    relaxation_with_cuts,
)

DEGREE = "degree"
DEGREE_WITH_CUTS = "degree+cuts"
CUTTING_PLANE = "cutting-plane"
RELAXATIONS = (DEGREE, DEGREE_WITH_CUTS, CUTTING_PLANE)


@dataclass(frozen=True)
class RelaxationDesc:
    kind: str
    cut_subsets: tuple[tuple[int, ...], ...] = ()
    max_rounds: int = 0

    def __post_init__(self):
        """A field the kind never reads is refused, so a report cannot
        record a cut or a round budget that its relaxation ignored, and
        a cutting-plane budget is checked before any solve. Each city of
        a cut subset must be an int >= 0, checked before any sort
        compares it, named once; the instance checks the upper end when
        the program is built. Each subset is stored sorted, so the order
        its cities are listed in is not part of the description, which
        is hashable."""
        if self.kind not in RELAXATIONS:
            raise ValidationError(f"unknown relaxation kind {self.kind!r}")
        subsets = self.cut_subsets
        if type(subsets) is not tuple or any(type(s) is not tuple for s in subsets):
            raise ValidationError("cut_subsets must be a tuple of tuples")
        for subset in subsets:
            for city in subset:
                require_int(city, 0, None, "city")
            if len(set(subset)) < len(subset):
                raise ValidationError(f"{list(subset)} names a city more than once")
        if subsets and self.kind != DEGREE_WITH_CUTS:
            raise ValidationError(
                f"cut_subsets need the {DEGREE_WITH_CUTS} relaxation, not {self.kind}"
            )
        cutting = self.kind == CUTTING_PLANE
        require_int(self.max_rounds, int(cutting), None, "max_rounds")
        if self.max_rounds and not cutting:
            raise ValidationError(
                f"max_rounds needs the {CUTTING_PLANE} relaxation, not {self.kind}"
            )
        object.__setattr__(self, "cut_subsets", tuple(tuple(sorted(s)) for s in subsets))


# decisions ask "is there a tour of cost at most X" (the standard
# decision reduction), not "of cost exactly X"
DECISION_FORM = "cost-at-most"


@dataclass(frozen=True)
class DecisionAnswer:
    threshold: Rational
    lp_answer: bool
    ilp_answer: bool
    agree: bool


@dataclass(frozen=True)
class GapReport:
    instance: InstanceInfo
    relaxation: RelaxationDesc
    lp_value: Rational
    ilp_value: Rational
    gap: Rational  # ilp - lp; the relaxation bound keeps it >= 0
    gap_ratio: Optional[Rational]
    gap_ratio_note: Optional[str]
    constraints_used: int
    variables_used: int
    rounds: int
    decision_answers: tuple[DecisionAnswer, ...]
    decision_form: str = DECISION_FORM


def _fixed_program(
    inst: TspInstance, relaxation: RelaxationDesc
) -> Optional[LinearProgram]:
    """The program of a degree or degree+cuts relaxation, whose cut
    subsets are checked as it is built (a degree relaxation has none),
    or None for the cutting-plane loop, which builds its own."""
    if relaxation.kind == CUTTING_PLANE:
        return None
    return relaxation_with_cuts(inst, relaxation.cut_subsets)


def _solve_relaxation(
    inst: TspInstance,
    relaxation: RelaxationDesc,
    program: Optional[LinearProgram],
) -> tuple[Rational, int, int]:
    """(lp value, constraint rows, rounds), solving the program that
    _fixed_program built for the relaxation from the cycle cover
    valleys.cover_columns gives, each of its arcs at 1 and every other
    at 0; the cutting-plane loop, which builds its own programs, starts
    its first round there too."""
    if program is None:
        trace = cutting_plane_loop(inst, relaxation.max_rounds)
        last = trace.rounds[-1]
        return trace.final_value, last.constraint_count, len(trace.rounds)
    outcome = solve_lp(program, at_upper=cover_columns(inst))
    if outcome.status is not SolveStatus.OPTIMAL:  # pragma: no cover
        raise AssertionError(f"relaxation solve came back {outcome.status}")
    return outcome.value, len(program.constraints), 0


def integrality_gap(
    inst: TspInstance,
    relaxation: RelaxationDesc = RelaxationDesc(DEGREE),
    thresholds: Iterable = (),
) -> GapReport:
    """Exact gap between the chosen relaxation and the tour oracle; each
    threshold X contributes a recorded (LP answer, ILP answer) pair for
    the question "is a tour of cost at most X possible". A float
    threshold is refused first, then a bad cut subset, as the fixed-cut
    program is built; the oracle runs next, so an instance past its
    budget is refused before any relaxation solve. A degree or
    degree+cuts solve starts at the cycle cover that successor swaps
    reach from the tour 0, 1, ..., n - 1 (valleys.cover_columns): each
    of its arcs at 1, a vertex of the degree program, where the dual
    simplex makes no basis change unless a fixed cut is broken. At eight
    2-city valleys with costs (0, 1) the solve makes no basis change at
    all. The value is the one a start at the lower corner gives; only
    the pivots differ."""
    thresholds = tuple(thresholds)
    require_exact(thresholds, "thresholds")
    program = _fixed_program(inst, relaxation)
    ilp_value = tsp_oracle(inst).cost
    lp_value, rows_used, rounds = _solve_relaxation(inst, relaxation, program)
    gap = ilp_value - lp_value
    if lp_value > 0:
        ratio: Optional[Rational] = ilp_value / lp_value
        note = None
    elif lp_value < 0:
        ratio = None
        note = "undefined: relaxation value is negative"
    elif ilp_value > 0:
        ratio = None
        note = "infinite: relaxation value is 0 with a positive integer optimum"
    else:
        ratio = None
        note = "indeterminate: both values are 0"
    answers = []
    for raw in thresholds:
        x = Fraction(raw)
        lp_yes = lp_value <= x
        ilp_yes = ilp_value <= x
        answers.append(DecisionAnswer(x, lp_yes, ilp_yes, lp_yes == ilp_yes))
    return GapReport(
        instance=inst.info,
        relaxation=relaxation,
        lp_value=lp_value,
        ilp_value=ilp_value,
        gap=gap,
        gap_ratio=ratio,
        gap_ratio_note=note,
        constraints_used=rows_used,
        variables_used=inst.n * (inst.n - 1),
        rounds=rounds,
        decision_answers=tuple(answers),
    )


VIA_ILP = "ilp"
VIA_LP = "lp-relaxation"


def decide_tour_at_most(
    inst: TspInstance,
    threshold,
    via: str,
    relaxation: RelaxationDesc = RelaxationDesc(DEGREE),
) -> bool:
    """Decision form "is there a tour of cost <= X". The ilp route is
    exact truth; the lp-relaxation route may say YES to phantom values,
    but whenever it says NO the answer really is NO. The lp-relaxation
    route never runs the tour oracle: a degree or degree+cuts solve
    starts at the same cycle cover as the gap report's
    (valleys.cover_columns)."""
    require_exact((threshold,), "thresholds")
    x = Fraction(threshold)
    if via == VIA_ILP:
        return tsp_oracle(inst).cost <= x
    if via == VIA_LP:
        program = _fixed_program(inst, relaxation)
        value, _, _ = _solve_relaxation(inst, relaxation, program)
        return value <= x
    raise ValidationError(f"unknown decision route {via!r}")
