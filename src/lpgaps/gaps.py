"""LP-vs-ILP comparison reports and the decision-form tour question.

A RelaxationDesc names one relaxation: its kind, one of RELAXATIONS,
the cut subsets of a degree+cuts relaxation and the round budget of the
cutting-plane loop; every entry point that takes one reads None as the
degree relaxation. A GapReport pins down, for one instance and one
relaxation, the exact relaxation value, the exact tour optimum, their
gap, and the rows and variables of the model it solved, which for the
cutting-plane loop count how many cuts this loop added over its rounds
(Bland's pivots choose them, so another loop may need fewer). Decision
answers record the YES/NO verdicts at thresholds: a relaxation may say
YES to a cost no tour achieves, and that recorded disagreement is the
artifact under study, never an error.

Every report takes one order: the relaxation runs first, then the tour
optimum is read. A cutting-plane loop that ends complete on an integral
point has proved it, and its trace states it
(CuttingPlaneTrace.tour_optimum): that point is a cycle cover no
subtour cut separates, so one Hamiltonian cycle, and its value is the
minimum of a relaxation of the TSP, so no tour costs less. Only where
no optimum was proved does the Held-Karp oracle run, which refuses an
instance past its 20-city budget after the relaxation solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ValidationError
from .ilp import tsp_oracle
# bound, never called, for perfbench's tracer, whose selftest checks that
# it wraps this site with every other binding of the simplex; each tour
# relaxation here is solved through valleys.solve_relaxation
from .lp import solve_lp
from .rationals import Rational, require_exact, require_int
from .valleys import (
    InstanceInfo,
    TspInstance,
    cutting_plane_loop,
    relaxation_with_cuts,
    solve_relaxation,
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
        a cutting-plane budget is checked before any solve. A degree+cuts
        relaxation with no cut subset is refused too: it would be the
        degree relaxation under another name. Each city of a cut subset
        must be an int >= 0, checked before any sort compares it, named
        once; the instance checks the upper end when the program is
        built. Each subset is stored with its cities sorted, and the
        subsets sorted, so neither the order of a subset's cities nor
        the order of the subsets is part of the description, which is
        hashable; a subset named twice, in any order of its cities, is
        refused."""
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
        if not subsets and self.kind == DEGREE_WITH_CUTS:
            raise ValidationError(
                f"the {DEGREE_WITH_CUTS} relaxation needs at least one cut subset"
            )
        cutting = self.kind == CUTTING_PLANE
        require_int(self.max_rounds, int(cutting), None, "max_rounds")
        if self.max_rounds and not cutting:
            raise ValidationError(
                f"max_rounds needs the {CUTTING_PLANE} relaxation, not {self.kind}"
            )
        canonical = sorted(tuple(sorted(s)) for s in subsets)
        for a, b in zip(canonical, canonical[1:]):
            if a == b:
                raise ValidationError(f"cut subset {list(a)} is named more than once")
        object.__setattr__(self, "cut_subsets", tuple(canonical))


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


def _read_relaxation(relaxation: Optional[RelaxationDesc]) -> RelaxationDesc:
    """The relaxation an entry point reads: None is the degree one."""
    return RelaxationDesc(DEGREE) if relaxation is None else relaxation


def _relaxation_value(
    inst: TspInstance, relaxation: RelaxationDesc
) -> tuple[Rational, int, int, Optional[Rational]]:
    """(lp value, constraint rows, rounds, proved tour optimum or None)
    of the relaxation; the one place that evaluates it by its kind. The
    cutting-plane loop builds and solves its own programs, and its trace
    states the tour optimum when it proved one; a degree or degree+cuts
    program, whose cut subsets are checked as it is built, proves none.
    Either way every solve is a valleys.solve_relaxation, which says
    where it starts."""
    if relaxation.kind == CUTTING_PLANE:
        trace = cutting_plane_loop(inst, relaxation.max_rounds)
        rows = trace.rounds[-1].constraint_count
        return trace.final_value, rows, len(trace.rounds), trace.tour_optimum
    program = relaxation_with_cuts(inst, relaxation.cut_subsets)
    return solve_relaxation(inst, program).value, len(program.constraints), 0, None


def integrality_gap(
    inst: TspInstance,
    relaxation: Optional[RelaxationDesc] = None,
    thresholds: Iterable = (),
) -> GapReport:
    """Exact gap between the chosen relaxation (None is the degree one)
    and the tour optimum; each threshold X contributes a recorded
    (LP answer, ILP answer) pair for the question "is a tour of cost at
    most X possible". A float threshold is refused first, then a bad cut
    subset, as the fixed-cut program is built. The relaxation runs next,
    whatever its kind; its proved optimum, which only a cutting-plane
    loop that ends on a tour gives, is the tour optimum at any size, and
    only where there is none does the tour oracle run, refusing an
    instance past its budget after the relaxation."""
    thresholds = tuple(thresholds)
    require_exact(thresholds, "thresholds")
    relaxation = _read_relaxation(relaxation)
    lp_value, rows_used, rounds, proved = _relaxation_value(inst, relaxation)
    ilp_value = tsp_oracle(inst) if proved is None else proved
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
        lp_yes, ilp_yes = lp_value <= x, ilp_value <= x
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
    relaxation: Optional[RelaxationDesc] = None,
) -> bool:
    """Decision form "is there a tour of cost <= X". The ilp route is
    exact truth and reads no relaxation, so it refuses one before the
    tour oracle runs. The lp-relaxation route reads None as
    RelaxationDesc(DEGREE), as integrality_gap does, and never runs the
    tour oracle; it may say YES to phantom values, but whenever it says
    NO the answer really is NO."""
    require_exact((threshold,), "thresholds")
    x = Fraction(threshold)
    if via == VIA_ILP:
        if relaxation is not None:
            raise ValidationError(f"the {VIA_ILP} route reads no relaxation")
        return tsp_oracle(inst) <= x
    if via == VIA_LP:
        return _relaxation_value(inst, _read_relaxation(relaxation))[0] <= x
    raise ValidationError(f"unknown decision route {via!r}")
