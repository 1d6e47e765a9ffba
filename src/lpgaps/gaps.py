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

tour_optimum is the one rule for where the tour optimum comes from. A
cutting-plane loop that ends complete on an integral point has proved
it: that point is a cycle cover no subtour cut separates, so one
Hamiltonian cycle, and its value is the minimum of a relaxation of the
TSP, so no tour costs less. Every other optimum comes from the
Held-Karp oracle, which refuses an instance past its 20-city budget.
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
    CuttingPlaneTrace,
    InstanceInfo,
    TspInstance,
    arc_list,
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


def _build_relaxation(
    inst: TspInstance, relaxation: RelaxationDesc
) -> tuple[Optional[LinearProgram], Optional[CuttingPlaneTrace]]:
    """(program, None) for a degree or degree+cuts relaxation, whose cut
    subsets are checked as the program is built (a degree relaxation has
    none), or (None, trace) for the cutting-plane loop, which builds and
    solves its own programs."""
    if relaxation.kind == CUTTING_PLANE:
        return None, cutting_plane_loop(inst, relaxation.max_rounds)
    return relaxation_with_cuts(inst, relaxation.cut_subsets), None


def _relaxation_value(
    inst: TspInstance,
    program: Optional[LinearProgram],
    trace: Optional[CuttingPlaneTrace],
) -> tuple[Rational, int, int]:
    """(lp value, constraint rows, rounds), read off the cutting-plane
    trace or got by solving the program that _build_relaxation built.

    Every relaxation solve starts at one corner, the cutting-plane
    loop's first round too: the cycle cover that successor swaps reach
    from the tour 0, 1, ..., n - 1, each of its arcs at 1 and every
    other at 0 (valleys.cover_columns). A cycle cover is a vertex of the
    degree LP, so no degree row is broken there and the dual simplex
    makes no basis change on a degree report; at eight 2-city valleys
    with costs (0, 1) the whole solve makes none. A fixed cut the cover
    breaks is repaired by the dual simplex, and the primal simplex walks
    down from there."""
    if trace is not None:
        last = trace.rounds[-1]
        return trace.final_value, last.constraint_count, len(trace.rounds)
    outcome = solve_lp(program, at_upper=cover_columns(inst))
    if outcome.status is not SolveStatus.OPTIMAL:  # pragma: no cover
        raise AssertionError(f"relaxation solve came back {outcome.status}")
    return outcome.value, len(program.constraints), 0


def tour_optimum(
    inst: TspInstance, trace: Optional[CuttingPlaneTrace] = None
) -> Rational:
    """The exact cost of a cheapest tour of inst: the final value of a
    cutting-plane trace that ends complete on an integral point, else
    the Held-Karp oracle's, which raises BudgetExceededError past 20
    cities. Such a trace's final point is an integral point of the
    degree LP, so a cycle cover, and no subtour cut separates it, so it
    is one Hamiltonian cycle; its value is optimal over a relaxation of
    the TSP, so no tour costs less. A trace of another instance is
    refused: its final point must have inst's n(n - 1) entries, and its
    final value must be the cost, under inst, of the arcs it sets to 1."""
    if trace is not None and trace.complete and trace.final_integral:
        point = trace.final_point
        arcs = arc_list(inst.n)
        if len(point) != len(arcs) or trace.final_value != sum(
            inst.cost[i][j] for (i, j), x in zip(arcs, point) if x == 1
        ):
            raise ValidationError("the cutting-plane trace is not one of this instance")
        return trace.final_value
    return tsp_oracle(inst)


def integrality_gap(
    inst: TspInstance,
    relaxation: Optional[RelaxationDesc] = None,
    thresholds: Iterable = (),
) -> GapReport:
    """Exact gap between the chosen relaxation (None is the degree one)
    and the tour optimum; each threshold X contributes a recorded
    (LP answer, ILP answer) pair for the question "is a tour of cost at
    most X possible". A float threshold is refused first, then a bad cut
    subset, as the fixed-cut program is built. A fixed program holds no
    certificate of the optimum, so the tour oracle runs next and an
    instance past its budget is refused before any relaxation solve.
    The cutting-plane loop runs first and tour_optimum reads its trace:
    a loop that ends complete on a tour has proved the optimum at any
    size, and only one that does not is refused past the oracle's
    budget, after its loop."""
    thresholds = tuple(thresholds)
    require_exact(thresholds, "thresholds")
    relaxation = _read_relaxation(relaxation)
    program, trace = _build_relaxation(inst, relaxation)
    ilp_value = tour_optimum(inst, trace)
    lp_value, rows_used, rounds = _relaxation_value(inst, program, trace)
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
        return tour_optimum(inst) <= x
    if via == VIA_LP:
        program, trace = _build_relaxation(inst, _read_relaxation(relaxation))
        value, _, _ = _relaxation_value(inst, program, trace)
        return value <= x
    raise ValidationError(f"unknown decision route {via!r}")
