"""Exact-arithmetic LP/ILP toolkit for measuring what truncated
polytope models get wrong: adversarial objectives against omitted
facets, valley TSP integrality gaps, cutting-plane traces, and
information-theoretic storage bounds. Every solver path runs on exact
rationals."""

from .bounds import (
    StorageBound,
    min_symbols_single,
    min_symbols_subset,
    monotone_model_demo,
    subset_growth_table,
)
from .errors import BudgetExceededError, ValidationError
from .gaps import (
    GapReport,
    RelaxationDesc,
    decide_tour_at_most,
    integrality_gap,
)
from .hull import (
    AdversarialGap,
    ArcPolytope,
    adversarial_objective,
    gen_arc,
    subset_gap_scan,
)
from .ilp import tsp_oracle
from .lp import (
    Constraint,
    LinearProgram,
    LpOutcome,
    SolveStatus,
    solve_lp,
)
from .rationals import Rational, format_rational, parse_rational
from .valleys import (
    TspInstance,
    check_flow_feasibility,
    cutting_plane_loop,
    degree_lp,
    gen_valley_instance,
    separate_subtour,
    subtour_cut,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialGap",
    "ArcPolytope",
    "BudgetExceededError",
    "Constraint",
    "GapReport",
    "LinearProgram",
    "LpOutcome",
    "Rational",
    "RelaxationDesc",
    "SolveStatus",
    "StorageBound",
    "TspInstance",
    "ValidationError",
    "adversarial_objective",
    "check_flow_feasibility",
    "cutting_plane_loop",
    "decide_tour_at_most",
    "degree_lp",
    "format_rational",
    "gen_arc",
    "gen_valley_instance",
    "integrality_gap",
    "min_symbols_single",
    "min_symbols_subset",
    "monotone_model_demo",
    "parse_rational",
    "separate_subtour",
    "solve_lp",
    "subset_gap_scan",
    "subset_growth_table",
    "subtour_cut",
    "tsp_oracle",
]
