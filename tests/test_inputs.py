"""Every count and index argument follows one rule: an int, not a bool,
in its range (rationals.require_int), or distinct such ints
(rationals.require_indices). Each entry point refuses a float, a bool
and an out-of-range value with ValidationError before it builds a
model, solves, runs the tour oracle or counts a subset."""

from argparse import Namespace

import pytest

from oracles import valley_internal_cycles_flow
from lpgaps import bounds, cli, gaps, hull, lp, valleys
from lpgaps.errors import ValidationError
from lpgaps.gaps import CUTTING_PLANE, DEGREE_WITH_CUTS, RelaxationDesc, integrality_gap
from lpgaps.valleys import TspInstance, gen_valley_instance

INST = gen_valley_instance(3, 2)
FLOW = valley_internal_cycles_flow(INST)
CAPPED = lp.LinearProgram(
    [1, 1], "max", [lp.Constraint([1, 1], "<=", 1)], upper_bounds=[1, 1]
)

# (entry point, call taking the bad value, a float, a bool, out of range);
# each bool is in range where True (1) can be, so only its type refuses it
CASES = [
    ("solve_lp at_upper", lambda x: lp.solve_lp(CAPPED, at_upper=[x]), 1.0, True, 2),
    ("gen_arc", hull.gen_arc, 4.0, True, hull.MAX_VERTICES + 1),
    ("polytope_lp", lambda x: hull.polytope_lp(hull.gen_arc(4), (0, 1), [x]),
     1.0, True, -1),
    ("facet_gap", lambda x: hull.facet_gap(hull.gen_arc(4), x, [0, 2]), 1.0, True, 3),
    ("scan budget", lambda x: hull.subset_gap_scan(hull.gen_arc(8), x), 1.0, True, 8),
    # 16 facets keep 8 in 12870 ways, so the scan samples
    ("scan sample count",
     lambda x: hull.subset_gap_scan(hull.gen_arc(17), 8, sample_count=x),
     5.0, True, 12871),
    ("scan seed", lambda x: hull.subset_gap_scan(hull.gen_arc(17), 8, seed=x),
     0.0, True, -1),
    ("TspInstance n", lambda x: TspInstance(x, (0, 1), ((0, 1), (1, 0))), 2.0, True, 1),
    ("valley id", lambda x: TspInstance(2, (0, x), ((0, 1), (1, 0))), 1.0, True, 2),
    ("valley count", lambda x: gen_valley_instance(x, 2), 2.0, True, 1),
    ("cities per valley", lambda x: gen_valley_instance(3, x), 2.0, True, 0),
    ("subtour_cut", lambda x: valleys.subtour_cut(INST, [x, 2]), 0.5, True, 6),
    ("relaxation_with_cuts", lambda x: valleys.relaxation_with_cuts(INST, [(x, 2)]),
     0.5, True, -1),
    ("gap report cuts",
     lambda x: integrality_gap(INST, RelaxationDesc(DEGREE_WITH_CUTS, ((x, 2),))),
     0.5, True, 6),
    ("RelaxationDesc cuts", lambda x: RelaxationDesc(DEGREE_WITH_CUTS, ((x, 2),)),
     0.5, True, -1),
    ("check_flow_feasibility",
     lambda x: valleys.check_flow_feasibility(INST, FLOW, [(x, 2)]), 0.5, True, 6),
    ("flow_from_arcs", lambda x: valleys.flow_from_arcs(INST, [(x, 2, 1)]),
     0.0, True, 6),
    ("cutting_plane_loop", lambda x: valleys.cutting_plane_loop(INST, x), 2.0, True, 0),
    ("gap report rounds",
     lambda x: integrality_gap(INST, RelaxationDesc(CUTTING_PLANE, max_rounds=x)),
     2.5, True, 0),
    ("ceil_log2", bounds.ceil_log2, 4.0, True, 0),
    ("min_symbols_single", bounds.min_symbols_single, 2.5, True, 0),
    ("subset total", lambda x: bounds.min_symbols_subset(x, 1), 9.0, True,
     bounds.MAX_SUBSET_TOTAL + 1),
    ("subset chosen", lambda x: bounds.min_symbols_subset(9, x), 3.0, True, 10),
    ("growth n_from", lambda x: bounds.subset_growth_table(x, 5), 4.0, True, 1),
    ("growth n_to", lambda x: bounds.subset_growth_table(4, x), 5.0, True,
     bounds.MAX_GROWTH_N + 1),
    ("cli cut valley",
     lambda x: cli._cut_subsets(Namespace(cut_valley=[x], cut_cities=[]), INST),
     0.0, True, 3),
]


def never(*args, **kwargs):
    raise AssertionError("work ran before the argument was refused")


@pytest.fixture
def no_work(monkeypatch):
    """Any model build, tableau, tour oracle call or subset count fails."""
    for module, name in [
        (lp._Tableau, "__init__"), (gaps, "tsp_oracle"), (hull, "LinearProgram"),
        (valleys, "LinearProgram"), (valleys, "arc_list"), (bounds, "comb"),
    ]:
        monkeypatch.setattr(module, name, never)


@pytest.mark.parametrize("kind", ["float", "bool", "out of range"])
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_entry_point_refuses_a_bad_count_or_index_before_any_work(no_work, case, kind):
    _, call, *values = case
    value = values[["float", "bool", "out of range"].index(kind)]
    with pytest.raises(ValidationError):
        call(value)
