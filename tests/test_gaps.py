import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    arc_index_map,
    held_karp_cost,
    point_feasible,
    valley_cut_subsets,
    valley_internal_cycles_flow,
)
from test_valleys import FRACTIONAL_END_COSTS
from lpgaps import gaps, lp, valleys
from lpgaps.errors import BudgetExceededError, ValidationError
from lpgaps.gaps import (
    CUTTING_PLANE,
    DEGREE,
    DEGREE_WITH_CUTS,
    VIA_ILP,
    VIA_LP,
    InstanceInfo,
    RelaxationDesc,
    decide_tour_at_most,
    integrality_gap,
)
from lpgaps.ilp import tsp_oracle
from lpgaps.lp import _Tableau, solve_lp
from lpgaps.valleys import (
    DEFAULT_ROUNDS,
    _cover_columns,
    arc_list,
    cutting_plane_loop,
    gen_valley_instance,
    instance_from_cost_matrix,
    relaxation_with_cuts,
)


def test_degree_gap_headline():
    inst = gen_valley_instance(10, 2)
    report = integrality_gap(inst, RelaxationDesc(DEGREE))
    assert report.lp_value == 0
    assert report.ilp_value == 10
    assert report.gap == 10
    assert report.gap_ratio is None
    assert "infinite" in report.gap_ratio_note
    assert report.variables_used == 20 * 19
    assert report.constraints_used == 40
    assert report.rounds == 0


@pytest.mark.parametrize("relaxation", [
    RelaxationDesc(DEGREE),
    RelaxationDesc(DEGREE_WITH_CUTS, ((0, 1),)),
    RelaxationDesc(CUTTING_PLANE, max_rounds=50),
])
def test_variables_used_are_the_last_solved_programs(monkeypatch, relaxation):
    columns = []

    def recording_solve(program, **kwargs):
        columns.append(program.num_vars)
        return solve_lp(program, **kwargs)

    monkeypatch.setattr(valleys, "solve_lp", recording_solve)
    report = integrality_gap(gen_valley_instance(3, 2), relaxation)
    assert report.variables_used == columns[-1] == 6 * 5


def test_full_valley_cuts_close_the_gap():
    inst = gen_valley_instance(4, 2)
    cuts = RelaxationDesc(DEGREE_WITH_CUTS, valley_cut_subsets(inst))
    report = integrality_gap(inst, cuts)
    assert report.lp_value == 4
    assert report.ilp_value == 4
    assert report.gap == 0
    assert report.gap_ratio == 1
    assert report.constraints_used == 16 + 4


def test_degenerate_valleys_have_no_gap():
    report = integrality_gap(gen_valley_instance(4, 1), RelaxationDesc(DEGREE))
    assert report.lp_value == 4 and report.ilp_value == 4 and report.gap == 0


def test_cutting_plane_relaxation_reports_rounds():
    inst = gen_valley_instance(4, 2)
    report = integrality_gap(inst, RelaxationDesc(CUTTING_PLANE, max_rounds=50))
    assert report.lp_value == 4
    assert report.gap == 0
    assert report.rounds >= 2
    assert report.constraints_used == 16 + report.rounds - 1


def test_decision_disagreement_is_recorded():
    inst = gen_valley_instance(10, 2)
    report = integrality_gap(inst, RelaxationDesc(DEGREE), thresholds=[9])
    answer = report.decision_answers[0]
    assert answer.threshold == 9
    assert answer.lp_answer is True
    assert answer.ilp_answer is False
    assert answer.agree is False


def test_agreement_cases():
    inst = gen_valley_instance(4, 2)
    cuts = RelaxationDesc(DEGREE_WITH_CUTS, valley_cut_subsets(inst))
    report = integrality_gap(inst, cuts, thresholds=[3, 4, 5])
    verdicts = [(a.lp_answer, a.ilp_answer, a.agree) for a in report.decision_answers]
    assert verdicts == [
        (False, False, True),
        (True, True, True),
        (True, True, True),
    ]


def test_lp_no_implies_ilp_no():
    for k, c in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)]:
        inst = gen_valley_instance(k, c)
        thresholds = [Fraction(t, 2) for t in range(0, 2 * k + 3)]
        report = integrality_gap(inst, RelaxationDesc(DEGREE), thresholds=thresholds)
        for answer in report.decision_answers:
            if not answer.lp_answer:
                assert not answer.ilp_answer
            # disagreement happens exactly on phantom YES answers
            assert (not answer.agree) == (answer.lp_answer and not answer.ilp_answer)


def test_reports_carry_decision_form():
    report = integrality_gap(gen_valley_instance(2, 2), RelaxationDesc(DEGREE))
    assert report.decision_form == "cost-at-most"


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ratio_flagged_infinite_for_free_circulations(k):
    report = integrality_gap(gen_valley_instance(k, 2), RelaxationDesc(DEGREE))
    assert report.lp_value == 0
    assert report.ilp_value == k
    assert report.gap_ratio is None
    assert "infinite" in report.gap_ratio_note


@pytest.mark.parametrize("costs, lp_value, ilp_value", [
    # two 2-city valleys whose inner arcs cost -1 and crossings 5
    ([[0, -1, 5, 5], [-1, 0, 5, 5], [5, 5, 0, -1], [5, 5, -1, 0]], -4, 8),
    # the cheap cycle 0 -> 1 -> 2 -> 0 is the tour, at -3 on both sides
    ([[0, -1, 5], [5, 0, -1], [-1, 5, 0]], -3, -3),
])
def test_negative_relaxation_value_has_no_ratio(costs, lp_value, ilp_value):
    report = integrality_gap(instance_from_cost_matrix(costs))
    assert (report.lp_value, report.ilp_value) == (lp_value, ilp_value)
    assert report.gap_ratio is None
    assert report.gap_ratio_note == "undefined: relaxation value is negative"


def test_zero_values_have_an_indeterminate_ratio():
    report = integrality_gap(instance_from_cost_matrix([[0, 0, 0]] * 3))
    assert (report.lp_value, report.ilp_value, report.gap) == (0, 0, 0)
    assert report.gap_ratio is None
    assert report.gap_ratio_note == "indeterminate: both values are 0"


def test_cost_matrix_instance_records_no_valley_fields():
    inst = instance_from_cost_matrix([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    report = integrality_gap(inst)
    assert report.instance == InstanceInfo(3, None, None, None, None)
    assert report.gap_ratio == 1


def test_decide_routes():
    inst10 = gen_valley_instance(10, 1)
    assert decide_tour_at_most(inst10, 10, VIA_ILP) is True
    assert decide_tour_at_most(inst10, 9, VIA_ILP) is False

    inst = gen_valley_instance(4, 2)
    assert decide_tour_at_most(inst, 3, VIA_LP) is True  # phantom YES
    assert decide_tour_at_most(inst, 3, VIA_ILP) is False
    assert (
        decide_tour_at_most(
            inst, 3, VIA_LP, RelaxationDesc(DEGREE_WITH_CUTS, valley_cut_subsets(inst))
        )
        is False
    )


def test_decide_validation():
    with pytest.raises(ValidationError):
        decide_tour_at_most(gen_valley_instance(4, 2), 3, "oracle")
    with pytest.raises(ValidationError):
        integrality_gap(gen_valley_instance(4, 2), RelaxationDesc("bogus"))
    with pytest.raises(ValidationError, match="unknown relaxation kind 'bogus'"):
        RelaxationDesc("bogus")


def never_solve(*args):
    raise AssertionError("solved before the threshold check")


def test_gap_report_refuses_a_float_threshold_before_any_solve(monkeypatch):
    # a report renders a threshold as p/q, so 0.1 used to be recorded as
    # 3602879701896397/36028797018963968
    monkeypatch.setattr(gaps, "tsp_oracle", never_solve)
    with pytest.raises(ValidationError, match="thresholds must be exact"):
        integrality_gap(gen_valley_instance(3, 2), RelaxationDesc(DEGREE), [0.1])


def test_decision_refuses_a_float_threshold_before_any_solve(monkeypatch):
    monkeypatch.setattr(gaps, "tsp_oracle", never_solve)
    with pytest.raises(ValidationError, match="thresholds must be exact"):
        decide_tour_at_most(gen_valley_instance(3, 2), 2.9, VIA_ILP)


def test_the_ilp_route_refuses_a_relaxation_before_the_oracle_runs(monkeypatch):
    # the ilp route used to ignore the relaxation it was given
    monkeypatch.setattr(gaps, "tsp_oracle", never_solve)
    with pytest.raises(ValidationError, match="reads no relaxation"):
        decide_tour_at_most(
            gen_valley_instance(4, 2), 3, VIA_ILP, RelaxationDesc(DEGREE)
        )


def test_the_lp_route_reads_no_relaxation_as_degree():
    # None, which the CLI passes on the ilp route, used to raise
    # AttributeError on the lp route
    inst = gen_valley_instance(4, 2)
    answer = decide_tour_at_most(inst, 3, VIA_LP, None)
    assert answer == decide_tour_at_most(inst, 3, VIA_LP)
    assert answer is True


def test_integrality_gap_reads_no_relaxation_as_degree():
    # None raised AttributeError here while the lp route of
    # decide_tour_at_most read it as degree
    inst = gen_valley_instance(4, 2)
    report = integrality_gap(inst, None, thresholds=[3])
    assert report == integrality_gap(inst, RelaxationDesc(DEGREE), thresholds=[3])
    assert report.relaxation == RelaxationDesc(DEGREE)
    assert (report.lp_value, report.ilp_value) == (0, 4)


def test_reports_are_deterministic():
    inst = gen_valley_instance(4, 2)
    cutting = RelaxationDesc(CUTTING_PLANE, max_rounds=50)
    a = integrality_gap(inst, cutting, thresholds=[3, 4])
    b = integrality_gap(inst, cutting, thresholds=[3, 4])
    assert a == b


@pytest.mark.parametrize(
    "relaxation",
    [
        RelaxationDesc(DEGREE),
        RelaxationDesc(DEGREE_WITH_CUTS, ((0, 1, 2),)),
    ],
)
def test_oracle_budget_is_checked_after_the_relaxation(monkeypatch, relaxation):
    # every relaxation runs first; a fixed program proves no tour
    # optimum, so the oracle runs after its one solve and refuses n = 21
    seen = record_solves(monkeypatch)
    inst = gen_valley_instance(7, 3)
    with pytest.raises(BudgetExceededError):
        integrality_gap(inst, relaxation)
    assert seen == [{"at_upper": _cover_columns(inst)}]


def test_a_cut_loop_that_ends_on_a_tour_gives_the_gap_past_the_oracle_budget(
    monkeypatch,
):
    # n = 21: the loop runs first, and its trace proves the optimum
    def never(*args):
        raise AssertionError("the tour oracle ran after a loop that ended on a tour")

    monkeypatch.setattr(gaps, "tsp_oracle", never)
    inst = gen_valley_instance(7, 3)
    report = integrality_gap(inst, RelaxationDesc(CUTTING_PLANE, max_rounds=50))
    assert (report.lp_value, report.ilp_value, report.gap) == (7, 7, 0)
    assert report.gap_ratio == 1


def record_calls(monkeypatch, name):
    """Wrap gaps.<name> so that each call's result is appended to the
    list returned."""
    results = []
    call = getattr(gaps, name)

    def recording(*args):
        results.append(call(*args))
        return results[-1]

    monkeypatch.setattr(gaps, name, recording)
    return results


def test_a_cut_loop_that_ends_off_a_tour_is_refused_past_the_oracle_budget(
    monkeypatch,
):
    # one round ends on the degree LP's cycle cover, which a cut
    # separates, so only the oracle could give the optimum, and n = 21
    # is past its budget
    loops = record_calls(monkeypatch, "cutting_plane_loop")
    inst = gen_valley_instance(7, 3)
    with pytest.raises(BudgetExceededError):
        integrality_gap(inst, RelaxationDesc(CUTTING_PLANE, max_rounds=1))
    assert len(loops) == 1 and not loops[0].complete


def test_bad_cut_subset_is_refused_before_the_oracle_budget(monkeypatch):
    def never(*args):
        raise AssertionError("the tour oracle ran before the cut subsets were checked")

    monkeypatch.setattr(gaps, "tsp_oracle", never)
    inst = gen_valley_instance(21, 1)  # n = 21 > 20
    with pytest.raises(ValidationError, match=re.escape("ints in 0..20, not 99")):
        integrality_gap(inst, RelaxationDesc(DEGREE_WITH_CUTS, ((0, 99),)))


def test_repeated_cut_subset_is_refused_before_the_oracle(monkeypatch):
    def never(*args):
        raise AssertionError("the tour oracle ran before the cut subsets were checked")

    monkeypatch.setattr(gaps, "tsp_oracle", never)
    inst = gen_valley_instance(3, 2)
    with pytest.raises(ValidationError, match="named more than once"):
        integrality_gap(inst, RelaxationDesc(DEGREE_WITH_CUTS, ((0, 1), (1, 0))))


@pytest.mark.parametrize("kwargs, message", [
    # the degree relaxation reads neither cuts nor a round budget
    (dict(kind="degree", cut_subsets=((0, 1),)), "cut_subsets need the degree+cuts"),
    (dict(kind="degree", max_rounds=7), "max_rounds needs the cutting-plane"),
    (dict(kind="cutting-plane", cut_subsets=((0, 1),), max_rounds=5),
     "cut_subsets need the degree+cuts"),
    (dict(kind="degree+cuts", cut_subsets=((0, 1),), max_rounds=3),
     "max_rounds needs the cutting-plane"),
    (dict(kind="cutting-plane"), "max_rounds must be at least 1, not 0"),
    (dict(kind="cutting-plane", max_rounds=-2), "max_rounds must be at least 1, not -2"),
])
def test_relaxation_refuses_a_field_its_kind_never_reads(monkeypatch, kwargs, message):
    def never(*args):
        raise AssertionError("the tour oracle ran before the refusal")

    monkeypatch.setattr(gaps, "tsp_oracle", never)
    with pytest.raises(ValidationError, match=re.escape(message)):
        integrality_gap(gen_valley_instance(4, 2), RelaxationDesc(**kwargs))


def test_a_cuts_relaxation_needs_a_cut_subset():
    # with none it ran as the degree relaxation under another kind, and
    # its description was unequal to the degree one
    with pytest.raises(ValidationError, match="needs at least one cut subset"):
        RelaxationDesc(DEGREE_WITH_CUTS)


@pytest.mark.parametrize("city", ["a", None, 1.0, True, -1])
def test_cuts_relaxation_checks_each_city_before_sorting(city):
    # a string or None raised TypeError from the sort, and 1.0 or True
    # was recorded as given
    with pytest.raises(ValidationError, match="city must be"):
        RelaxationDesc(DEGREE_WITH_CUTS, ((city, 1),))
    with pytest.raises(ValidationError, match="city must be"):
        RelaxationDesc(DEGREE_WITH_CUTS, ((1, city),))


def test_cuts_relaxation_names_a_repeated_city_as_given():
    with pytest.raises(ValidationError, match=re.escape("[1, 0, 1] names a city more")):
        RelaxationDesc(DEGREE_WITH_CUTS, ((1, 0, 1),))


@pytest.mark.parametrize("cut_subsets, message", [
    (((0, 0, 1),), "[0, 0, 1] names a city more than once"),
    (([0, 1],), "cut_subsets must be a tuple of tuples"),
    ([(0, 1)], "cut_subsets must be a tuple of tuples"),
    (((0, "a"),), "city must be an int, not str 'a'"),
    (((-1, 2),), "city must be at least 0, not -1"),
])
def test_a_relaxation_needs_a_tuple_of_tuples_of_distinct_cities(cut_subsets, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        RelaxationDesc("degree+cuts", cut_subsets)


def test_one_cut_relaxation_has_one_description():
    # the order a caller lists cities in is not part of the relaxation:
    # each subset is stored with its cities sorted, and the subsets sorted
    made = RelaxationDesc("degree+cuts", ((1, 0), (3, 2), (0, 2, 1)))
    assert made.cut_subsets == ((0, 1), (0, 1, 2), (2, 3))
    assert made == RelaxationDesc("degree+cuts", ((0, 1), (2, 3), (0, 1, 2)))
    assert hash(made) == hash(RelaxationDesc("degree+cuts", made.cut_subsets))


def test_the_order_of_cut_subsets_is_not_part_of_a_description():
    made = RelaxationDesc("degree+cuts", ((2, 3), (0, 1)))
    same = RelaxationDesc("degree+cuts", ((0, 1), (2, 3)))
    assert made == same and hash(made) == hash(same)
    assert made.cut_subsets == ((0, 1), (2, 3))
    # one city set named twice, in either order of its cities, is refused
    # when the description is made, not when its program is built
    for subsets in (((0, 1), (2, 3), (0, 1)), ((1, 0), (2, 3), (0, 1))):
        with pytest.raises(ValidationError,
                           match=re.escape("cut subset [0, 1] is named more than once")):
            RelaxationDesc("degree+cuts", subsets)


def lower_corner_value(inst, relaxation):
    return solve_lp(relaxation_with_cuts(inst, relaxation.cut_subsets)).value


@pytest.mark.parametrize("k, c, intra, crossing", [
    (2, 1, 0, 1), (6, 1, Fraction(1, 3), 2),
    (3, 2, 0, 1), (4, 2, Fraction(1, 7), Fraction(5, 3)),
    (2, 3, 1, 4), (3, 3, Fraction(1, 2), 3),
    (2, 4, 0, 1), (3, 4, Fraction(2, 5), Fraction(7, 2)),
])
def test_tour_start_gives_the_lower_corner_value_on_valleys(k, c, intra, crossing):
    inst = gen_valley_instance(k, c, intra, crossing)
    relaxations = [RelaxationDesc(DEGREE)]
    if c > 1:
        subsets = valley_cut_subsets(inst)
        relaxations += [RelaxationDesc(DEGREE_WITH_CUTS, subsets[:1]),
                        RelaxationDesc(DEGREE_WITH_CUTS, subsets)]
    for relaxation in relaxations:
        report = integrality_gap(inst, relaxation)
        assert report.lp_value == lower_corner_value(inst, relaxation)


def test_tour_start_gives_the_lower_corner_value_on_cost_matrices():
    rng = random.Random(20061)
    for n in range(2, 8):
        for _ in range(10):
            inst = instance_from_cost_matrix([
                [Fraction(rng.randint(-4, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ])
            relaxations = [RelaxationDesc(DEGREE)]
            if n >= 3:
                subsets = {
                    tuple(sorted(rng.sample(range(n), rng.randint(2, n - 1))))
                    for _ in range(rng.randint(1, 3))
                }
                relaxations.append(RelaxationDesc(DEGREE_WITH_CUTS, tuple(subsets)))
            for relaxation in relaxations:
                report = integrality_gap(inst, relaxation)
                assert report.lp_value == lower_corner_value(inst, relaxation)


def record_solves(monkeypatch):
    """Wrap valleys.solve_lp, which every tour-relaxation solve calls;
    returns the list that gets each call's keyword arguments."""
    seen = []

    def recording_solve(program, **kwargs):
        seen.append(kwargs)
        return solve_lp(program, **kwargs)

    monkeypatch.setattr(valleys, "solve_lp", recording_solve)
    return seen


def test_the_relaxation_solve_starts_at_a_swapped_cover(monkeypatch):
    inst = gen_valley_instance(4, 2, Fraction(1, 3), 2)
    seen = record_solves(monkeypatch)
    integrality_gap(inst, RelaxationDesc(DEGREE))
    integrality_gap(inst, RelaxationDesc(DEGREE_WITH_CUTS, valley_cut_subsets(inst)))
    index = arc_index_map(inst.n)
    # both solves start at the valley 2-cycles, the degree LP's optimum;
    # every valley cut breaks there, for the dual simplex to repair
    cycles = sorted(index[(i, j)] for i, j, _ in valley_internal_cycles_flow(inst))
    assert seen == [{"at_upper": tuple(cycles)}] * 2


@st.composite
def cover_cases(draw):
    """A valley instance or a random cost matrix."""
    if draw(st.booleans()):
        intra = draw(st.fractions(0, 2, max_denominator=7))
        crossing = intra + draw(st.fractions(Fraction(1, 7), 3, max_denominator=7))
        return gen_valley_instance(
            draw(st.integers(2, 4)), draw(st.integers(1, 3)), intra, crossing
        )
    n = draw(st.integers(2, 7))
    entry = st.fractions(-4, 9, max_denominator=4)
    return instance_from_cost_matrix(draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    )))


@settings(max_examples=150, deadline=None)
@given(cover_cases())
def test_property_the_cover_start_is_a_vertex_no_dearer_than_the_tour(inst):
    # the tour is 0, 1, ..., n - 1, the one the successor swaps start from
    columns = _cover_columns(inst)
    arcs = [arc_list(inst.n)[col] for col in columns]
    cities = list(range(inst.n))
    # one arc out of and one arc into each city: a cycle cover
    assert sorted(i for i, _ in arcs) == cities == sorted(j for _, j in arcs)
    point = [int(col in columns) for col in range(len(arc_list(inst.n)))]
    assert point_feasible(relaxation_with_cuts(inst, ()), point)
    tour_cost = sum(inst.cost[i][(i + 1) % inst.n] for i in cities)
    assert sum(inst.cost[i][j] for i, j in arcs) <= tour_cost


def count_eliminations(monkeypatch, run):
    """The rows the elimination kernel clears while run() runs, however
    many of them each call passes."""
    rows_cleared = 0
    eliminate = lp._eliminate

    def counting(rows, *args):
        nonlocal rows_cleared
        rows = list(rows)
        rows_cleared += len(rows)
        return eliminate(rows, *args)

    with monkeypatch.context() as patched:
        patched.setattr(lp, "_eliminate", counting)
        run()
    return rows_cleared


@pytest.mark.parametrize(
    "shape, counts", [((8, 2), (0, 16)), ((10, 1), (20, 114))], ids=["8x2", "10x1"]
)
def test_cover_start_makes_fewer_eliminations_than_the_lower_corner(
    monkeypatch, shape, counts
):
    # (cover, lower corner) row eliminations: at the swapped cover every
    # degree row holds, so the dual makes no basis change, and at (8, 2)
    # the cover is an optimum, where the primal makes none either; from
    # the lower corner the dual repairs every degree row
    inst = gen_valley_instance(*shape)
    program = relaxation_with_cuts(inst, ())
    lower = count_eliminations(monkeypatch, lambda: solve_lp(program))
    cover = count_eliminations(monkeypatch, lambda: integrality_gap(inst))
    assert (cover, lower) == counts


@pytest.mark.parametrize(
    "relaxation",
    [
        RelaxationDesc(DEGREE),
        RelaxationDesc(DEGREE_WITH_CUTS, ((0, 1), (2, 3))),
        RelaxationDesc(CUTTING_PLANE, max_rounds=50),
    ],
)
def test_decide_via_the_relaxation_never_runs_the_oracle(monkeypatch, relaxation):
    def never(*args):
        raise AssertionError("the tour oracle ran on the relaxation route")

    monkeypatch.setattr(gaps, "tsp_oracle", never)
    seen = record_solves(monkeypatch)
    dual_moves = []
    in_dual = False
    dual, replace_basis = _Tableau.dual, _Tableau._replace

    def recording_dual(self):
        nonlocal in_dual
        dual_moves.append(0)
        in_dual = True
        try:
            return dual(self)
        finally:
            in_dual = False

    def recording_replace(self, *args):
        if in_dual:
            dual_moves[-1] += 1
        return replace_basis(self, *args)

    monkeypatch.setattr(_Tableau, "dual", recording_dual)
    monkeypatch.setattr(_Tableau, "_replace", recording_replace)
    inst = gen_valley_instance(4, 2)
    # every one of these relaxations is worth at most the tour's 4
    assert decide_tour_at_most(inst, 4, VIA_LP, relaxation) is True
    # a fixed program is one solve from the cycle cover that swaps
    # reach from the identity tour, and so is the cutting-plane loop's
    # first round, whose later rounds each start from the last round's
    # outcome; every degree row holds at the cover, so the first solve's
    # dual simplex makes a basis change only to repair a fixed cut, and
    # the cover, the valley 2-cycles, breaks both of these
    assert seen[0] == {"at_upper": _cover_columns(inst)}
    assert (len(seen) == 1) is (relaxation.kind != CUTTING_PLANE)
    assert all(list(kwargs) == ["start"] for kwargs in seen[1:])
    assert (dual_moves[0] > 0) is bool(relaxation.cut_subsets)


# ---------------------------------------------------------------------------
# The tour-optimum rule: a loop that ends complete on an integral point
# has found a tour of optimal cost, checked here by walking the point's
# successors and against two Held-Karp programs, never by the rule

# past 16 cities the plain-list Held-Karp of tests/oracles.py takes
# seconds (0.3 s at 16, 1.3 s at 18, about four times more per two
# cities); there the valley closed form k * crossing + k (c - 1) * intra
# stands beside the production oracle instead
HELD_KARP_TEST_CITIES = 16
RULE_COSTS = [(Fraction(0), Fraction(1)), (Fraction(1, 7), Fraction(5, 3)),
              (Fraction(1, 3), Fraction(2))]
RULE_SHAPES = [(k, c) for c in (2, 3, 4) for k in range(2, 20 // c + 1)]


def _hamiltonian_cycle(n, point):
    """The tour whose arcs are the 1-entries of an integral point, read
    by walking successors from city 0; fails unless the point is one
    cycle through all n cities."""
    assert all(x in (0, 1) for x in point)
    succ = {}
    for (i, j), x in zip(arc_list(n), point):
        if x:
            assert i not in succ, f"city {i} has two successors"
            succ[i] = j
    tour, city = [0], succ[0]
    while city != 0:
        assert len(tour) < n, "the successor walk does not return to 0"
        tour.append(city)
        city = succ[city]
    assert sorted(tour) == list(range(n)) and len(succ) == n
    return tour


def _check_rule(inst, trace):
    """When the loop ended complete on an integral point, its final
    point is one tour of its final value, the optimum of both Held-Karp
    programs (the test one up to HELD_KARP_TEST_CITIES), and the trace
    states that value as the tour optimum, else it states none; returns
    whether it did."""
    if not (trace.complete and trace.final_integral):
        assert trace.tour_optimum is None
        return False
    tour = _hamiltonian_cycle(inst.n, trace.final_point)
    closed = zip(tour, tour[1:] + tour[:1])
    assert sum(inst.cost[i][j] for i, j in closed) == trace.final_value
    assert trace.final_value == tsp_oracle(inst)
    if inst.n <= HELD_KARP_TEST_CITIES:
        assert trace.final_value == held_karp_cost(inst.cost)
    assert trace.tour_optimum == trace.final_value
    return True


@pytest.mark.parametrize("intra, crossing", RULE_COSTS)
@pytest.mark.parametrize("k, c", RULE_SHAPES)
def test_a_cut_loop_that_ends_on_a_tour_has_the_tour_optimum(k, c, intra, crossing):
    inst = gen_valley_instance(k, c, intra, crossing)
    trace = cutting_plane_loop(inst)
    # every valley loop within the oracle's budget ends on a tour
    assert _check_rule(inst, trace)
    assert trace.final_value == k * crossing + k * (c - 1) * intra


def seeded_metric_matrix(rng, n):
    """An n-city matrix of arc costs drawn from {1, 2, 3, 5, 8, 13} and
    closed under shortest paths (Floyd-Warshall), so it is metric."""
    cost = [[0 if i == j else rng.choice((1, 2, 3, 5, 8, 13)) for j in range(n)]
            for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                cost[i][j] = min(cost[i][j], cost[i][m] + cost[m][j])
    return cost


def test_the_tour_rule_on_random_metric_instances(monkeypatch):
    # the gap report takes the trace's optimum, and runs the oracle
    # only on a loop that proved none
    loops = record_calls(monkeypatch, "cutting_plane_loop")
    oracles = record_calls(monkeypatch, "tsp_oracle")
    cutting = RelaxationDesc(CUTTING_PLANE, max_rounds=DEFAULT_ROUNDS)
    rng = random.Random(48)
    ended = {True: 0, False: 0}
    for n in range(5, HELD_KARP_TEST_CITIES + 1):
        for _ in range(3):
            inst = instance_from_cost_matrix(seeded_metric_matrix(rng, n))
            loops.clear()
            oracles.clear()
            report = integrality_gap(inst, cutting)
            on_a_tour = _check_rule(inst, loops[0])
            assert len(oracles) == (not on_a_tour)
            if not on_a_tour:
                assert report.ilp_value == held_karp_cost(inst.cost)
            ended[on_a_tour] += 1
    # 26 of the 36 loops end on a tour, the rest on a fractional point
    assert ended[True] >= 12 and ended[False] >= 1


def test_a_cut_loop_that_ends_on_a_fractional_point_takes_the_oracle(monkeypatch):
    # the 6-city instance whose loop ends complete on a fractional
    # vertex of the subtour LP
    loops = record_calls(monkeypatch, "cutting_plane_loop")
    oracles = record_calls(monkeypatch, "tsp_oracle")
    inst = instance_from_cost_matrix(FRACTIONAL_END_COSTS)
    cutting = RelaxationDesc(CUTTING_PLANE, max_rounds=DEFAULT_ROUNDS)
    report = integrality_gap(inst, cutting)
    assert loops[0].complete and not loops[0].final_integral
    assert report.ilp_value == oracles[0] == 12 == held_karp_cost(inst.cost)
    assert len(oracles) == 1


def test_the_trace_states_the_tour_optimum_only_when_it_ends_on_a_tour():
    inst = gen_valley_instance(4, 2)
    # one round ends on the degree LP's cycle cover: integral, but a
    # subtour cut separates it
    short = cutting_plane_loop(inst, 1)
    assert short.final_integral and not short.complete
    assert short.tour_optimum is None
    fractional = cutting_plane_loop(instance_from_cost_matrix(FRACTIONAL_END_COSTS))
    assert fractional.complete and not fractional.final_integral
    assert fractional.tour_optimum is None
    trace = cutting_plane_loop(inst)
    assert trace.complete and trace.final_integral
    assert trace.tour_optimum == trace.final_value == 4
