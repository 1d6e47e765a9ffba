import hashlib
from fractions import Fraction

import pytest

from oracles import best_vertex_value, envelope_relaxed_max, shows_a_gap
from lpgaps import hull
from lpgaps.errors import BudgetExceededError, ValidationError
from lpgaps.hull import (
    MAX_VERTICES,
    adversarial_objective,
    facet_gap,
    gen_arc,
    polytope_lp,
    subset_gap_scan,
)
from lpgaps.lp import LESS_EQ, Constraint, solve_lp


def lhs(row, point):
    return sum(a * v for a, v in zip(row.coeffs, point))


def test_minimal_chain():
    poly = gen_arc(2)
    assert poly.vertices == ((0, 0), (1, 3))
    assert poly.facets == (Constraint((-3, 1), LESS_EQ, 0),)


def test_four_vertex_chain():
    poly = gen_arc(4)
    assert [(int(x), int(y)) for x, y in poly.vertices] == [
        (0, 0), (1, 7), (2, 12), (3, 15),
    ]
    assert poly.facets == tuple(
        Constraint((-s, 1), LESS_EQ, b) for s, b in [(7, 0), (5, 2), (3, 6)]
    )


def test_sixty_four_vertex_slopes():
    poly = gen_arc(64)
    slopes = [-f.coeffs[0] for f in poly.facets]
    assert slopes == [Fraction(2 * 64 - (2 * i + 1)) for i in range(63)]
    assert slopes[0] == 127 and slopes[-1] == 3
    assert all(a > b for a, b in zip(slopes, slopes[1:]))


@pytest.mark.parametrize("V", [2, 3, 5, 17, 64, 256])
def test_chain_invariants(V):
    poly = gen_arc(V)
    xs = [x for x, _ in poly.vertices]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    slopes = [-f.coeffs[0] for f in poly.facets]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert len(poly.facets) == len(poly.vertices) - 1
    for i, facet in enumerate(poly.facets):
        assert facet.relation == LESS_EQ and facet.coeffs[1] == 1
        # vertices i and i + 1 are tight on facet i's row
        for (x, y) in (poly.vertices[i], poly.vertices[i + 1]):
            assert lhs(facet, (x, y)) == facet.rhs


def test_rejects_tiny_chain():
    with pytest.raises(ValidationError):
        gen_arc(1)


def test_rejects_chains_above_the_vertex_cap():
    assert gen_arc(MAX_VERTICES).vertex_count == MAX_VERTICES
    with pytest.raises(ValidationError, match=str(MAX_VERTICES)):
        gen_arc(MAX_VERTICES + 1)


def test_adversarial_middle_facet_worked_case():
    poly = gen_arc(4)
    expected = envelope_relaxed_max(poly, 1, [0, 2])  # oracle first
    assert expected == 3
    adv = adversarial_objective(poly, 1)
    assert adv.objective == (-5, 1)
    assert adv.true_max == 2
    assert adv.relaxed_max == expected
    assert adv.witness == (Fraction(3, 2), Fraction(21, 2))
    assert adv.gap == 1
    assert adv.bounded


@pytest.mark.parametrize("V", [3, 4, 8, 16, 64])
def test_every_single_omission_has_positive_gap(V):
    poly = gen_arc(V)
    for j in range(poly.facet_count):
        adv = adversarial_objective(poly, j)
        # the objective and the true maximum are the omitted row's own
        assert adv.objective is poly.facets[j].coeffs
        assert adv.true_max == poly.facets[j].rhs
        assert adv.bounded, (V, j)
        assert adv.gap > 0, (V, j)
        assert adv.relaxed_max == envelope_relaxed_max(
            poly, j, [i for i in range(poly.facet_count) if i != j]
        )


def test_interior_omissions_positive_up_to_256():
    poly = gen_arc(256)
    sample = [1, 2, 3, 64, 127, 128, 129, 200, 251, 252, 253]
    for j in sample:
        assert 0 < j < poly.facet_count - 1
        assert adversarial_objective(poly, j).gap > 0


def test_witness_strictly_violates_omitted_facet():
    poly = gen_arc(8)
    for j in range(poly.facet_count):
        adv = adversarial_objective(poly, j)
        facet = poly.facets[j]
        assert lhs(facet, adv.witness) > facet.rhs


@pytest.mark.parametrize(
    "objective",
    [(Fraction(-5), Fraction(1)), (Fraction(0), Fraction(1)),
     (Fraction(-126), Fraction(1)), (Fraction(2), Fraction(3))],
)
def test_complete_model_has_zero_gap(objective):
    poly = gen_arc(16)
    out = solve_lp(polytope_lp(poly, objective, range(poly.facet_count)))
    assert out.value == best_vertex_value(poly, objective)


def test_single_facet_omission_on_minimal_chain_is_flagged():
    adv = adversarial_objective(gen_arc(2), 0)
    assert not adv.bounded
    assert adv.gap is None and adv.relaxed_max is None
    assert shows_a_gap(adv)  # an unbounded phantom counts as a gap


def test_scan_one_short_enumerates_every_subset():
    report = subset_gap_scan(gen_arc(8), budget=6)
    assert report.enumerated
    assert report.seed is None  # nothing was drawn
    assert len(report.rows) == 7
    assert all(shows_a_gap(row) for row in report.rows)
    omitted = [row.omitted for row in report.rows]
    assert omitted == sorted(omitted)
    assert all(len(o) == 1 for o in omitted)


def test_scan_complete_budget_reports_zero_gap():
    report = subset_gap_scan(gen_arc(8), budget=7)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.omitted == () and row.gap == 0 and not shows_a_gap(row)


def test_scan_sampling_is_deterministic_and_positive():
    poly = gen_arc(64)
    a = subset_gap_scan(poly, budget=32, sample_count=12, seed=5)
    b = subset_gap_scan(poly, budget=32, sample_count=12, seed=5)
    assert a == b
    assert not a.enumerated
    assert len(a.rows) == 12
    assert all(shows_a_gap(row) for row in a.rows)
    c = subset_gap_scan(poly, budget=32, sample_count=12, seed=6)
    assert c != a


def test_scan_validation():
    with pytest.raises(ValidationError):
        subset_gap_scan(gen_arc(8), budget=8)
    with pytest.raises(ValidationError):
        subset_gap_scan(gen_arc(8), budget=-1)
    with pytest.raises(ValidationError):
        subset_gap_scan(gen_arc(8), budget=4, sample_count=0)
    # 16 facets keep 8 in 12870 ways, so the scan would sample: a
    # negative seed would draw the subsets of its absolute value
    with pytest.raises(ValidationError, match="seed must be at least 0, not -5"):
        subset_gap_scan(gen_arc(17), budget=8, seed=-5)
    # 7 facets keep 4 in 35 ways, all scanned: nothing reads a draw count
    # or seed
    for draws in (dict(sample_count=3), dict(seed=0)):
        with pytest.raises(ValidationError, match="35 subsets"):
            subset_gap_scan(gen_arc(8), budget=4, **draws)


def test_sampled_scan_defaults():
    # 16 facets keep 8 in 12870 ways, so the scan samples
    report = subset_gap_scan(gen_arc(17), budget=8)
    assert not report.enumerated
    assert (report.sample_count, report.seed) == (hull.SAMPLE_COUNT, hull.SEED)
    assert len(report.rows) == hull.SAMPLE_COUNT


def test_scan_refuses_more_samples_than_subsets():
    # 16 facets keep 8 in C(16, 8) = 12870 ways, more than
    # ENUMERATION_LIMIT, so the scan would sample: refused before drawing
    with pytest.raises(ValidationError, match="at most 12870, not 13000"):
        subset_gap_scan(gen_arc(17), budget=8, sample_count=13000)


@pytest.mark.parametrize("budget, samples", [(254, None), (128, 24)])
def test_scan_over_the_work_limit_builds_no_model(monkeypatch, budget, samples):
    # 255 enumerated one-short subsets of 255 facets (277 s unbudgeted),
    # and 24 samples keeping 128 facets: 24 * 255 * (128^2 + 400) > 10^8
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(hull, "polytope_lp", no_model)
    with pytest.raises(BudgetExceededError, match="work units"):
        subset_gap_scan(gen_arc(256), budget, sample_count=samples)


def cold_worst(poly, kept, omitted):
    """The worst gap over omitted facets, each solved from scratch:
    unbounded beats any gap, and ties keep the first facet."""
    gaps = [facet_gap(poly, j, kept) for j in omitted]
    return max(gaps, key=lambda g: (not g.bounded, g.gap if g.bounded else 0))


def assert_rows_match_cold_solves(poly, report):
    for row in report.rows:
        if not row.omitted:
            continue
        worst = cold_worst(poly, row.kept, row.omitted)
        assert (
            row.worst_facet, row.objective, row.true_max,
            row.relaxed_max, row.gap, row.bounded,
        ) == (
            worst.omitted_facet, worst.objective, worst.true_max,
            worst.relaxed_max, worst.gap, worst.bounded,
        ), row.kept


@pytest.mark.parametrize("budget", [0, 1, 12])
def test_warm_scan_rows_match_cold_solves_enumerated(budget):
    poly = gen_arc(16)
    report = subset_gap_scan(poly, budget)
    assert report.enumerated
    assert_rows_match_cold_solves(poly, report)


@pytest.mark.parametrize("seed", [11, 12])
def test_warm_scan_rows_match_cold_solves_sampled(seed):
    poly = gen_arc(64)
    report = subset_gap_scan(poly, budget=32, sample_count=6, seed=seed)
    assert not report.enumerated
    assert_rows_match_cold_solves(poly, report)


def test_chained_facet_gaps_equal_cold_ones(monkeypatch):
    # every gap the scan computes, warm ones included, is the gap a
    # cold facet_gap finds for that subset and facet, witness included;
    # each objective and true maximum is read off the omitted facet's row
    poly = gen_arc(32)
    seen = []
    real_gap = hull._gap

    def recording_gap(*args):
        seen.append(real_gap(*args))
        return seen[-1]

    monkeypatch.setattr(hull, "_gap", recording_gap)
    report = subset_gap_scan(poly, budget=8, sample_count=5, seed=2)
    monkeypatch.undo()
    assert not report.enumerated
    assert len(seen) == 5 * 23
    for g in seen:
        facet = poly.facets[g.omitted_facet]
        assert g.objective is facet.coeffs and g.true_max == facet.rhs
    assert seen == [
        facet_gap(poly, j, row.kept) for row in report.rows for j in row.omitted
    ]


def test_facet_gap_argument_checks():
    poly = gen_arc(4)
    with pytest.raises(ValidationError):
        facet_gap(poly, 5, [0, 1])
    with pytest.raises(ValidationError):
        facet_gap(poly, 1, [0, 1, 2])
    with pytest.raises(ValidationError):
        adversarial_objective(poly, 3)
    with pytest.raises(ValidationError, match="omitted facet must be at least 0, not -1"):
        adversarial_objective(poly, -1)


def test_facet_gap_reads_a_one_shot_iterable_of_kept_facets_once():
    # the membership check used to consume the iterator, so the model
    # kept no facet and came back unbounded
    poly = gen_arc(4)
    assert facet_gap(poly, 1, iter([0, 2])) == facet_gap(poly, 1, [0, 2])
    assert facet_gap(poly, 1, iter([0, 2])).gap == 1


@pytest.mark.parametrize("omitted, kept, message", [
    # index -1 picked facet 3 from the end, and the gap read 0, not 2
    (3, [0, 1, -1], "must be ints in 0..3"),
    (1, [0, 2, 2, 3], "names a kept facet more than once"),
    (1, [0, 2, 9], "must be ints in 0..3"),
])
def test_kept_facet_indices_are_checked(omitted, kept, message):
    poly = gen_arc(5)
    with pytest.raises(ValidationError, match=message):
        facet_gap(poly, omitted, kept)
    assert facet_gap(poly, 3, [0, 1, 2]).gap == 2
    assert len(polytope_lp(poly, (0, 1), range(poly.facet_count)).constraints) == 4


# one SHA-256 over the repr of every scan of a chain of at most 10
# vertices at every budget, every single omission of a chain of at most
# 24, and three seeded sampled scans at V = 32: it pins every kept
# subset, worst facet, objective, maximum, witness and gap, so a change
# to how a facet or a model is built that moves any of them shows here
SMALL_HULL_SHA256 = "3c41b09f54230983848eb1de1ab9cb686f4386b6df1bb10063f7f9688d7e90fb"


def test_every_small_hull_result_is_kept():
    digest = hashlib.sha256()
    scans = 0
    for V in range(2, 11):
        poly = gen_arc(V)
        for budget in range(poly.facet_count + 1):
            digest.update(repr(subset_gap_scan(poly, budget)).encode())
            scans += 1
    for V in range(2, 25):
        poly = gen_arc(V)
        for j in range(poly.facet_count):
            digest.update(repr(adversarial_objective(poly, j)).encode())
    poly = gen_arc(32)
    for budget, seed in ((8, 0), (16, 1), (24, 2)):
        report = subset_gap_scan(poly, budget, sample_count=4, seed=seed)
        assert not report.enumerated
        digest.update(repr(report).encode())
    assert scans == 54
    assert digest.hexdigest() == SMALL_HULL_SHA256
