"""Acceptance gate: each criterion runs at its stated tolerance (exact
rational equality everywhere) and prints one pass line with its wall
time against the stated budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

from oracles import (
    brute_force_tour_cost,
    point_feasible,
    random_bounded_lp,
    shows_a_gap,
    valley_cut_subsets,
    vertex_enumeration_optimum,
)
from lpgaps.bounds import (
    min_symbols_single,
    min_symbols_subset,
    monotone_model_demo,
    subset_growth_table,
)
from lpgaps.gaps import (
    DEGREE,
    VIA_ILP,
    VIA_LP,
    RelaxationDesc,
    decide_tour_at_most,
    integrality_gap,
)
from lpgaps.hull import adversarial_objective, gen_arc, subset_gap_scan
from lpgaps.ilp import tsp_oracle
from lpgaps.lp import SolveStatus, solve_lp
from lpgaps.valleys import (
    check_flow_feasibility,
    cutting_plane_loop,
    gen_valley_instance,
    instance_from_cost_matrix,
    three_circulation_flow,
)


class Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
            print(
                f"[criterion {self.number}] PASS {self.description} "
                f"({elapsed:.2f}s < {self.seconds:.0f}s)"
            )
        else:
            print(f"[criterion {self.number}] FAIL {self.description}")
        return False


def test_criterion_1_valley_headline_numbers():
    with Budget(1, "tour oracle costs are exactly 10 and 4", 5):
        assert tsp_oracle(gen_valley_instance(10, 1)) == Fraction(10)
        assert tsp_oracle(gen_valley_instance(4, 1)) == Fraction(4)


def test_criterion_2_fractional_below_integer():
    with Budget(2, "degree relaxation certifies 0 while the optimum is 10", 60):
        inst = gen_valley_instance(10, 2)
        report = integrality_gap(inst, RelaxationDesc(DEGREE), thresholds=[9])
        assert report.lp_value == 0
        assert report.ilp_value == 10
        assert report.lp_value < report.ilp_value
        answer = report.decision_answers[0]
        assert answer.lp_answer is True
        assert answer.ilp_answer is False
        assert answer.agree is False
        assert decide_tour_at_most(inst, 9, VIA_LP) is True
        assert decide_tour_at_most(inst, 9, VIA_ILP) is False


def test_criterion_3_three_circulation_arithmetic():
    with Budget(3, "1/3-weight circulations crossing nine passes cost exactly 9", 10):
        inst = gen_valley_instance(10, 2)
        flow = three_circulation_flow(inst)
        # every arc weight is a whole number of 1/3-weight circulations
        assert all((3 * w).denominator == 1 for (_, _, w) in flow)
        report = check_flow_feasibility(inst, flow, valley_cut_subsets(inst))
        assert report.degree_ok
        assert report.crossing_cost == 3 * Fraction(1, 3) * 9 == Fraction(9)
        assert report.crossing_cost < Fraction(10)  # true optimum, criterion 1


def test_criterion_4_missing_facet_adversary():
    with Budget(4, "63 omissions on V=64 all gap > 0; V=4 worked case exact", 5):
        poly = gen_arc(64)
        for j in range(poly.facet_count):
            adv = adversarial_objective(poly, j)
            assert adv.bounded and adv.gap > 0, f"facet {j}"
        worked = adversarial_objective(gen_arc(4), 1)
        assert worked.gap == Fraction(1)
        assert worked.witness == (Fraction(3, 2), Fraction(21, 2))


def test_criterion_5_budget_scan():
    with Budget(5, "7/7 one-short subsets and 100/100 samples show gaps", 30):
        small = subset_gap_scan(gen_arc(8), budget=6)
        assert small.enumerated
        assert len(small.rows) == 7
        assert all(shows_a_gap(row) for row in small.rows)

        sampled = subset_gap_scan(gen_arc(64), budget=32, sample_count=100, seed=0)
        assert not sampled.enumerated
        assert len(sampled.rows) == 100
        assert sum(1 for row in sampled.rows if shows_a_gap(row)) == 100


def test_criterion_6_cutting_plane_closure():
    with Budget(6, "cutting planes close the k=4 gap at exactly 4", 30):
        inst = gen_valley_instance(4, 2)
        trace = cutting_plane_loop(inst, max_rounds=50)
        assert trace.complete
        oracle_cost = tsp_oracle(inst)
        assert trace.final_value == oracle_cost == Fraction(4)
        values = [r.lp_value for r in trace.rounds]
        assert all(a <= b for a, b in zip(values, values[1:]))
        counts = [r.constraint_count for r in trace.rounds]
        assert counts == [16 + i for i in range(len(trace.rounds))]


def test_criterion_7_solver_oracles():
    with Budget(7, "1000 random LPs and 200 random TSPs match brute force", 60):
        rng = random.Random(20260809)
        optimal = 0
        for _ in range(1000):
            lp = random_bounded_lp(rng)
            outcome = solve_lp(lp)
            reference = vertex_enumeration_optimum(lp)
            if outcome.status is SolveStatus.OPTIMAL:
                assert reference is not None
                assert outcome.value == reference
                assert point_feasible(lp, outcome.point)
                optimal += 1
            else:
                assert outcome.status is SolveStatus.INFEASIBLE
                assert reference is None
        assert optimal > 100  # the family genuinely exercises the solver

        tsp_rng = random.Random(61803)
        for _ in range(200):
            n = tsp_rng.randint(4, 8)
            cost = [
                [
                    Fraction(tsp_rng.randint(0, 9)) if i != j else Fraction(0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            inst = instance_from_cost_matrix(cost)
            assert tsp_oracle(inst) == brute_force_tour_cost(inst)


def test_criterion_8_storage_bounds():
    with Budget(8, "exact bit bounds and per-step doubling", 5):
        assert min_symbols_single(2**20).min_bits == 20
        factorial_10 = 1
        for k in range(2, 11):
            factorial_10 *= k
        assert factorial_10 == 3_628_800
        assert min_symbols_single(factorial_10).min_bits == 22
        assert min_symbols_subset(16, 8).min_bits == 14
        table = subset_growth_table(4, 12)
        for (_, bits), (_, next_bits) in zip(table, table[1:]):
            assert next_bits >= 2 * bits


def test_criterion_9_model_fidelity_demo():
    with Budget(9, "integer grid looks monotone, half grid exposes the lie", 1):
        integer_scan = monotone_model_demo(0, 8, 1)
        assert integer_scan.grid_monotone is True
        assert integer_scan.witness is None

        half_scan = monotone_model_demo(0, 8, Fraction(1, 2))
        assert half_scan.grid_monotone is False
        assert half_scan.witness == (Fraction(0), Fraction(1, 2))
        assert Fraction(1, 2) in half_scan.witness
