import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import brute_force_tour_cost, is_valid_tour
from lpgaps import ilp
from lpgaps.errors import BudgetExceededError
from lpgaps.ilp import tsp_oracle
from lpgaps.valleys import gen_valley_instance, instance_from_cost_matrix


def assert_optimal_tour(inst, result):
    """A valid tour whose arc costs sum to the reported cost."""
    tour = result.tour
    assert is_valid_tour(inst.n, tour)
    closed = zip(tour, tour[1:] + tour[:1])
    assert sum(inst.cost[i][j] for i, j in closed) == result.cost


def test_three_city_uniform():
    inst = instance_from_cost_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    result = tsp_oracle(inst)
    assert result.cost == 3
    assert_optimal_tour(inst, result)


def test_two_city_tour():
    inst = instance_from_cost_matrix([[0, 2], [Fraction(1, 2), 0]])
    result = tsp_oracle(inst)
    assert result.cost == Fraction(5, 2)
    assert result.tour == (0, 1)
    assert_optimal_tour(inst, result)


def test_valley_headline_costs():
    for k, cost in [(4, 4), (10, 10)]:
        inst = gen_valley_instance(k, 1)
        result = tsp_oracle(inst)
        assert result.cost == cost
        assert_optimal_tour(inst, result)


def test_oracle_matches_brute_force():
    # the 200-trial run is acceptance criterion 7; slice here
    rng = random.Random(8086)
    for _ in range(60):
        n = rng.randint(4, 8)
        cost = [
            [Fraction(rng.randint(0, 9)) if i != j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        inst = instance_from_cost_matrix(cost)
        result = tsp_oracle(inst)
        assert result.cost == brute_force_tour_cost(inst)
        assert_optimal_tour(inst, result)


def test_negative_arcs_match_brute_force():
    rng = random.Random(515)
    for n in range(2, 10):
        cost = [
            [
                Fraction(rng.randint(-3, 9), rng.randint(1, 4)) if i != j else Fraction(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        inst = instance_from_cost_matrix(cost)
        result = tsp_oracle(inst)
        assert result.cost == brute_force_tour_cost(inst)
        assert_optimal_tour(inst, result)


def test_huge_denominators_use_object_table(monkeypatch):
    # denominators whose lcm pushes the sentinel past int64, so the DP
    # table holds Python ints
    dtypes = []

    def spy(cost, sentinel):
        dtypes.append(cost.dtype)
        return held_karp(cost, sentinel)

    held_karp = ilp._held_karp
    monkeypatch.setattr(ilp, "_held_karp", spy)
    primes = [10**9 + 7, 10**9 + 9, 10**9 + 21, 10**9 + 33, 10**9 + 87]
    rng = random.Random(33)
    for n in (5, 7):
        cost = [
            [
                Fraction(rng.randint(-5, 5), primes[(i + j) % len(primes)])
                if i != j
                else Fraction(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        inst = instance_from_cost_matrix(cost)
        result = tsp_oracle(inst)
        assert result.cost == brute_force_tour_cost(inst)
        assert_optimal_tour(inst, result)
    assert dtypes == [object, object]
    assert tsp_oracle(gen_valley_instance(4, 2)).cost == 4
    assert dtypes[-1] == np.int64


def test_oracle_budgets():
    with pytest.raises(BudgetExceededError):
        tsp_oracle(gen_valley_instance(11, 2))  # n = 22 > 20
