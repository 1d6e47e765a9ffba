import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_tour_cost, held_karp_cost
from lpgaps import ilp
from lpgaps.errors import BudgetExceededError
from lpgaps.ilp import tsp_oracle
from lpgaps.valleys import gen_valley_instance, instance_from_cost_matrix


def assert_optimal_cost(inst, cost):
    """The oracle's cost is a Fraction and the brute-force optimum."""
    assert type(cost) is Fraction
    assert cost == brute_force_tour_cost(inst)


def test_three_city_uniform():
    inst = instance_from_cost_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    cost = tsp_oracle(inst)
    assert cost == 3
    assert_optimal_cost(inst, cost)


def test_two_city_tour():
    inst = instance_from_cost_matrix([[0, 2], [Fraction(1, 2), 0]])
    cost = tsp_oracle(inst)
    assert cost == Fraction(5, 2)
    assert_optimal_cost(inst, cost)


def test_valley_headline_costs():
    inst = gen_valley_instance(4, 1)
    assert tsp_oracle(inst) == 4
    assert_optimal_cost(inst, tsp_oracle(inst))
    # ten cities take brute force seconds; one pass per valley stands there
    assert tsp_oracle(gen_valley_instance(10, 1)) == 10


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
        assert_optimal_cost(inst, tsp_oracle(inst))


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
        assert_optimal_cost(inst, tsp_oracle(inst))


@pytest.fixture
def table_dtypes(monkeypatch):
    """The dtype of every table tsp_oracle hands to _held_karp."""
    dtypes = []
    held_karp = ilp._held_karp

    def spy(cost, sentinel):
        dtypes.append(cost.dtype)
        return held_karp(cost, sentinel)

    monkeypatch.setattr(ilp, "_held_karp", spy)
    return dtypes


def test_huge_denominators_use_object_table(table_dtypes):
    # denominators whose lcm pushes the sentinel past int64, so the DP
    # table holds Python ints
    dtypes = table_dtypes
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
        assert_optimal_cost(inst, tsp_oracle(inst))
    assert dtypes == [object, object]
    assert tsp_oracle(gen_valley_instance(4, 2)) == 4
    assert dtypes[-1] == np.int16


def test_large_integer_costs_use_int64_table(table_dtypes):
    # costs up to 10**9 put the sentinel n * (largest + 1) + 1 between
    # 2**30 and 2**62: past int32's headroom, within int64's
    rng = random.Random(64)
    n = 6
    cost = [
        [Fraction(rng.randint(-10**9, 10**9)) if i != j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    cost[0][1] = Fraction(10**9)
    inst = instance_from_cost_matrix(cost)
    assert_optimal_cost(inst, tsp_oracle(inst))
    sentinel = n * (10**9 + 1) + 1
    assert 2**30 < sentinel < 2**62
    assert table_dtypes == [np.int64]


@pytest.mark.parametrize("largest, dtype", [
    (2**12 - 2, np.int16),  # sentinel + largest = 2**14 - 4
    (2**12 - 1, np.int32),  # sentinel + largest = 2**14
    (2**28 - 2, np.int32),  # sentinel + largest = 2**30 - 4
    (2**28 - 1, np.int64),  # sentinel + largest = 2**30
])
def test_table_tier_boundary(table_dtypes, largest, dtype):
    # n = 3: sentinel = 3 * (largest + 1) + 1, so sentinel + largest =
    # 4 * largest + 4; int16 needs it below 2**14 and int32 below 2**30
    cost = [[0, largest, 1], [1, 0, largest], [largest, 1, 0]]
    inst = instance_from_cost_matrix(cost)
    assert tsp_oracle(inst) == brute_force_tour_cost(inst) == 3
    assert table_dtypes == [dtype]


@st.composite
def int_cost_matrices(draw):
    """A square int cost matrix and the sentinel tsp_oracle would give
    it. Narrow ranges force ties, and entries within 5 of zero give a
    sentinel that every machine tier admits."""
    n = draw(st.integers(2, 8))
    bound = draw(st.sampled_from([1, 2, 3, 5, 100, 10**6]))
    low = draw(st.sampled_from([0, -bound]))
    entries = draw(st.lists(st.integers(low, bound), min_size=n * n, max_size=n * n))
    largest = max(map(abs, entries))
    return [entries[i * n:(i + 1) * n] for i in range(n)], n * (largest + 1) + 1


@settings(max_examples=300, deadline=None)
@given(int_cost_matrices())
def test_every_dtype_tier_gives_the_same_tour(matrix_and_sentinel):
    # every machine tier whose headroom rule admits the matrix, int16
    # only where its entries are small, and the object table give the
    # optimal tour's cost, the independent reference's
    matrix, sentinel = matrix_and_sentinel
    largest = max(abs(c) for row in matrix for c in row)
    tiers = [t for t in (np.int16, np.int32, np.int64)
             if sentinel + largest < 2 ** (np.iinfo(t).bits - 2)]
    assert np.int32 in tiers
    best = held_karp_cost(matrix)
    for dtype in (*tiers, object):
        got = ilp._held_karp(np.array(matrix, dtype=dtype), sentinel)
        assert got == best
    assert type(got) is int  # the object table's


def test_oracle_keeps_only_the_layer_it_extends():
    # at the 20-city cap, keeping every layer for a walk-back peaked at
    # 27.4 MB under tracemalloc, and keeping only the layer being
    # extended peaks at 16.7 MB
    inst = gen_valley_instance(10, 2, Fraction(1, 7), Fraction(5, 3))
    tracemalloc.start()
    try:
        cost = tsp_oracle(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    assert cost == Fraction(380, 21)


def test_layer_masks_are_made_once_per_size_and_read_only():
    # sizes in shuffled order, each twice: every call reads the masks
    # the first call of its size made, and gives the reference's cost
    rng = random.Random(52)
    cases = {}
    for n in range(8, 17):
        cost = [
            [Fraction(rng.randint(0, 9), rng.randint(1, 3)) if i != j else Fraction(0)
             for j in range(n)]
            for i in range(n)
        ]
        cases[n] = (instance_from_cost_matrix(cost), held_karp_cost(cost))
    sizes = [*cases, *cases]
    rng.shuffle(sizes)
    ilp._layer_masks.cache_clear()
    for n in sizes:
        inst, best = cases[n]
        assert tsp_oracle(inst) == best
    assert ilp._layer_masks.cache_info().misses == len(cases)
    for n in cases:
        masks, bits = ilp._layer_masks(n - 1)
        assert [len(layer) for layer in masks] == [comb(n - 1, k) for k in range(1, n)]
        assert not any(array.flags.writeable for array in (*masks, bits))
        with pytest.raises(ValueError):
            masks[0][0] = 0


def test_oracle_budgets():
    with pytest.raises(BudgetExceededError):
        tsp_oracle(gen_valley_instance(11, 2))  # n = 22 > 20


def test_object_table_is_refused_past_its_own_cap(table_dtypes):
    # scaled costs of 3 * 10**18 fit no int64 table; at 18 cities the
    # Python-int table took 1.8 s, and it is now refused unbuilt
    huge = Fraction(10**18)
    with pytest.raises(BudgetExceededError, match="Python ints"):
        tsp_oracle(gen_valley_instance(9, 2, Fraction(1, 3), huge))
    assert table_dtypes == []
    # at the cap the table is built, and tours cross each valley once
    assert ilp.OBJECT_TABLE_CITY_LIMIT == 15
    assert tsp_oracle(gen_valley_instance(5, 3, Fraction(1, 3), huge)) == 5 * huge + Fraction(10, 3)
    assert table_dtypes == [object]
