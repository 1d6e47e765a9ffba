"""The tour oracle against an independent plain-Python Held-Karp: the
same tour, tie-break included, and the same cost, on narrow cost ranges
that force ties; the DP itself is checked in every table tier."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import held_karp_tour
from lpgaps import ilp
from lpgaps.ilp import tsp_oracle
from lpgaps.valleys import instance_from_cost_matrix


@st.composite
def tied_cost_matrices(draw):
    """An n x n matrix of exact costs, n = 2..8, from a handful of
    values: ints or Fractions with small denominators, negatives too."""
    n = draw(st.integers(2, 8))
    numerators = st.integers(draw(st.sampled_from([0, -2])), draw(st.sampled_from([1, 3])))
    denominator = draw(st.sampled_from([1, 2, 3]))
    entries = draw(st.lists(numerators, min_size=n * n, max_size=n * n))
    return [[Fraction(entries[i * n + j], denominator) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(tied_cost_matrices())
def test_oracle_returns_the_documented_tour(cost):
    result = tsp_oracle(instance_from_cost_matrix(cost))
    assert (result.tour, result.cost) == held_karp_tour(cost)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)
        )
    )
)
def test_every_table_tier_walks_back_the_documented_tour(size_and_entries):
    # entries within 3 of zero give a sentinel that every machine tier
    # admits, so each one and the object table must give the oracle's tour
    n, entries = size_and_entries
    matrix = [entries[i * n:(i + 1) * n] for i in range(n)]
    sentinel = n * (max(map(abs, entries)) + 1) + 1
    tour, cost = held_karp_tour(matrix)
    for dtype in (np.int16, np.int32, np.int64, object):
        got_tour, got_cost = ilp._held_karp(np.array(matrix, dtype=dtype), sentinel)
        assert got_tour == tour
        assert int(got_cost) == cost
