"""The ground-truth TSP oracle: one exact Held-Karp dynamic program
over subsets on integer-scaled costs, in the narrowest exact table:
int16, then int32, then int64, then Python ints (object), by one
headroom rule.

The oracle returns a deterministic optimal tour: the lowest-index last
city, then the lowest-index optimal predecessor at every step back.
The budget is hard: past n = 20 the oracle raises BudgetExceededError
rather than approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError
from .rationals import Rational, scale_to_ints
from .valleys import TspInstance

HELD_KARP_CITY_LIMIT = 20
EXHAUSTIVE_CITY_LIMIT = 1  # no n is searched exhaustively; perfbench/run.py reads this name


@dataclass(frozen=True)
class TourResult:
    tour: tuple[int, ...]
    cost: Rational


def _held_karp(cost: np.ndarray, sentinel: int) -> tuple[tuple[int, ...], object]:
    """Subset dynamic programming over the cities 1..n-1, filled one
    popcount layer at a time: dp[mask, j] is the cheapest path from city
    0 through the cities of mask ending at j. Entries with j outside
    mask keep the sentinel, which exceeds every real path cost even
    after adding one arc, so each minimum can range over every
    predecessor. Exact for int16, int32, int64 and object (Python int)
    arrays alike, as long as the sentinel plus the largest |cost| fits
    the dtype: no value computed exceeds that in magnitude."""
    m = len(cost) - 1
    between, from_start, to_start = cost[1:, 1:], cost[0, 1:], cost[1:, 0]
    size = 1 << m
    dp = np.full((size, m), sentinel, dtype=cost.dtype)
    popcount = np.zeros(1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = from_start[j]
        popcount = np.concatenate([popcount, popcount + 1])
    for k in range(2, m + 1):
        layer = np.flatnonzero(popcount == k)
        for j in range(m):
            ends = layer[(layer >> j) & 1 == 1]
            # one row per predecessor i and one column per end, so the
            # minimum over i runs along the contiguous axis
            reach = np.take(dp, ends ^ (1 << j), axis=0).T.copy()
            reach += between[:, j:j + 1]
            dp[ends, j] = reach.min(axis=0)
    full = size - 1
    totals = dp[full] + to_start
    last = int(np.argmin(totals))
    # walk the table backwards, taking the lowest-index predecessor that
    # reaches each entry, so the tour is a deterministic choice
    order = [last]
    mask = full
    while mask != 1 << order[-1]:
        cur = order[-1]
        prev = mask ^ (1 << cur)
        reaching = dp[prev] + between[:, cur] == dp[mask, cur]
        order.append(int(np.flatnonzero(reaching)[0]))
        mask = prev
    return (0,) + tuple(p + 1 for p in reversed(order)), totals[last]


def tsp_oracle(inst: TspInstance) -> TourResult:
    """Exact minimum-cost tour by Held-Karp, for n <= 20; larger n
    raises BudgetExceededError, and no approximation is ever substituted.
    Costs are scaled to integers by the lcm of their denominators; the
    table is the narrowest of int16, int32, int64 and Python ints
    (object) in which sentinel + largest < 2**(bits - 2), a bit of
    headroom beyond the largest magnitude the program computes. Of the
    optimal tours, the one returned starts at city 0, ends at the
    lowest-index last city that closes an optimum, and is traced back
    through the lowest-index optimal predecessor at every step."""
    n = inst.n
    if n > HELD_KARP_CITY_LIMIT:
        raise BudgetExceededError(
            f"held-karp is budgeted for n <= {HELD_KARP_CITY_LIMIT}, got {n}"
        )
    scaled, scale = scale_to_ints([c for row in inst.cost for c in row])
    largest = max(map(abs, scaled))
    sentinel = n * (largest + 1) + 1
    dtype = next(
        (t for t in (np.int16, np.int32, np.int64)
         if sentinel + largest < 2 ** (np.iinfo(t).bits - 2)),
        object,
    )
    tour, best = _held_karp(np.array(scaled, dtype=dtype).reshape(n, n), sentinel)
    return TourResult(tour, Fraction(int(best), scale))
