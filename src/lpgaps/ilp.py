"""The ground-truth TSP oracle: one exact Held-Karp dynamic program
over subsets on integer-scaled costs, in the narrowest exact table:
int16, then int32, then int64, then Python ints (object), by one
headroom rule.

The table is kept one popcount layer at a time. Layer k has one row per
end city and one column per mask of k cities, so a layer is a compact
block of m x C(m, k) entries (m = n - 1), and entries whose end lies
outside the mask hold a sentinel. Each layer is one min-plus step over
the one before, adds and minimums over whole contiguous blocks. Each
stored value is the sentinel or a real path cost, and each value
computed is at most one arc beyond a stored one, so no magnitude exceeds
sentinel + largest |cost|, the quantity the headroom rule
sentinel + largest < 2**(bits - 2) bounds.

Only the layer being extended is kept: the oracle returns the optimum's
exact cost and no tour, so no layer is read again once the next one is
made. The budget is hard: past n = 20 the oracle raises
BudgetExceededError rather than approximating, and so it does past
n = 15 when the scaled costs fit no machine-width table, since a table
of Python ints is 100-1000 times slower. Either refusal comes before
any layer is built.

numpy is imported inside tsp_oracle, _held_karp and _layer_masks, not
at module level: lpgaps imports this module, but only the commands that
call the oracle need numpy, and importing it roughly doubles a fresh
process's start-up time. Python caches the module after the first call,
so later calls pay only a sys.modules lookup.

What depends on the city count alone is made once per count and stays
resident: the masks of every layer and the bit column (_layer_masks),
2**m int32 entries, 2 MB at m = 19. A call builds them when it first
meets its m, so no call peaks higher than before.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .errors import BudgetExceededError
from .rationals import Rational
from .valleys import TspInstance

if TYPE_CHECKING:
    import numpy as np

HELD_KARP_CITY_LIMIT = 20
# a table of Python ints takes time linear in the digits of its costs:
# on a shared 2-vCPU host (Python 3.11), costs of 1e1000 over 1e-1000
# intra costs (2,001-digit scaled costs) take 1.3 s at n = 14, 3.5 s at
# 15 and 7.7 s at 16; 1e1000 over 1/3 takes 2.9 s at 16, 1e18 over 1/3
# 2.4 s at 18, and 1e1000 over 1/3 ran 97 s at 20 before the cap
OBJECT_TABLE_CITY_LIMIT = 15
EXHAUSTIVE_CITY_LIMIT = 1  # no n is searched exhaustively; perfbench/run.py reads this name


@cache
def _layer_masks(m: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """For m cities, the masks of each layer, masks[k] those of k + 1
    cities in ascending order, the columns of the layer of k + 1 cities,
    and the bit column, bits[j] = 1 << j. All are read-only views, since
    every call of that m shares them."""
    import numpy as np

    popcount = np.zeros(1, dtype=np.int8)
    for _ in range(m):
        popcount = np.concatenate([popcount, popcount + 1])
    order = np.argsort(popcount, kind="stable").astype(np.int32)
    bits = np.left_shift(1, np.arange(m, dtype=np.int32))[:, None]
    order.flags.writeable = bits.flags.writeable = False
    masks = np.split(order, np.cumsum(np.bincount(popcount))[:-1])[1:]
    return tuple(masks), bits


def _held_karp(cost: np.ndarray, sentinel: int) -> object:
    """Subset dynamic programming over the cities 1..n-1 (m of them),
    kept one popcount layer at a time. Layer k is a compact table of m
    rows and one column per mask of k cities, masks in ascending order
    and bit j standing for city j + 1: entry [j, s] is the cheapest path
    from city 0 through the cities of mask s ending at city j + 1, and
    the sentinel where bit j is outside s.

    Each layer comes from the one before by one min-plus step, m in-place
    adds and minimums over contiguous blocks:
    reach[j, s] = min_i layer[i, s] + between[i, j]. Dropping city j from
    the masks that hold it is an order-preserving map onto the masks of
    the layer below that lack it, so row j of the new layer takes, in
    order, the entries of reach[j] whose mask lacks j; one boolean
    compress and one boolean fill do this for every row, and every other
    entry keeps the sentinel. No rank table or index array is built.

    A stored entry is the sentinel or a real path cost, and a reach
    entry is at most one arc beyond either: at most sentinel + largest
    |cost| in magnitude, which the caller's headroom rule fits in the
    dtype, so the values are the same ints in int16, int32, int64 and
    object (Python int) tables. The sentinel exceeds every real path
    cost even after adding one arc, so no minimum can pick a path
    through a city outside its mask. Returns the cheapest closed tour's
    scaled cost, an element of the table's dtype."""
    import numpy as np

    m = len(cost) - 1
    between, from_start, to_start = cost[1:, 1:], cost[0, 1:], cost[1:, 0]
    masks, bits = _layer_masks(m)
    layer = np.full((m, m), sentinel, dtype=cost.dtype)
    np.fill_diagonal(layer, from_start)
    outside = ~np.eye(m, dtype=bool)
    for layer_masks in masks[1:]:
        inside = (layer_masks & bits) != 0
        reach = layer[0] + between[0][:, None]
        scratch = np.empty_like(reach)
        for i in range(1, m):
            np.add(layer[i], between[i][:, None], out=scratch)
            np.minimum(reach, scratch, out=reach)
        # free each block once it is read
        del scratch
        layer = np.full(inside.shape, sentinel, dtype=cost.dtype)
        layer[inside] = reach[outside]
        del reach
        outside = np.logical_not(inside, out=inside)
    return (layer[:, 0] + to_start).min()


def tsp_oracle(inst: TspInstance) -> Rational:
    """The exact cost of a cheapest tour, as a Fraction, by Held-Karp,
    for n <= 20; larger n raises BudgetExceededError, and no
    approximation is ever substituted. Costs are scaled to integers by
    the lcm of their denominators; the table is the narrowest of int16,
    int32, int64 and Python ints (object) in which
    sentinel + largest < 2**(bits - 2), a bit of headroom beyond the
    largest magnitude the program computes. A table of Python ints is
    budgeted for n <= 15 and refused past it, before it is built."""
    n = inst.n
    if n > HELD_KARP_CITY_LIMIT:
        raise BudgetExceededError(
            f"held-karp is budgeted for n <= {HELD_KARP_CITY_LIMIT}, got {n}"
        )
    import numpy as np

    scaled, scale = inst.scaled_costs
    largest = max(map(abs, scaled))
    sentinel = n * (largest + 1) + 1
    dtype = next(
        (t for t in (np.int16, np.int32, np.int64)
         if sentinel + largest < 2 ** (np.iinfo(t).bits - 2)),
        object,
    )
    if dtype is object and n > OBJECT_TABLE_CITY_LIMIT:
        raise BudgetExceededError(f"held-karp over Python ints, as these costs need, "
                                  f"is budgeted for n <= {OBJECT_TABLE_CITY_LIMIT}, got {n}")
    best = _held_karp(np.array(scaled, dtype=dtype).reshape(n, n), sentinel)
    return Fraction(int(best), scale)
