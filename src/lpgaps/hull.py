"""Two-dimensional arc polytopes and missing-facet adversaries.

The generated polytope is the region under a strictly concave integer
chain: vertices (i, i*(2V - i)) for i = 0..V-1, one upper facet
y <= s*x + b through each consecutive vertex pair, inside the box
0 <= x <= V-1, y >= 0. Dropping any facet from the model leaves a wedge
that the facet's own outward direction can exploit: maximizing
y - slope*x over the truncated model certifies a value strictly above
anything the true polytope admits. ``subset_gap_scan`` quantifies that
over all (or sampled) fixed-size facet subsets a storage-budgeted model
could keep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .errors import BudgetExceededError, ValidationError
from .lp import (
    LESS_EQ,
    Constraint,
    LinearProgram,
    LpOutcome,
    SolveStatus,
    solve_lp,
)
from .rationals import Rational, require_indices, require_int

ENUMERATION_LIMIT = 10_000
# what a sampled scan draws when not told otherwise
SAMPLE_COUNT = 100
SEED = 0
# a V-vertex model is a dense tableau of about V^2 cells, and omitting
# a late facet takes about V pivots: on a shared 2-vCPU host (Python
# 3.11), hull-adversary at V = 256 takes 0.003 s to omit facet 0, 0.03 s
# for 127 and 0.05-0.06 s for 254, the worst; with the cap lifted the
# worst omission takes 0.28 s at V = 512 and 1.1 s at V = 1000
MAX_VERTICES = 256
# a scan's work estimate is subsets x facets x (budget^2 + 400): each
# kept subset solves once per facet (one cold solve of about `budget`
# pivots, one warm solve per omitted facet) over about budget^2 tableau
# cells, plus a fixed per-solve cost worth about 400 cells. A unit took
# 24-145 ns over V = 8..256 on a shared 2-vCPU host (Python 3.11), least
# on large budgets, so the limit stops scans at about 2.5-15 s (V = 256
# keeping 128 facets, 23 subsets: 9.8e7 units in 2.5 s); V = 256 keeping
# 254 facets estimates 4.2e9 and ran 277 s without it
SOLVE_OVERHEAD_CELLS = 400
SCAN_WORK_LIMIT = 10**8


@dataclass(frozen=True)
class Halfplane:
    slope: Rational
    intercept: Rational  # y <= slope*x + intercept


@dataclass(frozen=True)
class ArcPolytope:
    vertices: tuple[tuple[Rational, Rational], ...]
    facets: tuple[Halfplane, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    @property
    def x_max(self) -> Rational:
        return self.vertices[-1][0]


def gen_arc(vertex_count: int) -> ArcPolytope:
    """Concave chain p_i = (i, i*(2V - i)); facet i joins vertices i and
    i+1 with slope 2V - 2i - 1 and intercept i*(i + 1)."""
    V = vertex_count
    require_int(V, 2, MAX_VERTICES, "vertex count")
    vertices = tuple(
        (Fraction(i), Fraction(i * (2 * V - i))) for i in range(V)
    )
    facets = tuple(
        Halfplane(Fraction(2 * V - 2 * i - 1), Fraction(i * (i + 1)))
        for i in range(V - 1)
    )
    return ArcPolytope(vertices, facets)


def polytope_lp(
    poly: ArcPolytope,
    objective: tuple[Rational, Rational],
    kept_facets: Iterable[int],
) -> LinearProgram:
    """Maximize objective over the kept facets plus the box. The box
    (0 <= x <= V-1, y >= 0) never counts against a storage budget."""
    kept = tuple(kept_facets)
    require_indices(kept, poly.facet_count, "kept facet")
    facets = [poly.facets[i] for i in kept]
    # each facet y <= s*x + b is the row -s*x + y <= b
    rows = [Constraint((-f.slope, 1), LESS_EQ, f.intercept) for f in facets]
    return LinearProgram(objective, "max", rows, upper_bounds=(poly.x_max, None))


@dataclass(frozen=True)
class AdversarialGap:
    omitted_facet: int
    objective: tuple[Rational, Rational]
    true_max: Rational
    relaxed_max: Optional[Rational]
    witness: Optional[tuple[Rational, Rational]]
    gap: Optional[Rational]  # None when the truncated model is unbounded
    bounded: bool


def _facet_objective(poly: ArcPolytope, omitted: int) -> tuple[Rational, Rational]:
    """y - slope*x for the omitted facet, as (-slope, 1)."""
    return (-poly.facets[omitted].slope, Fraction(1))


def _gap(poly: ArcPolytope, omitted: int, outcome: LpOutcome) -> AdversarialGap:
    """The phantom value of a truncated model's solve under the omitted
    facet's objective, measured against the facet's intercept."""
    assert outcome.status is not SolveStatus.INFEASIBLE
    # an unbounded outcome has value and point None
    value, true_max = outcome.value, poly.facets[omitted].intercept
    return AdversarialGap(
        omitted, _facet_objective(poly, omitted), true_max, value, outcome.point,
        None if value is None else value - true_max, bounded=value is not None,
    )


def facet_gap(
    poly: ArcPolytope, omitted: int, kept_facets: Iterable[int]
) -> AdversarialGap:
    """Adversarial objective for one omitted facet against a truncated
    model: maximize y - slope*x. Over the full polytope that tops out at
    the facet's intercept; whatever the truncated model reports beyond
    it is phantom value. One cold solve."""
    require_int(omitted, 0, poly.facet_count - 1, "omitted facet")
    kept = tuple(kept_facets)
    if omitted in kept:
        raise ValidationError(f"facet {omitted} is part of the kept model")
    model = polytope_lp(poly, _facet_objective(poly, omitted), kept)
    return _gap(poly, omitted, solve_lp(model))


def adversarial_objective(poly: ArcPolytope, omitted: int) -> AdversarialGap:
    """Omit exactly one facet; the model keeps every other facet."""
    kept = [i for i in range(poly.facet_count) if i != omitted]
    return facet_gap(poly, omitted, kept)


@dataclass(frozen=True)
class ScanRow:
    subset_id: int
    kept: tuple[int, ...]
    omitted: tuple[int, ...]
    # the worst gap over the omitted facets; the defaults are the row of
    # a model that keeps every facet, which omits none and has gap 0
    worst_facet: Optional[int] = None
    objective: Optional[tuple[Rational, Rational]] = None
    true_max: Optional[Rational] = None
    relaxed_max: Optional[Rational] = None
    gap: Optional[Rational] = Fraction(0)
    bounded: bool = True


@dataclass(frozen=True)
class ScanReport:
    vertex_count: int
    facet_count: int
    budget: int
    sample_count: int
    seed: Optional[int]  # None when the scan enumerated, drawing nothing
    enumerated: bool
    rows: tuple[ScanRow, ...]


def subset_gap_scan(
    poly: ArcPolytope,
    budget: int,
    sample_count: Optional[int] = None,
    seed: Optional[int] = None,
) -> ScanReport:
    """For every size-`budget` kept-facet subset (all of them when there
    are at most ENUMERATION_LIMIT, otherwise sample_count distinct
    seeded draws, refused before any draw when fewer subsets exist),
    record the worst adversarial gap over the omitted facets. An
    enumerated scan draws nothing, so it refuses a given sample count or
    seed and reports seed None; a sampled one defaults them to
    SAMPLE_COUNT and SEED and takes only a nonnegative seed, since a
    negative one would draw the subsets of its absolute value. Each
    subset builds one ``polytope_lp`` and solves it once per omitted
    facet, each solve after the first warm-started from the one before;
    the gaps equal ``facet_gap``'s cold ones. Rows are ordered by their
    omitted index lists so output is canonical. A scan whose work
    estimate exceeds SCAN_WORK_LIMIT is refused before any model is
    built."""
    F = poly.facet_count
    require_int(budget, 0, F, "budget")
    total = comb(F, budget)
    enumerated = total <= ENUMERATION_LIMIT
    if enumerated and (sample_count is not None or seed is not None):
        raise ValidationError(
            f"keeping {budget} of {F} facets leaves {total} subsets, at most "
            f"{ENUMERATION_LIMIT}, so the scan enumerates them and would "
            f"not read a sample count or seed"
        )
    if not enumerated:
        sample_count = SAMPLE_COUNT if sample_count is None else sample_count
        seed = SEED if seed is None else seed
        require_int(sample_count, 1, total, "sample count")
        require_int(seed, 0, None, "seed")
    subsets = total if enumerated else sample_count
    work = subsets * F * (budget * budget + SOLVE_OVERHEAD_CELLS)
    if work > SCAN_WORK_LIMIT:
        raise BudgetExceededError(
            f"a scan of {subsets} subsets keeping {budget} of {F} facets "
            f"estimates {work} work units, over the limit {SCAN_WORK_LIMIT}"
        )
    if enumerated:
        kept_sets = list(combinations(range(F), budget))
    else:
        rng = random.Random(seed)
        kept_sets = set()
        # sample_count <= total: s distinct of N take N * H(N) expected draws at most
        while len(kept_sets) < sample_count:
            kept_sets.add(tuple(sorted(rng.sample(range(F), budget))))

    entries = sorted(
        (tuple(sorted(set(range(F)).difference(kept))), kept)
        for kept in kept_sets
    )
    rows = []
    for subset_id, (omitted, kept) in enumerate(entries):
        if not omitted:
            rows.append(ScanRow(subset_id, kept, omitted))
            continue
        # one model per subset: each omitted facet swaps in its objective
        # and starts from the last outcome, the first one cold. Omitted
        # facets ascend, so consecutive optima are the same or
        # neighbouring vertices
        model = polytope_lp(poly, _facet_objective(poly, omitted[0]), kept)
        outcome = None
        gaps = []
        for j in omitted:
            model = replace(model, objective=_facet_objective(poly, j))
            outcome = solve_lp(model, start=outcome)
            gaps.append(_gap(poly, j, outcome))
        # unbounded beats any gap, and a tie keeps the first facet
        worst = max(gaps, key=lambda g: (not g.bounded, g.gap if g.bounded else 0))
        rows.append(
            ScanRow(
                subset_id,
                kept,
                omitted,
                worst.omitted_facet,
                worst.objective,
                worst.true_max,
                worst.relaxed_max,
                worst.gap,
                worst.bounded,
            )
        )
    return ScanReport(
        vertex_count=poly.vertex_count,
        facet_count=F,
        budget=budget,
        sample_count=len(kept_sets),
        seed=seed,
        enumerated=enumerated,
        rows=tuple(rows),
    )
