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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .errors import ValidationError
from .lp import LESS_EQ, Constraint, SolveStatus, linear_program, solve_lp
from .rationals import Rational

ENUMERATION_LIMIT = 10_000


@dataclass(frozen=True)
class Halfplane:
    slope: Rational
    intercept: Rational  # y <= slope*x + intercept


@dataclass(frozen=True)
class Box:
    """Bounding constraints every model keeps: x_min <= x <= x_max,
    y >= y_min. Never charged against a facet storage budget."""

    x_min: Rational
    x_max: Rational
    y_min: Rational


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

    @property
    def box(self) -> Box:
        return Box(Fraction(0), self.x_max, Fraction(0))


def gen_arc(vertex_count: int) -> ArcPolytope:
    """Concave chain p_i = (i, i*(2V - i)); facet i joins vertices i and
    i+1 with slope 2V - 2i - 1 and intercept i*(i + 1)."""
    V = vertex_count
    if V < 2:
        raise ValidationError("an arc polytope needs at least 2 vertices")
    vertices = tuple(
        (Fraction(i), Fraction(i * (2 * V - i))) for i in range(V)
    )
    facets = tuple(
        Halfplane(Fraction(2 * V - 2 * i - 1), Fraction(i * (i + 1)))
        for i in range(V - 1)
    )
    return ArcPolytope(vertices, facets)


def facet_constraint(facet: Halfplane) -> Constraint:
    # y <= s*x + b as -s*x + y <= b
    return Constraint((-facet.slope, Fraction(1)), LESS_EQ, facet.intercept)


def polytope_lp(
    poly: ArcPolytope,
    objective: tuple[Rational, Rational],
    kept_facets: Optional[Sequence[int]] = None,
):
    """Maximize objective over the kept facets plus the box. The box
    (0 <= x <= V-1, y >= 0) never counts against a storage budget."""
    facets = (
        poly.facets
        if kept_facets is None
        else [poly.facets[i] for i in kept_facets]
    )
    return linear_program(
        objective,
        "max",
        [facet_constraint(f) for f in facets],
        upper_bounds=[poly.x_max, None],
    )


@dataclass(frozen=True)
class AdversarialGap:
    omitted_facet: int
    objective: tuple[Rational, Rational]
    true_max: Rational
    relaxed_max: Optional[Rational]
    witness: Optional[tuple[Rational, Rational]]
    gap: Optional[Rational]  # None when the truncated model is unbounded
    bounded: bool

    @property
    def positive_gap(self) -> bool:
        return (not self.bounded) or self.gap > 0


def facet_gap(
    poly: ArcPolytope, omitted: int, kept_facets: Sequence[int]
) -> AdversarialGap:
    """Adversarial objective for one omitted facet against a truncated
    model: maximize y - slope*x. Over the full polytope that tops out at
    the facet's intercept; whatever the truncated model reports beyond
    it is phantom value."""
    if not 0 <= omitted < poly.facet_count:
        raise ValidationError(f"facet index {omitted} out of range")
    if omitted in kept_facets:
        raise ValidationError(f"facet {omitted} is part of the kept model")
    facet = poly.facets[omitted]
    objective = (-facet.slope, Fraction(1))
    true_max = facet.intercept
    outcome = solve_lp(polytope_lp(poly, objective, kept_facets))
    if outcome.status is SolveStatus.UNBOUNDED:
        return AdversarialGap(
            omitted, objective, true_max, None, None, None, bounded=False
        )
    assert outcome.status is SolveStatus.OPTIMAL
    witness = (outcome.point[0], outcome.point[1])
    return AdversarialGap(
        omitted,
        objective,
        true_max,
        outcome.value,
        witness,
        outcome.value - true_max,
        bounded=True,
    )


def adversarial_objective(poly: ArcPolytope, omitted: int) -> AdversarialGap:
    """Omit exactly one facet; the model keeps every other facet."""
    if not 0 <= omitted < poly.facet_count:
        raise ValidationError(f"facet index {omitted} out of range")
    kept = [i for i in range(poly.facet_count) if i != omitted]
    return facet_gap(poly, omitted, kept)


def _worse(a: AdversarialGap, b: AdversarialGap) -> bool:
    """Is b a strictly larger phantom than a? Unbounded beats any gap."""
    if not b.bounded:
        return a.bounded
    if not a.bounded:
        return False
    return b.gap > a.gap


@dataclass(frozen=True)
class ScanRow:
    subset_id: int
    kept: tuple[int, ...]
    omitted: tuple[int, ...]
    worst_facet: Optional[int]
    objective: Optional[tuple[Rational, Rational]]
    true_max: Optional[Rational]
    relaxed_max: Optional[Rational]
    gap: Optional[Rational]
    bounded: bool

    @property
    def positive_gap(self) -> bool:
        if not self.omitted:
            return False
        return (not self.bounded) or self.gap > 0


@dataclass(frozen=True)
class ScanReport:
    vertex_count: int
    facet_count: int
    budget: int
    sample_count: int
    seed: int
    enumerated: bool
    rows: tuple[ScanRow, ...]

    @property
    def all_gaps_positive(self) -> bool:
        """Every incomplete sampled model admits a phantom optimum."""
        return all(row.positive_gap for row in self.rows if row.omitted)


def subset_gap_scan(
    poly: ArcPolytope,
    budget: int,
    sample_count: int = 100,
    seed: int = 0,
) -> ScanReport:
    """For every size-`budget` kept-facet subset (all of them when there
    are at most ENUMERATION_LIMIT, otherwise sample_count seeded draws),
    record the worst adversarial gap over the omitted facets. Rows are
    ordered by their omitted index lists so output is canonical."""
    F = poly.facet_count
    if not 0 <= budget <= F:
        raise ValidationError(f"budget must be within 0..{F}")
    if sample_count < 1:
        raise ValidationError("sample count must be at least 1")
    total = comb(F, budget)
    enumerated = total <= ENUMERATION_LIMIT
    if enumerated:
        kept_sets = [tuple(c) for c in combinations(range(F), budget)]
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, ...]] = set()
        attempts = 0
        while len(chosen) < sample_count:
            attempts += 1
            if attempts > 1000 * sample_count:  # pragma: no cover
                raise ValidationError("sampling failed to find distinct subsets")
            chosen.add(tuple(sorted(rng.sample(range(F), budget))))
        kept_sets = sorted(chosen)

    entries = sorted(
        (tuple(i for i in range(F) if i not in set(kept)), kept)
        for kept in kept_sets
    )
    rows = []
    for subset_id, (omitted, kept) in enumerate(entries):
        if not omitted:
            rows.append(
                ScanRow(
                    subset_id, kept, (), None, None, None, None,
                    gap=Fraction(0), bounded=True,
                )
            )
            continue
        worst: Optional[AdversarialGap] = None
        for j in omitted:
            result = facet_gap(poly, j, kept)
            if worst is None or _worse(worst, result):
                worst = result
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
        sample_count=sample_count if not enumerated else len(kept_sets),
        seed=seed,
        enumerated=enumerated,
        rows=tuple(rows),
    )
