"""Pinned pivot-path results.

Each literal below was recorded from the Fraction-tableau simplex that
preceded the integer-row tableau; the cut loops were re-recorded when
each round began to start from the last round's tableau, the cut
loops and both digests again when the primal feasibility search began
to stop at the first basis where every row held, and the cut loops and the
appended-rows digest again when a warm start that appends rows began to
re-optimise by the dual simplex and the loop's first round to start at
a cycle cover, both digests again when cold solves began to repair
their rows by the dual simplex, which replaced that search, and both
digests again when each equality row took a slack of span 0, numbered
among the slacks, in place of a basic variable that had no column, and
the cut loops again when a separation of a disconnected support began
to yield every component's cut, added one per round from a pool. The programs
are degenerate: many optimal vertices tie, and Bland's rule picks one
of them. A kernel change that keeps every value optimal but lets a tie
break differently moves a cut sequence, an optimal point or a hull
witness, and fails here even when every oracle comparison still
passes.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lpgaps.hull import facet_gap, gen_arc
from lpgaps.lp import Constraint, LinearProgram, SolveStatus, _Tableau, solve_lp
from lpgaps.valleys import cutting_plane_loop, degree_lp, gen_valley_instance

F = Fraction

# recorded from the warm cut loop, whose first round starts at the cycle
# cover that swaps reach from the identity tour, whose every later
# round re-optimises the last round's tableau, its cut appended, by the
# dual simplex, and whose cuts come one per round from a pool of the
# last separation's cuts (every component of a disconnected support)
CUT_LOOPS = {
    (4, 2): dict(
        rounds=[
            (F(8, 7), (0, 1), 16),
            (F(88, 21), (4, 5), 17),
            (F(88, 21), (6, 7), 18),
            (F(40, 7), (0, 1, 4, 5, 6, 7), 19),
            (F(152, 21), None, 20),
        ],
        final_support=(0, 9, 18, 23, 34, 39, 42, 55),
    ),
    (3, 3): dict(
        rounds=[
            (F(9, 7), (0, 1, 2), 18),
            (F(13, 3), (6, 7, 8), 19),
            (F(13, 3), (0, 6, 7, 8), 20),
            (F(13, 3), (3, 4, 5), 21),
            (F(41, 7), (0, 3, 4, 5, 6, 7, 8), 22),
            (F(41, 7), None, 23),
        ],
        final_support=(1, 11, 17, 30, 36, 43, 48, 63, 70),
    ),
}


@pytest.mark.parametrize("shape", sorted(CUT_LOOPS))
def test_cut_loop_pivot_path(shape):
    expected = CUT_LOOPS[shape]
    trace = cutting_plane_loop(
        gen_valley_instance(*shape, F(1, 7), F(5, 3))
    )
    got = [(r.lp_value, r.cut_added, r.constraint_count) for r in trace.rounds]
    assert got == expected["rounds"]
    assert [r.round_index for r in trace.rounds] == list(
        range(1, len(got) + 1)
    )
    assert trace.cuts == tuple(c for _, c, _ in expected["rounds"] if c)
    support = tuple(j for j, x in enumerate(trace.final_point) if x)
    assert support == expected["final_support"]
    assert all(trace.final_point[j] == 1 for j in support)
    assert trace.complete and trace.final_integral


def test_degree_lp_optimal_vertex():
    out = solve_lp(degree_lp(gen_valley_instance(10, 2)))
    assert out.status is SolveStatus.OPTIMAL
    assert out.value == 0
    # the pair-swap inside each 2-city valley: arcs 2v->2v+1 and back
    support = tuple(j for j, x in enumerate(out.point) if x)
    assert support == tuple(
        j for v in range(10) for j in (40 * v, 40 * v + 19)
    )
    assert all(out.point[j] == 1 for j in support)


# (omitted facet, witness, relaxed max, true max) for every facet left
# out of one seeded half-size model of the 64-vertex arc
ARC64_KEPT_SEED = 2024
ARC64_WITNESSES = [
    (0, (F(0), F(20)), 20, 0),
    (1, (F(0), F(20)), 20, 2),
    (2, (F(0), F(20)), 20, 6),
    (3, (F(0), F(20)), 20, 12),
    (5, (F(7), F(853)), 34, 30),
    (6, (F(7), F(853)), 48, 42),
    (7, (F(7), F(853)), 62, 56),
    (8, (F(7), F(853)), 76, 72),
    (10, (F(21, 2), F(2469, 2)), 111, 110),
    (14, (F(29, 2), F(3293, 2)), 211, 210),
    (17, (F(18), F(1982)), 308, 306),
    (18, (F(18), F(1982)), 344, 342),
    (20, (F(41, 2), F(4409, 2)), 421, 420),
    (23, (F(49, 2), F(5079, 2)), 555, 552),
    (24, (F(49, 2), F(5079, 2)), 604, 600),
    (25, (F(49, 2), F(5079, 2)), 653, 650),
    (27, (F(28), F(2802)), 758, 756),
    (28, (F(28), F(2802)), 814, 812),
    (32, (F(65, 2), F(6209, 2)), 1057, 1056),
    (36, (F(73, 2), F(6681, 2)), 1333, 1332),
    (38, (F(77, 2), F(6893, 2)), 1483, 1482),
    (42, (F(85, 2), F(7269, 2)), 1807, 1806),
    (47, (F(95, 2), F(7649, 2)), 2257, 2256),
    (50, (F(103, 2), F(7887, 2)), 2553, 2550),
    (51, (F(103, 2), F(7887, 2)), 2656, 2652),
    (52, (F(103, 2), F(7887, 2)), 2759, 2756),
    (55, (F(111, 2), F(8049, 2)), 3081, 3080),
    (57, (F(115, 2), F(8109, 2)), 3307, 3306),
    (59, (F(119, 2), F(8153, 2)), 3541, 3540),
    (61, (F(63), F(4101)), 3786, 3782),
    (62, (F(63), F(4101)), 3912, 3906),
]


def test_arc64_facet_gap_witnesses():
    poly = gen_arc(64)
    rng = random.Random(ARC64_KEPT_SEED)
    kept = sorted(rng.sample(range(poly.facet_count), 32))
    omitted = [j for j in range(poly.facet_count) if j not in kept]
    assert omitted == [j for j, *_ in ARC64_WITNESSES]
    for j, witness, relaxed, true in ARC64_WITNESSES:
        gap = facet_gap(poly, j, kept)
        assert gap.bounded
        assert gap.witness == witness
        assert (gap.relaxed_max, gap.true_max) == (relaxed, true)
        assert gap.gap == relaxed - true


# SHA-256 of every basis change (row, entering column) and every
# outcome (status, value) over RANDOM_PROGRAMS seeded programs, each
# solved cold and then warm from its own outcome for a second objective,
# recorded from the dense-row elimination that preceded the sparse one,
# again when the primal feasibility search began to stop as soon as
# every row held: every status and value stayed, 661 basis changes
# became 665, and again when cold solves began to repair their rows by
# the dual simplex instead of that search: every status, value and
# point stayed, 665 basis changes became 660 and 181 bound flips 115,
# and again when each equality row took a zero-span slack, numbered
# among the slacks, in place of a basic variable that had no column and
# a pass that drove it out: every status, value and point stayed,
# 660 basis changes became 612 and 115 bound flips 114.
# Row denominators are left out on purpose: the pivots and the outcomes
# are the contract, the lowest-terms scaling of a row is not.
RANDOM_PROGRAMS_SEED = 8086
RANDOM_PROGRAMS = 300
RANDOM_PATH_SHA256 = (
    "07ad937b938e28ee744e46dff8b648ffd16d6d9e3262d81670487e8a3f4707c6"
)


def seeded_boxed_program(rng):
    """The shape of test_lp's boxed_programs, drawn from a seeded rng:
    denominators up to 7, negative lower bounds, fixed columns (zero
    span) and equality rows, each row within an offset of an anchor
    point, so both feasible and infeasible programs occur."""
    n = rng.randint(1, 4)

    def small():
        return F(rng.randint(-6, 6), rng.randint(1, 7))

    lower = [small() for _ in range(n)]
    spans = [F(rng.randint(0, 4), rng.randint(1, 7)) for _ in range(n)]
    anchor = [lo + s * F(rng.randint(0, 4), 4) for lo, s in zip(lower, spans)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = [small() for _ in range(n)]
        relation = rng.choice(["<=", "<=", ">=", "="])
        offset = F(rng.randint(-1, 3), rng.randint(1, 7))
        if relation == ">=":
            offset = -offset
        elif relation == "=":
            offset = min(offset, 0)
        lhs = sum(a * x for a, x in zip(coeffs, anchor))
        rows.append(Constraint(coeffs, relation, lhs + offset))
    return LinearProgram(
        [small() for _ in range(n)],
        rng.choice(["max", "min"]),
        rows,
        lower_bounds=lower,
        upper_bounds=[lo + s for lo, s in zip(lower, spans)],
    )


def test_random_programs_pivot_digest(monkeypatch):
    events = []
    original = _Tableau._replace

    def recording_replace(self, p, enter, *args):
        events.append(("pivot", p, enter))
        return original(self, p, enter, *args)

    monkeypatch.setattr(_Tableau, "_replace", recording_replace)
    rng = random.Random(RANDOM_PROGRAMS_SEED)
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(rng)
        first = solve_lp(lp)
        events.append(("outcome", first.status.value, first.value))
        if first.tableau is None:
            continue
        other = replace(
            lp,
            objective=tuple(F(rng.randint(-6, 6), rng.randint(1, 7))
                            for _ in range(lp.num_vars)),
            sense=rng.choice(["max", "min"]),
        )
        warm = solve_lp(other, start=first)
        events.append(("outcome", warm.status.value, warm.value))
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    assert digest == RANDOM_PATH_SHA256


# SHA-256 of every basis change (row, entering column) and every
# outcome (status, value, point) of a warm solve that appends rows: the
# same seeded programs, each solved cold and then from its own outcome
# with 1-3 rows appended, each of any relation and strictly satisfied,
# tight or violated at the outcome's point. Recorded from the tableau
# whose cold solve appends every row to the row-less tableau, again
# when the primal feasibility search began to stop as soon as every row
# held (every status, value and point stayed, 155 basis changes became
# 154), and again when these warm solves began to re-optimise by the
# dual simplex instead of that search (every status, value and point
# stayed, 154 basis changes became 111),
# and again when cold solves did too, which moves the starts' final
# bases (every status, value and point stayed, 111 basis changes became
# 110), and again when each equality row took a zero-span slack in place
# of a basic variable that had no column (every status, value and point
# stayed, 110 basis changes became 95).
APPENDED_ROWS_SEED = 8087
APPENDED_PATH_SHA256 = (
    "0c2950dc7fc2ffd6b5942762f783f8a162452e2426e51ba0d4eecb9bf5060a52"
)


def seeded_appended_rows(rng, lp, point):
    """1-3 rows of random relations, each placed strictly inside, on or
    strictly outside its boundary at point."""
    rows = []
    for _ in range(rng.randint(1, 3)):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(lp.num_vars)]
        relation = rng.choice(["<=", ">=", "="])
        offset = rng.choice([-1, 0, 1]) * F(rng.randint(1, 3), rng.randint(1, 7))
        lhs = sum(a * x for a, x in zip(coeffs, point))
        rows.append(Constraint(coeffs, relation, lhs + offset))
    return rows


def test_appended_rows_pivot_digest(monkeypatch):
    events = []
    original = _Tableau._replace

    def recording_replace(self, p, enter, *args):
        events.append(("pivot", p, enter))
        return original(self, p, enter, *args)

    programs = random.Random(RANDOM_PROGRAMS_SEED)
    rows_rng = random.Random(APPENDED_ROWS_SEED)
    appended = 0
    for _ in range(RANDOM_PROGRAMS):
        lp = seeded_boxed_program(programs)
        first = solve_lp(lp)
        if first.tableau is None:
            continue
        # an unbounded outcome has no point; rows then pass near the
        # lower corner instead
        point = first.point or lp.lower_bounds
        rows = seeded_appended_rows(rows_rng, lp, point)
        grown = replace(lp, constraints=[*lp.constraints, *rows])
        monkeypatch.setattr(_Tableau, "_replace", recording_replace)
        warm = solve_lp(grown, start=first)
        monkeypatch.undo()
        events.append(("outcome", warm.status.value, warm.value, warm.point))
        appended += 1
    assert appended > RANDOM_PROGRAMS // 2
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    assert digest == APPENDED_PATH_SHA256
