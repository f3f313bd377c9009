import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

from galeproj import lp
from galeproj.errors import DimensionMismatch
from galeproj.lp import (
    FeasibilityResult,
    convex_combination,
    cone_combination,
    eq,
    le,
    lp_feasible,
    lt,
)
from galeproj.pipeline import two_triangle_example
from helpers import fraction_solve_nonneg, margin_lp_feasible


def test_unit_interval_feasible():
    r = lp_feasible([le([-1], 0), le([1], 1)])
    assert r.feasible
    assert 0 <= r.witness[0] <= 1


def test_strict_contradiction_infeasible():
    r = lp_feasible([lt([1], 0), lt([-1], 0)])
    assert not r.feasible
    assert r.witness is None


def test_gordan_system_for_spanning_triple():
    # {(1,0),(0,1),(-1,-1)} positively spans, so no nonzero c has all
    # inner products <= 0: every signed-coordinate strict system is dry.
    w = [(1, 0), (0, 1), (-1, -1)]
    for j in range(2):
        for s in (1, -1):
            direction = [0, 0]
            direction[j] = -s
            cons = [le(v, 0) for v in w] + [lt(direction, 0)]
            assert not lp_feasible(cons).feasible


def test_strict_box_witness_is_inside():
    r = lp_feasible([lt([1, 0], 1), lt([0, 1], 1), le([-1, 0], 0), le([0, -1], 0)])
    assert r.feasible
    assert r.witness[0] < 1 and r.witness[1] < 1


def test_equality_rows():
    r = lp_feasible([eq([1, 1], 2), eq([1, -1], 0)])
    assert r.feasible and r.witness == (Fraction(1), Fraction(1))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_feasible([le([1, 0], 1), le([1], 0)])
    with pytest.raises(DimensionMismatch):
        lp_feasible([])


def test_determinism():
    cons = [le([1, 2], 3), le([-1, 1], 1), lt([0, -1], 0)]
    a = lp_feasible(cons)
    b = lp_feasible(cons)
    assert a == b


def test_witnesses_recheck_on_random_systems():
    rng = random.Random(303)
    feasible_seen = infeasible_seen = 0
    for _ in range(150):
        k = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
            rel = rng.choice(["<=", "=", "<"])
            rhs = Fraction(rng.randint(-4, 4))
            cons.append({"<=": le, "=": eq, "<": lt}[rel](coeffs, rhs))
        r = lp_feasible(cons)
        if r.feasible:
            feasible_seen += 1
            assert all(c.holds(r.witness) for c in cons)
        else:
            infeasible_seen += 1
            assert r.witness is None
    assert feasible_seen > 10 and infeasible_seen > 10


def test_infeasible_relaxation_detected():
    r = lp_feasible([le([1], 0), le([-1], -1)])
    assert not r.feasible


def test_cone_and_convex_combinations_certify():
    lam = cone_combination([(1, 0), (0, 1), (-1, -1)], (-3, -5))
    assert lam is not None and all(x >= 0 for x in lam)
    assert cone_combination([(1, 0), (0, 1)], (0, -1)) is None
    mu = convex_combination([(0, 0), (2, 0), (0, 2)], (1, Fraction(1, 2)))
    assert mu is not None and sum(mu) == 1
    assert convex_combination([(0, 0), (1, 0)], (2, 0)) is None


def test_feasibility_result_shape():
    r = FeasibilityResult("infeasible")
    assert not r.feasible and r.witness is None
    assert [f.name for f in fields(FeasibilityResult)] == ["status", "witness"]


def test_answers_do_not_depend_on_magnitude():
    # feasible points lie only beyond |x| = 3*10^6; no variable is bounded
    for cons in ([le([1], -3 * 10**6)], [lt([1], -3 * 10**6)]):
        r = lp_feasible(cons)
        assert r.feasible
        assert all(c.holds(r.witness) for c in cons)
    far = [lt([1], -3 * 10**6), lt([-1], 3 * 10**6 + 5)]
    r = lp_feasible(far)
    assert r.feasible and -3 * 10**6 - 5 < r.witness[0] < -3 * 10**6


def test_witnesses_recheck_on_random_strict_systems():
    rng = random.Random(8080)
    seen = 0
    for _ in range(150):
        k = rng.randint(1, 3)
        cons = [lt([Fraction(rng.randint(-4, 4)) for _ in range(k)], Fraction(rng.randint(-50, 50)))]
        for _ in range(rng.randint(0, 5)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
            rel = rng.choice([le, eq, lt])
            cons.append(rel(coeffs, Fraction(rng.randint(-50, 50))))
        r = lp_feasible(cons)
        if r.feasible:
            seen += 1
            assert all(c.holds(r.witness) for c in cons)
    assert seen > 20


@pytest.fixture
def oracle_checked(monkeypatch):
    """Check every `_solve_nonneg` call against the `Fraction` simplex.

    Each solve must make the oracle's pivots, (entering, leaving) column
    by column, and return the same point or None.  The pivot loop must see
    only ints over a positive denominator and pivot on a positive entry.
    Returns the counts of solves, pivots and covered cases.
    """
    events = Counter()
    integer_log = []
    pivot, solve = lp._pivot, lp._solve_nonneg

    def checked_pivot(T, basis, Z, D, r, c):
        assert type(D) is int and D > 0
        assert all(type(x) is int for row in T for x in row + Z)
        assert T[r][c] > 0
        integer_log.append((c, basis[r]))
        return pivot(T, basis, Z, D, r, c)

    def checked_solve(raw_rows, nvars):
        oracle_log = []
        expected = fraction_solve_nonneg(raw_rows, nvars, oracle_log, events)
        integer_log.clear()
        got = solve(raw_rows, nvars)
        assert integer_log == oracle_log
        assert got == expected
        if got is not None:
            assert all(type(v) is Fraction for v in got)
        events["solves"] += 1
        events["pivots"] += len(oracle_log)
        return got

    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    monkeypatch.setattr(lp, "_solve_nonneg", checked_solve)
    return events


def oracle_entry(rng):
    """Small integers (so zeros and ratio ties), rationals, or about 10^7."""
    kind = rng.random()
    if kind < 0.6:
        return Fraction(rng.randint(-3, 3))
    if kind < 0.85:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return Fraction(rng.choice([-1, 1]) * 10**7 + rng.randint(-5, 5), rng.choice([1, 1, 3]))


def random_mixed_system(rng):
    """1 to 6 rows of <=, = or < in 1 to 3 variables, entries from `oracle_entry`."""
    k = rng.randint(1, 3)
    rels = [le, eq, lt]
    return [rng.choice(rels)([oracle_entry(rng) for _ in range(k)], oracle_entry(rng)) for _ in range(rng.randint(1, 6))]


class TestIntegerPivotsMatchFractionSimplex:
    def test_random_systems_through_lp_feasible(self, oracle_checked):
        rng = random.Random(6060)
        for _ in range(300):
            cons = random_mixed_system(rng)
            if rng.random() < 0.3:
                # a redundant equality: a multiple of a row, or an equality on a row
                c = rng.choice(cons)
                scale = Fraction(rng.randint(1, 4), rng.randint(1, 3)) if c.relation == "=" else 1
                cons.append(eq([scale * x for x in c.coeffs], scale * c.rhs))
            lp_feasible(cons)
        assert oracle_checked["solves"] == 300
        for case in ("tie", "artificial left basic"):
            assert oracle_checked[case] > 0, case

    def test_hand_made_cases(self, oracle_checked):
        # a negative right-hand side, a redundant pair, parallel rows
        assert lp_feasible([le([1], -3), lt([-1], 10**7)]).feasible
        assert lp_feasible([eq([1, 1], 2), eq([2, 2], 4), le([1, -1], 0), lt([0, -1], 0)]).feasible
        assert not lp_feasible([eq([Fraction(1, 3), 1], 1), eq([1, 3], 4)]).feasible
        cons = [le([1, 1], 0), le([1, -1], 0), lt([-1, 0], 1)]
        r = lp_feasible(cons)
        assert r.feasible and all(c.holds(r.witness) for c in cons)
        assert oracle_checked["solves"] == 4

    def test_random_cone_and_convex_combinations(self, oracle_checked):
        rng = random.Random(7070)
        found = 0
        for _ in range(150):
            e = rng.randint(1, 3)
            points = [[oracle_entry(rng) for _ in range(e)] for _ in range(rng.randint(1, 6))]
            target = [oracle_entry(rng) for _ in range(e)]
            found += cone_combination(points, target) is not None
            found += convex_combination(points, points[0]) is not None
        assert oracle_checked["solves"] == 300 and 150 < found < 300

    def test_two_triangle_example_solves(self, oracle_checked):
        assert two_triangle_example("1/4").passed
        assert oracle_checked["solves"] == 74 + 91


# systems at the edge of strictness: name -> (constraints, feasible)
STRICTNESS_EDGES = {
    "single point": ([le([1], 1), le([-1], -1)], True),
    "single point excluded": ([lt([1], 1), le([-1], -1)], False),
    "strict row beside an equality": ([eq([1, 1], 2), lt([0, -1], 0)], True),
    "far half-line": ([le([1], -3 * 10**6)], True),
    "far open half-line": ([lt([1], -3 * 10**6)], True),
    # an open interval of width 10^-7 needs lam > 10^7
    "narrow open interval": ([lt([-1], 0), lt([1], Fraction(1, 10**7))], True),
    "opposite strict rows": ([lt([1], 0), lt([-1], 0), eq([0], 0)], False),
    "0 < 0": ([lt([0], 0)], False),
    "0 < 1": ([lt([0], 1)], True),
}


class TestHomogenisedVerdicts:
    """`lp_feasible` decides by one phase 1 what the margin LP decided by two."""

    def test_verdicts_match_the_margin_lp(self):
        rng = random.Random(9090)
        verdicts = Counter()
        for _ in range(300):
            cons = random_mixed_system(rng)
            r = lp_feasible(cons)
            assert r.feasible == margin_lp_feasible(cons), cons
            if r.feasible:
                assert all(c.holds(r.witness) for c in cons)
            verdicts[r.feasible] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    @pytest.mark.parametrize("name", sorted(STRICTNESS_EDGES))
    def test_edges_of_strictness(self, name):
        cons, feasible = STRICTNESS_EDGES[name]
        assert margin_lp_feasible(cons) == feasible
        r = lp_feasible(cons)
        assert r.feasible == feasible
        if feasible:
            assert all(c.holds(r.witness) for c in cons)
