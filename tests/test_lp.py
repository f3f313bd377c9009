import random
from collections import Counter
from fractions import Fraction

import pytest

from galeproj import lp
from galeproj.errors import DimensionMismatch
from galeproj.linalg import integer_row
from galeproj.lp import FeasibilityResult, lp_feasible
from galeproj.pipeline import two_triangle_example
from helpers import (
    EQ,
    _fraction_simplex_max,
    cone_combination,
    convex_combination,
    eq,
    fraction_solve_nonneg,
    le,
    lt,
    margin_lp_feasible,
    rational_point,
    strict_lp_feasible,
)


def test_unit_interval_feasible():
    assert lp_feasible([([-1], 0), ([1], 1)]) == FeasibilityResult(True)


def test_strict_contradiction_infeasible():
    r = strict_lp_feasible([lt([1], 0), lt([-1], 0)])
    assert not r.feasible
    assert r.witness is None


def test_gordan_system_for_spanning_triple():
    # {(1,0),(0,1),(-1,-1)} positively spans, so no nonzero c has all
    # inner products <= 0: every signed-coordinate system is dry, its strict
    # row c_j * s > 0 scaled to <= -1 as the system is homogeneous.
    w = [(1, 0), (0, 1), (-1, -1)]
    for j in range(2):
        for s in (1, -1):
            direction = [0, 0]
            direction[j] = -s
            assert not lp_feasible([(v, 0) for v in w] + [(direction, -1)]).feasible


def test_strict_box_witness_is_inside():
    r = strict_lp_feasible([lt([1, 0], 1), lt([0, 1], 1), le([-1, 0], 0), le([0, -1], 0)])
    assert r.feasible
    assert r.witness[0] < 1 and r.witness[1] < 1


def test_equality_rows():
    r = strict_lp_feasible([eq([1, 1], 2), eq([1, -1], 0)])
    assert r.feasible and r.witness == (Fraction(1), Fraction(1))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp_feasible([([1, 0], 1), ([1], 0)])
    with pytest.raises(DimensionMismatch):
        lp_feasible([])


def test_determinism():
    cons = [([1, 2], 3), ([-1, 1], 1), ([0, -1], -1)]
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
        r = strict_lp_feasible(cons)
        if r.feasible:
            feasible_seen += 1
            assert all(c.holds(r.witness) for c in cons)
        else:
            infeasible_seen += 1
            assert r.witness is None
    assert feasible_seen > 10 and infeasible_seen > 10


def test_infeasible_relaxation_detected():
    r = lp_feasible([([1], 0), ([-1], -1)])
    assert not r.feasible


def test_cone_and_convex_combinations_certify():
    lam = cone_combination([(1, 0), (0, 1), (-1, -1)], (-3, -5))
    assert lam is not None and all(x >= 0 for x in lam)
    assert cone_combination([(1, 0), (0, 1)], (0, -1)) is None
    mu = convex_combination([(0, 0), (2, 0), (0, 2)], (1, Fraction(1, 2)))
    assert mu is not None and sum(mu) == 1
    assert convex_combination([(0, 0), (1, 0)], (2, 0)) is None


def test_feasibility_result_shape():
    # the verdict alone: an infeasible one is certified inside
    # `nonneg_combination`, and a feasible one carries no point
    assert list(FeasibilityResult._fields) == ["feasible"]
    assert FeasibilityResult(True).feasible and not FeasibilityResult(False).feasible


def test_answers_do_not_depend_on_magnitude():
    # feasible points lie only beyond |x| = 3*10^6; no variable is bounded
    assert lp_feasible([([1], -3 * 10**6)]).feasible
    # and the far interval [-3*10^6 + 1, -3*10^6] is empty
    assert not lp_feasible([([1], -3 * 10**6), ([-1], 3 * 10**6 - 1)]).feasible
    r = strict_lp_feasible([lt([1], -3 * 10**6)])
    assert r.feasible and r.witness[0] < -3 * 10**6
    far = [lt([1], -3 * 10**6), lt([-1], 3 * 10**6 + 5)]
    r = strict_lp_feasible(far)
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
        r = strict_lp_feasible(cons)
        if r.feasible:
            seen += 1
            assert all(c.holds(r.witness) for c in cons)
    assert seen > 20


@pytest.fixture
def oracle_checked(monkeypatch):
    """Check every `_solve_nonneg` call against the `Fraction` simplex.

    Each solve must make the oracle's pivots, (entering, leaving) column
    by column, and return the same rational point, as integers (num, D)
    over D > 0, or None.  The pivot loop must see only ints over a
    positive denominator and pivot on a positive entry, and the tableau
    must store no artificial column: every row and Z hold the variables
    and the rhs.
    Returns the counts of solves, pivots and covered cases.
    """
    events = Counter()
    integer_log = []
    width = []
    pivot, solve = lp._pivot, lp._solve_nonneg

    def checked_pivot(T, basis, Z, D, r, c):
        assert type(D) is int and D > 0
        assert all(len(row) == width[0] for row in T) and len(Z) == width[0]
        assert all(type(x) is int for row in T for x in row + Z)
        assert T[r][c] > 0
        integer_log.append((c, basis[r]))
        return pivot(T, basis, Z, D, r, c)

    def checked_solve(rows, nvars):
        # the rows arrive as integers; the oracle reads the same rows as Fractions
        raw_rows = [([Fraction(a) for a in row[:-1]], EQ, Fraction(row[-1])) for row in rows]
        oracle_log = []
        expected = fraction_solve_nonneg(raw_rows, nvars, oracle_log, events)
        width[:] = [nvars + 1]
        integer_log.clear()
        got = solve(rows, nvars)
        assert integer_log == oracle_log
        # the integer point (num, D) is the oracle's rational point, x = num / D
        assert rational_point(got) == expected
        if got is not None:
            num, D = got
            assert type(D) is int and D > 0 and len(num) == nvars
            assert all(type(n) is int for n in num)
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
            strict_lp_feasible(cons)
        assert oracle_checked["solves"] == 300
        for case in ("tie", "entering tie", "artificial left basic"):
            assert oracle_checked[case] > 0, case

    def test_hand_made_cases(self, oracle_checked):
        # a negative right-hand side, a redundant pair, parallel rows
        assert strict_lp_feasible([le([1], -3), lt([-1], 10**7)]).feasible
        assert strict_lp_feasible([eq([1, 1], 2), eq([2, 2], 4), le([1, -1], 0), lt([0, -1], 0)]).feasible
        assert not strict_lp_feasible([eq([Fraction(1, 3), 1], 1), eq([1, 3], 4)]).feasible
        cons = [le([1, 1], 0), le([1, -1], 0), lt([-1, 0], 1)]
        r = strict_lp_feasible(cons)
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
        # 26 + 65 before the census, the oracle and the face test stopped
        # solving LPs whose answers they already held, 18 + 51 before the
        # spanning and dependence questions were asked once per ray set,
        # 7 + 26 before the vertex records validated the polytope, and
        # 6 + 20 while dependence was a cone LP apart from the Farkas
        # system of the spanning test, and 12 + 10 while the oracle took
        # the hull of the plane images by 9 Gordan systems and ran one
        # spanning test; in the plane it now asks none
        assert oracle_checked["solves"] == 12


def test_no_variables():
    # the only point of {x >= 0} in zero variables is the empty one, and a
    # row 0 = b holds iff b = 0; nothing can enter
    assert lp.nonneg_combination([([], 0)], 0) == ([], 1)
    assert lp.nonneg_combination([([], 1)], 0) is None
    assert cone_combination([], (0, 0)) == [] and cone_combination([], (0, 1)) is None


def test_pivots_do_not_depend_on_how_rows_are_scaled(monkeypatch):
    # phase 1 runs on the integer rows, so a rational system and its
    # `integer_row`-scaled copy make the same pivots and find the same
    # point, the same integers (num, D); it is the rational point of the
    # `Fraction` simplex on the scaled rows
    log = []
    pivot = lp._pivot

    def logging(T, basis, Z, D, r, c):
        log.append((c, basis[r]))
        return pivot(T, basis, Z, D, r, c)

    monkeypatch.setattr(lp, "_pivot", logging)
    rng = random.Random(1)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    pivots = feasible = 0
    for _ in range(300):
        nvars = rng.randint(1, 5)
        eq_rows = [([entry() for _ in range(nvars)], entry()) for _ in range(rng.randint(1, 4))]
        scaled = [(row[:-1], row[-1]) for row in (integer_row([*a, b])[0] for a, b in eq_rows)]
        log.clear()
        x = lp.nonneg_combination(eq_rows, nvars)
        rational = list(log)
        log.clear()
        assert lp.nonneg_combination(scaled, nvars) == x
        assert log == rational, eq_rows
        raw_rows = [([Fraction(a) for a in coeffs], EQ, Fraction(rhs)) for coeffs, rhs in scaled]
        assert rational_point(x) == fraction_solve_nonneg(raw_rows, nvars, [], Counter())
        pivots += len(rational)
        feasible += x is not None
    assert pivots > 300 and 50 < feasible < 250


def test_gordan_margin_system_is_the_convex_combination_tableau(monkeypatch):
    # 0 is in conv W iff no c has c.w < 0 for all w (Gordan), iff the
    # margin system {c.w <= -1} is empty.  Its Farkas rows are the convex
    # combination rows with target 0, the row of ones negated, so both
    # make the same pivots.
    log = []
    pivot = lp._pivot

    def logging(T, basis, Z, D, r, c):
        log.append((c, basis[r]))
        return pivot(T, basis, Z, D, r, c)

    monkeypatch.setattr(lp, "_pivot", logging)
    rng = random.Random(2121)
    verdicts = Counter()
    for _ in range(300):
        e = rng.randint(1, 3)
        W = [[oracle_entry(rng) for _ in range(e)] for _ in range(rng.randint(1, 6))]
        log.clear()
        feasible = lp_feasible([(w, -1) for w in W]).feasible
        margin = list(log)
        log.clear()
        assert feasible == (convex_combination(W, (0,) * e) is None), W
        assert log == margin, W
        verdicts[feasible] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


# Beale (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 over x >= 0 with slacks
# x1, x2, x3 (columns 0-6, then the rhs); Dantzig's rule cycles on it.
BEALE_ROWS = [
    [1, 0, 0, Fraction(1, 4), -8, -1, 9, 0],
    [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3, 0],
    [0, 0, 1, 0, 0, 1, 0, 1],
]
BEALE_COSTS = [0, 0, 0, Fraction(3, 4), -20, Fraction(1, 2), -6, 0]


def test_fallback_breaks_beale_cycle(monkeypatch):
    # rows scaled by 4, 2 and 1 and the objective by 4 make them integer;
    # pivoting each slack in from a virtual basis gives the fraction-free
    # start, with D = 8 and Z = 8 * 4 * costs
    T = [[int(x * s) for x in row] for row, s in zip(BEALE_ROWS, (4, 2, 1))]
    Z = [int(4 * x) for x in BEALE_COSTS]
    basis, D = [7, 8, 9], 1
    for r in range(3):
        D = lp._pivot(T, basis, Z, D, r, r)
    assert D == 8 and basis == [0, 1, 2]
    log, bases = [], []
    pivot = lp._pivot

    def logging(T, basis, Z, D, r, c):
        # a kernel that cycles fails here instead of running forever
        assert len(log) < 100, "cycling"
        log.append((c, basis[r]))
        p = pivot(T, basis, Z, D, r, c)
        bases.append(list(basis))
        return p

    monkeypatch.setattr(lp, "_pivot", logging)
    D = lp._simplex_max(T, basis, Z, D, range(7))
    assert Fraction(-Z[-1], 4 * D) == Fraction(5, 4)
    rows = [[Fraction(x) for x in row] for row in BEALE_ROWS]
    z = [Fraction(x) for x in BEALE_COSTS]
    oracle_log, events = [], Counter()
    assert _fraction_simplex_max(rows, [0, 1, 2], z, range(7), oracle_log, events) == Fraction(5, 4)
    assert log == oracle_log and len(log) == 12
    assert events["fallback"] > 0
    # Dantzig's rule alone: six degenerate pivots lead back to the start
    # basis, from which it would make the same six again
    assert bases[5] == [0, 1, 2] and [0, 1, 2] not in bases[:5]


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
    """`strict_lp_feasible` decides by one phase 1 what the margin LP decided by two."""

    def test_verdicts_match_the_margin_lp(self):
        rng = random.Random(9090)
        verdicts = Counter()
        for _ in range(300):
            cons = random_mixed_system(rng)
            r = strict_lp_feasible(cons)
            assert r.feasible == margin_lp_feasible(cons), cons
            if r.feasible:
                assert all(c.holds(r.witness) for c in cons)
            verdicts[r.feasible] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    @pytest.mark.parametrize("name", sorted(STRICTNESS_EDGES))
    def test_edges_of_strictness(self, name):
        cons, feasible = STRICTNESS_EDGES[name]
        assert margin_lp_feasible(cons) == feasible
        r = strict_lp_feasible(cons)
        assert r.feasible == feasible
        if feasible:
            assert all(c.holds(r.witness) for c in cons)


def random_le_system(rng):
    """1 to 6 rows (a, b), meaning a.x <= b, in 1 to 3 variables, entries
    from `oracle_entry`."""
    k = rng.randint(1, 3)
    return [([oracle_entry(rng) for _ in range(k)], oracle_entry(rng)) for _ in range(rng.randint(1, 6))]


class TestLeSystems:
    """`lp_feasible` decides {x : Ax <= b}, x free, through its Farkas system."""

    def test_verdicts_match_the_margin_lp(self, oracle_checked):
        rng = random.Random(4040)
        verdicts = Counter()
        for _ in range(300):
            rows = random_le_system(rng)
            feasible = lp_feasible(rows).feasible
            assert feasible == margin_lp_feasible([le(a, b) for a, b in rows]), rows
            verdicts[feasible] += 1
        assert oracle_checked["solves"] == 300
        assert verdicts[True] > 50 and verdicts[False] > 50

    @pytest.mark.parametrize(
        "rows, bad",
        [
            # x <= 0 and -x <= -1, and y = (0, 1) off the row y1 - y2 = 0
            ([([1], 0), ([-1], -1)], ([0, 1], 1)),
            # x <= 0, -x <= -1 and x <= 1, and y = (1, 0, -1) on both rows
            # y1 - y2 + y3 = 0 and -y2 + y3 = -1, but with y3 < 0
            ([([1], 0), ([-1], -1), ([1], 1)], ([1, 0, -1], 1)),
        ],
    )
    def test_a_bad_witness_raises(self, rows, bad, monkeypatch):
        # the systems are empty; a bad Farkas certificate y must not pass
        assert not lp_feasible(rows).feasible
        monkeypatch.setattr(lp, "_solve_nonneg", lambda int_rows, nvars: bad)
        with pytest.raises(AssertionError, match="invalid witness"):
            lp_feasible(rows)


# points 0, 1, 2 on a line and the target 1; both bad points below satisfy
# the convex-combination row x1 + x2 + x3 = 1.  Each is phase 1's integer
# point (num, D), x = num / D.
LINE_POINTS = [(0,), (1,), (2,)]
BAD_WITNESSES = {
    # x = (1/2, 1/2, 0): x2 + 2 x3 = 1/2, not 1
    "off one row": ([1, 1, 0], 2),
    # x = (2/3, -1/3, 2/3): on every row, but x2 < 0
    "negative coordinate": ([2, -1, 2], 3),
    # 0 / 0: a'.num = b' * D holds on every row, but D is no denominator
    "zero denominator": ([0, 0, 0], 0),
}
MEMBERSHIP_CALLS = {
    "nonneg_combination": lambda: rational_point(lp.nonneg_combination([([0, 1, 2], 1), ([1, 1, 1], 1)], 3)),
    "cone_combination": lambda: cone_combination(LINE_POINTS, (1,)),
    "convex_combination": lambda: convex_combination(LINE_POINTS, (1,)),
}


class TestWitnessRecheck:
    """The re-check reads only the input rows and the returned point."""

    @pytest.mark.parametrize("call", sorted(MEMBERSHIP_CALLS))
    def test_a_valid_witness_passes(self, call):
        x = MEMBERSHIP_CALLS[call]()
        assert x is not None and all(v >= 0 for v in x)
        assert x[1] + 2 * x[2] == 1

    @pytest.mark.parametrize("bad", sorted(BAD_WITNESSES))
    @pytest.mark.parametrize("call", sorted(MEMBERSHIP_CALLS))
    def test_a_bad_witness_raises(self, call, bad, monkeypatch):
        monkeypatch.setattr(lp, "_solve_nonneg", lambda int_rows, nvars: BAD_WITNESSES[bad])
        with pytest.raises(AssertionError, match="invalid witness"):
            MEMBERSHIP_CALLS[call]()
