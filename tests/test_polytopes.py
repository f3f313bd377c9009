import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from galeproj.errors import (
    DimensionMismatch,
    DuplicateLabels,
    EmptyPolytope,
    HypothesisViolated,
    IndexOutOfRange,
    NotFullDimensional,
    RedundantRow,
    TooLargeForExact,
    UnboundedPolytope,
)
from galeproj import lp, polytopes
from galeproj.linalg import affine_rank, rank, vec, vsub
from galeproj.polytopes import (
    HPolytope,
    VPolytope,
    dual_boundary_complex,
    h_vertices,
    hull_vertex_indices,
    is_simple,
    minkowski_sum_vertices,
    minkowski_vertex_test,
    trivial_upper_bound,
)
from helpers import (
    convex_combination,
    count_vertex_walks,
    facet_description,
    fraction_slacks,
    le,
    lp_validation,
    lt,
    margin_lp_feasible,
    normal_cone_oracle,
    random_points,
    separation_hull_vertices,
    simplex_power,
    spans_positively_primal,
    subset_vertex_records,
)

UNIT_SQUARE = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
TRIANGLE = VPolytope([(0, 0), (1, 0), (0, 1)])


def coupled_triangles(e):
    e = Fraction(e)
    rows = [
        [1, 1, 0, 0],
        [-1, 1, 0, 0],
        [0, -1, -e, 0],
        [0, -e, -1, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
    ]
    return HPolytope(rows, [1] * 6)


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(EmptyPolytope):
            HPolytope([[1], [-1]], [0, -1])

    def test_unbounded_rejected(self):
        with pytest.raises(UnboundedPolytope):
            HPolytope([[1, 0], [0, 1]], [1, 1])

    def test_lower_dimensional_rejected(self):
        with pytest.raises(NotFullDimensional):
            HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])

    def test_redundant_row_rejected(self):
        with pytest.raises(RedundantRow):
            HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]], [1, 1, 1, 1, 2])

    def test_scaled_duplicate_row_rejected(self):
        with pytest.raises(RedundantRow):
            HPolytope([[1, 0], [2, 0], [-1, 0], [0, 1], [0, -1]], [1, 2, 1, 1, 1])

    @pytest.mark.parametrize("A, b", [([[], []], [1, -1]), ([[]], [1])])
    def test_no_coordinates_rejected(self, A, b):
        with pytest.raises(DimensionMismatch) as err:
            HPolytope(A, b)
        assert str(err.value) == "an H-polytope needs at least one coordinate"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabels):
            HPolytope([[1], [-1]], [1, 1], [1, 1])

    def test_far_from_origin_interval_constructs(self):
        # [2*10^6, 2*10^6 + 1]: no bound on the LP variables hides it
        far = HPolytope([[1], [-1]], [2000001, -2000000])
        assert [r.vertex_coords for r in h_vertices(far)] == [(2000000,), (2000001,)]

    def test_vpolytope_distinct_points(self):
        with pytest.raises(DuplicateLabels):
            VPolytope([(0, 0), (0, 0)])

    def test_boundedness_matches_primal_oracle(self):
        # b > 0 puts 0 in the interior, so only boundedness and redundancy
        # are in question; boundedness is checked first
        rng = random.Random(1954)
        seen = set()
        for _ in range(240):
            n = rng.randint(1, 3)
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2 * n + 2))]
            b = [rng.randint(1, 3) for _ in A]
            bounded = spans_positively_primal([vec(a) for a in A])
            try:
                HPolytope(A, b)
                unbounded = False
            except UnboundedPolytope as err:
                assert "unbounded" in str(err)
                unbounded = True
            except RedundantRow:
                unbounded = False
            assert unbounded == (not bounded), (A, b)
            seen.add(("bounded", bounded))
            seen.add(("rank deficient", rank(A) < n))
        assert seen == {(k, v) for k in ("bounded", "rank deficient") for v in (False, True)}


def interior_verdict(A, b):
    """EmptyPolytope, NotFullDimensional or None: what `HPolytope` raises
    about {Ax <= b} and its interior; boundedness and redundancy aside."""
    try:
        HPolytope(A, b)
    except (EmptyPolytope, NotFullDimensional) as err:
        return type(err)
    except (UnboundedPolytope, RedundantRow):
        pass
    return None


def margin_verdict(A, b):
    """The same verdict from the margin LP on the strict and the relaxed system."""
    if margin_lp_feasible([lt(a, bi) for a, bi in zip(A, b)]):
        return None
    if margin_lp_feasible([le(a, bi) for a, bi in zip(A, b)]):
        return NotFullDimensional
    return EmptyPolytope


# name -> (A, b, the verdict)
VALIDATION_CASES = {
    "far interval": ([[1], [-1]], [2000001, -2000000], None),
    "the point 0": ([[1], [-1]], [0, 0], NotFullDimensional),
    "empty interval": ([[1], [-1]], [0, -1], EmptyPolytope),
    "flat square in R^3": (
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        [1, 1, 1, 1, 0, 0],
        NotFullDimensional,
    ),
}


class TestValidationOracle:
    """`HPolytope` finds empty and flat systems as the margin LP does."""

    @pytest.mark.parametrize("name", sorted(VALIDATION_CASES))
    def test_hand_cases(self, name):
        A, b, verdict = VALIDATION_CASES[name]
        assert margin_verdict(A, b) is verdict
        assert interior_verdict(A, b) is verdict

    def test_random_systems(self):
        rng = random.Random(1967)
        seen = set()
        for _ in range(240):
            n = rng.randint(1, 3)
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 2 * n + 1))]
            b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in A]
            if rng.random() < 0.4:
                # the opposite of a row, so a hyperplane the system may lie in
                i = rng.randrange(len(A))
                A.append([-x for x in A[i]])
                b.append(-b[i])
            verdict = margin_verdict(A, b)
            assert interior_verdict(A, b) is verdict, (A, b)
            seen.add(verdict)
        assert seen == {None, EmptyPolytope, NotFullDimensional}


def verdict(build):
    """The validation error `build()` raises, as (type, message), or None."""
    try:
        build()
    except (EmptyPolytope, NotFullDimensional, UnboundedPolytope, RedundantRow) as err:
        return type(err), str(err)
    return None


SQUARE_ROWS = [[1, 0], [-1, 0], [0, 1], [0, -1]]
CUBE_ROWS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]

# name -> (A, b, the verdict's type, the label it names or None)
RECORD_CASES = {
    "tight nowhere": (SQUARE_ROWS + [[1, 0]], [1, 1, 1, 1, 2], RedundantRow, 5),
    "tight at one vertex": (SQUARE_ROWS + [[1, 1]], [1, 1, 1, 1, 2], RedundantRow, 5),
    "tight along an edge in R^3": (CUBE_ROWS + [[1, 1, 0]], [1] * 6 + [2], RedundantRow, 7),
    "duplicate row": (SQUARE_ROWS + [[1, 0]], [1, 1, 1, 1, 1], RedundantRow, 1),
    "scaled duplicate row": (SQUARE_ROWS + [[0, 3]], [1, 1, 1, 1, 3], RedundantRow, 3),
    "zero row, b = 0": (SQUARE_ROWS + [[0, 0]], [1, 1, 1, 1, 0], NotFullDimensional, None),
    "zero row, b > 0": ([[0, 0]] + SQUARE_ROWS, [1, 1, 1, 1, 1], RedundantRow, 1),
    "zero row, b < 0": (SQUARE_ROWS + [[0, 0]], [1, 1, 1, 1, -1], EmptyPolytope, None),
    "segment in R^2": (SQUARE_ROWS + [[0, 1]], [1, 1, 1, 1, -1], NotFullDimensional, None),
    "a point in R^2": (SQUARE_ROWS + [[1, 1]], [1, 1, 1, 1, -2], NotFullDimensional, None),
    "square": (SQUARE_ROWS, [1, 1, 1, 1], None, None),
}


def random_bounded_system(rng):
    """Rows in R^1 to R^3 that positively span, with rhs, and shuffled labels.

    A simplex's normals make every system bounded.  Small integer rows and
    rhs make ties, so rows tight nowhere, at one vertex or along a face;
    duplicates, scaled duplicates, opposites and zero rows are added on
    purpose.
    """
    n = rng.randint(1, 3)
    A = [[-int(i == j) for j in range(n)] for i in range(n)] + [[1] * n]
    A += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
    b = [Fraction(rng.randint(-1, 4), rng.randint(1, 2)) for _ in A]
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(A))
        extra = rng.random()
        if extra < 0.3:  # a duplicate, or a scaled one
            scale = rng.choice([1, 2, Fraction(1, 3)])
            A.append([scale * x for x in A[i]])
            b.append(scale * b[i])
        elif extra < 0.6:  # the opposite, so a hyperplane the system may lie in
            A.append([-x for x in A[i]])
            b.append(-b[i])
        elif extra < 0.8:  # a zero row, tight everywhere, nowhere or infeasible
            A.append([0] * n)
            b.append(rng.choice([-1, 0, 1]))
        else:  # a shift of a row, often tight nowhere
            A.append(list(A[i]))
            b.append(b[i] + rng.choice([-1, 1]))
    order = list(range(len(A)))
    rng.shuffle(order)
    labels = rng.sample(range(1, 100), len(A))
    return [A[i] for i in order], [b[i] for i in order], labels


class TestValidationFromRecords:
    """`HPolytope`'s verdicts from vertex records against the LP validation."""

    @pytest.mark.parametrize("name", sorted(RECORD_CASES))
    def test_hand_cases(self, name):
        A, b, kind, label = RECORD_CASES[name]
        labels = list(range(1, len(A) + 1))
        got = verdict(lambda: HPolytope(A, b))
        assert got == verdict(lambda: lp_validation(A, b, labels))
        assert (got and got[0]) is kind
        if label is not None:
            assert got[1] == f"row with label {label} defines no facet"

    def test_random_bounded_systems(self):
        rng = random.Random(2026)
        seen = set()
        for _ in range(300):
            A, b, labels = random_bounded_system(rng)
            got = verdict(lambda: HPolytope(A, b, labels))
            assert got == verdict(lambda: lp_validation(A, b, labels)), (A, b, labels)
            seen.add(got and got[0])
        assert seen == {None, EmptyPolytope, NotFullDimensional, RedundantRow}


class TestVertexEnumeration:
    def test_unit_square(self):
        recs = h_vertices(UNIT_SQUARE)
        assert len(recs) == 4
        assert all(len(r.tight_facets) == 2 for r in recs)
        assert {r.vertex_coords for r in recs} == {
            vec([1, 1]), vec([1, -1]), vec([-1, 1]), vec([-1, -1])
        }

    def test_simplex(self):
        simp = HPolytope([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], [0, 0, 0, 1])
        assert len(h_vertices(simp)) == 4

    def test_coupled_triangles_quarter(self):
        P = coupled_triangles(Fraction(1, 4))
        recs = h_vertices(P)
        assert len(recs) == 9
        assert all(len(r.tight_facets) == 4 for r in recs)
        expected = {
            frozenset(a) | frozenset(b)
            for a in itertools.combinations((1, 2, 3), 2)
            for b in itertools.combinations((4, 5, 6), 2)
        }
        assert {r.tight_facets for r in recs} == expected

    def test_nonsimple_vertex_merged(self):
        # square pyramid: apex lies on all four slanted facets
        pyramid = HPolytope(
            [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]],
            [1, 1, 1, 1, 0],
        )
        recs = h_vertices(pyramid)
        assert len(recs) == 5
        apex = [r for r in recs if r.vertex_coords == vec([0, 0, 1])]
        assert len(apex) == 1 and len(apex[0].tight_facets) == 4
        assert not is_simple(pyramid)


class TestVertexRecordsCached:
    def test_enumerated_once_per_polytope(self, monkeypatch):
        walks = count_vertex_walks(monkeypatch)
        P = coupled_triangles(Fraction(1, 4))
        records = h_vertices(P)
        assert isinstance(records, tuple) and len(records) == 9
        # one walk over the 4-subsets of the 6 rows; it was one solve_square
        # call per subset, 15
        assert walks == {"walks": 1, "reductions": 34, "pruned": 2, "leaves": 13}
        assert h_vertices(P) is records is P.vertex_records
        assert is_simple(P)
        dual_boundary_complex(P)
        assert walks["walks"] == 1
        # the records live on the instance: an equal, fresh one enumerates again
        Q = coupled_triangles(Fraction(1, 4))
        assert h_vertices(Q) == records and h_vertices(Q) is not records
        assert walks["walks"] == 2

    def test_records_leave_eq_hash_and_repr_unchanged(self):
        P, Q = coupled_triangles(Fraction(1, 4)), coupled_triangles(Fraction(1, 4))
        before, text = hash(P), repr(P)
        h_vertices(P)
        assert P == Q and hash(P) == hash(Q) == before
        assert repr(P) == repr(Q) == text
        assert P != coupled_triangles(Fraction(1, 2))


OCTAHEDRON_ROWS = [list(signs) for signs in itertools.product((1, -1), repeat=3)]
PYRAMID_ROWS = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1], [0, 0, -1]]


def scaled_rows(rng, P):
    """P's rows, each scaled by its own positive rational: the same
    polytope, given by rational rows."""
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in P.A]
    return [[s * x for x in a] for s, a in zip(scales, P.A)], [s * bi for s, bi in zip(scales, P.b)]


class TestVertexRecordsAgainstSubsets:
    """`vertex_records`, read off one `basic_solutions` prefix tree, against
    `helpers.subset_vertex_records`, the C(m, n) route it replaced: the
    same records in the same order."""

    @pytest.mark.parametrize("epsilon", ["1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5"])
    def test_bench_sweep(self, epsilon):
        P = coupled_triangles(Fraction(epsilon))
        assert P.vertex_records == subset_vertex_records(P)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [None, 7], ids=["uncoupled", "coupled"])
    def test_simplex_powers(self, d, seed):
        P = simplex_power(d, seed)
        records = P.vertex_records
        assert len(records) == (d + 1) ** d and is_simple(P)
        assert records == subset_vertex_records(P)

    @pytest.mark.parametrize("rows, b", [(OCTAHEDRON_ROWS, [1] * 8), (PYRAMID_ROWS, [1, 1, 1, 1, 0])], ids=["octahedron", "pyramid"])
    def test_non_simple_vertices(self, rows, b):
        rng = random.Random(33)
        for P in (HPolytope(rows, b), HPolytope(*scaled_rows(rng, HPolytope(rows, b)))):
            assert not is_simple(P)
            assert P.vertex_records == subset_vertex_records(P)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_bounded_systems(self, n):
        # hulls of random rational points (n >= 2) or intervals (n = 1),
        # with every row scaled by a random positive rational; simplicial
        # hulls have non-simple vertices.  In R^1 to R^3 also the valid
        # systems of random_bounded_system, whose small integer rows make
        # singular prefixes.
        rng = random.Random(3300 + n)
        polytopes_made = []
        while len(polytopes_made) < 6:
            if n == 1:
                lo, hi = sorted(rng.sample(range(-20, 20), 2))
                P = HPolytope([[1], [-1]], [hi, -lo])
            else:
                pts = [vec(p) for p in random_points(rng, n, rng.randint(n + 1, n + 4))]
                if affine_rank(pts) != n:
                    continue
                P = facet_description(pts)
            polytopes_made.append(HPolytope(*scaled_rows(rng, P)))
        while len(polytopes_made) < 12 and n <= 3:
            A, b, labels = random_bounded_system(rng)
            if len(A[0]) == n and verdict(lambda: HPolytope(A, b, labels)) is None:
                polytopes_made.append(HPolytope(A, b, labels))
        nonsimple = 0
        for P in polytopes_made:
            assert P.vertex_records == subset_vertex_records(P), (P.A, P.b)
            nonsimple += not is_simple(P)
        assert n <= 2 or nonsimple > 0


def polygon_rows(m):
    """m >= 4 rows (+-1, k) with rhs 1: they positively span R^2."""
    return [[1 - 2 * (i % 2), i // 2 - m // 4] for i in range(m)], [1] * m


class TestVertexCap:
    """`HPolytope` refuses a system whose C(m, n) row subsets exceed
    `H_VERTEX_CAP`, before any LP or walk."""

    class Worked(Exception):
        pass

    def refuse_work(self, monkeypatch):
        def working(*args):
            raise self.Worked

        monkeypatch.setattr(polytopes, "basic_solutions", working)
        monkeypatch.setattr(lp, "lp_feasible", working)

    def test_least_system_over_the_cap_refused_before_any_work(self, monkeypatch):
        self.refuse_work(monkeypatch)
        # the least number of rows in R^2 over the cap
        m = 4
        while comb(m, 2) <= polytopes.H_VERTEX_CAP:
            m += 1
        message = (
            f"H-vertex enumeration of {m} rows in R^2 (C({m}, 2) = {comb(m, 2)} row subsets)"
            f" exceeds the cap {polytopes.H_VERTEX_CAP}"
        )
        with pytest.raises(TooLargeForExact) as err:
            HPolytope(*polygon_rows(m))
        assert str(err.value) == message
        # one row fewer is under the cap and starts its work
        with pytest.raises(self.Worked):
            HPolytope(*polygon_rows(m - 1))

    def test_delta_4_to_the_4_is_under_the_cap(self):
        # the deformed (Delta_4)^4 in R^16, with its 20 facets, is the
        # projection census's next input
        assert comb(20, 16) == 4845 <= polytopes.H_VERTEX_CAP

    def test_system_at_a_lowered_cap_runs(self, monkeypatch):
        # the 15 row subsets of the two-triangle product
        monkeypatch.setattr(polytopes, "H_VERTEX_CAP", 15)
        walks = count_vertex_walks(monkeypatch)
        assert len(coupled_triangles(Fraction(1, 4)).vertex_records) == 9
        monkeypatch.setattr(polytopes, "H_VERTEX_CAP", 14)
        with pytest.raises(TooLargeForExact, match=r"C\(6, 4\) = 15 row subsets\) exceeds the cap 14"):
            coupled_triangles(Fraction(1, 4))
        assert walks["walks"] == 1


class TestVertexRecordsOracle:
    """Integer slacks in `vertex_records` against the hull and `Fraction` rows.

    The hull of a full-dimensional point set goes through
    `helpers.facet_description` and `h_vertices`; its vertices must be the
    points `hull_vertex_indices` keeps, and each tight set must be the rows
    a `Fraction` evaluation finds tight.
    """

    @staticmethod
    def check_round_trip(pts):
        P = facet_description(pts)
        records = h_vertices(P)
        assert [r.vertex_coords for r in records] == sorted(pts[i] for i in hull_vertex_indices(pts))
        for r in records:
            slacks = fraction_slacks(P, r.vertex_coords)
            assert min(slacks) >= 0
            assert r.tight_facets == {label for label, s in zip(P.facet_labels, slacks) if s == 0}
        return records

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_vpolytopes(self, d):
        rng = random.Random(1000 + d)
        tested = nonsimple = 0
        while tested < 12:
            pts = [vec(p) for p in random_points(rng, d, rng.randint(d + 1, d + 4))]
            if affine_rank(pts) != d:
                continue
            records = self.check_round_trip(pts)
            nonsimple += sum(len(r.tight_facets) > d for r in records)
            tested += 1
        assert d == 2 or nonsimple > 0

    def test_pyramid_apex(self):
        h = Fraction(3, 7)
        base = [vec([x, y, 0]) for x in (Fraction(-1, 2), Fraction(1, 2)) for y in (Fraction(-1, 3), 1)]
        # an interior point of the base must not be reported
        records = self.check_round_trip(base + [vec([0, 0, h]), vec([0, Fraction(1, 3), 0])])
        apex = [r for r in records if r.vertex_coords == vec([0, 0, h])]
        assert len(apex) == 1 and len(apex[0].tight_facets) == 4


class TestHull:
    def test_interior_point_dropped(self):
        V = VPolytope([(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))])
        assert hull_vertex_indices(V.points) == {0, 1, 2}

    def test_collinear(self):
        assert hull_vertex_indices(VPolytope([(0, 0), (1, 1), (2, 2)]).points) == {0, 2}

    def test_repeated_point_refused(self):
        # an index could not name the vertex; the caller counts multiplicity
        for pts in ([vec([0, 0]), vec([1, 0]), vec([1, 0]), vec([0, 1])], [(1, 2), (1, 2)]):
            with pytest.raises(DuplicateLabels):
                hull_vertex_indices(pts)

    def test_contract_on_degenerate_inputs(self):
        assert hull_vertex_indices([(5, 7)]) == {0}
        with pytest.raises(EmptyPolytope):
            hull_vertex_indices([])
        with pytest.raises(DimensionMismatch):
            hull_vertex_indices([(0, 0), (1,)])

    def test_one_gordan_test_per_unique_point(self, monkeypatch):
        calls = []
        original = lp.lp_feasible

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(lp, "lp_feasible", counting)
        pts = [(0, 0), (2, 0), (0, 2), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
        assert hull_vertex_indices(pts) == {0, 1, 2}
        assert len(calls) == 5

    def test_matches_separation_oracle_on_random_sets(self):
        rng = random.Random(5150)
        for _ in range(40):
            d = rng.randint(1, 3)
            pts = [vec(p) for p in random_points(rng, d, rng.randint(1, 7))]
            assert hull_vertex_indices(pts) == separation_hull_vertices(pts)


class TestSimple:
    def test_cube_simple(self):
        cube = HPolytope(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            [1] * 6,
        )
        assert is_simple(cube)

    def test_coupled_triangles_simple(self):
        assert is_simple(coupled_triangles(Fraction(1, 4)))


class TestMinkowski:
    def test_homothetic_squares(self):
        sq = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert minkowski_vertex_test((3, 3), [sq, sq])

    def test_mismatched_normal_cones(self):
        assert not minkowski_vertex_test((1, 2), [TRIANGLE, TRIANGLE])

    def test_two_triangles_at_most_six(self):
        rng = random.Random(99)
        for _ in range(10):
            pts = random_points(rng, 2, 3)
            other = random_points(rng, 2, 3)
            p, q = VPolytope(pts), VPolytope(other)
            hits = sum(
                minkowski_vertex_test(c, [p, q])
                for c in itertools.product(range(3), range(3))
            )
            assert hits <= 6

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            minkowski_vertex_test((0, 7), [TRIANGLE, TRIANGLE])

    def test_generic_segments_sum_to_quadrilateral(self):
        s1 = VPolytope([(0, 0), (1, 0)])
        s2 = VPolytope([(0, 0), (0, 1)])
        assert len(minkowski_sum_vertices([s1, s2])) == 4

    def test_triangle_plus_reflection_is_hexagon(self):
        neg = VPolytope([tuple(-x for x in p) for p in TRIANGLE.points])
        sums = minkowski_sum_vertices([TRIANGLE, neg])
        assert len(sums) == 6
        # frozen oracle: hull of all nine pairwise sums
        candidates = [tuple(a + b for a, b in zip(p, q)) for p in TRIANGLE.points for q in neg.points]
        distinct = sorted(set(candidates))
        hull = {distinct[i] for i in hull_vertex_indices(distinct)}
        assert {pt for _, pt in sums} == hull

    def test_axis_aligned_squares(self):
        sq = VPolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(minkowski_sum_vertices([sq, sq])) == 4

    def test_point_summand_translates(self):
        pt = VPolytope([(2, 3)])
        sums = minkowski_sum_vertices([TRIANGLE, pt])
        assert {p for _, p in sums} == {vec([v[0] + 2, v[1] + 3]) for v in TRIANGLE.points}

    def test_translation_invariance(self):
        rng = random.Random(4242)
        for _ in range(10):
            p = VPolytope(random_points(rng, 2, 4))
            q = VPolytope(random_points(rng, 2, 3))
            shift = vec([rng.randint(-5, 5), rng.randint(-5, 5)])
            q2 = VPolytope([tuple(a + b for a, b in zip(pt, shift)) for pt in q.points])
            for choice in itertools.product(range(4), range(3)):
                assert minkowski_vertex_test(choice, [p, q]) == minkowski_vertex_test(
                    choice, [p, q2]
                )

    def test_oracle_equivalence_small_random(self):
        rng = random.Random(2718)
        for _ in range(15):
            d = rng.randint(2, 3)
            r = rng.randint(2, 3)
            polys = [VPolytope(random_points(rng, d, rng.randint(2, 4))) for _ in range(r)]
            sums = minkowski_sum_vertices(polys)
            assert len(sums) <= trivial_upper_bound([len(p.points) for p in polys])
            candidates = [
                tuple(sum(p.points[i][c] for i, p in zip(choice, polys)) for c in range(d))
                for choice in itertools.product(*(range(len(p.points)) for p in polys))
            ]
            distinct = sorted(set(candidates))
            hull = {distinct[i] for i in hull_vertex_indices(distinct)}
            assert {pt for _, pt in sums} == hull


def lifted_lattice_summands():
    """Three summands of five lifted lattice points (x, y, x^2 + y^2), all
    vertices: the instance the minksum-d3r3 benchmark workload runs."""
    rng = random.Random("minksum-d3r3/0")
    summands = []
    for _ in range(3):
        xy = set()
        while len(xy) < 5:
            xy.add((rng.randint(-10, 10), rng.randint(-10, 10)))
        summands.append(VPolytope([(x, y, x * x + y * y) for x, y in sorted(xy)]))
    return summands


def all_choices(polys):
    return itertools.product(*(range(len(p.points)) for p in polys))


class TestGordanVertexTest:
    """`minkowski_vertex_test` (0 not in conv of differences) against the
    strict-separation LP of `normal_cone_oracle`."""

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(1729)
        for d in (2, 3):
            for r in (2, 3):
                for _ in range(3):
                    polys = [VPolytope(random_points(rng, d, rng.randint(2, 4))) for _ in range(r)]
                    for choice in all_choices(polys):
                        assert minkowski_vertex_test(choice, polys) == normal_cone_oracle(choice, polys)

    def test_matches_oracle_with_non_vertices_and_points(self):
        rng = random.Random(577)
        seen_non_vertex_accepted = seen_rejected = 0
        for d in (2, 3):
            for _ in range(4):
                pts = random_points(rng, d, 3)
                mid = tuple((a + b) / 2 for a, b in zip(pts[0], pts[1]))
                if mid in pts:
                    continue
                polys = [
                    VPolytope(pts + [mid]),
                    VPolytope(random_points(rng, d, 1)),
                    VPolytope(random_points(rng, d, 3)),
                ]
                for choice in all_choices(polys):
                    got = minkowski_vertex_test(choice, polys)
                    assert got == normal_cone_oracle(choice, polys)
                    if choice[0] == 3:
                        seen_non_vertex_accepted += got
                    seen_rejected += not got
        assert seen_non_vertex_accepted == 0 and seen_rejected > 0
        points_only = [VPolytope([(1, 2)]), VPolytope([(-3, 0)])]
        assert minkowski_vertex_test((0, 0), points_only)
        assert normal_cone_oracle((0, 0), points_only)

    def test_matches_oracle_on_lifted_lattice_instance(self):
        polys = lifted_lattice_summands()
        accepted = 0
        for choice in all_choices(polys):
            got = minkowski_vertex_test(choice, polys)
            assert got == normal_cone_oracle(choice, polys)
            accepted += got
            if not got:
                # the rejection certificate: 0 as a convex combination of
                # the differences w - v_i
                diffs = [
                    vsub(w, Q.points[i]) for i, Q in zip(choice, polys) for w in Q.points if w != Q.points[i]
                ]
                lam = convex_combination(diffs, (0, 0, 0))
                assert lam is not None and sum(lam) == 1 and min(lam) >= 0
                assert all(sum(l * u[c] for l, u in zip(lam, diffs)) == 0 for c in range(3))
        assert accepted == 41

    def test_one_phase_one_solve_per_tuple(self, monkeypatch):
        # the Gordan test is one lp_feasible margin system, so one
        # nonneg_combination call; it was one convex_combination call
        calls = {"lp_feasible": 0, "nonneg_combination": 0}

        def counting(name):
            original = getattr(lp, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(lp, name, counting(name))
        polys = [TRIANGLE, VPolytope([(0, 0), (2, 1)])]
        for choice in all_choices(polys):
            minkowski_vertex_test(choice, polys)
        assert calls == {"lp_feasible": 6, "nonneg_combination": 6}
        minkowski_vertex_test((0, 0), [VPolytope([(1, 1)]), VPolytope([(2, 2)])])
        assert calls == {"lp_feasible": 6, "nonneg_combination": 6}


class TestDifferencesCached:
    """Each summand's differences w - v are built once, not once per tuple."""

    def test_one_difference_per_ordered_pair_of_points(self, monkeypatch):
        calls = []
        original = polytopes.vsub

        def counting(u, v):
            calls.append(1)
            return original(u, v)

        monkeypatch.setattr(polytopes, "vsub", counting)
        rng = random.Random(36)
        polys = [VPolytope(random_points(rng, 3, 4)) for _ in range(3)]
        sums = minkowski_sum_vertices(polys)
        # sum f0_i (f0_i - 1) = 3 * 4 * 3, not prod f0_i * sum (f0_i - 1) = 64 * 9
        assert len(calls) == 36
        accepted = {choice for choice, _ in sums}
        for choice in all_choices(polys):
            assert (choice in accepted) == normal_cone_oracle(choice, polys)
        minkowski_sum_vertices(polys)
        assert len(calls) == 36

    def test_differences_leave_eq_hash_and_repr_unchanged(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        P, Q = VPolytope(pts), VPolytope(pts)
        before, text = hash(P), repr(P)
        assert P.differences[0] == tuple(vec(p) for p in pts[1:])
        assert all(len(diffs) == 3 for diffs in P.differences)
        assert P == Q and hash(P) == hash(Q) == before
        assert repr(P) == repr(Q) == text

    def test_positive_scaling_of_a_summand_keeps_every_verdict(self):
        # the differences are built from each summand scaled to integers,
        # which is sound because a positive scaling keeps every normal cone
        rng = random.Random(3711)
        scales = (Fraction(3, 7), Fraction(5), Fraction(11, 2))
        for _ in range(4):
            d = rng.randint(2, 3)
            polys = [VPolytope(random_points(rng, d, rng.randint(2, 5))) for _ in range(3)]
            scaled = [VPolytope([tuple(s * x for x in p) for p in Q.points]) for s, Q in zip(scales, polys)]
            for Q in polys + scaled:
                assert all(type(x) is int for diffs in Q.differences for u in diffs for x in u)
            choices = [choice for choice, _ in minkowski_sum_vertices(polys)]
            assert [choice for choice, _ in minkowski_sum_vertices(scaled)] == choices
            for choice in all_choices(polys):
                assert (choice in choices) == normal_cone_oracle(choice, polys) == normal_cone_oracle(choice, scaled)

    def test_each_difference_is_the_primitive_vector_on_its_ray(self):
        # a positive multiple of w - v with coprime entries; so a summand and
        # its positive scalings share their differences
        rng = random.Random(3712)
        for _ in range(10):
            P = VPolytope(random_points(rng, rng.randint(2, 4), rng.randint(2, 8)))
            for v, diffs in zip(P.points, P.differences):
                for w, u in zip([w for w in P.points if w != v], diffs):
                    exact = vsub(w, v)
                    assert gcd(*u) == 1 and all((x == 0) == (y == 0) for x, y in zip(u, exact))
                    ratios = {x / y for x, y in zip(u, exact) if y}
                    assert len(ratios) == 1 and ratios.pop() > 0
            scaled = VPolytope([tuple(Fraction(7, 3) * x for x in p) for p in P.points])
            assert scaled.differences == P.differences

    def test_lifted_lattice_instance_work(self, monkeypatch):
        # one phase 1 per tuple and no strict system: 125 solves, 646 pivots
        # (875 while the differences kept the common factors of their entries,
        # 863 while Bland's rule priced every pivot).  Each solve is the
        # margin system of one lp_feasible call; the convex-combination
        # rows it replaced, the same tableau, made 0 lp_feasible calls.
        calls = {"nonneg_combination": 0, "lp_feasible": 0, "_pivot": 0}

        def counting(name):
            original = getattr(lp, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(lp, name, counting(name))
        assert len(minkowski_sum_vertices(lifted_lattice_summands())) == 41
        assert calls == {"nonneg_combination": 125, "lp_feasible": 125, "_pivot": 646}


class TestTrivialBound:
    def test_values(self):
        assert trivial_upper_bound([3, 3]) == 9
        assert trivial_upper_bound([1, 7]) == 7
        assert trivial_upper_bound([4, 4, 4]) == 64

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            trivial_upper_bound([])


def test_dual_boundary_complex_of_triangle_product():
    # at e = 0 the coupling vanishes: a product of two triangles
    K = dual_boundary_complex(coupled_triangles(0))
    assert len(K.vertices) == 6
    assert all(len(f) == 4 for f in K.facets)
    assert len(K.facets) == 9


def test_dual_boundary_complex_refuses_a_non_simple_polytope():
    # the octahedron |x| + |y| + |z| <= 1: each vertex lies on 4 of the 8 facets
    octahedron = HPolytope(list(itertools.product((1, -1), repeat=3)), [1] * 8)
    assert not is_simple(octahedron)
    with pytest.raises(HypothesisViolated):
        dual_boundary_complex(octahedron)
