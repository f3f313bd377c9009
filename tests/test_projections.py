import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest

from galeproj.complexes import complete_bipartite
from galeproj.errors import NotGale, OriginNotInterior, RankDeficient, UnknownLabel
from galeproj.gale import VectorConfig, gale_faces_of_card
from galeproj.linalg import kernel_basis, mat_vec, rank
from galeproj.pipeline import TRIANGLE_PRODUCT_PROJECTION, coupling_g_matrix, deformed_triangle_product
from galeproj.polytopes import HPolytope, h_vertices
from galeproj.projections import VertexRecord, face_preserved, g_vectors, oracle_survival, vertex_survival_census
from helpers import fraction_mat_vec, full_survival_census

CUBE = HPolytope(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [1] * 6
)
AXIS_PLANE = [[1, 0, 0], [0, 1, 0]]
# -2 <= x <= 1, -4 <= y <= 3, -6 <= z <= 5, with facet labels that are not 1..6
BOX = HPolytope(CUBE.A, [1, 2, 3, 4, 5, 6], [11, 12, 13, 14, 15, 16])
# |x| + |y| + |z| <= 1: 8 facets, and each of the 6 vertices lies on 4, so not simple
OCTAHEDRON = HPolytope([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)], [1] * 8)
# the cube with its corner (1, 1, 1) cut off by x + y + z <= 5/2: 10 vertices
CUT_CUBE = HPolytope(CUBE.A + ((1, 1, 1),), CUBE.b + (Fraction(5, 2),))
# -x_i <= 1 and x_1 + x_2 + x_3 <= 1: a 3-simplex with 0 inside
SIMPLEX = HPolytope([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]], [1, 1, 1, 1])
EPSILONS_BELOW_ONE = ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5")
# few distinct small entries, so that images often coincide or land mid-edge
PROJECTION_ENTRIES = (-1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-2, 3))


def two_triangle_setup(eps):
    """The g-vectors of the deformed two-triangle product under the plane projection."""
    return g_vectors(deformed_triangle_product(eps), TRIANGLE_PRODUCT_PROJECTION)


class TestMakeSetup:
    """`g_vectors` of a polytope and a projection, and the pairs it refuses."""

    def test_g_vectors_are_the_coupling_matrix(self):
        G = two_triangle_setup("1/4")
        assert G == coupling_g_matrix("1/4")
        assert G.dim == 2

    @pytest.mark.parametrize(
        "proj",
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # keeps the dimension
            [[1, 0, 0], [2, 0, 0]],  # rank-deficient
            [[1, 0], [0, 1]],  # wrong width
        ],
    )
    def test_bad_projection_refused(self, proj):
        with pytest.raises(RankDeficient):
            g_vectors(CUBE, proj)

    def test_origin_on_the_boundary_refused(self):
        shifted = HPolytope(CUBE.A, [2, 0, 1, 1, 1, 1])  # 0 <= x <= 2
        with pytest.raises(OriginNotInterior):
            g_vectors(shifted, AXIS_PLANE)

    def test_origin_outside_refused(self):
        shifted = HPolytope(CUBE.A, [3, -1, 1, 1, 1, 1])  # 1 <= x <= 3, so some b_i < 0
        with pytest.raises(OriginNotInterior):
            g_vectors(shifted, AXIS_PLANE)

    def test_g_vectors_of_a_box_by_hand(self):
        # ker(AXIS_PLANE) is the z-axis, so g_i is the z-entry of a_i / b_i
        G = g_vectors(BOX, AXIS_PLANE)
        assert G.vectors == ((0,), (0,), (0,), (0,), (Fraction(1, 5),), (Fraction(-1, 6),))
        assert G.labels == (11, 12, 13, 14, 15, 16)

    def test_g_vectors_are_the_dual_vertices_in_the_kernel(self):
        cases = [
            (BOX, [[1, 0, 2], [0, 1, 3]]),
            (BOX, [[1, 1, 1]]),
            (deformed_triangle_product("1/3"), TRIANGLE_PRODUCT_PROJECTION),
        ]
        for P, proj in cases:
            kern = kernel_basis(proj)
            expected = tuple(mat_vec(kern, tuple(x / bi for x in a)) for a, bi in zip(P.A, P.b))
            G = g_vectors(P, proj)
            assert G.vectors == expected
            assert G.labels == P.facet_labels
            assert G.dim == len(kern)

    def test_scaling_a_row_keeps_the_g_vectors(self):
        # (a_i, b_i) and (c a_i, c b_i) with c > 0 are the same facet and the same a_i / b_i
        factors = [Fraction(2), Fraction(1, 3), 1, Fraction(7, 2), 5, Fraction(3, 4)]
        scaled = HPolytope(
            [[c * x for x in a] for c, a in zip(factors, BOX.A)],
            [c * bi for c, bi in zip(factors, BOX.b)],
            BOX.facet_labels,
        )
        for proj in (AXIS_PLANE, [[1, 0, 2], [0, 1, 3]], [[1, 1, 1]]):
            assert g_vectors(scaled, proj) == g_vectors(BOX, proj)


class TestCensus:
    @pytest.mark.parametrize("eps", EPSILONS_BELOW_ONE)
    def test_two_triangle_census_equals_oracle(self, eps):
        P = deformed_triangle_product(eps)
        census = vertex_survival_census(P, two_triangle_setup(eps))
        oracle = oracle_survival(P, TRIANGLE_PRODUCT_PROJECTION)
        assert census == oracle.records
        assert (len(census), sum(r.strictly_preserved for r in census)) == (9, 8)
        assert oracle.image_vertex_count == 8

    @pytest.mark.parametrize(
        "proj, surviving, image_vertices, preserved",
        [
            (AXIS_PLANE, 0, 4, 8),  # vertices meet in pairs over a square
            ([[1, 0, 2], [0, 1, 3]], 6, 6, 6),  # generic shadow: a hexagon
            ([[1, 1, 1]], 2, 2, 2),  # onto a line along the diagonal
        ],
    )
    def test_cube_census_equals_oracle(self, proj, surviving, image_vertices, preserved):
        census, oracle = vertex_survival_census(CUBE, g_vectors(CUBE, proj)), oracle_survival(CUBE, proj)
        assert census == oracle.records
        assert oracle.image_vertex_count == image_vertices
        assert (len(census), sum(r.strictly_preserved for r in census)) == (8, surviving)
        assert sum(r.preserved for r in census) == preserved

    def test_census_reads_no_projection(self):
        # the g-vectors decide every vertex; the census is given no projection
        assert list(inspect.signature(vertex_survival_census).parameters) == ["P", "G"]
        P = deformed_triangle_product("1/4")
        failing = frozenset({1, 2, 5, 6})
        assert vertex_survival_census(P, two_triangle_setup("1/4")) == tuple(
            VertexRecord(r.tight_facets, r.tight_facets != failing, r.tight_facets != failing)
            for r in h_vertices(P)
        )
        strict = [r.strictly_preserved for r in vertex_survival_census(CUBE, g_vectors(CUBE, [[1, 1, 1]]))]
        assert strict == [True, False, False, False, False, False, False, True]

    @pytest.mark.parametrize("test", [face_preserved, VectorConfig.spans], ids=lambda f: f.__name__)
    def test_foreign_label_refused(self, test):
        G = two_triangle_setup("1/4")
        for tight in ([7], [1, 2, 7], [0]):
            with pytest.raises(UnknownLabel):
                test(G, tight)

    @pytest.mark.parametrize("P", [OCTAHEDRON, CUT_CUBE, SIMPLEX], ids=["octahedron", "cut-cube", "simplex"])
    def test_census_equals_oracle_on_other_polytopes(self, P):
        # any polytope with 0 inside and any projection: here onto a line and
        # onto a plane, 15 seeded projections each.  On the plane the oracle
        # takes the cross-product route of `planar_hull`, on the line the
        # Gordan hull and the spanning test.
        rng = random.Random(2010)
        kinds = Counter()
        plane_cases = Counter()
        for rows in (1, 2):
            for _ in range(15):
                proj = random_projection(rng, rows, 3)
                census = vertex_survival_census(P, g_vectors(P, proj))
                assert census == oracle_survival(P, proj).records, proj
                kinds.update((r.strictly_preserved, r.preserved) for r in census)
                if rows == 2:
                    # read off the census, the side that projects nothing
                    images = [fraction_mat_vec(proj, v.vertex_coords) for v in h_vertices(P)]
                    counts = Counter(images)
                    plane_cases["repeated"] += len(counts) < len(images)
                    plane_cases["mid-edge"] += any(
                        r.preserved and not r.strictly_preserved and counts[image] == 1
                        for r, image in zip(census, images)
                    )
        # preserved but not strictly: a vertex whose image is shared or mid-edge
        assert kinds[(True, True)] and kinds[(False, True)] and kinds[(False, False)]
        assert not kinds[(True, False)]
        # both happen on the plane, where the cross products decide them
        assert plane_cases["repeated"] and plane_cases["mid-edge"], plane_cases


def random_projection(rng, rows, cols):
    while True:
        proj = [[rng.choice(PROJECTION_ENTRIES) for _ in range(cols)] for _ in range(rows)]
        if rank(proj) == rows:
            return proj


class TestShortcutsMatchFullEvaluation:
    def test_random_rational_projections(self):
        # the census skips the convex-hull question of strictly preserved
        # vertices, and the oracle the spanning test of hull vertices
        rng = random.Random(1818)
        cases = [(deformed_triangle_product(Fraction(rng.randint(1, 99), 100)), 2, 4) for _ in range(8)]
        cases += [(BOX, rows, 3) for rows in (1, 2) for _ in range(8)]
        kinds = Counter()
        for P, rows, cols in cases:
            proj = random_projection(rng, rows, cols)
            g_side, image_side = full_survival_census(P, proj)
            assert vertex_survival_census(P, g_vectors(P, proj)) == g_side
            assert oracle_survival(P, proj).records == image_side
            assert g_side == image_side
            kinds.update((r.strictly_preserved, r.preserved) for r in g_side)
        # preserved but not strictly: a vertex whose image is shared or mid-edge
        assert kinds[(False, True)] and kinds[(True, True)] and kinds[(False, False)]
        assert not kinds[(True, False)]


class TestVerifyRealized:
    def test_two_triangle_graph(self):
        # K33 minus the edge {3, 4} is realized in the boundary; K33 is not
        k33 = complete_bipartite((1, 2, 3), (4, 5, 6))
        assert k33.facets - set(gale_faces_of_card(two_triangle_setup("1/4"), 2)) == {frozenset({3, 4})}

    def test_cube_g_vectors_are_not_gale(self):
        # one kernel dimension: four zero vectors and the pair +1, -1
        G = g_vectors(CUBE, AXIS_PLANE)
        assert not G.is_gale
        with pytest.raises(NotGale):
            gale_faces_of_card(G, 2)
