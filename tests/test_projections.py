import random
from collections import Counter
from fractions import Fraction

import pytest

from galeproj.complexes import complete_bipartite
from galeproj.errors import NotGale, OriginNotInterior, RankDeficient, UnknownLabel
from galeproj.gale import gale_faces_of_card
from galeproj.linalg import kernel_basis, mat_vec, rank
from galeproj.pipeline import TRIANGLE_PRODUCT_PROJECTION, coupling_g_matrix, deformed_triangle_product
from galeproj.polytopes import HPolytope, h_vertices
from galeproj.projections import (
    VertexRecord,
    face_preserved,
    face_strictly_preserved,
    make_setup,
    oracle_survival,
    vertex_survival_census,
)
from helpers import full_survival_census

CUBE = HPolytope(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [1] * 6
)
AXIS_PLANE = [[1, 0, 0], [0, 1, 0]]
# -2 <= x <= 1, -4 <= y <= 3, -6 <= z <= 5, with facet labels that are not 1..6
BOX = HPolytope(CUBE.A, [1, 2, 3, 4, 5, 6], [11, 12, 13, 14, 15, 16])
EPSILONS_BELOW_ONE = ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5")
# few distinct small entries, so that images often coincide or land mid-edge
PROJECTION_ENTRIES = (-1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-2, 3))


def two_triangle_setup(eps):
    return make_setup(deformed_triangle_product(eps), TRIANGLE_PRODUCT_PROJECTION)


class TestMakeSetup:
    def test_g_vectors_are_the_coupling_matrix(self):
        s = two_triangle_setup("1/4")
        assert s.g_images == coupling_g_matrix("1/4")
        assert s.g_images.dim == 2

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
            make_setup(CUBE, proj)

    def test_origin_on_the_boundary_refused(self):
        shifted = HPolytope(CUBE.A, [2, 0, 1, 1, 1, 1])  # 0 <= x <= 2
        with pytest.raises(OriginNotInterior):
            make_setup(shifted, AXIS_PLANE)

    def test_origin_outside_refused(self):
        shifted = HPolytope(CUBE.A, [3, -1, 1, 1, 1, 1])  # 1 <= x <= 3, so some b_i < 0
        with pytest.raises(OriginNotInterior):
            make_setup(shifted, AXIS_PLANE)

    def test_g_vectors_of_a_box_by_hand(self):
        # ker(AXIS_PLANE) is the z-axis, so g_i is the z-entry of a_i / b_i
        s = make_setup(BOX, AXIS_PLANE)
        assert s.g_images.vectors == ((0,), (0,), (0,), (0,), (Fraction(1, 5),), (Fraction(-1, 6),))
        assert s.g_images.labels == (11, 12, 13, 14, 15, 16)

    def test_g_vectors_are_the_dual_vertices_in_the_kernel(self):
        cases = [
            (BOX, [[1, 0, 2], [0, 1, 3]]),
            (BOX, [[1, 1, 1]]),
            (deformed_triangle_product("1/3"), TRIANGLE_PRODUCT_PROJECTION),
        ]
        for P, proj in cases:
            kern = kernel_basis(proj)
            expected = tuple(mat_vec(kern, tuple(x / bi for x in a)) for a, bi in zip(P.A, P.b))
            s = make_setup(P, proj)
            assert s.g_images.vectors == expected
            assert s.g_images.labels == P.facet_labels
            assert s.g_images.dim == len(kern)

    def test_scaling_a_row_keeps_the_g_vectors(self):
        # (a_i, b_i) and (c a_i, c b_i) with c > 0 are the same facet and the same a_i / b_i
        factors = [Fraction(2), Fraction(1, 3), 1, Fraction(7, 2), 5, Fraction(3, 4)]
        scaled = HPolytope(
            [[c * x for x in a] for c, a in zip(factors, BOX.A)],
            [c * bi for c, bi in zip(factors, BOX.b)],
            BOX.facet_labels,
        )
        for proj in (AXIS_PLANE, [[1, 0, 2], [0, 1, 3]], [[1, 1, 1]]):
            assert make_setup(scaled, proj).g_images == make_setup(BOX, proj).g_images


class TestCensus:
    @pytest.mark.parametrize("eps", EPSILONS_BELOW_ONE)
    def test_two_triangle_census_equals_oracle(self, eps):
        s = two_triangle_setup(eps)
        census, oracle = vertex_survival_census(s), oracle_survival(s)
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
        s = make_setup(CUBE, proj)
        census, oracle = vertex_survival_census(s), oracle_survival(s)
        assert census == oracle.records
        assert oracle.image_vertex_count == image_vertices
        assert (len(census), sum(r.strictly_preserved for r in census)) == (8, surviving)
        assert sum(r.preserved for r in census) == preserved

    def test_census_reads_no_projection(self):
        # the g-vectors decide every vertex; the matrix that made them is not read
        s = two_triangle_setup("1/4")._replace(proj=None)
        failing = frozenset({1, 2, 5, 6})
        assert vertex_survival_census(s) == tuple(
            VertexRecord(r.tight_facets, r.tight_facets != failing, r.tight_facets != failing)
            for r in h_vertices(s.polytope)
        )
        cube = make_setup(CUBE, [[1, 1, 1]])._replace(proj=None)
        strict = [r.strictly_preserved for r in vertex_survival_census(cube)]
        assert strict == [True, False, False, False, False, False, False, True]

    def test_empty_label_set_is_not_preserved(self):
        for s in (two_triangle_setup("1/4"), make_setup(CUBE, AXIS_PLANE)):
            assert face_preserved(s, []) is False
            assert face_strictly_preserved(s, []) is False

    @pytest.mark.parametrize("test", [face_preserved, face_strictly_preserved], ids=lambda f: f.__name__)
    def test_foreign_label_refused(self, test):
        s = two_triangle_setup("1/4")
        for tight in ([7], [1, 2, 7], [0]):
            with pytest.raises(UnknownLabel):
                test(s, tight)


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
            s = make_setup(P, random_projection(rng, rows, cols))
            g_side, image_side = full_survival_census(s)
            assert vertex_survival_census(s) == g_side
            assert oracle_survival(s).records == image_side
            assert g_side == image_side
            kinds.update((r.strictly_preserved, r.preserved) for r in g_side)
        # preserved but not strictly: a vertex whose image is shared or mid-edge
        assert kinds[(False, True)] and kinds[(True, True)] and kinds[(False, False)]
        assert not kinds[(True, False)]


class TestVerifyRealized:
    def test_two_triangle_graph(self):
        # K33 minus the edge {3, 4} is realized in the boundary; K33 is not
        s = two_triangle_setup("1/4")
        k33 = complete_bipartite((1, 2, 3), (4, 5, 6))
        assert k33.facets - set(gale_faces_of_card(s.g_images, 2)) == {frozenset({3, 4})}

    def test_cube_g_vectors_are_not_gale(self):
        # one kernel dimension: four zero vectors and the pair +1, -1
        s = make_setup(CUBE, AXIS_PLANE)
        assert not s.g_images.is_gale
        with pytest.raises(NotGale):
            gale_faces_of_card(s.g_images, 2)
