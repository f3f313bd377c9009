import pytest

from galeproj.complexes import closure_from_facets, complete_bipartite
from galeproj.errors import NotGale, OriginNotInterior, RankDeficient, UnknownLabel
from galeproj.pipeline import TRIANGLE_PRODUCT_PROJECTION, coupling_g_matrix, deformed_triangle_product
from galeproj.polytopes import HPolytope
from galeproj.projections import (
    face_preserved,
    face_strictly_preserved,
    make_setup,
    oracle_survival,
    verify_cc_realized,
    vertex_survival_census,
)

CUBE = HPolytope(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [1] * 6
)
AXIS_PLANE = [[1, 0, 0], [0, 1, 0]]
EPSILONS_BELOW_ONE = ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5")


def two_triangle_setup(eps):
    return make_setup(deformed_triangle_product(eps), TRIANGLE_PRODUCT_PROJECTION)


class TestMakeSetup:
    def test_g_vectors_are_the_coupling_matrix(self):
        s = two_triangle_setup("1/4")
        assert s.g_images == coupling_g_matrix("1/4")
        assert s.kernel_dim == 2

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


class TestCensus:
    @pytest.mark.parametrize("eps", EPSILONS_BELOW_ONE)
    def test_two_triangle_census_equals_oracle(self, eps):
        s = two_triangle_setup(eps)
        census, oracle = vertex_survival_census(s), oracle_survival(s)
        assert census.records == oracle.records
        assert (census.total, census.surviving) == (oracle.total, oracle.surviving) == (9, 8)
        assert census.image_vertex_count == oracle.image_vertex_count == 8

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
        assert census.records == oracle.records
        assert census.image_vertex_count == oracle.image_vertex_count == image_vertices
        assert (census.total, census.surviving) == (8, surviving)
        assert sum(r.preserved for r in census.records) == preserved

    def test_empty_label_set_is_not_preserved(self):
        for s in (two_triangle_setup("1/4"), make_setup(CUBE, AXIS_PLANE)):
            assert face_preserved(s, []) is False
            assert face_strictly_preserved(s, []) is False


class TestVerifyRealized:
    def test_two_triangle_graph(self):
        s = two_triangle_setup("1/4")
        k33 = complete_bipartite((1, 2, 3), (4, 5, 6))
        assert not verify_cc_realized(s, k33)
        assert verify_cc_realized(s, closure_from_facets(k33.vertices, []))

    def test_foreign_label_refused(self):
        s = two_triangle_setup("1/4")
        with pytest.raises(UnknownLabel):
            verify_cc_realized(s, complete_bipartite((1, 2, 3), (4, 5, 7)))

    def test_cube_g_vectors_are_not_gale(self):
        # one kernel dimension: four zero vectors and the pair +1, -1
        s = make_setup(CUBE, AXIS_PLANE)
        assert not s.g_images.is_gale
        with pytest.raises(NotGale):
            verify_cc_realized(s, complete_bipartite((1, 2), (3, 4)))
        with pytest.raises(NotGale):
            verify_cc_realized(s, closure_from_facets([1, 2], []))
