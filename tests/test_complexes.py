import itertools
import random
from collections import Counter

import pytest

from galeproj.complexes import (
    Complex,
    Join,
    closure_from_facets,
    complement_complex,
    complete_bipartite,
    minimal_nonfaces,
    points_complex,
    power_join,
)
from galeproj.errors import DuplicateLabels, LabelOutsideVertexSet
from helpers import (
    brute_minimal_nonfaces,
    deleted_join,
    faces,
    full_simplex,
    materialised_join,
    pairwise_antichain,
    random_complex,
    random_pure_complex,
    simplex_boundary,
)

K33 = complete_bipartite((1, 2, 3), (4, 5, 6))


class TestClosure:
    def test_containment_reduced(self):
        K = closure_from_facets([1, 2], [{1, 2}, {2}])
        assert K.facets == frozenset([frozenset({1, 2})])

    def test_no_facets(self):
        K = closure_from_facets([1, 2, 3], [])
        assert K.facets == frozenset() and K.dim == -1

    def test_triangle_boundary(self):
        K = closure_from_facets([1, 2, 3], itertools.combinations([1, 2, 3], 2))
        assert K == simplex_boundary(3)

    def test_alien_label_rejected(self):
        with pytest.raises(LabelOutsideVertexSet):
            closure_from_facets([1, 2], [{1, 3}])

    def test_duplicate_vertex_labels_raise_duplicate_labels(self):
        # the type VPolytope, HPolytope and VectorConfig raise for repeated labels
        with pytest.raises(DuplicateLabels, match="^duplicate vertex labels$"):
            closure_from_facets([1, 1, 2], [{1, 2}])

    def test_reduction_agrees_with_the_pairwise_loop(self):
        rng = random.Random(1717)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(1, 7)
            family = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(0, 10))]
            if family and rng.random() < 0.5:
                family += rng.choices(family, k=rng.randint(1, 4))  # repeats
            if rng.random() < 0.2:
                family.append(frozenset())
            expected = pairwise_antichain(family)
            assert closure_from_facets(range(n), family).facets == expected
            seen["empty set"] += frozenset() in family
            seen["repeat"] += len(set(family)) < len(family)
            seen["reduced"] += len(expected) < len(set(family))
            seen["void"] += expected == {frozenset()}
        assert min(seen[case] for case in ("empty set", "repeat", "reduced", "void")) > 10, seen


class TestJoin:
    def test_point_join_point_is_edge(self):
        pt = points_complex(1)
        K = Join((("1", pt), ("2", pt)))
        assert K.facets == frozenset([frozenset({"1:1", "2:1"})])
        assert K.dim == 1

    def test_two_point_sets_join_to_bipartite(self):
        K = Join((("1", points_complex(3)), ("2", points_complex(3))))
        assert K == complete_bipartite([f"1:{i}" for i in (1, 2, 3)], [f"2:{i}" for i in (1, 2, 3)])

    def test_join_with_empty_complex_is_identity(self):
        K = closure_from_facets([1, 2, 3], [{1, 2}, {3}])
        empty = closure_from_facets([], [frozenset()])
        joined = Join((("1", K), ("2", empty)))
        assert joined == closure_from_facets([f"1:{v}" for v in K.vertices], [{"1:1", "1:2"}, {"1:3"}])

    def test_power_join_counts(self):
        K = power_join(points_complex(3), 2)
        assert len(K.vertices) == 6 and len(K.facets) == 9 and K.dim == 1
        K3 = power_join(points_complex(4), 3)
        assert len(K3.vertices) == 12 and len(K3.facets) == 64
        assert points_complex(1).facets == frozenset([frozenset({1})])


def assert_join_matches_oracle(J, M, check_deleted_join=True):
    """Structured join J against its materialised oracle M."""
    assert isinstance(J, Join) and type(M) is Complex
    assert J.vertices == M.vertices
    assert J.dim == M.dim
    face_set = faces(M)
    probes = [frozenset(c) for r in range(4) for c in itertools.combinations(M.vertices, r)]
    probes += [frozenset({"x:1"}), frozenset(M.vertices[:1]) | {"x:1"}]
    for sigma in probes:
        assert J.is_face(sigma) == (sigma in face_set), sorted(sigma)
    assert minimal_nonfaces(J) == minimal_nonfaces(M)
    assert "facets" not in vars(J)  # nothing above needed the facets
    assert J.facets == M.facets and len(J.facets) == len(M.facets)
    assert J == M and M == J and hash(J) == hash(M)
    if check_deleted_join:
        assert deleted_join(J) == deleted_join(M)


class TestStructuredJoin:
    def test_power_join_of_points(self):
        for d in (1, 2, 3):
            L = points_complex(d + 1)
            J = power_join(L, d)
            M = materialised_join([(str(k), L) for k in range(1, d + 1)])
            assert_join_matches_oracle(J, M)

    def test_random_binary_joins(self):
        rng = random.Random(91)
        for _ in range(30):
            K, L = random_complex(rng, 5), random_complex(rng, 5)
            assert_join_matches_oracle(Join((("1", K), ("2", L))), materialised_join([("1", K), ("2", L)]))

    def test_random_power_joins(self):
        rng = random.Random(92)
        for _ in range(12):
            L = random_complex(rng, 4)
            d = rng.randint(1, 3)
            J = power_join(L, d)
            M = materialised_join([(str(k), L) for k in range(1, d + 1)])
            assert_join_matches_oracle(J, M, check_deleted_join=d < 3)

    def test_nested_join(self):
        rng = random.Random(93)
        for _ in range(10):
            K, L, N = (random_complex(rng, 3) for _ in range(3))
            inner = materialised_join([("1", K), ("2", L)])
            KL = Join((("1", K), ("2", L)))
            assert_join_matches_oracle(Join((("1", KL), ("2", N))), materialised_join([("1", inner), ("2", N)]))
            assert_join_matches_oracle(Join((("1", N), ("2", KL))), materialised_join([("1", N), ("2", inner)]))

    def test_join_with_empty_and_void_complexes(self):
        K = closure_from_facets([1, 2, 3], [{1, 2}, {3}])
        empty = closure_from_facets([], [frozenset()])  # the complex {empty face}
        void = closure_from_facets([4], [])  # no faces at all
        for other in (empty, void):
            for factors in ((("1", K), ("2", other)), (("1", other), ("2", K))):
                assert_join_matches_oracle(Join(factors), materialised_join(factors))
        assert Join((("1", K), ("2", void))).dim == -1 and Join((("1", K), ("2", empty))).dim == K.dim

    def test_obstruction_chain_does_not_build_facets(self):
        J = power_join(points_complex(8), 7)
        assert len(J.vertices) == 56 and J.dim == 6
        assert J.is_face(["1:1", "2:1", "7:8"]) and not J.is_face(["1:1", "1:2"])
        assert "facets" not in vars(J)

    def test_distinct_factors(self):
        L = points_complex(3)
        assert power_join(L, 4).distinct_factors() == [(L, 4)]
        K = full_simplex(2)
        assert Join([("1", L), ("2", K), ("3", L)]).distinct_factors() == [(L, 2), (K, 1)]

    def test_repeated_prefix_rejected(self):
        with pytest.raises(LabelOutsideVertexSet):
            Join([("1", points_complex(2)), ("1", points_complex(2))])

    def test_labels_that_tag_alike_are_named(self):
        # 1 and "1" are distinct labels that both tag as "1:1"; the message
        # was "duplicate vertex labels", which they are not
        K = closure_from_facets([1, "1"], [[1], ["1"]])
        message = "vertex labels 1 and '1' both tag as '1:1'"
        with pytest.raises(LabelOutsideVertexSet, match=f"^{message}$"):
            power_join(K, 2)


class TestComplement:
    def test_triangle_boundary_to_points(self):
        assert complement_complex(simplex_boundary(3)) == points_complex(3)

    def test_single_facet_to_empty_complex(self):
        K = full_simplex(4)
        cc = complement_complex(K)
        assert cc.facets == frozenset([frozenset()])
        assert set(cc.vertices) == set(K.vertices)

    def test_involution_on_random_complexes(self):
        rng = random.Random(71)
        for _ in range(80):
            K = random_complex(rng)
            assert complement_complex(complement_complex(K)) == K

    def test_join_distributivity(self):
        rng = random.Random(72)
        for _ in range(40):
            K, L = random_complex(rng, 6), random_complex(rng, 6)
            lhs = complement_complex(Join((("1", K), ("2", L))))
            rhs = Join((("1", complement_complex(K)), ("2", complement_complex(L))))
            assert lhs == rhs

    def test_facet_count_preserved(self):
        rng = random.Random(73)
        for _ in range(40):
            K = random_complex(rng)
            assert len(complement_complex(K).facets) == len(K.facets)

    def test_pure_dimension_formula(self):
        rng = random.Random(74)
        for _ in range(60):
            K = random_pure_complex(rng)
            n = len(K.vertices)
            assert complement_complex(K).dim == n - K.dim - 2

    def test_nonpure_dimension_from_smallest_facet(self):
        rng = random.Random(75)
        for _ in range(60):
            K = random_complex(rng)
            if not K.facets:
                continue
            n = len(K.vertices)
            smallest = min(len(f) for f in K.facets)
            assert complement_complex(K).dim == n - smallest - 1


class TestMinimalNonfaces:
    def test_points_complex(self):
        assert minimal_nonfaces(points_complex(3)) == {
            frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})
        }

    def test_full_simplex_has_none(self):
        assert minimal_nonfaces(full_simplex(4)) == set()

    def test_a_complex_without_faces_has_the_empty_non_face(self):
        void = Complex((4,), frozenset())
        assert minimal_nonfaces(void) == brute_minimal_nonfaces(void) == {frozenset()}
        # with the empty face alone, every vertex is a minimal non-face
        assert minimal_nonfaces(closure_from_facets([1, 2], [[]])) == {frozenset({1}), frozenset({2})}

    def test_join_lemma_concrete(self):
        K = power_join(points_complex(3), 2)
        got = minimal_nonfaces(K)
        expected = {
            frozenset({f"{k}:{i}", f"{k}:{j}"})
            for k in (1, 2)
            for i, j in itertools.combinations((1, 2, 3), 2)
        }
        assert got == expected

    def test_join_lemma_random(self):
        rng = random.Random(76)
        for _ in range(25):
            K, L = random_complex(rng, 5), random_complex(rng, 5)
            joined = Join((("1", K), ("2", L)))
            tagged = {
                frozenset(f"1:{v}" for v in f) for f in minimal_nonfaces(K)
            } | {
                frozenset(f"2:{v}" for v in f) for f in minimal_nonfaces(L)
            }
            assert minimal_nonfaces(joined) == tagged

    def test_size_cap_agrees_with_full_scan(self):
        rng = random.Random(77)
        for _ in range(30):
            K = random_complex(rng, 7)
            assert minimal_nonfaces(K) == brute_minimal_nonfaces(K)

    def test_family_kept_on_the_instance(self):
        K, L = points_complex(4), points_complex(4)
        before, text = hash(K), repr(K)
        family = K.nonfaces
        assert isinstance(family, frozenset) and family == minimal_nonfaces(K)
        assert K.nonfaces is family
        assert K == L and hash(K) == hash(L) == before
        assert repr(K) == repr(L) == text


class TestDeletedJoin:
    def test_single_point_gives_two_points(self):
        K = deleted_join(points_complex(1))
        assert K.facets == frozenset([frozenset({"1:1"}), frozenset({"2:1"})])
        assert K.dim == 0

    def test_full_simplex_dimension(self):
        for n in (1, 2, 3, 4):
            assert deleted_join(full_simplex(n)).dim == n - 1

    def test_full_simplex_has_every_split(self):
        # 2^14 facets (sigma, G - sigma) of one size: none is compared with another
        assert len(deleted_join(full_simplex(14)).facets) == 2**14

    def test_power_join_dimension(self):
        for d in (1, 2):
            K = power_join(points_complex(d + 1), d)
            assert deleted_join(K).dim == 2 * d - 1

    def test_swap_symmetry(self):
        rng = random.Random(78)
        for _ in range(20):
            K = random_complex(rng, 6)
            dj = deleted_join(K)
            swap = {}
            for v in K.vertices:
                swap[f"1:{v}"] = f"2:{v}"
                swap[f"2:{v}"] = f"1:{v}"
            assert {swap[v] for v in dj.vertices} == set(dj.vertices)
            assert {frozenset(swap[v] for v in f) for f in dj.facets} == dj.facets


class TestSkeletonAndSubcomplex:
    def test_dim(self):
        assert K33.dim == 1
        assert simplex_boundary(4).dim == 2


def test_complex_equality_ignores_vertex_order():
    a = closure_from_facets([1, 2, 3], [{1, 2}])
    b = closure_from_facets([3, 2, 1], [{1, 2}])
    assert a == b and hash(a) == hash(b)

