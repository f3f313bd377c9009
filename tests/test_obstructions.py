import itertools
import json
import random
import sys

import pytest

from galeproj import obstructions, serialize
from galeproj.cli import main
from galeproj.complexes import (
    Complex,
    Join,
    closure_from_facets,
    complete_bipartite,
    minimal_nonfaces,
    points_complex,
    power_join,
)
from galeproj.errors import HypothesisViolated, OutOfTheoremRange, TooLargeForExact
from galeproj.obstructions import (
    ObstructionVerdict,
    chromatic_number,
    djn_dim_upper,
    kneser_graph,
    lovasz_kneser_chi,
    nonembeddable,
    nonface_kneser_chi,
)
from galeproj.pipeline import obstruction_pipeline
from helpers import (
    bipartite_sum,
    brute_chromatic_number,
    deleted_join,
    full_simplex,
    graph,
    inclusion_exclusion_chromatic_number,
    materialised_join,
    random_complex,
    simplex_boundary,
)


def kg(n, k):
    return kneser_graph(itertools.combinations(range(1, n + 1), k))


def degree(g, v):
    return sum(v in e for e in g.edges)


class TestKneserGraph:
    def test_kg42_is_perfect_matching(self):
        g = kg(4, 2)
        assert len(g.vertices) == 6 and len(g.edges) == 3
        assert all(degree(g, v) == 1 for v in g.vertices)

    def test_kg52_is_petersen(self):
        g = kg(5, 2)
        assert len(g.vertices) == 10 and len(g.edges) == 15
        assert all(degree(g, v) == 3 for v in g.vertices)

    def test_nonfaces_of_double_join_give_bipartite_graph(self):
        K = power_join(points_complex(3), 2)
        g = kneser_graph(minimal_nonfaces(K))
        assert len(g.vertices) == 6 and len(g.edges) == 9
        assert all(degree(g, v) == 3 for v in g.vertices)
        assert chromatic_number(g) == 2

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            kneser_graph([])


class TestBipartiteSum:
    def test_empty_graphs_give_complete_bipartite(self):
        e3 = graph([1, 2, 3], [])
        g = bipartite_sum(e3, e3)
        assert len(g.vertices) == 6 and len(g.edges) == 9
        assert chromatic_number(g) == 2

    def test_single_vertices_give_edge(self):
        k1 = graph(["v"], [])
        g = bipartite_sum(k1, k1)
        assert len(g.vertices) == 2 and len(g.edges) == 1

    def test_matchings(self):
        m3 = graph([1, 2, 3, 4, 5, 6], [(1, 2), (3, 4), (5, 6)])
        g = bipartite_sum(m3, m3)
        assert len(g.vertices) == 12
        assert len(g.edges) == 3 + 3 + 36

    def test_chromatic_additivity_on_random_graphs(self):
        rng = random.Random(81)
        for _ in range(20):
            def rnd_graph():
                n = rng.randint(1, 6)
                vs = list(range(n))
                es = [
                    (i, j)
                    for i, j in itertools.combinations(vs, 2)
                    if rng.random() < 0.4
                ]
                return graph(vs, es)

            g, h = rnd_graph(), rnd_graph()
            assert chromatic_number(bipartite_sum(g, h)) == chromatic_number(g) + chromatic_number(h)

    def test_kneser_of_join_nonfaces_is_bipartite_sum(self):
        K, L = points_complex(3), points_complex(4)
        joined = Join((("1", K), ("2", L)))
        direct = kneser_graph(minimal_nonfaces(joined))
        summed = bipartite_sum(
            kneser_graph(minimal_nonfaces(K)), kneser_graph(minimal_nonfaces(L))
        )
        relabeled = {}
        for tag, label in summed.vertices:
            relabeled[(tag, label)] = tuple(sorted(f"{tag}:{x}" for x in label))
        mapped_edges = {
            frozenset((relabeled[a], relabeled[b])) for a, b in map(tuple, summed.edges)
        }
        assert set(direct.vertices) == set(relabeled.values())
        assert direct.edges == mapped_edges


class TestChromaticNumber:
    def test_bipartite(self):
        assert chromatic_number(kneser_graph(complete_bipartite((1, 2, 3), (4, 5, 6)).facets)) >= 1
        g = graph([1, 2, 3, 4, 5, 6], [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)])
        assert chromatic_number(g) == 2

    def test_odd_cycle(self):
        c5 = graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert chromatic_number(c5) == 3

    def test_petersen(self):
        assert chromatic_number(kg(5, 2)) == 3

    def test_exact_cap(self):
        with pytest.raises(TooLargeForExact):
            chromatic_number(graph(range(40), []))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(82)
        for _ in range(30):
            n = rng.randint(1, 6)
            p = rng.choice((0.3, 0.5, 0.8))
            es = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            g = graph(range(n), es)
            assert chromatic_number(g) == brute_chromatic_number(g), es

    def test_matches_inclusion_exclusion_on_random_graphs(self):
        rng = random.Random(2207)
        for _ in range(60):
            n = rng.randint(7, 12)
            p = rng.choice((0.2, 0.4, 0.6, 0.8))
            es = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            g = graph(range(n), es)
            assert chromatic_number(g) == inclusion_exclusion_chromatic_number(g), es

    def test_inclusion_exclusion_oracle(self):
        # it agrees with the brute force where that runs, and on known values
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(0, 6)
            es = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = graph(range(n), es)
            assert inclusion_exclusion_chromatic_number(g) == brute_chromatic_number(g), es
        assert inclusion_exclusion_chromatic_number(kg(5, 2)) == 3
        assert inclusion_exclusion_chromatic_number(graph(range(12), itertools.combinations(range(12), 2))) == 12
        with pytest.raises(ValueError):
            inclusion_exclusion_chromatic_number(graph(range(13), []))

    @pytest.mark.parametrize("d, nodes", [(4, 3), (5, 7), (6, 33), (7, 273)])
    def test_search_nodes_of_the_obstruction_pipeline(self, d, nodes):
        # colouring branch nodes, an op count: the calls of the recursive search
        search = next(c for c in obstructions._k_colorable.__code__.co_consts if getattr(c, "co_name", "") == "extend")
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is search and calls.append(1))
        try:
            report = obstruction_pipeline(d)
        finally:
            sys.setprofile(None)
        assert report.passed and report.results["chi_factor"] == d - 1
        assert len(calls) == nodes

    def test_greedy_upper_bounds_exact(self):
        # the greedy colouring is the search's upper bound
        rng = random.Random(82)
        for _ in range(20):
            n = rng.randint(2, 9)
            es = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = graph(range(n), es)
            assert obstructions._greedy_coloring(obstructions._adjacency(g)) >= chromatic_number(g)

    def test_empty_graph(self):
        assert chromatic_number(graph([], [])) == 0


class TestLovaszKneser:
    def test_formula_values(self):
        assert lovasz_kneser_chi(5, 2) == 3
        assert lovasz_kneser_chi(6, 1) == 6
        for d in range(3, 8):
            assert lovasz_kneser_chi(d + 1, 2) == d - 1
        # d = 2 lies below the theorem's range n >= 2k: KG(3,2) is edgeless.
        assert chromatic_number(kg(3, 2)) == 1

    def test_out_of_range(self):
        with pytest.raises(OutOfTheoremRange):
            lovasz_kneser_chi(3, 2)
        with pytest.raises(OutOfTheoremRange):
            lovasz_kneser_chi(4, 0)

    def test_domain_is_n_at_least_2k(self):
        for n in range(0, 9):
            for k in range(-1, 6):
                if k >= 1 and n >= 2 * k:
                    assert lovasz_kneser_chi(n, k) == n - 2 * k + 2
                else:
                    with pytest.raises(OutOfTheoremRange):
                        lovasz_kneser_chi(n, k)

    def test_agreement_with_exact_solver(self):
        cases = [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3)] + [(n, 1) for n in range(2, 7)]
        for n, k in cases:
            assert chromatic_number(kg(n, k)) == lovasz_kneser_chi(n, k), (n, k)


class TestSarkaria:
    def test_double_join_of_three_points(self):
        K = power_join(points_complex(3), 2)
        v = nonembeddable(K, 0)
        assert v.complex_size == 6 and v.chi_used == 2 and v.sarkaria_lower == 3
        assert v.djn_dim_upper == 3

    def test_triple_join_of_four_points(self):
        K = power_join(points_complex(4), 3)
        v = nonembeddable(K, 0)
        assert v.complex_size == 12 and v.chi_used == 6 and v.sarkaria_lower == 5

    def test_full_simplex(self):
        K = full_simplex(5)
        v = nonembeddable(K, 0)
        assert v.chi_used == 0 and v.sarkaria_lower == 4
        assert v.djn_dim_upper == 4  # deleted join is a sphere of that dimension

    def test_factored_chi_matches_generic(self):
        for d in (2, 3):
            K = power_join(points_complex(d + 1), d)
            factored = nonface_kneser_chi(K)
            flat = chromatic_number(kneser_graph(minimal_nonfaces(K)))
            assert factored == flat

    def test_sandwich_pins_index(self):
        for d in (2, 3, 4):
            K = power_join(points_complex(d + 1), d)
            v = nonembeddable(K, 0)
            assert v.sarkaria_lower == v.djn_dim_upper == 2 * d - 1


class TestDeletedJoinDim:
    def test_examples(self):
        assert djn_dim_upper(power_join(points_complex(3), 2)) == 3
        assert djn_dim_upper(points_complex(1)) == 0
        for d in (2, 3, 4, 5, 6):
            assert djn_dim_upper(power_join(points_complex(d + 1), d)) == 2 * d - 1

    def test_matches_constructed_deleted_join(self):
        rng = random.Random(83)
        for _ in range(25):
            K = random_complex(rng, 6)
            assert djn_dim_upper(K) == deleted_join(K).dim
        for d in (2, 3):
            K = power_join(points_complex(d + 1), d)
            assert djn_dim_upper(K) == deleted_join(K).dim
        # binary joins of two distinct factors, against the deleted join of
        # the materialised join
        for _ in range(15):
            factors = [("1", random_complex(rng, 4)), ("2", random_complex(rng, 4))]
            assert djn_dim_upper(Join(factors)) == deleted_join(materialised_join(factors)).dim

    def test_join_with_a_void_factor(self):
        # a factor without faces, not even the empty one, leaves the join
        # and its deleted join without faces; the empty face alone does not
        void, empty = closure_from_facets([4], []), closure_from_facets([5], [[]])
        rng = random.Random(84)
        for _ in range(10):
            for others in ([random_complex(rng, 4)], [random_complex(rng, 3), points_complex(2)]):
                for factor in (void, empty):
                    for at in range(len(others) + 1):
                        complexes = others[:at] + [factor] + others[at:]
                        factors = [(str(i), L) for i, L in enumerate(complexes, 1)]
                        expected = deleted_join(materialised_join(factors)).dim
                        assert djn_dim_upper(Join(factors)) == expected, factors
                        assert expected == -1 or factor is empty
        assert djn_dim_upper(Join([("1", points_complex(2)), ("2", void)])) == -1


class TestNonembeddable:
    def test_bipartite_complex_not_planar(self):
        K = power_join(points_complex(3), 2)
        assert nonembeddable(K, 2).embeddable == "no"

    def test_triple_join_not_in_four_sphere(self):
        K = power_join(points_complex(4), 3)
        assert nonembeddable(K, 4).embeddable == "no"

    def test_tetrahedron_boundary_unknown(self):
        K = simplex_boundary(4)
        v = nonembeddable(K, 2)
        assert v.sarkaria_lower == 2 and v.embeddable == "unknown"

    def test_negative_sphere_rejected(self):
        with pytest.raises(ValueError):
            nonembeddable(simplex_boundary(3), -1)

    def test_a_complex_without_faces_refused(self):
        # Sarkaria's bound needs the empty face; a void factor leaves a join none
        void = Complex((4,), frozenset())
        for K in (void, Join((("1", points_complex(3)), ("2", void)))):
            with pytest.raises(HypothesisViolated, match="no faces"):
                nonembeddable(K, 0)


def test_verdict_invariants_enforced(monkeypatch, tmp_path, capsys):
    assert ObstructionVerdict(6, 2, 3, 3, 2, "no").embeddable == "no"
    # a colouring with too few colours: n = 6, so lower = 4 > upper = 3
    K = power_join(points_complex(3), 2)
    monkeypatch.setattr(obstructions, "nonface_kneser_chi", lambda K: 1)
    with pytest.raises(ValueError, match="lower bound exceeds the dimension upper bound"):
        nonembeddable(K, 2)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(serialize.complex_json(K)))
    assert main(["embed", "--input", str(path), "--sphere", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: lower bound exceeds the dimension upper bound\n"
    assert captured.out == ""
