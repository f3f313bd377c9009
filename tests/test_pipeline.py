import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from galeproj import complexes, lp, obstructions, pipeline, polytopes, projections
from galeproj.cli import main
from galeproj.errors import HypothesisViolated, TooLargeForExact
from galeproj.obstructions import EXACT_CAP, certified_kneser_chi, chromatic_number, kneser_graph
from galeproj.pipeline import (
    minkowski_sum_report,
    minkowski_vertex_bound,
    obstruction_pipeline,
    random_experiment,
    two_triangle_example,
    vertex_bounds,
)


def json_documents(text):
    decoder = json.JSONDecoder()
    docs, at = [], 0
    text = text.strip()
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)
        while at < len(text) and text[at].isspace():
            at += 1
    return docs


class TestObstructionPipeline:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_chain_values(self, d):
        report = obstruction_pipeline(d)
        assert report.passed, [c.claim for c in report.checks if not c.passed]
        res = report.results
        assert res["chi_factor"] == d - 1
        assert res["chi_total"] == d * (d - 1)
        assert res["sarkaria_lower"] == res["djn_dim_upper"] == 2 * d - 1
        assert res["embeddable"] == "no"

    def test_d2_factor_graph_is_edgeless(self):
        claims = [c.claim for c in obstruction_pipeline(2).checks]
        assert any("edgeless" in c for c in claims)
        assert not any("closed-form" in c for c in claims)

    def test_d1_rejected(self):
        with pytest.raises(HypothesisViolated):
            obstruction_pipeline(1)


def kg(n, k):
    return kneser_graph(itertools.combinations(range(1, n + 1), k))


class TestObstructionScale:
    def test_d7_memory_stays_small(self):
        # the join is kept as its 7 factors; building its 8^7 facets took about 1 GB
        tracemalloc.start()
        try:
            report = obstruction_pipeline(7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4 * 2**20, f"peak {peak} bytes"

    def test_d30_builds_no_factor_graph(self):
        # the factor's 465 non-faces are certified as a family; KG(31, 2)
        # has 94,395 edges, and building it peaks at about 26 MiB
        tracemalloc.start()
        try:
            report = obstruction_pipeline(30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2 * 2**20, f"peak {peak} bytes"

    @pytest.mark.parametrize("d", [8, 12])
    def test_chain_past_the_exact_cap(self, d):
        assert comb(d + 1, 2) > EXACT_CAP
        report = obstruction_pipeline(d)
        assert report.passed, [c.claim for c in report.checks if not c.passed]
        res = report.results
        assert res["chi_factor"] == d - 1 and res["chi_total"] == d * (d - 1)
        assert res["sarkaria_lower"] == res["djn_dim_upper"] == 2 * d - 1

    def test_certified_coloring_matches_solver(self):
        for k in (2, 3):
            n = 2 * k
            while comb(n, k) <= EXACT_CAP:
                family = itertools.combinations(range(1, n + 1), k)
                assert certified_kneser_chi(family) == chromatic_number(kg(n, k)) == n - 2 * k + 2, (n, k)
                n += 1

    def test_certified_coloring_needs_a_whole_kneser_graph(self):
        pairs = list(itertools.combinations(range(1, 10), 2))
        assert len(pairs) > EXACT_CAP and certified_kneser_chi(pairs) == 7
        one_set_less = pairs[:35]
        below_range = list(itertools.combinations(range(1, 6), 3))
        mixed_sizes = pairs + [(1, 2, 3)]
        for family in (one_set_less, below_range, mixed_sizes):
            assert certified_kneser_chi(family) is None
        # over its cap the solver colors no graph, Kneser or not
        with pytest.raises(TooLargeForExact):
            chromatic_number(kg(9, 2))


class TestObstructionCli:
    def test_d2_text(self, capsys):
        assert main(["obstruction", "--d", "2"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_d2_to_4_json(self, capsys):
        assert main(["obstruction", "--d", "2..4", "--format", "json"]) == 0
        docs = json_documents(capsys.readouterr().out)
        assert [doc["inputs"]["d"] for doc in docs] == [2, 3, 4]
        assert all(doc["passed"] for doc in docs)

    def test_d1_is_an_input_error(self, capsys):
        assert main(["obstruction", "--d", "1"]) == 2
        assert "d >= 2" in capsys.readouterr().err

    def test_d8_past_the_exact_cap(self, capsys):
        assert main(["obstruction", "--d", "8"]) == 0
        assert "overall: PASS" in capsys.readouterr().out


class TestNonfacesListedOnce:
    def test_once_per_d(self, monkeypatch, capsys):
        listed = []
        original = complexes.minimal_nonfaces

        def counting(K):
            listed.append(len(K.vertices))
            return original(K)

        monkeypatch.setattr(complexes, "minimal_nonfaces", counting)
        assert main(["obstruction", "--d", "2..6"]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        # the factor's check and the chain read one family; each listed it before
        assert listed == [3, 4, 5, 6, 7]


class TestBounds:
    def test_vertex_bound_at_d3_r3(self):
        assert minkowski_vertex_bound(3, 3, [5, 5, 5]) == Fraction(7875, 64)

    def test_pigeonhole_count_at_d3_r3(self):
        report = vertex_bounds(3, 3, [5, 5, 5])
        assert report.passed
        res = report.results
        assert (res["sharpened_bound"], res["failing_sums_at_least"]) == ("7875/64", "125/64")
        assert (res["simplex_subset_choices"], res["subsums_per_tuple"]) == (125, 64)

    def test_more_summands_than_dimensions(self):
        # r = 3 > d = 2 triangles: one simplex choice per summand, one failing sum
        report = vertex_bounds(2, 3, [3, 3, 3])
        assert report.passed
        assert list(report.results.values()) == [27, "26", "1", 1, 1]

    @pytest.mark.parametrize(
        "d, r, f0s",
        [(0, 3, [5, 5, 5]), (1, 1, [2]), (3, 2, [5, 5]), (3, 3, [5, 5]), (3, 3, [5, 3, 5]), (2, 2, [3, 2])],
        ids=["d below 1", "segment at d 1", "r below d", "wrong f0 count", "f0 equal to d", "f0 below d"],
    )
    def test_hypotheses_enforced(self, d, r, f0s):
        for bound in (minkowski_vertex_bound, vertex_bounds):
            with pytest.raises(HypothesisViolated):
                bound(d, r, f0s)

    def test_minkowski_sum_of_an_h_and_a_v_summand(self):
        # the H square enters by its 4 vertices: 4 * 3 tuples, 5 sum vertices
        square = polytopes.HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1])
        triangle = polytopes.VPolytope([(0, 0), (1, 0), (0, 1)])
        report = minkowski_sum_report([square, triangle], ["square", "triangle"])
        assert report.passed and report.inputs == {"inputs": ["square", "triangle"]}
        res = report.results
        assert (res["f0_sum"], res["trivial_bound"]) == (5, 12)
        assert sorted(res["vertices"]) == [["-1", "-1"], ["-1", "2"], ["1", "2"], ["2", "-1"], ["2", "1"]]

class TestTwoTriangleOpCounts:
    def test_lp_calls_at_one_quarter(self, monkeypatch):
        counts = Counter()

        def count(name):
            original = getattr(lp, name)

            def counting(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] += 1
                if name == "lp_feasible":
                    counts["feasible"] += result.feasible
                return result

            monkeypatch.setattr(lp, name, counting)

        count("lp_feasible")
        count("nonneg_combination")
        assert two_triangle_example("1/4").passed
        # The Gale property of the g-vectors is decided once (6 strict
        # systems, one per deletion); deciding it again in every face
        # question made 218 lp_feasible and 106 nonneg_combination calls,
        # and 2e strict systems per spanning test made 74 lp_feasible calls.
        # Boundedness is one spanning test per H-polytope, not 2n cone
        # LPs, which made 25 lp_feasible and 91 nonneg_combination calls.
        # The realization checks read the edge list; asking the 9 face
        # questions again made 83 nonneg_combination calls.  The g-vector
        # census projects nothing; taking the image hull there as well as
        # in the oracle made 74.  Asking the convex-hull question of the
        # strictly preserved vertices, the spanning question of the hull
        # vertices' images and the face question of single labels made 26
        # lp_feasible calls (10 feasible) and 65 nonneg_combination calls.
        # Each lp_feasible call now solves its Farkas system through
        # nonneg_combination, so 18 of the 69 calls are nested; the 51
        # direct ones are unchanged.
        assert counts == {"lp_feasible": 18, "feasible": 2, "nonneg_combination": 18 + 51}

    def test_pivots_at_one_quarter(self, monkeypatch):
        pivots = []
        original = lp._pivot

        def counting(*args):
            pivots.append(1)
            return original(*args)

        monkeypatch.setattr(lp, "_pivot", counting)
        assert two_triangle_example("1/4").passed
        # One phase 1 per system and one strict system per spanning test;
        # the strict-margin LP's phase 2 and its pivot-outs of leftover
        # artificials made 408 pivots, 2e systems per spanning test 330,
        # 2n cone LPs per boundedness check 257, the face questions
        # asked again by the realization checks 215, a second image
        # hull in the g-vector census 199, and the LPs whose answers the
        # census, the oracle and the face test already held 176.  Solving
        # each lp_feasible system in its primal form, x = u - w with LE
        # slack columns, made 127; its Farkas system takes more pivots on a
        # narrower tableau.
        assert len(pivots) == 155

    def test_one_image_hull(self, monkeypatch):
        # only the oracle projects the vertices and takes their hull
        calls = []
        original = polytopes.hull_vertex_indices

        def counting(points):
            calls.append(len(points))
            return original(points)

        for module in (polytopes, projections, pipeline):
            monkeypatch.setattr(module, "hull_vertex_indices", counting)
        assert two_triangle_example("1/4").passed
        assert calls == [9]

    def test_one_vertex_enumeration(self, monkeypatch):
        # h_vertices runs 5 times on the product polytope (directly, and in
        # is_simple, both censuses and dual_boundary_complex) but enumerates
        # its 15 row subsets once; each run enumerated them anew before
        calls = []
        original = polytopes.solve_square

        def counting(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(polytopes, "solve_square", counting)
        assert two_triangle_example("1/4").passed
        assert len(calls) == 15


def test_random_experiment_counts_at_r_equal_d():
    # the vertex-test verdicts of 250 Gordan phase-1 solves in the r = d regime
    report = random_experiment(3, 3, [5, 5, 5], 2, 7)
    assert report.passed
    assert report.results["counts"] == [38, 37]


class TestKneserFactorBuiltOnce:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_one_kneser_graph_per_call(self, d, monkeypatch):
        built = []
        original = obstructions.kneser_graph

        def counting(family):
            graph = original(family)
            built.append(len(graph.vertices))
            return graph

        for module in (obstructions, pipeline):
            if hasattr(module, "kneser_graph"):
                monkeypatch.setattr(module, "kneser_graph", counting)
        report = obstruction_pipeline(d)
        assert report.passed, [c.claim for c in report.checks if not c.passed]
        # past the cap the factor is certified from its non-faces, no graph built
        assert built == ([comb(d + 1, 2)] if comb(d + 1, 2) <= EXACT_CAP else [])
        assert report.results["chi_factor"] == d - 1 and report.results["chi_total"] == d * (d - 1)

    def test_factor_check_fails_when_the_total_is_not_d_copies(self, monkeypatch):
        # chi_factor is read as chi_total // d, so a total that d does not
        # divide must fail the factor check rather than round down
        original = pipeline.nonembeddable

        def one_more_color(K, d):
            v = original(K, d)
            return replace(v, chi_used=v.chi_used + 1, sarkaria_lower=v.sarkaria_lower - 1, embeddable="unknown")

        monkeypatch.setattr(pipeline, "nonembeddable", one_more_color)
        report = obstruction_pipeline(4)
        assert report.results["chi_factor"] == 3 == 4 - 1
        failed = [c.claim for c in report.checks if not c.passed]
        assert "exact factor coloring matches the closed-form Kneser value d-1" in failed
