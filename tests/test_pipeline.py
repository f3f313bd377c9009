import itertools
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from helpers import count_vertex_walks, normal_cone_oracle, separation_hull_vertices
from test_polytopes import lifted_lattice_summands

from galeproj import complexes, lp, obstructions, pipeline, polytopes, projections
from galeproj.cli import main
from galeproj.errors import HypothesisViolated, TooLargeForExact
from galeproj.linalg import affine_rank
from galeproj.obstructions import EXACT_CAP, certified_kneser_chi, chromatic_number, kneser_graph
from galeproj.pipeline import (
    Check,
    minkowski_sum_report,
    minkowski_vertex_bound,
    obstruction_pipeline,
    random_experiment,
    sample_vpolytope,
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
        # r = 3 > d = 2 triangles: one simplex choice per summand, so the
        # count over all three summands forces 27/27 = 1 failing sum, and
        # restricted to the first two it forces 9/9 = 1, which each of the
        # 3 vertices of the third extends: 3 failing sums
        report = vertex_bounds(2, 3, [3, 3, 3])
        assert report.passed
        assert list(report.results.values()) == [27, "24", "3", 1, 1, 3]

    @pytest.mark.parametrize("d, r, f0s", [(2, 4, [4, 4, 4, 4]), (2, 3, [5, 3, 4]), (3, 5, [4, 6, 5, 7, 4])])
    def test_restricted_count_gives_the_failing_sums(self, d, r, f0s):
        res = vertex_bounds(d, r, f0s).results
        ratio = Fraction(res["simplex_subset_choices"], res["subsums_per_tuple"])
        assert ratio * res["other_summand_tuples"] == Fraction(res["failing_sums_at_least"])
        assert res["simplex_subset_choices"] == prod(comb(f, d + 1) for f in f0s[:d])
        assert res["other_summand_tuples"] == prod(f0s[d:])

    def test_no_other_summands_at_r_equal_d(self):
        assert "other_summand_tuples" not in vertex_bounds(2, 2, [4, 5]).results

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
        # in the plane the tuples are read off the normal fans as well
        assert report.checks[-1] == Check(pipeline.FAN_CLAIM, True, "5 and 5 tuples")

    def test_minksum_reads_the_normal_fan_in_the_plane_only(self, monkeypatch):
        triangle = polytopes.VPolytope([(0, 0), (1, 0), (0, 1)])
        original = polytopes.normal_fan_tuples
        monkeypatch.setattr(pipeline, "normal_fan_tuples", lambda polys: original(polys)[1:])
        report = minkowski_sum_report([triangle, triangle], ["T", "T"])
        assert not report.passed and report.checks[-1] == Check(pipeline.FAN_CLAIM, False, "2 and 3 tuples")
        monkeypatch.setattr(pipeline, "normal_fan_tuples", None)
        report = minkowski_sum_report(lifted_lattice_summands(), ["P", "Q", "R"])
        assert report.passed and pipeline.FAN_CLAIM not in [c.claim for c in report.checks]

    def test_minksum_work_cap_boundary(self, monkeypatch):
        class Tested(Exception):
            pass

        calls = []

        def testing(choice, polys):
            calls.append(choice)
            raise Tested

        monkeypatch.setattr(polytopes, "minkowski_vertex_test", testing)
        # three point sets in the plane grown by one point at a time, the
        # smallest first, until tuples x LP columns x (d+1)^2 passes the cap
        sizes = [3, 3, 3]
        while prod(sizes) * (sum(sizes) - 3) * 3**2 <= pipeline.EXPERIMENT_CAP:
            last = sizes.index(min(sizes))
            sizes[last] += 1
        with pytest.raises(TooLargeForExact, match=f"^minksum of {prod(sizes)} tuples x {sum(sizes) - 3} LP columns"):
            minkowski_sum_report(parabola_summands(sizes), ["P", "Q", "R"])
        assert calls == []
        sizes[last] -= 1
        with pytest.raises(Tested):
            minkowski_sum_report(parabola_summands(sizes), ["P", "Q", "R"])
        assert calls == [(0, 0, 0)]

    def test_minksum_d3r3_measures_far_under_the_cap(self):
        # the benchmark's instance: 5^3 tuples x 12 LP columns x 4^2
        assert pipeline._vertex_test_work(3, [5, 5, 5]) == (125, 12, 24_000)


def parabola_summands(sizes):
    """One V-polytope per size: that many points (i, i^2), all vertices."""
    return [polytopes.VPolytope([(i, i * i) for i in range(n)]) for n in sizes]

def count_lp_calls(monkeypatch) -> Counter:
    """Count lp_feasible calls, their feasible verdicts, and nonneg_combination calls."""
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
    return counts


class TestTwoTriangleOpCounts:
    def test_lp_calls_at_one_quarter(self, monkeypatch):
        counts = count_lp_calls(monkeypatch)
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
        # nonneg_combination, so 18 of the 69 calls were nested.  The
        # g-vectors of labels 1, 2 and of labels 5, 6 are equal, and the
        # spanning and dependence questions are asked once per set of
        # rays: asking them once per label set made 18 lp_feasible calls
        # (2 feasible) and 18 + 51 nonneg_combination calls.  The polytope's
        # vertex records decide emptiness, flatness and redundancy; an
        # interior LP and one Farkas cone LP per row made 7 lp_feasible
        # calls (2 feasible) and 7 + 26 nonneg_combination calls.
        # Dependence is the Farkas system of the spanning test, kept once
        # per ray set for both questions; a cone LP apart from it made 6
        # lp_feasible calls (1 feasible) and 6 + 20 nonneg_combination
        # calls.  Every phase 1 is an lp_feasible system; asking the
        # Gordan systems as convex-combination rows, the same tableaux,
        # made 12 lp_feasible calls (7 feasible).  The oracle took the hull
        # of the 9 plane images by 9 Gordan systems (8 feasible, the hull
        # vertices) and ran one spanning test on the shifted images, which
        # made 22 (16 feasible); in the plane it now asks no LP.  The 12
        # are the polytope's boundedness test, the configuration's 10
        # dependence systems and the one convex-hull test.  The 8
        # feasible ones are the 7 ray sets that are not positively
        # dependent and the one vertex that is not preserved.  The
        # g-vectors lie in the plane, where one angular sort of the rays
        # decides rank and dependence; their 10 Farkas systems made 12
        # lp_feasible calls (8 feasible).  The 2 are the boundedness test
        # and the convex-hull test, whose vertex is not preserved.
        assert counts == {"lp_feasible": 2, "feasible": 1, "nonneg_combination": 2}

    def test_building_the_polytope(self, monkeypatch):
        counts = count_lp_calls(monkeypatch)
        walks = count_vertex_walks(monkeypatch)
        pipeline.deformed_triangle_product("1/4")
        # one spanning test proves it bounded, and the vertex records of its
        # 15 row subsets, enumerated here and kept, decide the rest
        assert counts == {"lp_feasible": 1, "feasible": 0, "nonneg_combination": 1}
        # one prefix tree over the 15 subsets of 4 of the 6 rows: 3 + 6 + 10
        # + 15 rows added to prefixes, none dropped above the last level, and
        # 2 of the 15 subsets singular.  Solving each subset on its own made
        # 15 square solves.
        assert walks == {"walks": 1, "reductions": 34, "pruned": 2, "leaves": 13}

    def test_lp_calls_at_one(self, monkeypatch):
        counts = count_lp_calls(monkeypatch)
        assert two_triangle_example("1").passed
        # Three distinct rays, each on two labels: every deletion leaves
        # all three, so the Gale property is one spanning test, and the 15
        # pair and 20 triple face questions ask about 4 ray sets, one of
        # them the Gale property's.  Asking them once per label set made 6
        # lp_feasible and 41 nonneg_combination calls, and a cone LP for
        # dependence apart from the spanning system, 1 lp_feasible and
        # 1 + 4 nonneg_combination calls.  The 4 ray sets in the plane
        # are decided by angular sorts, where their Farkas systems made 4
        # lp_feasible calls (3 feasible); at eps = 1 no polytope is built,
        # so nothing else asks an LP.
        assert counts == {}

    def test_no_verdict_outlives_its_configuration(self, monkeypatch):
        counts = count_lp_calls(monkeypatch)
        runs = []
        for _ in range(2):
            counts.clear()
            assert two_triangle_example("1/4").passed
            runs.append(dict(counts))
        # a verdict kept past its configuration would make the second call
        # cheaper, or the first one after an earlier test (12 lp_feasible
        # calls, 7 feasible, while the Gordan systems were convex-combination
        # rows, and 22 lp_feasible calls, 16 feasible, while the oracle took
        # the plane images' hull by Gordan systems, and 12, 8 feasible,
        # while the planar dependence questions were Farkas systems)
        assert runs == [{"lp_feasible": 2, "feasible": 1, "nonneg_combination": 2}] * 2

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
        # narrower tableau.  The image hull's Gordan systems, on differences
        # that kept the common factors of their entries, made 155, and
        # the spanning and dependence questions asked once per label set
        # instead of once per set of distinct rays, 151.  Bland's rule on
        # every pivot made 76, and validating the polytope by an interior
        # LP and one Farkas cone LP per row instead of by its vertex
        # records, 78.  Asking dependence by a cone LP apart from the
        # Farkas system of the spanning test made 54, and the spanning test
        # on the rational rows instead of their integer copies, which scale
        # each row by the lcm of its denominators, 48.  The oracle's hull
        # of the plane images by Gordan systems and its spanning test made
        # 49; in the plane it asks no LP.  The Farkas systems of the 10
        # dependence questions on the planar g-vectors made 25; an angular
        # sort decides them now.
        assert len(pivots) == 8

    def test_lp_work_over_the_bench_sweep(self, monkeypatch):
        # the epsilons of the projection-sweep workload, copied from
        # bench/workloads.py
        counts = count_lp_calls(monkeypatch)
        pivots = []
        original = lp._pivot

        def counting(*args):
            pivots.append(1)
            return original(*args)

        monkeypatch.setattr(lp, "_pivot", counting)
        for epsilon in ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5", "1"):
            assert two_triangle_example(epsilon).passed
        # asking dependence by a cone LP apart from the Farkas system of
        # the spanning test made 187 nonneg_combination calls and 384
        # pivots, and the oracle's LPs on the plane images (the Gordan
        # hull and the spanning test) 158 and 342, and the Farkas systems
        # of the dependence questions on the planar g-vectors 88 and 179
        assert (counts["nonneg_combination"], len(pivots)) == (14, 53)

    def test_one_image_hull(self, monkeypatch):
        # only the oracle projects the vertices and takes their hull, and
        # in the plane it takes it by cross products; the Gordan hull
        # of the 9 images was the one hull before
        calls = {"hull_vertex_indices": [], "planar_hull": []}
        for name, found in calls.items():
            original = getattr(polytopes, name)

            def counting(points, original=original, found=found):
                found.append(len(points))
                return original(points)

            for module in (polytopes, projections, pipeline):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        assert two_triangle_example("1/4").passed
        assert calls == {"hull_vertex_indices": [], "planar_hull": [9]}

    def test_the_planar_oracle_asks_no_lp(self, monkeypatch):
        P = pipeline.deformed_triangle_product("1/4")
        counts = count_lp_calls(monkeypatch)
        report = projections.oracle_survival(P, pipeline.TRIANGLE_PRODUCT_PROJECTION)
        assert report.image_vertex_count == 8
        # its 9 Gordan systems and one spanning test made 10 lp_feasible calls
        assert counts == {}

    def test_the_oracle_on_a_line_takes_the_gordan_hull(self, monkeypatch):
        # images that are not planar keep hull_vertex_indices and the
        # spanning test: here the 9 images land on 5 distinct points of the
        # line, 2 of them the ends
        P = pipeline.deformed_triangle_product("1/4")
        calls = []
        original = polytopes.hull_vertex_indices

        def counting(points):
            calls.append(len(points))
            return original(points)

        monkeypatch.setattr(projections, "hull_vertex_indices", counting)
        counts = count_lp_calls(monkeypatch)
        report = projections.oracle_survival(P, [[1, 0, 0, 1]])
        assert calls == [5] and report.image_vertex_count == 2
        assert counts["lp_feasible"] > 0

    def test_one_vertex_enumeration(self, monkeypatch):
        # h_vertices runs 5 times on the product polytope (directly, and in
        # is_simple, both censuses and dual_boundary_complex) but enumerates
        # its 15 row subsets once; each run enumerated them anew before.
        # Solving each subset on its own made 15 square solves.
        walks = count_vertex_walks(monkeypatch)
        assert two_triangle_example("1/4").passed
        assert walks == {"walks": 1, "reductions": 34, "pruned": 2, "leaves": 13}

    def test_vertex_walks_over_the_bench_sweep(self, monkeypatch):
        # every epsilon < 1 builds one polytope and walks its tree once;
        # at 1 the example builds none.  Solving each row subset on its own
        # made 105 square solves.
        walks = count_vertex_walks(monkeypatch)
        for epsilon in ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5", "1"):
            assert two_triangle_example(epsilon).passed
        assert walks == {"walks": 7, "reductions": 7 * 34, "pruned": 7 * 2, "leaves": 7 * 13}


def test_every_phase_one_is_an_lp_feasible_system(monkeypatch):
    # lp_feasible is the one formulation: each nonneg_combination call is
    # one lp_feasible call's Farkas system.  Over the sweep the Gordan
    # systems asked as convex-combination rows made 88 lp_feasible calls
    # against 158 nonneg_combination calls, and the oracle's LPs on the
    # plane images (the Gordan hull and the spanning test), 158 and 158,
    # and the Farkas systems of the planar dependence questions, 88 and 88.
    counts = count_lp_calls(monkeypatch)

    def calls():
        got = (counts["lp_feasible"], counts["nonneg_combination"])
        counts.clear()
        return got

    for epsilon in ("1/5", "1/4", "1/3", "1/2", "2/3", "3/4", "4/5", "1"):
        assert two_triangle_example(epsilon).passed
    assert calls() == (14, 14)
    assert len(polytopes.minkowski_sum_vertices(lifted_lattice_summands())) == 41
    assert calls() == (125, 125)
    assert random_experiment(3, 3, [8, 8, 8], 1, 7).results["counts"] == [70]
    assert calls() == (512, 512)


def test_random_experiment_pivots(monkeypatch):
    # 512 vertex tests of one trial in the r = d regime; Bland's rule on
    # every pivot made 4,104
    pivots = []
    original = lp._pivot

    def counting(*args):
        pivots.append(1)
        return original(*args)

    monkeypatch.setattr(lp, "_pivot", counting)
    assert random_experiment(3, 3, [8, 8, 8], 1, 7).results["counts"] == [70]
    assert len(pivots) == 2814


def test_random_experiment_counts_at_r_equal_d():
    # the vertex-test verdicts of 250 Gordan phase-1 solves in the r = d
    # regime, each one equal to the direct strict-separation LP's
    report = random_experiment(3, 3, [5, 5, 5], 2, 7)
    assert report.passed
    counts = []
    for t in range(2):
        rng = random.Random(7 * 1_000_003 + t)  # trial t's seed
        polys = [sample_vpolytope(rng, 3, 5) for _ in range(3)]
        found = {choice for choice, _ in polytopes.minkowski_sum_vertices(polys)}
        oracle = {c for c in itertools.product(range(5), repeat=3) if normal_cone_oracle(c, polys)}
        assert found == oracle
        counts.append(len(oracle))
    assert report.results["counts"] == counts == [39, 40]


class ScriptedRandom(random.Random):
    """Answers the first `sample` and the first `randint` calls from a script."""

    def __init__(self, firsts, rest):
        super().__init__(5)
        self.firsts, self.rest = firsts, list(rest)
        self.samples = 0

    def sample(self, population, k):
        self.samples += 1
        return self.firsts if self.samples == 1 else super().sample(population, k)

    def randint(self, a, b):
        return self.rest.pop(0) if self.rest else super().randint(a, b)


class TestSphereSampler:
    @pytest.mark.parametrize("d, f0", [(2, 3), (2, 40), (3, 4), (3, 12), (4, 8)])
    def test_every_point_is_a_vertex(self, d, f0):
        points = list(sample_vpolytope(random.Random(11), d, f0).points)
        assert len(set(points)) == len(points) == f0
        assert all(sum(x * x for x in p) == 1 for p in points)
        assert affine_rank(points) == d
        assert separation_hull_vertices(points) == set(range(f0))

    def test_same_seed_same_sample(self):
        first, again, other = (sample_vpolytope(random.Random(seed), 3, 6) for seed in (3, 3, 4))
        assert first == again != other

    def test_a_cospherical_draw_is_redrawn(self, monkeypatch):
        # u = (5, 0), (3, 4), (-3, 4), (0, -5) lie on one circle |u| = 5,
        # so their images share the last coordinate 12/13: a flat sample
        ranks = []

        def recording(points):
            ranks.append(affine_rank(points))
            return ranks[-1]

        monkeypatch.setattr(pipeline, "affine_rank", recording)
        rng = ScriptedRandom([5, 3, -3, 0], [0, 4, 4, -5])
        points = sample_vpolytope(rng, 3, 4).points
        assert ranks == [2, 3] and rng.samples == 2
        assert len({p[-1] for p in points}) > 1

    @pytest.mark.parametrize("d, f0", [(1, 3), (3, 3)])
    def test_needs_a_simplex_on_the_sphere(self, d, f0):
        with pytest.raises(HypothesisViolated):
            sample_vpolytope(random.Random(1), d, f0)

    def test_work_cap_boundary(self, monkeypatch):
        class Sampled(Exception):
            pass

        def sampling(*args):
            raise Sampled

        monkeypatch.setattr(pipeline, "sample_vpolytope", sampling)
        # the least f0 that puts d = r = 3, one trial, over the cap
        f0 = 4
        while f0**3 * (3 * f0 - 3) * 4**2 <= pipeline.EXPERIMENT_CAP:
            f0 += 1
        with pytest.raises(TooLargeForExact, match=f"experiment of 1 trials x {f0**3} tuples"):
            random_experiment(3, 3, [f0] * 3, 1, 1)
        with pytest.raises(Sampled):
            random_experiment(3, 3, [f0 - 1] * 3, 1, 1)

    def test_planar_sum_reaches_the_edge_count(self):
        # polygons on the circle in general orientation: the sum has one
        # edge per summand edge, and the planar check holds at r = 3
        report = random_experiment(2, 3, [10, 10, 10], 1, 1)
        assert report.passed
        assert report.results["counts"] == [30]

    def test_planar_trials_check_the_normal_fan(self, monkeypatch):
        def fan_check():
            report = random_experiment(2, 3, [6, 6, 6], 3, 5)
            [check] = [c for c in report.checks if c.claim == pipeline.FAN_CLAIM]
            return report.passed, check

        assert fan_check() == (True, Check(pipeline.FAN_CLAIM, True, "3 of 3 trials"))
        # a fan that loses a tuple fails the check, and with it the report
        original = polytopes.normal_fan_tuples
        monkeypatch.setattr(pipeline, "normal_fan_tuples", lambda polys: original(polys)[1:])
        assert fan_check() == (False, Check(pipeline.FAN_CLAIM, False, "0 of 3 trials"))
        # above the plane no trial reads a fan
        monkeypatch.setattr(pipeline, "normal_fan_tuples", None)
        report = random_experiment(3, 3, [4, 4, 4], 1, 5)
        assert report.passed and pipeline.FAN_CLAIM not in [c.claim for c in report.checks]


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
            changed = dict(chi_used=v.chi_used + 1, sarkaria_lower=v.sarkaria_lower - 1, embeddable="unknown")
            return type(v)(**v._asdict() | changed)

        monkeypatch.setattr(pipeline, "nonembeddable", one_more_color)
        report = obstruction_pipeline(4)
        assert report.results["chi_factor"] == 3 == 4 - 1
        failed = [c.claim for c in report.checks if not c.passed]
        assert "exact factor coloring matches the closed-form Kneser value d-1" in failed
