import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from math import comb

import pytest

from galeproj import lp, obstructions, pipeline, polytopes
from galeproj.cli import main
from galeproj.errors import HypothesisViolated, TooLargeForExact
from galeproj.obstructions import EXACT_CAP, certified_kneser_chi, chromatic_number, kneser_graph
from galeproj.pipeline import obstruction_pipeline, random_experiment, two_triangle_example


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
                chi, exact = chromatic_number(kg(n, k))
                family = itertools.combinations(range(1, n + 1), k)
                assert exact and certified_kneser_chi(family) == chi == n - 2 * k + 2, (n, k)
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
        # The Gale property of the g-vectors is decided once (24 margin
        # LPs); deciding it again in every face question made 218
        # lp_feasible and 106 nonneg_combination calls.
        assert counts == {"lp_feasible": 74, "feasible": 10, "nonneg_combination": 91}

    def test_pivots_at_one_quarter(self, monkeypatch):
        pivots = []
        original = lp._pivot

        def counting(*args):
            pivots.append(1)
            return original(*args)

        monkeypatch.setattr(lp, "_pivot", counting)
        assert two_triangle_example("1/4").passed
        # One phase 1 per system; the strict-margin LP's phase 2 and its
        # pivot-outs of leftover artificials made 408 pivots.
        assert len(pivots) == 330

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
