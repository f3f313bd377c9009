"""Value semantics of the package's records: fields cannot be assigned,
`==`, `hash` and `repr` read the fields alone, and each cached value is
computed once and kept on the instance without entering `==` or `hash`.
"""

from fractions import Fraction

import pytest

from galeproj import complexes, polytopes
from galeproj.complexes import Complex, closure_from_facets
from galeproj.gale import VectorConfig
from galeproj.lp import FeasibilityResult
from galeproj.obstructions import Graph, ObstructionVerdict
from galeproj.pipeline import Check, PipelineReport
from galeproj.polytopes import FaceRecord, HPolytope, VPolytope
from galeproj.projections import SurvivalReport, VertexRecord

SQUARE_A, SQUARE_B = [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1]
# each of three positively spanning vectors twice: every single deletion
# still spans, so this is a Gale transform
FRAME = [(1, 0), (1, 0), (0, 1), (0, 1), (-1, -1), (-1, -1)]


IDS = ["VPolytope", "HPolytope", "VectorConfig", "Complex", "Graph", "ObstructionVerdict", "FaceRecord"]


def records():
    """(record, a field name, a value to assign) for each frozen record."""
    return [
        (VPolytope([[0, 0], [1, 0], [0, 1]]), "points", ()),
        (HPolytope(SQUARE_A, SQUARE_B), "b", (2, 2, 2, 2)),
        (VectorConfig(FRAME), "labels", (6, 5, 4, 3, 2, 1)),
        (Complex((1, 2), frozenset({frozenset({1, 2})})), "facets", frozenset()),
        (Graph((1, 2), frozenset({frozenset({1, 2})})), "edges", frozenset()),
        (ObstructionVerdict(4, 1, 2, 2, 1, "no"), "embeddable", "unknown"),
        (FaceRecord(frozenset({1, 2}), (Fraction(1), Fraction(1))), "tight_facets", frozenset()),
    ]


@pytest.mark.parametrize("record, name, value", records(), ids=IDS)
def test_assigning_a_field_raises(record, name, value):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) == before


@pytest.mark.parametrize("record, name, value", records(), ids=IDS)
def test_equal_fields_give_equal_records(record, name, value):
    twin = {
        VPolytope: lambda r: VPolytope(r.points),
        HPolytope: lambda r: HPolytope(r.A, r.b, r.facet_labels),
        VectorConfig: lambda r: VectorConfig(r.vectors, r.labels),
        Complex: lambda r: Complex(r.vertices, r.facets),
        Graph: lambda r: Graph(r.vertices, r.edges),
        ObstructionVerdict: lambda r: ObstructionVerdict(4, 1, 2, 2, 1, "no"),
        FaceRecord: lambda r: FaceRecord(r.tight_facets, r.vertex_coords),
    }[type(record)](record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert record != object()


def test_hash_reads_the_fields_in_order():
    P = VPolytope([[0, 0], [1, 0]])
    assert hash(P) == hash((P.points, P.dim))
    H = HPolytope(SQUARE_A, SQUARE_B)
    assert hash(H) == hash((H.A, H.b, H.facet_labels))
    G = VectorConfig(FRAME)
    assert hash(G) == hash((G.vectors, G.labels))
    v = ObstructionVerdict(4, 1, 2, 2, 1, "no")
    assert hash(v) == hash((4, 1, 2, 2, 1, "no"))


def test_complex_compares_vertex_sets():
    # the vertex order is no part of a complex's identity
    K = Complex((1, 2), frozenset({frozenset({1, 2})}))
    L = Complex((2, 1), frozenset({frozenset({1, 2})}))
    assert K == L and hash(K) == hash(L)


def test_repr_names_the_fields():
    assert repr(VPolytope([[0, 1]])) == "VPolytope(points=((Fraction(0, 1), Fraction(1, 1)),), dim=2)"
    assert repr(Graph((1, 2), frozenset())) == "Graph(vertices=(1, 2), edges=frozenset())"
    assert repr(Complex((1,), frozenset())) == "Complex(vertices=(1,), facets=frozenset())"
    assert repr(ObstructionVerdict(4, 1, 2, 2, 1, "no")) == (
        "ObstructionVerdict(complex_size=4, chi_used=1, sarkaria_lower=2,"
        " djn_dim_upper=2, target_sphere=1, embeddable='no')"
    )
    assert repr(VectorConfig([(1,)], [3])) == "VectorConfig(vectors=((Fraction(1, 1),),), labels=(3,))"
    assert repr(FeasibilityResult(True)) == "FeasibilityResult(feasible=True)"
    assert repr(Check("c", True)) == "Check(claim='c', passed=True, detail='')"
    assert repr(VertexRecord(frozenset(), True, True)) == (
        "VertexRecord(tight_facets=frozenset(), strictly_preserved=True, preserved=True)"
    )
    assert repr(SurvivalReport((), 0)) == "SurvivalReport(records=(), image_vertex_count=0)"


def test_pipeline_report_fills_in_and_compares_its_fields():
    report = PipelineReport("s", {"d": 2}, results={"n": 1})
    report.check("claim", 1, "why")
    report.notes.append("note")
    assert report.checks == [Check("claim", True, "why")]
    fresh = PipelineReport("s", {"d": 2})
    assert fresh.results == {} and fresh.checks == [] and fresh.notes == []
    assert fresh == PipelineReport("s", {"d": 2}) and fresh != report
    assert PipelineReport("s", {}).results is not PipelineReport("s", {}).results
    assert repr(fresh) == "PipelineReport(scenario='s', inputs={'d': 2}, results={}, checks=[], notes=[])"
    with pytest.raises(TypeError):
        hash(fresh)


def _kept_once(obj, name, monkeypatch, target, attr):
    """Read `name` twice with its builder `target.attr` made to fail in
    between: the second read is the first one's value, from the instance."""
    first = getattr(obj, name)
    assert name in vars(obj)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was computed again")

    monkeypatch.setattr(target, attr, refuse)
    assert getattr(obj, name) is first
    return first


def test_differences_are_computed_once_and_kept(monkeypatch):
    P = VPolytope([[0, 0], [2, 0], [0, 2]])
    assert "differences" not in vars(P)
    diffs = _kept_once(P, "differences", monkeypatch, polytopes, "primitive")
    assert diffs[0] == ((1, 0), (0, 1))
    assert P == VPolytope(P.points) and hash(P) == hash(VPolytope(P.points))


def test_vertex_records_are_computed_once_and_kept(monkeypatch):
    # the constructor's validation makes the first read
    H, twin = HPolytope(SQUARE_A, SQUARE_B), HPolytope(SQUARE_A, SQUARE_B)
    assert "vertex_records" in vars(H)
    # one basic_solutions walk builds them; it was 15 solve_square calls before
    records = _kept_once(H, "vertex_records", monkeypatch, polytopes, "basic_solutions")
    assert len(records) == 4 and polytopes.h_vertices(H) is records
    assert H == twin and hash(H) == hash(twin)


def test_nonfaces_are_computed_once_and_kept(monkeypatch):
    K = closure_from_facets((1, 2, 3), [[1, 2], [2, 3]])
    assert "nonfaces" not in vars(K)
    nf = _kept_once(K, "nonfaces", monkeypatch, complexes, "minimal_nonfaces")
    assert nf == frozenset({frozenset({1, 3})})
    assert K == Complex(K.vertices, K.facets) and hash(K) == hash(Complex(K.vertices, K.facets))


def test_is_gale_is_computed_once_and_kept(monkeypatch):
    G = VectorConfig(FRAME)
    assert "is_gale" not in vars(G)
    assert _kept_once(G, "is_gale", monkeypatch, VectorConfig, "spans") is True
    assert G == VectorConfig(FRAME) and hash(G) == hash(VectorConfig(FRAME))
