"""JSON encoding for the core types.

Rationals travel as canonical strings "p/q" ("p" when the denominator is
1); labels are ints or strings.  Decoders validate shape and re-run the
type invariants via the ordinary constructors.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import Complex, closure_from_facets
from .linalg import Vec
from .polytopes import HPolytope, VPolytope


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field!r} must be an array, got {type(value).__name__}")
    return value


def _matrix(value, field: str) -> list:
    for i, row in enumerate(_array(value, field)):
        _array(row, f"{field}[{i}]")
    return value


def _labels(value, field: str) -> list:
    for x in _array(value, field):
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise ValueError(f"{field!r} holds {x!r}; labels are ints or strings")
    return value


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(data).__name__}")
    return data


def _field(data: dict, field: str, what: str):
    if field not in data:
        raise ValueError(f"the {what} has no {field!r} field")
    return data[field]


def parse_rat(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise ValueError(f"expected a rational string or int, got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


def vec_json(v: Vec) -> list[str]:
    return [str(x) for x in v]


def parse_vec(entries) -> tuple[Fraction, ...]:
    return tuple(parse_rat(x) for x in entries)


def parse_mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(parse_vec(row) for row in rows)


def parse_polytope(data: dict) -> VPolytope | HPolytope:
    kind = _object(data, "polytope").get("type")
    dim = data.get("dim")
    if "dim" in data and (isinstance(dim, bool) or not isinstance(dim, int)):
        raise ValueError(f"'dim' holds {dim!r}; a dimension is an int")
    if kind == "V":
        P = VPolytope(parse_mat(_matrix(_field(data, "points", "V-polytope"), "points")))
    elif kind == "H":
        labels = data.get("labels")
        if labels is not None:
            _labels(labels, "labels")
        A = parse_mat(_matrix(_field(data, "A", "H-polytope"), "A"))
        P = HPolytope(A, parse_vec(_array(_field(data, "b", "H-polytope"), "b")), labels)
    else:
        raise ValueError(f"polytope type must be 'V' or 'H', got {kind!r}")
    if P.dim != data.get("dim", P.dim):
        raise ValueError("declared dim does not match the coordinates")
    return P


def complex_json(K: Complex) -> dict:
    return {"vertices": list(K.vertices), "facets": K.sorted_facets()}


def parse_complex(data: dict) -> Complex:
    """A complex from its JSON form; two vertex labels that print alike,
    like 1 and "1", are refused, as no output could tell them apart."""
    facets = _array(_field(_object(data, "complex"), "facets", "complex"), "facets")
    vertices = _labels(_field(data, "vertices", "complex"), "vertices")
    printed = {}
    for v in vertices:
        u = printed.setdefault(str(v), v)
        if u != v:
            raise ValueError(f"vertex labels {u!r} and {v!r} both print as {str(v)!r}")
    return closure_from_facets(vertices, [frozenset(_labels(f, f"facets[{i}]")) for i, f in enumerate(facets)])
