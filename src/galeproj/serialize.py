"""JSON encoding for the core types.

Rationals travel as canonical strings "p/q" ("p" when the denominator is
1); labels are ints or strings.  Decoders validate shape and re-run the
type invariants via the ordinary constructors.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import Complex, closure_from_facets
from .linalg import Vec
from .obstructions import ObstructionVerdict
from .polytopes import HPolytope, VPolytope


def rat_str(x: Fraction) -> str:
    return str(x)


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
    return Fraction(s)


def vec_json(v: Vec) -> list[str]:
    return [rat_str(x) for x in v]


def parse_vec(entries) -> tuple[Fraction, ...]:
    return tuple(parse_rat(x) for x in entries)


def parse_mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(parse_vec(row) for row in rows)


def parse_polytope(data: dict) -> VPolytope | HPolytope:
    kind = _object(data, "polytope").get("type")
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
    facets = _array(_field(_object(data, "complex"), "facets", "complex"), "facets")
    return closure_from_facets(
        _labels(_field(data, "vertices", "complex"), "vertices"),
        [frozenset(_labels(f, f"facets[{i}]")) for i, f in enumerate(facets)],
    )


def verdict_json(v: ObstructionVerdict) -> dict:
    return {
        "complex_size": v.complex_size,
        "chi_used": v.chi_used,
        "chi_is_exact": v.chi_is_exact,
        "sarkaria_lower": v.sarkaria_lower,
        "djn_dim_upper": v.djn_dim_upper,
        "target_sphere": v.target_sphere,
        "embeddable": v.embeddable,
    }
