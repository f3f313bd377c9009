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
    kind = data.get("type")
    if kind == "V":
        P = VPolytope(parse_mat(data["points"]))
    elif kind == "H":
        P = HPolytope(parse_mat(data["A"]), parse_vec(data["b"]), data.get("labels"))
    else:
        raise ValueError(f"polytope type must be 'V' or 'H', got {kind!r}")
    if P.dim != data.get("dim", P.dim):
        raise ValueError("declared dim does not match the coordinates")
    return P


def complex_json(K: Complex) -> dict:
    return {"vertices": list(K.vertices), "facets": K.sorted_facets()}


def parse_complex(data: dict) -> Complex:
    return closure_from_facets(data["vertices"], [frozenset(f) for f in data["facets"]])


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
