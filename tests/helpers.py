"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from galeproj import lp
from galeproj.complexes import Complex, closure_from_facets
from galeproj.linalg import Vec, mat, rank, vsub


def rnd_frac(rng: random.Random, span: int = 100, den: int = 10) -> Fraction:
    return Fraction(rng.randint(-span, span), den)


def random_points(rng: random.Random, d: int, count: int) -> list[tuple]:
    pts = []
    while len(pts) < count:
        p = tuple(rnd_frac(rng) for _ in range(d))
        if p not in pts:
            pts.append(p)
    return pts


def random_complex(rng: random.Random, max_vertices: int = 10) -> Complex:
    n = rng.randint(1, max_vertices)
    vertices = list(range(1, n + 1))
    num_facets = rng.randint(1, 6)
    facets = []
    for _ in range(num_facets):
        size = rng.randint(1, min(n, 5))
        facets.append(frozenset(rng.sample(vertices, size)))
    return closure_from_facets(vertices, facets)


def random_pure_complex(rng: random.Random, max_vertices: int = 10) -> Complex:
    n = rng.randint(2, max_vertices)
    vertices = list(range(1, n + 1))
    size = rng.randint(1, n)
    facets = {frozenset(rng.sample(vertices, size)) for _ in range(rng.randint(1, 6))}
    return closure_from_facets(vertices, facets)


def unimodular_matrix(rng: random.Random, e: int):
    """Random invertible integer matrix built from elementary row operations."""
    rows = [[Fraction(1 if i == j else 0) for j in range(e)] for i in range(e)]
    for _ in range(3 * e):
        i, j = rng.randrange(e), rng.randrange(e)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5:
        i, j = rng.randrange(e), rng.randrange(e)
        rows[i], rows[j] = rows[j], rows[i]
    m = mat(rows)
    assert rank(m) == e
    return m


def vpoly_face_oracle(points: list[Vec], subset: set[int]) -> bool:
    """Is conv{points[i] : i in subset} a face of conv(points)?

    Decided directly from the definition: some functional is constant on
    the subset and strictly smaller on every other point.
    """
    d = len(points[0])
    cons = []
    first = None
    for i, p in enumerate(points):
        row = list(p) + [Fraction(-1)]  # variables (ell, beta)
        if i in subset:
            if first is None:
                first = row
            cons.append(lp.eq(row, 0))
        else:
            cons.append(lp.lt(row, 0))
    return lp.lp_feasible(cons, dim=d + 1).feasible


def separation_hull_vertices(points: list[Vec]) -> set[int]:
    """Hull vertices by the direct strict-separation LP (test oracle)."""
    out = set()
    for i, p in enumerate(points):
        if any(j != i and q == p for j, q in enumerate(points)):
            continue
        others = [q for q in points if q != p]
        if not others:
            out.add(i)
            continue
        cons = [lp.lt(vsub(q, p), 0) for q in others]
        if lp.lp_feasible(cons, dim=len(p)).feasible:
            out.add(i)
    return out


def normal_cone_oracle(choice, polys) -> bool:
    """Minkowski vertex test by the direct strict-separation LP.

    Some c with c.(w - v_i) < 0 for every other point w of each summand,
    i.e. the open normal cones of the chosen points meet; the primal side
    of the Gordan alternative that `minkowski_vertex_test` decides.
    """
    cons = []
    for idx, Q in zip(choice, polys):
        v = Q.points[idx]
        cons.extend(lp.lt(vsub(w, v), 0) for w in Q.points if w != v)
    return lp.lp_feasible(cons, dim=polys[0].dim).feasible


def spans_positively_primal(vectors) -> bool:
    """Primal oracle: +-e_j in cone(W) for every coordinate direction."""
    e = len(vectors[0])
    for j in range(e):
        for s in (1, -1):
            target = tuple(Fraction(s if c == j else 0) for c in range(e))
            if lp.cone_combination(list(vectors), target) is None:
                return False
    return True


def brute_minimal_nonfaces(K: Complex) -> set[frozenset]:
    """Reference implementation scanning every vertex subset."""
    verts = list(K.vertices)
    out = set()
    for size in range(1, len(verts) + 1):
        for cand in itertools.combinations(verts, size):
            c = frozenset(cand)
            if K.is_face(c):
                continue
            if all(K.is_face(c - {x}) for x in c):
                out.add(c)
    return out


def materialised_join(factors) -> Complex:
    """Join as a plain Complex: every union of one tagged facet per factor.

    `factors` holds (prefix, complex) pairs; labels are tagged "prefix:v"
    as `complexes.join` tags them.
    """
    vertices = tuple(f"{prefix}:{v}" for prefix, K in factors for v in K.vertices)
    tagged = [[frozenset(f"{prefix}:{v}" for v in f) for f in K.facets] for prefix, K in factors]
    facets = frozenset(frozenset().union(*combo) for combo in itertools.product(*tagged))
    return Complex(vertices, facets)
