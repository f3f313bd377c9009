"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from galeproj import linalg, lp, polytopes
from galeproj.complexes import Complex, closure_from_facets
from galeproj.errors import (
    DimensionMismatch,
    EmptyPolytope,
    NotFullDimensional,
    RedundantRow,
    UnboundedPolytope,
)
from galeproj.gale import positively_spanning
from galeproj.linalg import Vec, frac, integer_row, mat, rank, vec, vsub
from galeproj.obstructions import Graph
from galeproj.polytopes import FaceRecord, HPolytope, h_vertices
from galeproj.projections import VertexRecord, g_vectors


# Systems of rows a.x <= b, a.x = b and a.x < b on free variables, the
# reference the strict-separation oracles below rest on.  It calls
# `lp._solve_nonneg` through the module, so a test that patches the phase 1
# patches it here too.

LE = "<="
EQ = "="
LT = "<"


@dataclass(frozen=True)
class LinConstraint:
    coeffs: Vec
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LE, EQ, LT):
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds(self, x: Vec) -> bool:
        lhs = fraction_dot(self.coeffs, x)
        if self.relation == LE:
            return lhs <= self.rhs
        if self.relation == EQ:
            return lhs == self.rhs
        return lhs < self.rhs


def le(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), LE, frac(rhs))


def eq(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), EQ, frac(rhs))


def lt(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), LT, frac(rhs))


@dataclass(frozen=True)
class StrictResult:
    witness: Vec | None

    @property
    def feasible(self) -> bool:
        return self.witness is not None


def strict_lp_feasible(constraints: Iterable[LinConstraint], dim: int | None = None) -> StrictResult:
    """Exact feasibility verdict, with a re-checked point, for a finite system.

    The system is homogenised onto one phase 1: x = y / lam with y = u - w
    free and lam = 1 + mu >= 1, where u, w, mu >= 0.  A row a.x <= b (or
    = b) becomes a.y - b*mu <= b (or = b), and a strict row a.x < b becomes
    a.y - b*mu <= b - 1, so a.x <= b - 1/lam < b.  Conversely a point x
    with strict slack delta > 0 gives lam = max(1, 1/delta) and y = lam x.
    Phase 1 takes equality rows only, so each <= row gets a slack s >= 0
    of its own: a.y - b*mu + s = b (or b - 1).
    """
    cons = list(constraints)
    dims = {len(c.coeffs) for c in cons}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed constraint dimensions {sorted(dims)}")
    k = dims.pop() if dims else dim
    if k is None:
        raise DimensionMismatch("empty system with no declared dimension")
    if dim is not None and dim != k:
        raise DimensionMismatch(f"declared dim {dim} != constraint dim {k}")

    # variables: u_1..u_k, w_1..w_k, mu, then one slack per <= or < row
    slacked = [i for i, c in enumerate(cons) if c.relation != EQ]
    rows = []
    for i, c in enumerate(cons):
        rhs = c.rhs - 1 if c.relation == LT else c.rhs
        slacks = [int(i == s) for s in slacked]
        rows.append(integer_row([*c.coeffs, *(-a for a in c.coeffs), -c.rhs, *slacks, rhs])[0])
    y = rational_point(lp._solve_nonneg(rows, 2 * k + 1 + len(slacked)))
    if y is None:
        return StrictResult(None)
    lam = 1 + y[2 * k]
    witness = tuple((y[j] - y[k + j]) / lam for j in range(k))
    if not all(c.holds(witness) for c in cons):
        raise AssertionError("simplex returned an invalid witness")
    return StrictResult(witness)


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
            cons.append(eq(row, 0))
        else:
            cons.append(lt(row, 0))
    return strict_lp_feasible(cons, dim=d + 1).feasible


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
        cons = [lt(vsub(q, p), 0) for q in others]
        if strict_lp_feasible(cons, dim=len(p)).feasible:
            out.add(i)
    return out


def full_survival_census(P, proj) -> tuple[tuple[VertexRecord, ...], tuple[VertexRecord, ...]]:
    """Both vertex censuses of P under proj, every question asked.

    The g-vector side asks the spanning and the convex-hull question of
    every vertex, on the rational g-vectors; the image side takes the hull
    of the distinct images by `separation_hull_vertices` and runs the
    spanning test on the shifted images of every vertex, hull vertex or
    not.  Test oracle for the shortcuts of `vertex_survival_census` and
    `oracle_survival`, which the two sides must equal record for record.
    """
    records = h_vertices(P)
    G = g_vectors(P, proj)
    g = dict(zip(G.labels, G.vectors))
    origin = (0,) * G.dim
    g_side = []
    for r in records:
        w = [g[label] for label in r.tight_facets]
        strict = positively_spanning(w)
        preserved = convex_combination(w, origin) is not None
        g_side.append(VertexRecord(r.tight_facets, strict, preserved))
    images = [fraction_mat_vec(proj, r.vertex_coords) for r in records]
    distinct = sorted(set(images))
    hull_values = {distinct[i] for i in separation_hull_vertices(distinct)}
    image_side = []
    for r, img in zip(records, images):
        strict = img in hull_values and images.count(img) == 1
        shifted = [vsub(w, img) for w in distinct if w != img]
        image_side.append(VertexRecord(r.tight_facets, strict, not shifted or not positively_spanning(shifted)))
    return tuple(g_side), tuple(image_side)


def fraction_slacks(P, x) -> list[Fraction]:
    """The slack b_i - a_i.x of every row of the H-polytope P, in `Fraction`
    arithmetic: x lies in P iff none is negative, and a row is tight iff its
    slack is 0 (test oracle for `HPolytope.vertex_records`)."""
    return [bi - sum((Fraction(ai) * xi for ai, xi in zip(a, x)), Fraction(0)) for a, bi in zip(P.A, P.b)]


def normal_cone_oracle(choice, polys) -> bool:
    """Minkowski vertex test by the direct strict-separation LP.

    Some c with c.(w - v_i) < 0 for every other point w of each summand,
    i.e. the open normal cones of the chosen points meet; the primal side
    of the Gordan alternative that `minkowski_vertex_test` decides.
    """
    cons = []
    for idx, Q in zip(choice, polys):
        v = Q.points[idx]
        cons.extend(lt(vsub(w, v), 0) for w in Q.points if w != v)
    return strict_lp_feasible(cons, dim=polys[0].dim).feasible


def rational_point(point) -> list[Fraction] | None:
    """The rational point x = num / D of phase 1's integer point (num, D),
    as `lp._solve_nonneg` and `lp.nonneg_combination` return it, or None."""
    if point is None:
        return None
    num, D = point
    return [Fraction(n, D) for n in num]


def cone_combination(vectors, target) -> list[Fraction] | None:
    """Coefficients lam >= 0 with sum(lam_i * v_i) = target, or None: the
    cone membership system, one row per coordinate, on `lp.nonneg_combination`."""
    vectors = list(vectors)
    columns = zip(*vectors) if vectors else [()] * len(target)
    return rational_point(lp.nonneg_combination(list(zip(columns, target)), len(vectors)))


def convex_combination(points, target) -> list[Fraction] | None:
    """Coefficients lam >= 0 with sum(lam_i * p_i) = target and
    sum(lam_i) = 1, or None: the convex membership system, one row per
    coordinate and the row of ones, on `lp.nonneg_combination`."""
    points = list(points)
    columns = zip(*points) if points else [()] * len(target)
    return rational_point(lp.nonneg_combination([*zip(columns, target), ([1] * len(points), 1)], len(points)))


def spans_positively_primal(vectors) -> bool:
    """Primal oracle: +-e_j in cone(W) for every coordinate direction."""
    e = len(vectors[0])
    for j in range(e):
        for s in (1, -1):
            target = tuple(Fraction(s if c == j else 0) for c in range(e))
            if cone_combination(vectors, target) is None:
                return False
    return True


def signed_systems_spanning(vectors) -> bool:
    """Dual oracle: the 2e strict systems `gale.positively_spanning` once solved.

    W spans positively iff no nonzero c has <c, w> <= 0 for all w; such a
    c has some coordinate of some sign, so one strict system per signed
    coordinate settles it.
    """
    e = len(vectors[0])
    base = [le(w, 0) for w in vectors]
    for j in range(e):
        for s in (1, -1):
            direction = [Fraction(0)] * e
            direction[j] = Fraction(-s)
            if strict_lp_feasible(base + [lt(direction, 0)]).feasible:
                return False
    return True


def strictly_positive_dependence(vectors) -> bool:
    """Oracle for the dependence verdict of `gale._ask`: some lam with
    every lam_i > 0 has sum lam_i w_i = 0, decided as one strict system in
    lam."""
    m = len(vectors)
    cons = [eq([w[r] for w in vectors], 0) for r in range(len(vectors[0]))]
    cons += [lt([-int(i == j) for j in range(m)], 0) for i in range(m)]
    return strict_lp_feasible(cons).feasible


def farkas_dependent(vectors) -> bool:
    """The `lp_feasible` Farkas system `gale._ask` asks of the rays off the
    plane, asked of the vectors as given in any dimension: no c with
    <c, w> <= 0 for all w and <c, sum W> <= -1.  With `rank`, the oracle
    of the planar angular sort."""
    total = [sum(column) for column in zip(*vectors)]
    return not lp.lp_feasible([(w, 0) for w in vectors] + [(total, -1)]).feasible


def brute_minimal_nonfaces(K: Complex) -> set[frozenset]:
    """Reference implementation scanning every vertex subset."""
    verts = list(K.vertices)
    out = set()
    for size in range(len(verts) + 1):
        for cand in itertools.combinations(verts, size):
            c = frozenset(cand)
            if K.is_face(c):
                continue
            if all(K.is_face(c - {x}) for x in c):
                out.add(c)
    return out


def pairwise_antichain(sets) -> frozenset:
    """Inclusion-maximal sets by comparing each with every kept set.

    The loop `complexes._antichain` ran before it skipped the kept sets
    of the same size, kept as its oracle.
    """
    kept = []
    for s in sorted(set(sets), key=len, reverse=True):
        if not any(s < t or s == t for t in kept):
            kept.append(s)
    return frozenset(kept)


def materialised_join(factors) -> Complex:
    """Join as a plain Complex: every union of one tagged facet per factor.

    `factors` holds (prefix, complex) pairs; labels are tagged "prefix:v"
    as `complexes.Join` tags them.
    """
    vertices = tuple(f"{prefix}:{v}" for prefix, K in factors for v in K.vertices)
    tagged = [[frozenset(f"{prefix}:{v}" for v in f) for f in K.facets] for prefix, K in factors]
    facets = frozenset(frozenset().union(*combo) for combo in itertools.product(*tagged))
    return Complex(vertices, facets)


def faces(K: Complex) -> set[frozenset]:
    """Every face of K: each subset of each facet."""
    return {frozenset(c) for f in K.facets for r in range(len(f) + 1) for c in itertools.combinations(f, r)}


def deleted_join(K: Complex) -> Complex:
    """Deleted join of K as a plain Complex: the disjoint face pairs, on
    two copies of the vertices tagged "1:v" and "2:v".

    Every maximal pair has the form (sigma, G - sigma) with G a facet, so
    the antichain of those pairs is the facet set.
    """
    vertices = tuple(f"{k}:{v}" for k in (1, 2) for v in K.vertices)
    pairs = (
        frozenset(f"1:{v}" for v in sigma) | frozenset(f"2:{v}" for v in g - sigma)
        for sigma in faces(K)
        for g in K.facets
    )
    return closure_from_facets(vertices, pairs)


def full_simplex(n: int) -> Complex:
    """The simplex with vertices 1..n (a single facet)."""
    if n < 1:
        raise ValueError("full_simplex needs n >= 1")
    return Complex(tuple(range(1, n + 1)), frozenset([frozenset(range(1, n + 1))]))


def simplex_boundary(n: int) -> Complex:
    """Boundary of the simplex on vertices 1..n: all (n-1)-subsets."""
    if n < 1:
        raise ValueError("simplex_boundary needs n >= 1")
    facets = frozenset(frozenset(c) for c in itertools.combinations(range(1, n + 1), n - 1))
    return Complex(tuple(range(1, n + 1)), facets)


def graph(vertices, edges) -> Graph:
    return Graph(tuple(vertices), frozenset(frozenset(e) for e in edges))


def brute_chromatic_number(G: Graph) -> int:
    """Least k with a proper k-coloring, by trying every assignment.

    The reference for `obstructions.chromatic_number`; at most 6 vertices.
    """
    n = len(G.vertices)
    if n > 6:
        raise ValueError("brute_chromatic_number is for graphs with at most 6 vertices")
    index = {v: i for i, v in enumerate(G.vertices)}
    edges = [tuple(index[v] for v in e) for e in G.edges]
    for k in range(n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if all(colors[a] != colors[b] for a, b in edges):
                return k
    raise AssertionError("n colors always suffice")


def inclusion_exclusion_chromatic_number(G: Graph) -> int:
    """Least k such that k independent sets cover G, by inclusion-exclusion.

    Bjorklund-Husfeldt-Koivisto: with i(X) the number of independent sets
    inside X (the empty one included), sum over X of (-1)^|V - X| i(X)^k
    counts the k-tuples of independent sets covering V, which is positive
    iff chi <= k.  The reference for `obstructions.chromatic_number` on
    graphs of up to 12 vertices.
    """
    n = len(G.vertices)
    if n > 12:
        raise ValueError("inclusion_exclusion_chromatic_number is for graphs with at most 12 vertices")
    index = {v: i for i, v in enumerate(G.vertices)}
    closed = [1 << i for i in range(n)]  # closed neighbourhoods as bitmasks
    for e in G.edges:
        a, b = (index[v] for v in e)
        closed[a] |= 1 << b
        closed[b] |= 1 << a
    # i(X) = i(X - v) + i(X - N[v]) for the lowest vertex v of X
    indep = [1] * (1 << n)
    for X in range(1, 1 << n):
        v = (X & -X).bit_length() - 1
        indep[X] = indep[X & ~(1 << v)] + indep[X & ~closed[v]]
    for k in range(n + 1):
        if sum((-1) ** (n - X.bit_count()) * indep[X] ** k for X in range(1 << n)) > 0:
            return k
    raise AssertionError("n colors always suffice")


def bipartite_sum(G: Graph, H: Graph) -> Graph:
    """Disjoint union plus all cross edges; vertices tagged ("1", v), ("2", v).

    The reference for chi-additivity: `obstructions.nonface_kneser_chi`
    adds factor chromatic numbers instead of building this graph.
    """
    gv = [("1", v) for v in G.vertices]
    hv = [("2", v) for v in H.vertices]
    edges = {frozenset([("1", a), ("1", b)]) for a, b in map(tuple, G.edges)}
    edges |= {frozenset([("2", a), ("2", b)]) for a, b in map(tuple, H.edges)}
    edges |= {frozenset([u, v]) for u in gv for v in hv}
    return Graph(tuple(gv) + tuple(hv), frozenset(edges))


# The rational two-phase simplex that `lp._solve_nonneg` used before its
# tableau became integer and lost its phase 2.  It serves two oracles:
# `fraction_solve_nonneg`, its phase 1 alone, must make the pivots of the
# integer phase 1; `margin_lp_feasible`, the strict-margin LP that
# `strict_lp_feasible` solved before it homogenised strict rows, must give the
# same verdicts.  It is the old code priced as the integer kernel prices,
# by Dantzig's rule with a Bland fallback after more than len(allowed)
# consecutive degenerate pivots, with two additions: `log` receives
# (entering column, leaving column) for every pivot, and `events` counts
# the cases the oracle tests must cover (ratio ties, entering ties where
# several columns share the largest reduced cost, pivots priced by the
# fallback, and artificials left basic at value 0 after phase 1).

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fraction_pivot(rows, basis, z, r, c, log):
    log.append((c, basis[r]))
    piv_row = rows[r]
    piv = piv_row[c]
    piv_row = [x / piv for x in piv_row]
    rows[r] = piv_row
    for i, other in enumerate(rows):
        if i != r and other[c] != 0:
            f = other[c]
            rows[i] = [x - f * y for x, y in zip(other, piv_row)]
    if z[c] != 0:
        f = z[c]
        z[:] = [x - f * y for x, y in zip(z, piv_row)]
    basis[r] = c


def _fraction_reduce_objective(rows, basis, z):
    for i, b in enumerate(basis):
        if z[b] != 0:
            f = z[b]
            z[:] = [x - f * y for x, y in zip(z, rows[i])]


def _fraction_simplex_max(rows, basis, z, allowed, log, events):
    """Maximize by Dantzig's rule with a Bland fallback; z[-1] holds -(objective value)."""
    degenerate = 0
    while True:
        improving = [j for j in allowed if z[j] > 0]
        if not improving:
            return -z[-1]
        if degenerate > len(allowed):
            events["fallback"] += 1
            enter = improving[0]
        else:
            top = max(z[j] for j in improving)
            entering = [j for j in improving if z[j] == top]
            if len(entering) > 1:
                events["entering tie"] += 1
            enter = entering[0]
        best_ratio = None
        best_row = -1
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best_ratio is not None and ratio == best_ratio:
                    events["tie"] += 1
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_ratio is None:
            raise AssertionError("capped objective cannot be unbounded")
        degenerate = degenerate + 1 if best_ratio == 0 else 0
        _fraction_pivot(rows, basis, z, best_row, enter, log)


def _fraction_simplex(raw_rows, nvars, objective, log, events):
    """max objective over {x >= 0, rows} in `Fraction` arithmetic.

    Returns (feasible, x, value); with no objective it stops after phase 1.
    """
    nslack = sum(1 for _, rel, _ in raw_rows if rel == LE)
    prepared = []
    s_at = nvars
    for coeffs, rel, rhs in raw_rows:
        row = list(coeffs) + [_ZERO] * nslack + [rhs]
        slack_col = None
        if rel == LE:
            row[s_at] = _ONE
            slack_col = s_at
            s_at += 1
        if row[-1] < 0:
            row = [-x for x in row]
        prepared.append((row, slack_col))

    nart = sum(1 for row, sc in prepared if sc is None or row[sc] < 0)
    width = nvars + nslack + nart
    rows = []
    basis = []
    art_start = nvars + nslack
    a_at = art_start
    for row, slack_col in prepared:
        full = row[:-1] + [_ZERO] * nart + [row[-1]]
        if slack_col is not None and full[slack_col] > 0:
            basis.append(slack_col)
        else:
            full[a_at] = _ONE
            basis.append(a_at)
            a_at += 1
        rows.append(full)

    allowed = list(range(art_start))
    if nart:
        z = [_ZERO] * (width + 1)
        for j in range(art_start, width):
            z[j] = Fraction(-1)
        _fraction_reduce_objective(rows, basis, z)
        if _fraction_simplex_max(rows, basis, z, allowed, log, events) < 0:
            return False, None, None
        events["artificial left basic"] += sum(1 for b in basis if b >= art_start)
        if objective is not None:
            # pivot leftover zero-valued artificials out of the basis for phase 2
            for i in range(len(rows)):
                if basis[i] >= art_start:
                    c = next((j for j in allowed if rows[i][j] != 0), None)
                    if c is not None:
                        _fraction_pivot(rows, basis, z, i, c, log)

    value = None
    if objective is not None:
        z = list(objective) + [_ZERO] * (width - nvars + 1)
        _fraction_reduce_objective(rows, basis, z)
        value = _fraction_simplex_max(rows, basis, z, allowed, log, events)

    x = [_ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = rows[i][-1]
    return True, x, value


def fraction_solve_nonneg(raw_rows, nvars, log, events):
    """Phase 1 in `Fraction` arithmetic: the rational point of `lp._solve_nonneg`, or None."""
    return _fraction_simplex(raw_rows, nvars, None, log, events)[1]


def margin_lp_feasible(constraints) -> bool:
    """Verdict of the strict-margin LP that `strict_lp_feasible` once solved.

    The free x = u - w; strict rows share a slack t, maximized subject to
    t <= 1, and the system is feasible iff phase 1 succeeds and t > 0.
    """
    cons = list(constraints)
    k = len(cons[0].coeffs)
    has_strict = any(c.relation == LT for c in cons)
    nvars = 2 * k + has_strict
    rows = []
    for c in cons:
        coeffs = [*c.coeffs, *(-a for a in c.coeffs)]
        if has_strict:
            coeffs.append(_ONE if c.relation == LT else _ZERO)
        rows.append((coeffs, EQ if c.relation == EQ else LE, c.rhs))
    objective = None
    if has_strict:
        objective = [_ZERO] * (nvars - 1) + [_ONE]
        rows.append((objective, LE, _ONE))
    feasible, _, value = _fraction_simplex(rows, nvars, objective, [], Counter())
    return feasible and (not has_strict or value > 0)


def generator_integer_row(row) -> tuple[list[int], int]:
    """(lam * row, lam) for lam the lcm of the row's denominators.

    `linalg.integer_row` as it decided the all-int pass-through before,
    by one `all(...)` generator over the row, kept as its oracle.
    """
    row = list(row)
    if all(type(x) is int for x in row):
        return row, 1
    lam = lcm(*(x.denominator for x in row))
    if lam == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (lam // x.denominator) for x in row], lam


def fraction_dot(u, v) -> Fraction:
    """u . v summed term by term in `Fraction` arithmetic."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def fraction_mat_vec(m, x) -> tuple[Fraction, ...]:
    """m x summed entry by entry in `Fraction` arithmetic (oracle for `linalg.mat_vec`)."""
    return tuple(fraction_dot(row, x) for row in m)


def gauss_jordan_solve(a, b):
    """Solve a square system by `Fraction` Gauss-Jordan; None if singular.

    The rational elimination `linalg.solve_square` used before it became
    fraction-free (it is now one `linalg.basic_solutions` subset), kept as
    its oracle.
    """
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                fac = aug[i][c]
                aug[i] = [x - fac * y for x, y in zip(aug[i], aug[c])]
    return tuple(row[n] for row in aug)


def fraction_rref(m):
    """Reduced row echelon form by `Fraction` elimination, with pivot columns.

    The independent oracle for `linalg._echelon`: each pivot row is
    divided by its pivot, and the pivot column is cleared in every other row.
    """
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                fac = rows[i][c]
                rows[i] = [x - fac * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rref_kernel(m):
    """Kernel vectors from the RREF: 1 at a free column, -rref[r][f] at pivot r."""
    rows, pivots = fraction_rref(m)
    n = len(m[0])
    out = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            x[p] = -row[f]
        out.append(tuple(x))
    return out


def lcm_gcd_canonical_row(a, beta):
    """(a, beta) scaled by a positive rational to coprime integer form, by
    its own lcm and gcd loops: the row form of `facet_description`."""

    def gcd(x, y):
        while y:
            x, y = y, x % y
        return x

    denom = 1
    for x in tuple(a) + (beta,):
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in a] + [int(beta * denom)]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def facet_description(points) -> HPolytope:
    """Exact H-representation of the hull of a full-dimensional point set
    in R^n, n >= 2.

    Brute force over n-subsets spanning candidate hyperplanes, each normal
    the `rref_kernel` of the differences; a candidate survives if all points
    lie on one side.  Rows in `lcm_gcd_canonical_row` form, sorted, so the
    labels follow the rows.  Only for desk-scale fixtures.
    """
    pts = [vec(p) for p in points]
    rows = set()
    for subset in itertools.combinations(pts, len(pts[0])):
        kernel = rref_kernel([vsub(p, subset[0]) for p in subset[1:]])
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        beta = fraction_dot(normal, subset[0])
        values = [fraction_dot(normal, p) for p in pts]
        if all(v <= beta for v in values):
            rows.add(lcm_gcd_canonical_row(normal, beta))
        if all(v >= beta for v in values):
            rows.add(lcm_gcd_canonical_row(tuple(-x for x in normal), -beta))
    ordered = sorted(rows)
    return HPolytope([r[0] for r in ordered], [r[1] for r in ordered])


def lp_validation(A, b, labels) -> None:
    """The LP validation `HPolytope` ran before its vertex records decided.

    Raises what `HPolytope(A, b, labels)` raises, with the same message,
    from LPs alone: the (y, mu) interior system, the emptiness LP, the
    spanning test and one cone-form Farkas LP per row.  Entries are ints
    or Fractions; labels are distinct, one per row.
    """
    n = len(A[0])
    # Ax < b has a point iff some (y, mu), mu >= 0, has a.y - b*mu <= b - 1
    # on every row: x = y / (1 + mu) then has a.x <= b - 1/(1 + mu) < b, and
    # a point x with least slack delta > 0 gives 1 + mu = max(1, 1/delta),
    # y = (1 + mu) x
    rows = [((*a, -bi), bi - 1) for a, bi in zip(A, b)]
    if not lp.lp_feasible(rows + [((0,) * n + (-1,), 0)]).feasible:
        if not lp.lp_feasible(list(zip(A, b))).feasible:
            raise EmptyPolytope("the inequality system has no solution")
        raise NotFullDimensional("the solution set has empty interior")
    if not positively_spanning(A):
        raise UnboundedPolytope("the solution set is unbounded")
    # Farkas in cone form: row i is implied by the others, so defines no
    # facet, iff (a_i, b_i) lies in cone{(a_r, b_r) : r != i} + cone{(0, 1)}
    lifted = [(*a, bi) for a, bi in zip(A, b)]
    up = (0,) * n + (1,)
    for i, label in enumerate(labels):
        if cone_combination([*lifted[:i], *lifted[i + 1:], up], lifted[i]) is not None:
            raise RedundantRow(f"row with label {label} defines no facet")


def subset_basic_solutions(rows) -> list[tuple[tuple[int, ...], int]]:
    """The (num, L) of each nonsingular n-subset of the integer rows
    [a | b], in lexicographic subset order, each subset solved from scratch
    by `Fraction` Gauss-Jordan: the oracle for `linalg.basic_solutions`."""
    n = len(rows[0]) - 1
    out = []
    for subset in itertools.combinations(rows, n):
        x = gauss_jordan_solve([row[:-1] for row in subset], [row[-1] for row in subset])
        if x is not None:
            num, L = integer_row(x)
            out.append((tuple(num), L))
    return out


def subset_vertex_records(P: HPolytope) -> tuple[FaceRecord, ...]:
    """The vertex records of P by the route `HPolytope.vertex_records`
    took before `linalg.basic_solutions`: each of the C(m, n) row subsets
    solved on its own (by `gauss_jordan_solve`, whose answers are
    `linalg.solve_square`'s), the feasible solutions kept, merged by their
    integer form and given every row tight there.  The reference the
    prefix tree is checked against, record for record."""
    rows = [integer_row((*a, bi))[0] for a, bi in zip(P.A, P.b)]
    seen = set()
    found = []
    for subset in itertools.combinations(range(len(rows)), P.dim):
        x = gauss_jordan_solve([rows[i][:-1] for i in subset], [rows[i][-1] for i in subset])
        if x is None:
            continue
        num, L = integer_row(x)
        key = (*num, L)
        if key in seen:
            continue
        seen.add(key)
        slacks = [row[-1] * L - sum(a * v for a, v in zip(row, num)) for row in rows]
        if min(slacks) >= 0:
            tight = frozenset(label for label, s in zip(P.facet_labels, slacks) if s == 0)
            found.append(FaceRecord(tight, x))
    return tuple(sorted(found, key=lambda rec: rec.vertex_coords))


def count_vertex_walks(monkeypatch) -> Counter:
    """Count `basic_solutions` calls made through `polytopes` ("walks") and
    the work of their prefix trees: the rows added to a prefix
    ("reductions"), the prefixes a row made singular, whose subtrees are
    dropped ("pruned"), and the nonsingular subsets ("leaves")."""
    counts = Counter()
    walk, add_row = linalg.basic_solutions, linalg._add_row
    walking = False

    def counting_walk(rows):
        nonlocal walking
        counts["walks"] += 1
        walking = True
        try:
            out = walk(rows)
        finally:
            walking = False
        counts["leaves"] += len(out)
        return out

    def counting_add_row(*args):
        step = add_row(*args)
        # `rank` and `kernel_basis` step through `_add_row` too; only the
        # walk's rows are counted
        if walking:
            counts["reductions"] += 1
            counts["pruned"] += step is None
        return step

    monkeypatch.setattr(polytopes, "basic_solutions", counting_walk)
    monkeypatch.setattr(linalg, "_add_row", counting_add_row)
    return counts


def simplex_power(d: int, seed: int | None = None) -> HPolytope:
    """(Delta_d)^d in R^(d*d), block j the simplex {x >= -1, sum x <= 1} on
    coordinates jd..jd+d-1, with 0 inside.  With a seed, each row also gets
    entries in the other blocks' coordinates, drawn from [-3/40, 3/40]: a
    coupled product, which the small entries keep bounded, full-dimensional
    and irredundant."""
    rng = random.Random(seed)
    n = d * d
    A = []
    for j in range(d):
        for i in range(d + 1):
            row = [Fraction(rng.randint(-3, 3), 40) if seed is not None and c // d != j else 0 for c in range(n)]
            for c in range(j * d, j * d + d):
                row[c] = 1 if i == d else -(c - j * d == i)
            A.append(row)
    return HPolytope(A, [1] * len(A))
