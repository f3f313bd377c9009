"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import Counter
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


# The rational two-phase simplex that `lp._solve_nonneg` used before its
# tableau became integer and lost its phase 2.  It serves two oracles:
# `fraction_solve_nonneg`, its phase 1 alone, must make the pivots of the
# integer phase 1; `margin_lp_feasible`, the strict-margin LP that
# `lp.lp_feasible` solved before it homogenised strict rows, must give the
# same verdicts.  It is the old code with two additions: `log` receives
# (entering column, leaving column) for every pivot, and `events` counts
# the cases the oracle tests must cover (ratio ties, and artificials left
# basic at value 0 after phase 1).

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
    """Maximize with Bland's rule; z[-1] holds -(objective value)."""
    while True:
        enter = next((j for j in allowed if z[j] > 0), None)
        if enter is None:
            return -z[-1]
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
        _fraction_pivot(rows, basis, z, best_row, enter, log)


def _fraction_simplex(raw_rows, nvars, objective, log, events):
    """max objective over {x >= 0, rows} in `Fraction` arithmetic.

    Returns (feasible, x, value); with no objective it stops after phase 1.
    """
    nslack = sum(1 for _, rel, _ in raw_rows if rel == lp.LE)
    prepared = []
    s_at = nvars
    for coeffs, rel, rhs in raw_rows:
        row = list(coeffs) + [_ZERO] * nslack + [rhs]
        slack_col = None
        if rel == lp.LE:
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
    """Phase 1 in `Fraction` arithmetic; as `lp._solve_nonneg`, a point or None."""
    return _fraction_simplex(raw_rows, nvars, None, log, events)[1]


def margin_lp_feasible(constraints) -> bool:
    """Verdict of the strict-margin LP that `lp.lp_feasible` once solved.

    The free x = u - w; strict rows share a slack t, maximized subject to
    t <= 1, and the system is feasible iff phase 1 succeeds and t > 0.
    """
    cons = list(constraints)
    k = len(cons[0].coeffs)
    has_strict = any(c.relation == lp.LT for c in cons)
    nvars = 2 * k + has_strict
    rows = []
    for c in cons:
        coeffs = [*c.coeffs, *(-a for a in c.coeffs)]
        if has_strict:
            coeffs.append(_ONE if c.relation == lp.LT else _ZERO)
        rows.append((coeffs, lp.EQ if c.relation == lp.EQ else lp.LE, c.rhs))
    objective = None
    if has_strict:
        objective = [_ZERO] * (nvars - 1) + [_ONE]
        rows.append((objective, lp.LE, _ONE))
    feasible, _, value = _fraction_simplex(rows, nvars, objective, [], Counter())
    return feasible and (not has_strict or value > 0)


def gauss_jordan_solve(a, b):
    """Solve a square system by `Fraction` Gauss-Jordan; None if singular.

    The rational elimination `linalg.solve_square` used before it became
    fraction-free, kept as its oracle.
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

    The independent oracle for `linalg._gauss_jordan`: each pivot row is
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
    """`polytopes._canonical_row` as written with its own lcm and gcd loops,
    kept as the oracle for the version built on `linalg.integer_row`."""

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
