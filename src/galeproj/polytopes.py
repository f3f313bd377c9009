"""Polytopes in H- and V-representation with exact vertex enumeration.

H-polytopes are validated on construction: the solution set must be
nonempty, bounded and full-dimensional, and every row must define a facet.
One spanning test decides boundedness.  A bounded system's vertex records
then decide the other three verdicts (see `HPolytope._validate`), so the
constructor enumerates the vertices: one `linalg.basic_solutions` walk
over the C(m, n) row subsets of m rows in R^n, which shares each prefix's
elimination among the subsets that extend it and drops every subset
holding a dependent prefix.  `H_VERTEX_CAP` bounds C(m, n), and the
constructor checks it before any other work.

In the plane, `planar_hull` takes hulls by integer cross products, and
`normal_fan_tuples` reads the vertex tuples of a Minkowski sum off the
summands' normal fans; neither asks an LP.  In other dimensions the
Gordan LP of `minkowski_vertex_test` decides both.
"""

from __future__ import annotations

import itertools
from functools import cached_property, cmp_to_key
from fractions import Fraction
from math import comb, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import lp
from .complexes import Complex, closure_from_facets
from .errors import (
    DimensionMismatch,
    DuplicateLabels,
    EmptyPolytope,
    HypothesisViolated,
    IndexOutOfRange,
    NotFullDimensional,
    Record,
    RedundantRow,
    TooLargeForExact,
    UnboundedPolytope,
)
from .gale import positively_spanning
from .linalg import (
    Mat,
    Vec,
    basic_solutions,
    cross,
    integer_points,
    integer_row,
    mat,
    primitive,
    sort_by_angle,
    vec,
    vsub,
)

# row subsets C(m, n) of an H-polytope's vertex enumeration.  Construction
# took 2-10 us per subset on systems tangent to a sphere in R^3 to R^8 and
# 150-200 us on a coupled (Delta_4)^4 in R^16, so a system at the cap takes
# up to about a minute on a 2-core host
H_VERTEX_CAP = 300_000


class VPolytope(Record):
    """Convex hull of a finite point set (points need not all be vertices)."""

    _fields = ("points", "dim")
    points: tuple[Vec, ...]
    dim: int

    def __init__(self, points: Iterable[Iterable]):
        pts = tuple(vec(p) for p in points)
        if not pts:
            raise EmptyPolytope("a V-polytope needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("points with mixed dimensions")
        if len(set(pts)) != len(pts):
            raise DuplicateLabels("points must be pairwise distinct")
        self.__dict__.update(points=pts, dim=n)

    @cached_property
    def differences(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For each point v, the differences w - v over the other points w.

        Each is the primitive integer vector on its ray: the points are
        scaled by the lcm of their denominators, which grows with their
        number, and each difference is divided by its gcd.  Positive
        scalings keep the Gordan verdicts.  Built on first read and kept in
        the instance dict, as `HPolytope.vertex_records` is, where `==` and
        `hash` do not look: they compare `points` and `dim` alone.
        """
        pts = integer_points(self.points)
        return tuple(tuple(primitive(vsub(w, v)) for w in pts if w != v) for v in pts)


class FaceRecord(NamedTuple):
    tight_facets: frozenset[int]
    vertex_coords: Vec


class HPolytope(Record):
    """Bounded full-dimensional {x : Ax <= b} with facet-defining rows.

    The constructor checks all four properties and raises `EmptyPolytope`,
    `NotFullDimensional`, `UnboundedPolytope` or `RedundantRow` (naming the
    first row, in order, that defines no facet).  Boundedness is one
    spanning test on the rows.  A bounded system is pointed, so its vertex
    records are exact, and they decide the rest: no record means empty, a
    row tight at every vertex means flat, and a row whose tight vertices
    are none, or lie among another row's, defines no facet.  So
    construction runs the `basic_solutions` walk of `vertex_records` over
    the C(m, n) row subsets, and the records are kept for every later
    read.  A system with C(m, n) past `H_VERTEX_CAP` raises
    `TooLargeForExact` before any of this.  Only an unbounded system asks
    LPs for emptiness and flatness.

    Each row [a | b] is scaled to integers once, by `integer_row`, and
    kept on the instance beside the rational `A` and `b`, out of `==` and
    `hash`.  A positive scaling of a row keeps its half-space, its ray
    and the points where it is tight, so the walk and the spanning test
    read those rows.
    """

    _fields = ("A", "b", "facet_labels")
    A: Mat
    b: Vec
    facet_labels: tuple[int, ...]

    def __init__(self, A: Iterable[Iterable], b: Iterable, facet_labels: Sequence[int] | None = None):
        A = mat(A)
        b = vec(b)
        if not A or len(A) != len(b):
            raise DimensionMismatch("need one rhs entry per row")
        m, n = len(A), len(A[0])
        if not n:
            raise DimensionMismatch("an H-polytope needs at least one coordinate")
        labels = tuple(facet_labels) if facet_labels is not None else tuple(range(1, m + 1))
        if len(labels) != m or len(set(labels)) != m:
            raise DuplicateLabels("facet labels must be distinct, one per row")
        if comb(m, n) > H_VERTEX_CAP:
            raise TooLargeForExact(
                f"H-vertex enumeration of {m} rows in R^{n} (C({m}, {n}) = {comb(m, n)} row subsets)"
                f" exceeds the cap {H_VERTEX_CAP}"
            )
        rows = tuple(integer_row((*a, bi))[0] for a, bi in zip(A, b))
        self.__dict__.update(A=A, b=b, facet_labels=labels, _rows=rows)
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.A[0])

    @cached_property
    def vertex_records(self) -> tuple[FaceRecord, ...]:
        """Vertex records, enumerated once and kept on the instance.

        The first read is `_validate`'s, in the constructor, on a system
        it has proved bounded.

        One `basic_solutions` call on the integer rows gives the basic
        solution x = num / L of every nonsingular n-subset of rows; the
        feasible ones are kept, duplicates merged, and tightness recomputed
        against every row, so non-simple vertices come out with
        |I(v)| > n.  The slack scan of a point stops at its first violated
        row.  Ordered by coordinates, compared in integers by
        `_compare_points`.  Like `VectorConfig.is_gale`,
        the value lives in the instance dict, where `==` and `hash` do not
        look: they compare `A`, `b` and `facet_labels` alone.  The slack
        b' * L - a'.num of an integer row [a' | b'] is b - a.x times a
        positive number, so its sign gives feasibility and tightness.  The
        pair (num, L), L the lcm of the denominators of x, is x's own
        integer form, so basic solutions are merged by it, not by the
        coordinates.
        """
        rows = self._rows
        seen: set[tuple[tuple[int, ...], int]] = set()
        found = []
        for key in basic_solutions(rows):
            if key in seen:
                continue
            seen.add(key)
            num, L = key
            tight = []
            for label, row in zip(self.facet_labels, rows):
                # num has one entry per coordinate, so map leaves b' out of the sum
                slack = row[-1] * L - sum(map(mul, row, num))
                if slack < 0:
                    break
                if slack == 0:
                    tight.append(label)
            else:
                found.append((num, L, frozenset(tight)))
        found.sort(key=cmp_to_key(_compare_points))
        return tuple(FaceRecord(tight, tuple(Fraction(x, L) for x in num)) for num, L, tight in found)

    def _validate(self) -> None:
        """Raise EmptyPolytope, NotFullDimensional, UnboundedPolytope or
        RedundantRow, the first that applies in that order.

        Boundedness is tested first, by one spanning test: the recession cone
        {Ax <= 0} is {0} iff the rows positively span R^n (Davis 1954).
        The test reads the a-parts of the integer rows, a positive scaling
        of each row, which keeps the rank and the cone.

        A bounded system has rank n, so its solution set P is pointed: a
        nonempty P has a vertex, its vertices are its feasible basic
        solutions, and P is their hull.  `vertex_records` finds every one,
        each with all the rows tight there.  So (Ziegler, *Lectures on
        Polytopes*, Sec. 2.1):
        - P is empty iff there is no record;
        - P is lower-dimensional iff some row is tight on all of P, an
          implicit equality, and a row is tight on P iff it is tight at
          every vertex;
        - for a full-dimensional P, let V_i be the vertices where row i is
          tight, and F_i = conv V_i its face.  Dropping row i leaves P as
          it is iff F_i is not a facet, or is a facet that another row
          also defines.  That holds iff V_i is empty or V_i lies in some
          V_j, j != i.  If F_i is a facet defined by row j too, V_i = V_j.
          If F_i is a nonempty face but no facet, it lies in a facet, and
          a row j != i defines that facet.  Conversely, if a nonempty V_i
          lies in V_j, then F_i lies in F_j, a proper face as P is
          full-dimensional; so F_i is no facet, or F_i = F_j.
        The rows are scanned in order, so the label named is the first row
        the Farkas test "row i is implied by the others" would flag.

        An unbounded system may have no vertex at all, so its records say
        nothing; there the emptiness and interior LPs decide, and only
        then is it reported unbounded.
        """
        if not positively_spanning([row[:-1] for row in self._rows]):
            n = self.dim
            # Ax < b has a point iff some (y, mu), mu >= 0, has a.y - b*mu <= b - 1
            # on every row: x = y / (1 + mu) then has a.x <= b - 1/(1 + mu) < b, and
            # a point x with least slack delta > 0 gives 1 + mu = max(1, 1/delta),
            # y = (1 + mu) x
            rows = [((*a, -bi), bi - 1) for a, bi in zip(self.A, self.b)]
            if not lp.lp_feasible(rows + [((0,) * n + (-1,), 0)]).feasible:
                if not lp.lp_feasible(list(zip(self.A, self.b))).feasible:
                    raise EmptyPolytope("the inequality system has no solution")
                raise NotFullDimensional("the solution set has empty interior")
            raise UnboundedPolytope("the solution set is unbounded")
        records = self.vertex_records
        if not records:
            raise EmptyPolytope("the inequality system has no solution")
        # bit k of tight[label] is set iff the row is tight at vertex k
        tight = dict.fromkeys(self.facet_labels, 0)
        for k, rec in enumerate(records):
            for label in rec.tight_facets:
                tight[label] |= 1 << k
        if (1 << len(records)) - 1 in tight.values():
            raise NotFullDimensional("the solution set has empty interior")
        # a bounded system has n + 1 >= 2 rows, and no tight vertex at all is
        # a subset of every other row's
        for label, mine in tight.items():
            if any(mine | other == other for o, other in tight.items() if o != label):
                raise RedundantRow(f"row with label {label} defines no facet")


def _compare_points(u: tuple, v: tuple) -> int:
    """The lexicographic order of two points num / L, each given as
    (num, L, ...) with L > 0: the sign of the first nonzero
    num_u[j] L_v - num_v[j] L_u, so no common denominator is formed."""
    for x, y in zip(u[0], v[0]):
        diff = x * v[1] - y * u[1]
        if diff:
            return diff
    return 0


def h_vertices(P: HPolytope) -> tuple[FaceRecord, ...]:
    """All vertices with exact coordinates and full tight-facet sets.

    The records are enumerated once per polytope and kept on it; see
    `HPolytope.vertex_records`.
    """
    return P.vertex_records


def hull_vertex_indices(points: Sequence[Vec]) -> set[int]:
    """Indices of the points that are vertices of their convex hull, in
    any dimension; in the plane `planar_hull` answers without an LP, so
    this serves the images that are not planar.

    The points are pairwise distinct: `VPolytope` refuses a repeated one,
    so an index always names one point.  Each is decided by the Gordan
    test of `minkowski_vertex_test`, run on one summand: the V-polytope of
    the points, whose cached `differences` it reads.
    """
    hull = VPolytope(points)
    return {k for k in range(len(hull.points)) if minkowski_vertex_test((k,), (hull,))}


def planar_hull(points: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the vertices of the hull of distinct integer points in
    R^2, counter-clockwise from the least point.

    Andrew's monotone chain (Inf. Process. Lett. 9, 1979): the points in
    sorted order make the lower chain, and in reverse order the upper
    one; each chain drops its last point while the turn to the next point
    is not strictly counter-clockwise (`cross` <= 0).  So a point inside
    an edge, or inside a collinear run, is no vertex: the vertices are the
    points some functional takes at them alone, as `hull_vertex_indices`
    decides.  One point is its own hull; two points, or any collinear set,
    give the two ends.  Integer products only: no LP, no division.
    """
    if not points:
        raise EmptyPolytope("a hull needs at least one point")
    if any(len(p) != 2 for p in points):
        raise DimensionMismatch("planar_hull takes points in R^2")
    if len(set(points)) != len(points):
        raise DuplicateLabels("points must be pairwise distinct")
    order = sorted(range(len(points)), key=points.__getitem__)
    if len(order) < 2:
        return order
    ring = []
    for run in (order, order[::-1]):
        chain: list[int] = []
        for i in run:
            while len(chain) > 1 and cross(points[chain[-2]], points[chain[-1]], points[i]) <= 0:
                chain.pop()
            chain.append(i)
        # each chain ends where the other starts
        ring += chain[:-1]
    return ring


def is_simple(P: HPolytope) -> bool:
    """True iff every vertex lies on exactly dim-many facets."""
    n = P.dim
    return all(len(rec.tight_facets) == n for rec in h_vertices(P))


def minkowski_vertex_test(choice: Sequence[int], polys: Sequence[VPolytope]) -> bool:
    """Does the chosen vertex tuple sum to a vertex of the Minkowski sum?

    True iff some direction c has strictly larger inner product on each
    chosen point than on every other point of its polytope, i.e. the open
    normal cones of the chosen vertices intersect: c.(w - v_i) < 0 for
    every difference.  That system is homogeneous in c, so scaling c asks
    no more of it than the margin system c.(w - v_i) <= -1, one
    `lp_feasible` call.  Its Farkas system, y >= 0 with sum y_i = 1 and
    sum y_i (w - v_i) = 0, is Gordan's alternative (0 is a convex
    combination of the differences), so a "not a vertex" verdict carries
    that combination, re-checked in integers.  The differences are read
    from each summand's `VPolytope.differences`, built once per summand,
    not once per tuple.
    """
    if len(choice) != len(polys):
        raise DimensionMismatch("one chosen vertex per summand")
    if len({Q.dim for Q in polys}) != 1:
        raise DimensionMismatch("summands must share an ambient dimension")
    diffs = []
    for idx, Q in zip(choice, polys):
        if not 0 <= idx < len(Q.points):
            raise IndexOutOfRange(f"vertex index {idx} out of range")
        diffs.extend(Q.differences[idx])
    if not diffs:
        return True  # all summands are single points
    return lp.lp_feasible([(w, -1) for w in diffs]).feasible


def minkowski_sum_vertices(polys: Sequence[VPolytope]) -> list[tuple[tuple[int, ...], Vec]]:
    """All vertex-sum tuples that pass the normal-cone test, with their sums.

    Ordered lexicographically by choice; the count is bounded by the
    product of the summand vertex counts.
    """
    out = []
    for choice in itertools.product(*(range(len(Q.points)) for Q in polys)):
        if minkowski_vertex_test(choice, polys):
            # each coordinate summed in integers over its lcm, into one Fraction
            columns = zip(*(Q.points[i] for i, Q in zip(choice, polys)))
            point = tuple(Fraction(sum(ints), lam) for ints, lam in map(integer_row, columns))
            out.append((choice, point))
    return out


def normal_fan_tuples(polys: Sequence[VPolytope]) -> list[tuple[int, ...]]:
    """The vertex tuples of a Minkowski sum in R^2, from the summands'
    normal fans: no LP.

    A tuple sums to a vertex iff some direction c is maximised on each
    summand by its chosen point alone (see `minkowski_vertex_test`).  The
    directions that pick a hull vertex of a polygon alone are the open
    sector between the outer normals of its two edges; a segment has the
    two opposite normals of its one edge, and a point has none.  So the
    sum's vertices are the sectors between neighbouring normals of all the
    summands, sorted by angle, and each gives one tuple: every summand's
    argmax at a direction c inside the sector, which is unique, as c is
    normal to no edge.  c is the sum of the two normals, or the first
    turned a quarter counter-clockwise when they are opposite, which only
    happens with two normals in all.  If every summand is a point, the
    sum is one point, one vertex.

    Each hull is `planar_hull` on the summand's `integer_points`, one
    positive scaling per summand, which keeps its normals and its
    argmaxes; each normal is primitive, so equal directions are equal
    vectors.  The tuples come in the counter-clockwise order of their
    sectors, one per vertex of the sum.
    """
    if any(Q.dim != 2 for Q in polys):
        raise DimensionMismatch("normal fans are taken in R^2")
    hulls = []
    normals = set()
    for Q in polys:
        pts = integer_points(Q.points)
        ring = planar_hull(pts)
        hulls.append((pts, ring))
        corners = [pts[i] for i in ring]
        if len(corners) > 1:
            # the outer normal of the edge from (x0, y0) to (x1, y1)
            for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
                normals.add(primitive((y1 - y0, x0 - x1)))
    if not normals:
        return [(0,) * len(polys)]
    fan = sort_by_angle(normals)
    out = []
    for u, v in zip(fan, fan[1:] + fan[:1]):
        cx, cy = (u[0] + v[0], u[1] + v[1]) if cross((0, 0), u, v) > 0 else (-u[1], u[0])
        out.append(tuple(max(ring, key=lambda i: cx * pts[i][0] + cy * pts[i][1]) for pts, ring in hulls))
    return out


def trivial_upper_bound(f0s: Sequence[int]) -> int:
    """Product of the vertex counts: every sum vertex is a vertex-sum tuple."""
    if not f0s:
        raise DimensionMismatch("need at least one summand")
    return prod(f0s)


def dual_boundary_complex(P: HPolytope) -> Complex:
    """Boundary complex of the polar dual of a simple polytope.

    Vertices are the facet labels of P; the facets are the tight sets I(v)
    of the vertices of P.
    """
    if not is_simple(P):
        raise HypothesisViolated("dual boundary complex needs a simple polytope")
    return closure_from_facets(P.facet_labels, [r.tight_facets for r in h_vertices(P)])
