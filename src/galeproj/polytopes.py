"""Polytopes in H- and V-representation with exact vertex enumeration.

H-polytopes are validated on construction: the solution set must be
nonempty, bounded and full-dimensional, and every row must define a facet.
One spanning test decides boundedness.  A bounded system's vertex records
then decide the other three verdicts (see `HPolytope._validate`), so the
constructor enumerates the vertices: C(m, n) square solves for m rows in
R^n, which any cap on H-vertex enumeration must meet at construction.
Vertex enumeration goes through all n-subsets of rows, which is the right
trade-off at the scale this package targets (m up to ~20).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import prod
from operator import attrgetter, mul
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
    UnboundedPolytope,
)
from .gale import positively_spanning
from .linalg import (
    Mat,
    Vec,
    integer_points,
    integer_row,
    mat,
    primitive,
    solve_square,
    vec,
    vsub,
)


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
    construction runs the C(m, n) square solves of `vertex_records`, and
    the records are kept for every later read.  Only an unbounded system
    asks LPs for emptiness and flatness.
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
        self.__dict__.update(A=A, b=b, facet_labels=labels)
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.A[0])

    @property
    def num_facets(self) -> int:
        return len(self.A)

    @cached_property
    def vertex_records(self) -> tuple[FaceRecord, ...]:
        """Vertex records, enumerated once and kept on the instance.

        The first read is `_validate`'s, in the constructor, on a system
        it has proved bounded.

        Enumerates n-subsets of rows, keeps feasible basic solutions, merges
        duplicates and recomputes tightness against every row, so non-simple
        vertices come out with |I(v)| > n.  Ordered by coordinates.  Like
        `VectorConfig.is_gale`, the value lives in the instance dict, where
        `==` and `hash` do not look: they compare `A`, `b` and
        `facet_labels` alone.  Each row [a | b] is scaled to integers once,
        and the square solves read those rows: a positive scaling of a row
        keeps the point where it is tight.  With x = num / L, the slack
        b' * L - a'.num is b - a.x times a positive number, so its sign
        gives feasibility and tightness.  The pair
        (num, L), L the lcm of the denominators of x, is x's own integer
        form, so basic solutions are merged by it, not by the coordinates.
        """
        m, n = self.num_facets, self.dim
        rows = [integer_row((*a, bi))[0] for a, bi in zip(self.A, self.b)]
        seen: set[tuple[int, ...]] = set()
        found: list[FaceRecord] = []
        for subset in itertools.combinations(range(m), n):
            x = solve_square([rows[i][:-1] for i in subset], [rows[i][-1] for i in subset])
            if x is None:
                continue
            num, L = integer_row(x)
            key = (*num, L)
            if key in seen:
                continue
            seen.add(key)
            # num has one entry per coordinate, so map leaves b' out of the sum
            slacks = [row[-1] * L - sum(map(mul, row, num)) for row in rows]
            if min(slacks) >= 0:
                tight = frozenset(label for label, s in zip(self.facet_labels, slacks) if s == 0)
                found.append(FaceRecord(tight, x))
        return tuple(sorted(found, key=attrgetter("vertex_coords")))

    def _validate(self) -> None:
        """Raise EmptyPolytope, NotFullDimensional, UnboundedPolytope or
        RedundantRow, the first that applies in that order.

        Boundedness is tested first, by one spanning test: the recession cone
        {Ax <= 0} is {0} iff the rows positively span R^n (Davis 1954).

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
        if not positively_spanning(self.A):
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


def h_vertices(P: HPolytope) -> tuple[FaceRecord, ...]:
    """All vertices with exact coordinates and full tight-facet sets.

    The records are enumerated once per polytope and kept on it; see
    `HPolytope.vertex_records`.
    """
    return P.vertex_records


def hull_vertex_indices(points: Sequence[Vec]) -> set[int]:
    """Indices of the points that are vertices of their convex hull.

    The points are pairwise distinct: `VPolytope` refuses a repeated one,
    so an index always names one point.  Each is decided by the Gordan
    test of `minkowski_vertex_test`, run on one summand: the V-polytope of
    the points, whose cached `differences` it reads.
    """
    hull = VPolytope(points)
    return {k for k in range(len(hull.points)) if minkowski_vertex_test((k,), (hull,))}


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
