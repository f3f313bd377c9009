"""Face preservation under linear projections of polytopes.

`g_vectors(P, proj)` maps the dual vertices of P, a polytope with 0
interior, into the kernel of a full-rank projection, once: the g-vectors,
labelled by P's facets.  It keeps no kernel basis.  Whether a face
survives the projection is read off the g-vectors indexed by its tight
facets: containing 0 in the convex hull / positively spanning correspond
to preserved / strictly preserved (Sanyal and Ziegler, DCG 43, 2010).
`vertex_survival_census(P, G)` applies them to every vertex; it is given
no projection, so it never projects a vertex.  `oracle_survival(P, proj)`
is the independent census from images and fibers: it is given no
g-vectors, and it alone projects the vertices and takes the hull of their
images, so it also reports how many vertices the shadow has.

The census asks LPs on the g-vectors: both of its tests are
`lp_feasible` systems, the convex-hull test the margin system of
`face_preserved` and the spanning test `VectorConfig.spans` (see
`gale`), the rank and dependence verdicts it keeps per set of rays.  It reads the primitive integer rays that
`VectorConfig` keeps, a positive scaling of each g-vector, which changes
none of these verdicts.  The oracle, when the image is planar, as in the
paper's worked example, asks no LP at all: `polytopes.planar_hull` and
integer cross products decide both of its questions, so there the two
sides share no kernel either.  Only images in other dimensions take the
Gordan hull `hull_vertex_indices` and the spanning test of
`positively_spanning` on the shifted images.

Neither census asks an LP whose answer it already holds.  Strictly
preserved implies preserved: a positively spanning W is positively
dependent, and a strictly positive combination summing to 0, rescaled to
sum 1, puts 0 in conv W.  A hull vertex of the images lies on the
boundary of the shadow: a functional c that is larger at it than at every
other image is <= 0 on all the shifted images, so they do not positively
span.  Vertices whose tight facets carry the same set of rays share one
LP, and so does a ray set that the Gale property or a face question on
the same configuration already asked about.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from . import lp
from .errors import OriginNotInterior, RankDeficient
from .gale import VectorConfig, positively_spanning
from .linalg import Mat, cross, integer_points, kernel_basis, mat, mat_vec, vsub
from .polytopes import HPolytope, h_vertices, hull_vertex_indices, planar_hull


class VertexRecord(NamedTuple):
    tight_facets: frozenset[int]
    strictly_preserved: bool
    preserved: bool


class SurvivalReport(NamedTuple):
    records: tuple[VertexRecord, ...]
    image_vertex_count: int


def g_vectors(P: HPolytope, proj: Iterable[Iterable]) -> VectorConfig:
    """The g-vectors of (P, proj), labelled by P's facets.

    They are K (a_i / b_i), for K the rows of a computed basis of
    ker(proj).  With 0 strictly inside P (b > 0), the a_i / b_i are the
    vertices of the polar dual: row irredundancy makes each one a vertex.
    """
    proj = mat(proj)
    n = P.dim
    d = len(proj)
    if any(len(row) != n for row in proj):
        raise RankDeficient(f"projection must have {n} columns")
    if not d < n:
        raise RankDeficient("projection must drop at least one dimension")
    # raises RankDeficient on a projection without full row rank
    kern = kernel_basis(proj)
    if any(bi <= 0 for bi in P.b):
        raise OriginNotInterior("translate P so that 0 is interior: need b > 0")
    if any(any(mat_vec(proj, k)) for k in kern):
        raise AssertionError("kernel_basis returned vectors the projection does not annihilate")
    g = [tuple(v / bi for v in mat_vec(kern, a)) for a, bi in zip(P.A, P.b)]
    return VectorConfig(g, P.facet_labels)


def face_preserved(G: VectorConfig, tight: Iterable[int]) -> bool:
    """Image of the face is a face of the image: 0 in conv of its g-vectors.

    By Gordan's alternative 0 is in conv g iff no c has c.w < 0 for every
    g-vector w, and as that system is homogeneous in c, iff the margin
    system c.w <= -1 is infeasible.  A "preserved" verdict carries the
    Farkas y of `lp_feasible`, which sums to 1: that convex combination.
    `tight` is a nonempty set of G's labels: a vertex of a full-dimensional
    polytope in R^n lies on at least n facets.
    """
    return not lp.lp_feasible([(w, -1) for w in G.subset(tight)]).feasible


def vertex_survival_census(P: HPolytope, G: VectorConfig) -> tuple[VertexRecord, ...]:
    """Classify every vertex of P by the g-vectors G of its tight facets.

    A vertex is strictly preserved iff they positively span the kernel
    space (`G.spans`), and preserved iff 0 is in their convex hull
    (`face_preserved`).  No vertex is projected, so the image side stays
    with `oracle_survival`.  `face_preserved` runs only for the vertices
    that are not strictly preserved, since strict preservation implies
    preservation (see the module docstring).
    """
    out = []
    for r in h_vertices(P):
        strict = G.spans(r.tight_facets)
        out.append(VertexRecord(r.tight_facets, strict, strict or face_preserved(G, r.tight_facets)))
    return tuple(out)


def oracle_survival(P: HPolytope, proj: Mat) -> SurvivalReport:
    """Independent census of P's vertices straight from images and fibers.

    A vertex strictly survives iff its image is a hull vertex of the
    projected vertex set and no other vertex shares that image; it is
    preserved iff its image lies on the boundary of the shadow (a vertex
    can land mid-edge, which keeps its image in a proper face without
    making it a vertex of the image).  No g-vector machinery is involved,
    which makes this the cross-validation oracle for
    `vertex_survival_census`.  The report also counts the vertices of
    the shadow, the hull of the distinct images.

    In the plane (two projection rows) both questions are integer cross
    products on `planar_hull`'s counter-clockwise ring: an image is a hull
    vertex iff it is on the ring, and on the boundary iff it is collinear
    with the two ends of some edge (no image lies beyond an edge, so
    collinear means on it); it is inside iff it lies strictly left of
    every edge.  No LP is asked, so the oracle shares no kernel with the
    census.  In any other dimension the hull is `hull_vertex_indices`,
    and the other images run the spanning test on the shifted images (see
    the module docstring).

    Everything reads the `integer_points` keys of the images, one positive
    scaling of them all, which changes no hull vertex, no multiplicity, no
    turn and no spanning verdict.  Multiplicity is decided here alone: the
    hull is taken of the distinct keys.
    """
    records = h_vertices(P)
    keys = integer_points([mat_vec(proj, r.vertex_coords) for r in records])
    counts = Counter(keys)
    distinct = sorted(counts)
    if len(proj) == 2:
        ring = [distinct[i] for i in planar_hull(distinct)]
        edges = list(zip(ring, ring[1:] + ring[:1]))

        def on_boundary(key):
            return any(cross(u, v, key) == 0 for u, v in edges)

    else:
        ring = [distinct[i] for i in hull_vertex_indices(distinct)]

        def on_boundary(key):
            return not positively_spanning([vsub(w, key) for w in distinct if w != key])

    hull_keys = set(ring)
    classified = []
    for r, key in zip(records, keys):
        hull_vertex = key in hull_keys  # always so for a lone image
        strict = hull_vertex and counts[key] == 1
        classified.append(VertexRecord(r.tight_facets, strict, hull_vertex or on_boundary(key)))
    return SurvivalReport(tuple(classified), len(hull_keys))
