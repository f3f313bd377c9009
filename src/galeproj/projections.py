"""Face preservation under linear projections of polytopes.

A projection setup packages a polytope with 0 interior, a full-rank
projection, and the projected dual vertices g_i.  It stores no kernel
basis: `make_setup` uses one to map the dual vertices down, once.
Whether a face survives the projection is read off the g-vectors indexed
by its tight facets: containing 0 in the convex hull / positively spanning
correspond to preserved / strictly preserved; `vertex_survival_census`
applies them to every vertex and never projects one.  `oracle_survival`
is the independent census from images and fibers: it alone projects the
vertices and takes the hull of their images, so it also reports how many
vertices the shadow has.

Neither census asks an LP whose answer it already holds.  Strictly
preserved implies preserved: a positively spanning W is positively
dependent, and a strictly positive combination summing to 0, rescaled to
sum 1, puts 0 in conv W.  A hull vertex of the images lies on the
boundary of the shadow: a functional c that is larger at it than at every
other image is <= 0 on all the shifted images, so they do not positively
span.  The g-vector tests read the primitive integer rays that
`VectorConfig` keeps, a positive scaling of each g-vector, which changes
none of these verdicts.  The spanning test goes through the ray-set memo
of `VectorConfig` (see `gale`): vertices whose tight facets carry the same
set of rays share one LP, and so does a deletion whose rays the Gale
property of the same configuration already tested.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from . import lp
from .errors import OriginNotInterior, RankDeficient
from .gale import VectorConfig, positively_spanning
from .linalg import (
    Mat,
    integer_points,
    kernel_basis,
    mat,
    mat_vec,
    matmul,
    rank,
    transpose,
    vsub,
)
from .polytopes import HPolytope, h_vertices, hull_vertex_indices


class ProjectionSetup(NamedTuple):
    polytope: HPolytope
    proj: Mat
    g_images: VectorConfig


class VertexRecord(NamedTuple):
    tight_facets: frozenset[int]
    strictly_preserved: bool
    preserved: bool


class SurvivalReport(NamedTuple):
    records: tuple[VertexRecord, ...]
    image_vertex_count: int


def make_setup(P: HPolytope, proj: Iterable[Iterable]) -> ProjectionSetup:
    """Assemble the projection data for (P, proj).

    The g-vectors are kernel^T (a_i / b_i), labeled by P's facets, for
    kernel a computed basis of ker(proj).  With 0 strictly inside P
    (b > 0), the a_i / b_i are the vertices of the polar dual: row
    irredundancy makes each one a vertex.
    """
    proj = mat(proj)
    n = P.dim
    d = len(proj)
    if any(len(row) != n for row in proj):
        raise RankDeficient(f"projection must have {n} columns")
    if not d < n:
        raise RankDeficient("projection must drop at least one dimension")
    if rank(proj) != d:
        raise RankDeficient("projection must have full row rank")
    if any(bi <= 0 for bi in P.b):
        raise OriginNotInterior("translate P so that 0 is interior: need b > 0")
    kern = kernel_basis(proj)
    if any(any(x != 0 for x in row) for row in matmul(proj, kern)):
        raise AssertionError("kernel_basis returned columns the projection does not annihilate")
    kern_t = transpose(kern)
    g = [tuple(v / bi for v in mat_vec(kern_t, a)) for a, bi in zip(P.A, P.b)]
    return ProjectionSetup(P, proj, VectorConfig(g, P.facet_labels))


def face_preserved(s: ProjectionSetup, tight: Iterable[int]) -> bool:
    """Image of the face is a face of the image: 0 in conv of its g-vectors."""
    g = s.g_images.subset(tight)
    if not g:
        return False
    return lp.convex_combination(g, (0,) * s.g_images.dim) is not None


def face_strictly_preserved(s: ProjectionSetup, tight: Iterable[int]) -> bool:
    """Strict survival: the g-vectors positively span the kernel space."""
    tight = list(tight)
    return bool(tight) and s.g_images.spans(tight)


def vertex_survival_census(s: ProjectionSetup) -> tuple[VertexRecord, ...]:
    """Classify every vertex of the polytope by the g-vector criteria.

    Reads only the polytope and the g-vectors: no vertex is projected, so
    the image side stays with `oracle_survival`.  `face_preserved` runs
    only for the vertices that are not strictly preserved, since strict
    preservation implies preservation (see the module docstring).
    """
    out = []
    for r in h_vertices(s.polytope):
        strict = face_strictly_preserved(s, r.tight_facets)
        out.append(VertexRecord(r.tight_facets, strict, strict or face_preserved(s, r.tight_facets)))
    return tuple(out)


def oracle_survival(s: ProjectionSetup) -> SurvivalReport:
    """Independent census straight from images and fibers.

    A vertex strictly survives iff its image is a hull vertex of the
    projected vertex set and no other vertex shares that image; it is
    preserved iff its image lies on the boundary of the shadow (a vertex
    can land mid-edge, which keeps its image in a proper face without
    making it a vertex of the image).  No g-vector machinery is involved,
    which makes this the cross-validation oracle for
    `vertex_survival_census`.  The report also counts the vertices of
    the shadow, the hull of the distinct images.  A hull vertex is on the
    boundary, so only the other images run the spanning test on the
    shifted images (see the module docstring).

    The images are counted, sorted and looked up by `integer_points` keys;
    the spanning test reads the rational images, as phase 1 prices rows
    as given.
    """
    records = h_vertices(s.polytope)
    images = [mat_vec(s.proj, r.vertex_coords) for r in records]
    keys = integer_points(images)
    image_of = dict(zip(keys, images))
    counts = Counter(keys)
    distinct = sorted(counts)
    hull_keys = {distinct[i] for i in hull_vertex_indices(distinct)}
    classified = []
    for r, key, img in zip(records, keys, images):
        hull_vertex = key in hull_keys  # always so for a lone image
        strict = hull_vertex and counts[key] == 1
        on_boundary = hull_vertex or not positively_spanning([vsub(image_of[w], img) for w in distinct if w != key])
        classified.append(VertexRecord(r.tight_facets, strict, on_boundary))
    return SurvivalReport(tuple(classified), len(hull_keys))

