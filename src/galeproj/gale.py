"""Vector configurations, positive spanning/dependence, and Gale duality.

A Gale transform encodes a polytope's face lattice through positive
dependences of complementary vector subsets; `gale_faces_of_card`, the
face query here, is the combinatorial side of that correspondence.

W positively spans iff it is positively dependent and of full rank
(Davis 1954).  Both verdicts depend only on the set of rays of W:
coefficients on copies of one ray add up to one positive coefficient on
it, a positive coefficient on a ray splits back among its copies, and a
positive scaling of a vector keeps its ray.  So every question is asked
of the sorted set of distinct primitive integer rays, by `_ask`, the one
function every verdict goes through.  In the plane one exact angular
sort of the rays answers both (`_planar_verdicts`), with no LP and no
elimination; in any other dimension the rank is `linalg.rank` and the
dependence one Farkas system, whose "dependent" verdicts carry the
certificate `lp_feasible` re-checks.

A configuration asks about each set of rays once: one dict on the
instance keeps a [full rank, dependent] pair per ray set, each entry
filled on first use.  "spans" asks the rank first and the Farkas system
only if the rank is full, and "dependent" asks the Farkas system alone,
so no ray set runs a rank or an LP twice, or an LP where the rank alone
answers.  `positively_spanning` asks with a dict of its own per call.
A Gale transform with repeated vectors, like the one the deformed
two-triangle product projects to, repeats its ray sets across deletions
and complements.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb
from typing import Iterable, Sequence

from . import lp
from .errors import DimensionMismatch, DuplicateLabels, NotGale, Record, TooLargeForExact, UnknownLabel
from .linalg import Vec, cross, integer_row, primitive, rank, sort_by_angle, vec

FACE_CARD_CAP = 8


class VectorConfig(Record):
    """Ordered, labeled configuration of vectors in a common space.

    The LP and rank questions read the primitive integer ray of each
    vector, made once on first use and kept on the instance: the vector
    scaled by the lcm of its denominators and divided by the gcd of the
    result.  That is a positive scaling of each vector, which changes no
    cone, so no spanning, dependence, convex-hull-of-0 or rank verdict;
    `vectors` stays rational, so `==` and `hash` still tell configurations
    apart that differ only by such a scaling.

    Whether it is a Gale transform (`is_gale`), and the [full rank,
    dependent] pair of each ray set that `spans` or `dependent` asks
    about, in one dict (see the module docstring and `_ask`), are decided
    on first use and kept the same way.  The empty set of rays, as
    `dependent([])` asks, is dependent in every dimension and of full
    rank only in R^0, so a one-vector configuration is a Gale transform
    only there.
    The configuration is immutable: assigning or deleting an attribute
    raises AttributeError, so no verdict can go stale.  The kept values
    live in the instance dict, which `==` and `hash` do not read, and none
    outlives the instance: an equal, fresh one decides again.
    """

    _fields = ("vectors", "labels")
    vectors: tuple[Vec, ...]
    labels: tuple[int, ...]

    def __init__(self, vectors: Iterable[Iterable], labels: Sequence[int] | None = None):
        vecs = tuple(vec(v) for v in vectors)
        if not vecs:
            raise DimensionMismatch("a configuration needs at least one vector")
        e = len(vecs[0])
        if any(len(v) != e for v in vecs):
            raise DimensionMismatch("vectors with mixed dimensions")
        labs = tuple(labels) if labels is not None else tuple(range(1, len(vecs) + 1))
        if len(labs) != len(vecs) or len(set(labs)) != len(labs):
            raise DuplicateLabels("labels must be distinct, one per vector")
        self.__dict__.update(vectors=vecs, labels=labs, _verdicts={})

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def _rays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(primitive(integer_row(v)[0]) for v in self.vectors)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def subset(self, labels: Iterable[int]) -> list[tuple[int, ...]]:
        """The primitive rays of the vectors labelled `labels`, in order:
        positive multiples of the rational vectors, fit for every verdict
        but not for `==`.  A label not in the configuration raises
        `UnknownLabel`."""
        rays, index = self._rays, self._index
        try:
            return [rays[index[l]] for l in labels]
        except KeyError as err:
            raise UnknownLabel(err.args[0]) from None

    def spans(self, labels: Iterable[int]) -> bool:
        """Do the vectors labelled `labels` positively span?  See `positively_spanning`."""
        return _ask(self._verdicts, tuple(sorted(set(self.subset(labels)))), self.dim, True)

    def dependent(self, labels: Iterable[int]) -> bool:
        """Is some strictly positive combination of the vectors labelled
        `labels` zero?  The one dependence question; see `_ask`."""
        return _ask(self._verdicts, tuple(sorted(set(self.subset(labels)))), self.dim, False)

    @cached_property
    def is_gale(self) -> bool:
        """True iff every single-deletion subconfiguration positively spans."""
        labels = self.labels
        return all(self.spans(labels[:i] + labels[i + 1:]) for i in range(len(labels)))


def positively_spanning(W: Sequence[Sequence]) -> bool:
    """True iff the nonnegative combinations of W fill the whole space.

    W is a sequence of vectors with int or Fraction entries, taken as
    given: the constructors made them exact, so nothing is coerced here.
    An empty W, or one of mixed dimensions, raises `DimensionMismatch`.

    Davis (1954): W positively spans R^e iff rank W = e and W is
    positively dependent.  Only if: -sum W lies in cone W = R^e, so
    sum (1 + mu_w) w = 0 with mu >= 0.  If: were cone W != R^e, Farkas
    gives c != 0 with <c, w> <= 0 for all w; as W spans, some <c, w> < 0,
    and then no strictly positive combination of W is zero.  So one rank
    and one dependence question of the rays of W settle it (`_ask`).
    """
    vectors = list(W)
    if not vectors:
        raise DimensionMismatch("empty set cannot span")
    e = len(vectors[0])
    if any(len(w) != e for w in vectors):
        raise DimensionMismatch("vectors with mixed dimensions")
    return _ask({}, tuple(sorted({primitive(integer_row(w)[0]) for w in vectors})), e, True)


def _ask(verdicts: dict, rays: tuple, e: int, spans: bool) -> bool:
    """Does the sorted set of distinct primitive rays `rays` in R^e
    positively span (`spans`), or is it positively dependent, that is,
    is some strictly positive combination of the rays zero?

    `verdicts` keeps one [full rank, dependent] pair per ray set, each
    entry filled when first asked.  In the plane one angular sort fills
    both (`_planar_verdicts`).  In any other dimension the empty ray set
    has rank 0, which is full in R^0 alone, and is dependent, as the
    empty combination is zero.  Otherwise `rank` fills the first entry,
    asked first by "spans" so that a rank short of e answers with no LP,
    and one Farkas system the second: the rays are positively dependent
    iff no c has <c, w> <= 0 for every ray w and <c, sum W> <= -1, one
    `lp_feasible` call.  The system is homogeneous in c, so
    <c, sum W> <= -1 asks no more than <c, sum W> < 0.  A "dependent"
    verdict is the infeasible one, so it is certified: the Farkas y >= 0
    that `lp_feasible` re-checks has y_0 = 1 on the sum row and makes
    sum (1 + y_w) w = 0.  Conversely, a strictly positive combination that
    is zero, scaled so each coefficient is at least 1, is such a y.
    """
    pair = verdicts.get(rays)
    if pair is None:
        pair = verdicts[rays] = list(_planar_verdicts(rays)) if e == 2 else [None, None] if rays else [e == 0, True]
    if spans:
        if pair[0] is None:
            pair[0] = rank(rays) == e
        if not pair[0]:
            return False
    if pair[1] is None:
        total = [sum(column) for column in zip(*rays)]
        pair[1] = not lp.lp_feasible([(w, 0) for w in rays] + [(total, -1)]).feasible
    return pair[1]


def _planar_verdicts(rays: Iterable[tuple[int, ...]]) -> tuple[bool, bool]:
    """(full rank, positively dependent) of distinct primitive rays in R^2,
    from the turns between angular neighbours; a zero ray is dropped.

    The rays are positively dependent iff their cone is a linear space: a
    strictly positive combination sum lam_w w = 0 puts
    -w = sum_{v != w} (lam_v / lam_w) v in the cone for every w, and
    conversely, if each -w is in the cone, summing w + (a combination
    equal to -w) over all w gives one with every coefficient at least 1.
    A zero vector takes any coefficient, and a linear space in the plane
    is {0}, a line or the plane.  {0}: no ray is left, and the rays, zero
    only, are dependent.  A line: the rays are exactly one opposite pair
    u, -u.  The plane: sorted by angle (`linalg.sort_by_angle`), every gap
    between neighbours, the wraparound one included, is less than pi,
    which is to say a strict left turn (`linalg.cross` > 0); a gap of pi
    or more leaves every ray in a closed half-plane, and the cone with
    them.  The rays are of full rank iff some two neighbours turn: when no
    two do, they lie on one line, and being distinct and primitive they
    are one ray or one opposite pair.  The verdicts rest on exact integer
    turns.
    """
    fan = sort_by_angle(r for r in rays if any(r))
    turns = [cross((0, 0), u, v) for u, v in zip(fan, fan[1:] + fan[:1])]
    return any(turns), all(t > 0 for t in turns) or (len(turns) == 2 and not any(turns))


def gale_faces_of_card(G: VectorConfig, k: int) -> list[frozenset[int]]:
    """The k-sets of labels S with conv{v_i : i in S} a face of the
    polytope G encodes, in lexicographic order.

    S is a face iff it is the whole label set or the complementary vectors
    are positively dependent (`G.dependent`).  Refuses to answer for
    configurations that are not Gale transforms, where the correspondence
    is meaningless.  A one-label S runs no LP: its complement is a single
    deletion, whose dependence verdict `is_gale` has already kept.  For a
    simplicial encoded polytope these are exactly its (k-1)-faces.
    `FACE_CARD_CAP` bounds the cardinality, and so the C(m, k) sweep; a k
    past it raises `TooLargeForExact` before any face test.
    """
    if k > len(G):
        raise ValueError(f"cardinality {k} exceeds configuration size {len(G)}")
    if k > FACE_CARD_CAP:
        raise TooLargeForExact(
            f"Gale face enumeration of cardinality {k} (C({len(G)}, {k}) = {comb(len(G), k)}"
            f" label sets) exceeds the cap {FACE_CARD_CAP} on the cardinality"
        )
    if not G.is_gale:
        raise NotGale("face enumeration needs a Gale transform")
    labels = set(G.labels)
    return [
        frozenset(c)
        for c in itertools.combinations(sorted(labels), k)
        if k == len(G) or G.dependent(labels.difference(c))
    ]


def general_position(G: VectorConfig) -> bool:
    """True iff every dim-subset of the vectors is linearly independent.

    This is the condition under which the encoded polytope is simplicial.
    """
    e = G.dim
    return all(rank(sub) == e for sub in itertools.combinations(G._rays, e))
