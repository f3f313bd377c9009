"""Vector configurations, positive spanning/dependence, and Gale duality.

A Gale transform encodes a polytope's face lattice through positive
dependences of complementary vector subsets; the face oracle here is the
combinatorial side of that correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import lp
from .errors import DimensionMismatch, DuplicateLabels, NotGale, UnknownLabel
from .linalg import Vec, integer_row, rank, vec

FACE_CARD_CAP = 8


@dataclass(frozen=True)
class VectorConfig:
    """Ordered, labeled configuration of vectors in a common space.

    Whether it is a Gale transform (`is_gale`) is decided on first use and
    kept on the instance; the configuration is immutable, so the verdict
    cannot go stale, and `==` and `hash` compare only the fields.

    The LP and rank questions read an integer copy of the vectors, made
    once on first use and kept the same way: each vector scaled by the lcm
    of its own denominators.  That is a positive scaling of each vector,
    which changes no cone, so no spanning, dependence, convex-hull-of-0 or
    rank verdict; `vectors` stays rational, so `==` and `hash` still tell
    configurations apart that differ only by such a scaling.
    """

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
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "labels", labs)

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def __len__(self) -> int:
        return len(self.vectors)

    @cached_property
    def _integers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(integer_row(v)[0]) for v in self.vectors)

    def vector(self, label: int) -> tuple[int, ...]:
        """The vector labelled `label`, from the integer copy: a positive
        multiple of the rational one, fit for every verdict but not for `==`."""
        try:
            return self._integers[self.labels.index(label)]
        except ValueError:
            raise UnknownLabel(label) from None

    def subset(self, labels: Iterable[int]) -> list[tuple[int, ...]]:
        return [self.vector(l) for l in labels]

    @cached_property
    def is_gale(self) -> bool:
        """True iff every single-deletion subconfiguration positively spans."""
        ints = self._integers
        return all(positively_spanning(ints[:i] + ints[i + 1:]) for i in range(len(ints)))


def positively_spanning(W: Sequence[Sequence]) -> bool:
    """True iff the nonnegative combinations of W fill the whole space.

    W is a sequence of vectors with int or Fraction entries, taken as
    given: the constructors made them exact, so nothing is coerced here.

    Davis (1954), via Farkas: W positively spans R^e iff rank W = e and
    no c has <c, w> <= 0 for all w and <c, sum W> < 0.  Only if: W spans,
    and such a c is <= 0 on cone W = R^e, so c = 0 and <c, sum W> = 0.
    If: were cone W != R^e, Farkas gives c != 0 with <c, w> <= 0 for all
    w; as W spans, some <c, w> < 0, so <c, sum W> < 0.  The system is
    homogeneous in c, so a positive multiple of c turns <c, sum W> < 0
    into <c, sum W> <= -1: one rank and one `lp_feasible` system settle it.
    A "spans" verdict is that system's infeasible one, so it is certified:
    the Farkas y >= 0 that `lp_feasible` re-checks has y_0 = 1 on the
    sum row and makes sum (1 + y_w) w = 0, a strictly positive
    combination of W that is zero.
    """
    vectors = list(W)
    if not vectors:
        raise DimensionMismatch("empty set cannot span")
    e = len(vectors[0])
    if rank(vectors) < e:
        return False
    total = [sum(w[j] for w in vectors) for j in range(e)]
    return not lp.lp_feasible([(w, 0) for w in vectors] + [(total, -1)]).feasible


def positively_dependent(W: Sequence[Sequence]) -> bool:
    """True iff some strictly positive combination of W is zero.

    W is a sequence of vectors with int or Fraction entries, taken as
    given, as in `positively_spanning`.  Normalizing the coefficients to
    lam >= 1 makes this an exact cone query: lam = 1 + mu with mu >= 0
    turns it into -sum(W) in cone(W).
    """
    vectors = list(W)
    if not vectors:
        raise DimensionMismatch("empty set cannot be positively dependent")
    e = len(vectors[0])
    neg_total = tuple(-sum(w[j] for w in vectors) for j in range(e))
    return lp.cone_combination(vectors, neg_total) is not None


def gale_face_test(G: VectorConfig, coface: Iterable[int]) -> bool:
    """Is conv{v_i : i in coface} a face of the polytope G encodes?

    Holds iff the complementary vectors are positively dependent.  Refuses
    to answer for configurations that are not Gale transforms, where the
    correspondence is meaningless.  A one-label coface needs no LP: in a
    Gale transform its complement, a single deletion, positively spans,
    and a positively spanning W is positively dependent (-sum W lies in
    cone W, so sum (1 + mu_i) w_i = 0 with mu >= 0).
    """
    if not G.is_gale:
        raise NotGale("face queries need a Gale transform")
    coface = frozenset(coface)
    unknown = coface - set(G.labels)
    if unknown:
        raise UnknownLabel(sorted(unknown)[0])
    complement = [l for l in G.labels if l not in coface]
    if not complement or len(coface) == 1:
        return True  # the whole vertex set, or a vertex (see above)
    return positively_dependent(G.subset(complement))


def gale_faces_of_card(G: VectorConfig, k: int) -> list[frozenset[int]]:
    """All k-subsets of labels passing the face test, sorted.

    For a simplicial encoded polytope these are exactly its (k-1)-faces.
    `FACE_CARD_CAP` bounds the cardinality, and so the C(m, k) sweep.
    """
    if k > FACE_CARD_CAP:
        raise ValueError(f"cardinality {k} exceeds the cap {FACE_CARD_CAP}")
    if k > len(G):
        raise ValueError(f"cardinality {k} exceeds configuration size {len(G)}")
    if not G.is_gale:
        raise NotGale("face enumeration needs a Gale transform")
    out = [
        frozenset(c)
        for c in itertools.combinations(sorted(G.labels), k)
        if gale_face_test(G, c)
    ]
    return sorted(out, key=sorted)


def general_position(G: VectorConfig) -> bool:
    """True iff every dim-subset of the vectors is linearly independent.

    This is the condition under which the encoded polytope is simplicial.
    """
    e = G.dim
    return all(rank(sub) == e for sub in itertools.combinations(G._integers, e))
