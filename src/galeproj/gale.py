"""Vector configurations, positive spanning/dependence, and Gale duality.

A Gale transform encodes a polytope's face lattice through positive
dependences of complementary vector subsets; the face oracle here is the
combinatorial side of that correspondence.

A configuration answers "do the vectors with these labels positively
span?" and "are they positively dependent?" once per set of rays: the
verdicts are kept on the instance, keyed by the question and the sorted
set of distinct primitive rays of those vectors, and a new question runs
its LP on that set.  Neither verdict can change.  Both ask about the cone
of the vectors, or a strictly positive combination of them that is zero,
and those depend only on the set of rays: coefficients on copies of one
ray add up to one positive coefficient on it, and a positive coefficient
on a ray splits back among its copies.  A positive scaling of a vector
keeps its ray, so the rational vectors and their primitive integer rays
give the same verdicts; each "spans" verdict stays certified by the
Farkas y that `lp_feasible` re-checks on the ray set.  A Gale transform
with repeated vectors, like the one the deformed two-triangle product
projects to, repeats its ray sets across deletions and complements.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Sequence

from . import lp
from .errors import DimensionMismatch, DuplicateLabels, NotGale, Record, TooLargeForExact, UnknownLabel
from .linalg import Vec, integer_row, primitive, rank, vec

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

    Whether it is a Gale transform (`is_gale`), and the spanning and
    dependence verdicts of label sets (`spans`, `dependent`, see the
    module docstring), are decided on first use and kept the same way.
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
        self.__dict__.update(vectors=vecs, labels=labs)

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

    @cached_property
    def _verdicts(self) -> dict[tuple[str, tuple[tuple[int, ...], ...]], bool]:
        return {}

    def vector(self, label: int) -> tuple[int, ...]:
        """The primitive ray of the vector labelled `label`: a positive
        multiple of the rational vector, fit for every verdict but not for `==`."""
        try:
            return self._rays[self._index[label]]
        except KeyError:
            raise UnknownLabel(label) from None

    def subset(self, labels: Iterable[int]) -> list[tuple[int, ...]]:
        return [self.vector(l) for l in labels]

    def spans(self, labels: Iterable[int]) -> bool:
        """Do the vectors labelled `labels` positively span?  See `positively_spanning`."""
        return self._ask(positively_spanning, labels)

    def dependent(self, labels: Iterable[int]) -> bool:
        """Are the vectors labelled `labels` positively dependent?  See `positively_dependent`."""
        return self._ask(positively_dependent, labels)

    def _ask(self, question: Callable[[Sequence[Sequence]], bool], labels: Iterable[int]) -> bool:
        all_rays, index = self._rays, self._index
        try:
            rays = tuple(sorted({all_rays[index[l]] for l in labels}))
        except KeyError as err:
            raise UnknownLabel(err.args[0]) from None
        key = (question.__name__, rays)
        verdicts = self._verdicts
        if key not in verdicts:
            verdicts[key] = question(rays)
        return verdicts[key]

    @cached_property
    def is_gale(self) -> bool:
        """True iff every single-deletion subconfiguration positively spans."""
        labels = self.labels
        return all(self.spans(labels[:i] + labels[i + 1:]) for i in range(len(labels)))


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
    total = [sum(column) for column in zip(*vectors)]
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
    neg_total = tuple(-sum(column) for column in zip(*vectors))
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
    return G.dependent(complement)


def gale_faces_of_card(G: VectorConfig, k: int) -> list[frozenset[int]]:
    """All k-subsets of labels passing the face test, sorted.

    For a simplicial encoded polytope these are exactly its (k-1)-faces.
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
    return all(rank(sub) == e for sub in itertools.combinations(G._rays, e))
