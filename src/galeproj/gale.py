"""Vector configurations, positive spanning/dependence, and Gale duality.

A Gale transform encodes a polytope's face lattice through positive
dependences of complementary vector subsets; the face oracle here is the
combinatorial side of that correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from . import lp
from .errors import DimensionMismatch, DuplicateLabels, NotGale, UnknownLabel
from .linalg import Vec, mat, rank, vec

FACE_CARD_CAP = 8


@dataclass(frozen=True)
class VectorConfig:
    """Ordered, labeled configuration of vectors in a common space.

    Whether it is a Gale transform (`is_gale`) is decided on first use and
    kept on the instance; the configuration is immutable, so the verdict
    cannot go stale, and `==` and `hash` compare only the fields.
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

    def vector(self, label: int) -> Vec:
        try:
            return self.vectors[self.labels.index(label)]
        except ValueError:
            raise UnknownLabel(label) from None

    def subset(self, labels: Iterable[int]) -> list[Vec]:
        return [self.vector(l) for l in labels]

    @cached_property
    def is_gale(self) -> bool:
        """True iff every single-deletion subconfiguration positively spans."""
        n = len(self.vectors)
        return all(
            positively_spanning([self.vectors[j] for j in range(n) if j != i])
            for i in range(n)
        )


def _as_vectors(W) -> list[Vec]:
    if isinstance(W, VectorConfig):
        return list(W.vectors)
    return [vec(w) for w in W]


def positively_spanning(W) -> bool:
    """True iff the nonnegative combinations of W fill the whole space.

    Dual criterion: W spans positively iff no nonzero c has <c, w> <= 0 for
    all w.  A nonzero such c must have some coordinate of some sign, so 2e
    strict feasibility systems settle it.
    """
    vectors = _as_vectors(W)
    if not vectors:
        raise DimensionMismatch("empty set cannot span")
    e = len(vectors[0])
    base = [lp.le(w, 0) for w in vectors]
    for j in range(e):
        for s in (1, -1):
            direction = [Fraction(0)] * e
            direction[j] = Fraction(-s)
            if lp.lp_feasible(base + [lp.lt(direction, 0)]).feasible:
                return False
    return True


def positively_dependent(W) -> bool:
    """True iff some strictly positive combination of W is zero.

    Normalizing the coefficients to lam >= 1 makes this an exact cone
    query: lam = 1 + mu with mu >= 0 turns it into -sum(W) in cone(W).
    """
    vectors = _as_vectors(W)
    if not vectors:
        raise DimensionMismatch("empty set cannot be positively dependent")
    e = len(vectors[0])
    neg_total = tuple(-sum((w[j] for w in vectors), Fraction(0)) for j in range(e))
    return lp.cone_combination(vectors, neg_total) is not None


def is_gale_transform(G: VectorConfig) -> bool:
    """True iff every single-deletion subconfiguration positively spans.

    The verdict is decided on the first query of G and kept (`G.is_gale`).
    """
    return G.is_gale


def gale_face_test(G: VectorConfig, coface: Iterable[int]) -> bool:
    """Is conv{v_i : i in coface} a face of the polytope G encodes?

    Holds iff the complementary vectors are positively dependent.  Refuses
    to answer for configurations that are not Gale transforms, where the
    correspondence is meaningless.
    """
    if not G.is_gale:
        raise NotGale("face queries need a Gale transform")
    coface = frozenset(coface)
    unknown = coface - set(G.labels)
    if unknown:
        raise UnknownLabel(sorted(unknown)[0])
    complement = [l for l in G.labels if l not in coface]
    if not complement:
        return True  # improper face: the whole vertex set
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
    return all(
        rank(mat(sub)) == e for sub in itertools.combinations(G.vectors, e)
    )
