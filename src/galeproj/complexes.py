"""Abstract simplicial complexes: facet antichains and structured joins.

A `Complex` stores its facets, and face membership is a subset test
against them.  A `Join` stores its factors instead: its faces are the
unions of one face per factor, so its vertices, dimension and face test
come from the factors, and its facets, a product of the factors' facets,
are built only when asked for.  Joins tag vertex labels with a factor
prefix ("1:v", "2:v", ...) so repeated joins stay unambiguous;
downstream obstruction computations work factor by factor.

No deleted join is built here: the obstruction needs only its
dimension, which `obstructions.djn_dim_upper` reads off facet pairs.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import comb
from typing import Iterable

from .errors import DuplicateLabels, LabelOutsideVertexSet, Record, TooLargeForExact

Label = object  # ints or strings in practice
Face = frozenset

# candidate subsets times facets scanned in a minimal non-face sweep.  It
# took 65-170 ns per unit (about 100 typical) on point sets, cycles, complete
# graphs, simplex boundaries, 2-skeleta and random complexes, so a complex at
# the cap takes 20-50 s on a 2-core host
NONFACE_CAP = 300_000_000


def _label_key(label):
    return (0, label, "") if isinstance(label, int) else (1, 0, str(label))


def sort_labels(labels: Iterable) -> list:
    return sorted(labels, key=_label_key)


def sort_family(family: Iterable[Iterable]) -> list[list]:
    """Each set as a sorted list, the lists in lexicographic label order.

    The key of each distinct label is computed once and serves both sorts.
    """
    family = [tuple(f) for f in family]
    key = {x: _label_key(x) for x in set().union(*family)}.__getitem__
    return sorted((sorted(f, key=key) for f in family), key=lambda f: list(map(key, f)))


def _antichain(sets: Iterable[Face]) -> frozenset[Face]:
    """The inclusion-maximal sets; a set is compared only with the kept
    sets that are strictly larger, the only ones that can contain it."""
    kept: list[Face] = []
    for _, same_size in itertools.groupby(sorted(set(sets), key=len, reverse=True), key=len):
        larger = tuple(kept)
        kept.extend(s for s in same_size if not any(s < t for t in larger))
    return frozenset(kept)


class Complex(Record):
    """Simplicial complex on ordered vertices, given by its facets.

    `==` and `hash` read the vertex set, not the order of the vertices.
    """

    _fields = ("vertices", "facets")

    def __init__(self, vertices: tuple, facets: frozenset[Face]):
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise DuplicateLabels("duplicate vertex labels")
        for f in facets:
            if not f <= vs:
                raise LabelOutsideVertexSet(f"facet {sorted(f, key=_label_key)} uses undeclared labels")
        self.__dict__.update(vertices=vertices, facets=facets)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self.facets == other.facets

    def __hash__(self):
        return hash((frozenset(self.vertices), self.facets))

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def is_face(self, sigma: Iterable) -> bool:
        s = frozenset(sigma)
        return any(s <= f for f in self.facets)

    @cached_property
    def nonfaces(self) -> frozenset[Face]:
        """`minimal_nonfaces` of the complex, listed on first read and kept.

        The value lives in the instance dict, where `==` and `hash` do
        not look: they compare the vertex set and the facets alone.
        """
        return minimal_nonfaces(self)


def closure_from_facets(vertices: Iterable, facets: Iterable[Iterable]) -> Complex:
    """Complex on the given vertices with the antichain reduction of `facets`."""
    return Complex(tuple(vertices), _antichain(frozenset(f) for f in facets))


def _tag(prefix: str, label) -> str:
    return f"{prefix}:{label}"


def _tag_vertices(factors: Iterable[tuple[str, Complex]]) -> dict[str, tuple[int, Label]]:
    """Each factor vertex's tag "prefix:v", in factor order, mapped to
    (factor index, v).

    Two vertices that tag alike, like 1 and "1" under one prefix, raise
    LabelOutsideVertexSet naming both and the tag.
    """
    untag: dict[str, tuple[int, Label]] = {}
    for i, (prefix, K) in enumerate(factors):
        for v in K.vertices:
            tag = _tag(prefix, v)
            if tag in untag:
                raise LabelOutsideVertexSet(f"vertex labels {untag[tag][1]!r} and {v!r} both tag as {tag!r}")
            untag[tag] = (i, v)
    return untag


class Join(Complex):
    """Join of factor-tagged complexes, kept as its factors.

    `factors` holds (prefix, complex) pairs; the vertices are the factor
    vertices tagged "prefix:v".  The facets are built on first access and
    cached, so the obstruction chain, which reads only the factors, never
    builds them.
    """

    def __init__(self, factors: Iterable[tuple[str, Complex]]):
        factors = tuple(factors)
        untag = _tag_vertices(factors)
        self.__dict__.update(factors=factors, vertices=tuple(untag), _untag=untag)

    def __repr__(self):
        return f"Join({self.factors!r})"

    @cached_property
    def facets(self) -> frozenset[Face]:
        tagged = [[frozenset(_tag(prefix, v) for v in f) for f in K.facets] for prefix, K in self.factors]
        return frozenset(frozenset().union(*combo) for combo in itertools.product(*tagged))

    @property
    def dim(self) -> int:
        if not self.is_face(()):  # a factor without faces leaves none
            return -1
        return sum(K.dim + 1 for _, K in self.factors) - 1

    def is_face(self, sigma: Iterable) -> bool:
        parts: list[set] = [set() for _ in self.factors]
        for v in sigma:
            if v not in self._untag:
                return False
            i, label = self._untag[v]
            parts[i].add(label)
        return all(K.is_face(part) for (_, K), part in zip(self.factors, parts))

    def distinct_factors(self) -> list[tuple[Complex, int]]:
        """Each distinct factor object once, with the number of times it occurs."""
        counts: dict[int, list] = {}
        for _, K in self.factors:
            counts.setdefault(id(K), [K, 0])[1] += 1
        return [(K, m) for K, m in counts.values()]


def power_join(L: Complex, d: int) -> Join:
    """d-fold join of L with itself, factors tagged "1:", ..., "d:"."""
    if d < 1:
        raise ValueError("power_join needs d >= 1")
    return Join((str(k), L) for k in range(1, d + 1))


def complement_complex(K: Complex) -> Complex:
    """Closure of the facet complements; an involution on complexes."""
    vs = frozenset(K.vertices)
    return Complex(K.vertices, _antichain(vs - f for f in K.facets))


def minimal_nonfaces(K: Complex) -> frozenset[Face]:
    """Inclusion-minimal non-faces of K.

    Any minimal non-face has all proper subsets among the faces, so its
    size is at most dim(K) + 2; the sweep stops there.  It starts at the
    empty set, the one minimal non-face of a complex with no faces.

    Its work is the candidates, sum_{k <= dim + 2} C(n, k) for n vertices,
    times the facets each face test scans (those of the factors for a
    `Join`).  Past `NONFACE_CAP` it raises `TooLargeForExact` before the
    first face test.
    """
    verts = sort_labels(K.vertices)
    sizes = range(K.dim + 3)
    candidates = sum(comb(len(verts), k) for k in sizes)
    scanned = sum(len(F.facets) for _, F in K.factors) if isinstance(K, Join) else len(K.facets)
    if candidates * scanned > NONFACE_CAP:
        raise TooLargeForExact(
            f"minimal non-face sweep of {len(verts)} vertices up to size {K.dim + 2}"
            f" ({candidates} candidates x {scanned} facets = {candidates * scanned})"
            f" exceeds the cap {NONFACE_CAP}"
        )
    out: set[Face] = set()
    for size in sizes:
        for cand in itertools.combinations(verts, size):
            c = frozenset(cand)
            if K.is_face(c):
                continue
            if all(K.is_face(c - {x}) for x in c):
                out.add(c)
    return frozenset(out)


def points_complex(n: int) -> Complex:
    """n isolated points labeled 1..n."""
    if n < 1:
        raise ValueError("points_complex needs n >= 1")
    return Complex(tuple(range(1, n + 1)), frozenset(frozenset([i]) for i in range(1, n + 1)))


def complete_bipartite(part_a: Iterable, part_b: Iterable) -> Complex:
    """Complete bipartite graph between two label sets, as a 1-complex."""
    a, b = list(part_a), list(part_b)
    facets = frozenset(frozenset([x, y]) for x in a for y in b)
    return Complex(tuple(a) + tuple(b), facets)
