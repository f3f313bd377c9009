"""Embeddability obstructions via Kneser graphs of minimal non-faces.

The pipeline is: minimal non-faces -> disjointness (Kneser) graph ->
chromatic number -> lower bound n - chi - 1 on the index of the deleted
join, against the upper bound given by its dimension.  A lower bound
exceeding d rules out an embedding into the d-sphere; the criterion is
one-directional, so the alternative verdict is "unknown", never "yes".

Joins (`complexes.Join`) are handled from their factors and never
materialised: minimal non-faces of a join are the tagged non-faces of
the factors, the Kneser graph is the bipartite sum of the factor graphs,
and chromatic numbers add over bipartite sums.  Each distinct factor is
colored once, however often it occurs.

Every chromatic number is exact.  Branch-and-bound colors graphs up to
`EXACT_CAP` vertices; a factor with more non-faces is colored without
building its graph when they are all k-subsets of an n-set with n >= 2k
(Lovasz's theorem), and raises TooLargeForExact otherwise.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .complexes import Complex, Join, sort_family, sort_labels
from .errors import HypothesisViolated, OutOfTheoremRange, TooLargeForExact

EXACT_CAP = 32


class Graph(NamedTuple):
    """Finite simple graph; edges are unordered pairs of vertex labels."""

    vertices: tuple
    edges: frozenset[frozenset]


def kneser_graph(family: Iterable[Iterable]) -> Graph:
    """Vertex per set, edge iff the sets are disjoint.

    Vertices are labeled by the sorted tuple of the set's elements and
    listed in `sort_family` order.
    """
    labels = [tuple(f) for f in sort_family({frozenset(f) for f in family})]
    if not labels:
        raise ValueError("kneser_graph needs a nonempty family")
    sets = [frozenset(f) for f in labels]
    edges = [
        frozenset([labels[i], labels[j]])
        for i, j in itertools.combinations(range(len(sets)), 2)
        if not (sets[i] & sets[j])
    ]
    return Graph(tuple(labels), frozenset(edges))


def _adjacency(G: Graph) -> list[set[int]]:
    index = {v: i for i, v in enumerate(G.vertices)}
    adj: list[set[int]] = [set() for _ in G.vertices]
    for e in G.edges:
        a, b = tuple(e)
        adj[index[a]].add(index[b])
        adj[index[b]].add(index[a])
    return adj


def _greedy_clique(adj: Sequence[set[int]]) -> list[int]:
    order = sorted(range(len(adj)), key=lambda v: -len(adj[v]))
    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    return clique


def _greedy_coloring(adj: Sequence[set[int]]) -> int:
    order = sorted(range(len(adj)), key=lambda v: -len(adj[v]))
    colors: dict[int, int] = {}
    for v in order:
        used = {colors[u] for u in adj[v] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return max(colors.values(), default=-1) + 1


def _k_colorable(adj: Sequence[set[int]], k: int, clique: Sequence[int]) -> bool:
    """Whether the graph has a proper k-coloring extending clique[i] -> i.

    DSATUR (Brelaz 1979): branch on the uncolored vertex of most distinct
    neighbour colors, then largest degree, then least index.  Invariant:
    for every uncolored vertex u, bit c of `sat[u]` is set iff some colored
    neighbour of u has color c.  Coloring v with c sets bit c on the
    uncolored neighbours that lacked it and records them; undoing the
    color clears bit c on exactly those, so no node rescans a neighbourhood.
    """
    sat = [0] * len(adj)
    deg = [len(nbrs) for nbrs in adj]
    uncolored = set(range(len(adj))) - set(clique)
    for c, v in enumerate(clique):
        for u in adj[v]:
            sat[u] |= 1 << c

    def extend(highest: int) -> bool:
        if not uncolored:
            return True
        v = max(uncolored, key=lambda u: (sat[u].bit_count(), deg[u], -u))
        used = sat[v]
        if used.bit_count() >= k:
            return False
        uncolored.remove(v)
        for c in range(min(k - 1, highest + 1) + 1):
            bit = 1 << c
            if not used & bit:
                gained = [u for u in adj[v] if u in uncolored and not sat[u] & bit]
                for u in gained:
                    sat[u] |= bit
                if extend(max(highest, c)):
                    return True
                for u in gained:
                    sat[u] ^= bit
        uncolored.add(v)
        return False

    return extend(len(clique) - 1)


def chromatic_number(G: Graph) -> int:
    """Exact chromatic number by branch-and-bound.

    A greedy clique is the lower bound and a largest-degree-first greedy
    coloring the upper bound; between them the search branches on the
    most saturated vertex and introduces colors canonically.  Graphs with
    more than `EXACT_CAP` vertices raise TooLargeForExact.
    """
    n = len(G.vertices)
    if n == 0:
        return 0
    if n > EXACT_CAP:
        raise TooLargeForExact(f"{n} vertices exceed the exact cap {EXACT_CAP}")
    adj = _adjacency(G)
    ub = _greedy_coloring(adj)
    clique = _greedy_clique(adj)
    for k in range(len(clique), ub):
        if _k_colorable(adj, k, clique):
            return k
    return ub


def lovasz_kneser_chi(n: int, k: int) -> int:
    """Chromatic number n - 2k + 2 of the Kneser graph KG_{n,k}.

    Lovasz's theorem (Kneser's conjecture) covers k >= 1 and n >= 2k; any
    other (n, k) raises OutOfTheoremRange.  For k <= n < 2k no two k-sets
    are disjoint, so KG_{n,k} is edgeless with chromatic number 1; callers
    that meet that case handle it themselves.
    """
    if k < 1 or n < 2 * k:
        raise OutOfTheoremRange(f"need k >= 1 and n >= 2k, got n={n}, k={k}")
    return n - 2 * k + 2


def certified_kneser_chi(family: Iterable[Iterable]) -> int | None:
    """Chromatic number n - 2k + 2 of the family's Kneser graph, or None.

    The family qualifies when it is exactly the k-subsets of its n-element
    union, k >= 1 and n >= 2k, so that its Kneser graph is KG(n, k).
    Coloring each set by min(rank of its least element, chi) is checked on
    the family: a set of color c < chi holds the c-th element and one of
    color chi lies in the last 2k - 1, so each class is intersecting.  That
    bounds chi from above; Lovasz's theorem bounds it from below.
    """
    sets = {frozenset(f) for f in family}
    ground = sort_labels(frozenset().union(*sets))
    n, k = len(ground), min(map(len, sets), default=0)
    if k < 1 or n < 2 * k or any(len(s) != k for s in sets):
        return None
    # whole iff no k-subset is missing; the first miss ends the sweep early
    if not all(frozenset(c) in sets for c in itertools.combinations(ground, k)):
        return None
    chi = lovasz_kneser_chi(n, k)
    rank = {v: i for i, v in enumerate(ground, 1)}
    tail = frozenset(ground[chi - 1 :])
    color = {s: min(min(rank[v] for v in s), chi) for s in sets}
    if any(not (ground[c - 1] in s if c < chi else s <= tail) for s, c in color.items()):
        return None
    return chi


class ObstructionVerdict(NamedTuple):
    """The bounds `nonembeddable` compares; `embeddable` is "no" or "unknown"."""

    complex_size: int
    chi_used: int
    sarkaria_lower: int
    djn_dim_upper: int
    target_sphere: int
    embeddable: str


def nonface_kneser_chi(K: Complex) -> int:
    """Chromatic number of the Kneser graph of K's minimal non-faces.

    Joins are decomposed factor by factor: the full Kneser graph is the
    bipartite sum of the factor graphs, so the chromatic numbers add.
    Each distinct factor is colored once and counted with its multiplicity.
    A factor with more than `EXACT_CAP` non-faces is read off the family
    by `certified_kneser_chi`, and no graph is built.
    """
    if isinstance(K, Join):
        return sum(times * nonface_kneser_chi(factor) for factor, times in K.distinct_factors())
    nf = K.nonfaces
    if not nf:
        return 0
    if len(nf) > EXACT_CAP:
        chi = certified_kneser_chi(nf)
        if chi is None:
            raise TooLargeForExact(
                f"{len(nf)} non-faces exceed the exact cap {EXACT_CAP}"
                " and are not all k-subsets of an n-set with n >= 2k"
            )
        return chi
    return chromatic_number(kneser_graph(nf))


def djn_dim_upper(K: Complex) -> int:
    """Dimension of the deleted join, an upper bound for its index.

    Computed from facet pairs: the largest disjoint face pair has the form
    (F, G - F) over facets F, G, with |F | G| vertices.  Joins add up
    factor dimensions (plus one per extra factor), taking each distinct
    factor's once.  A join with a factor that has no faces has none
    either, and neither has its deleted join: -1, as for any complex
    without faces.
    """
    if not K.is_face(()):
        return -1
    if isinstance(K, Join):
        total = sum(times * djn_dim_upper(factor) for factor, times in K.distinct_factors())
        return total + len(K.factors) - 1
    return max((len(f | g) for f in K.facets for g in K.facets), default=0) - 1


def nonembeddable(K: Complex, d: int) -> ObstructionVerdict:
    """Verdict "no" iff the index lower bound n - chi - 1 exceeds d; else "unknown".

    Sarkaria's bound needs the empty face, so a complex without faces (a
    join with a void factor, say) is refused.  A lower bound above the
    dimension of the deleted join means a wrong colouring, and raises
    ValueError.
    """
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    if not K.is_face(()):
        raise HypothesisViolated("the complex has no faces, not even the empty one")
    n = len(K.vertices)
    chi = nonface_kneser_chi(K)
    lower, upper = n - chi - 1, djn_dim_upper(K)
    if lower > upper:
        raise ValueError("lower bound exceeds the dimension upper bound")
    return ObstructionVerdict(n, chi, lower, upper, d, "no" if lower > d else "unknown")
