"""End-to-end drivers: the vertex bounds, Minkowski sum vertices, the
obstruction chain, the worked two-triangle projection, and randomized
empirical checks.

These five builders make every scenario report.  Each returns a
PipelineReport whose checks each carry the claim they verify; the CLI
only prints reports and turns them into exit codes.  All randomness is
seeded and split per trial (trial i uses seed * 1_000_003 + i), so runs
are reproducible trial by trial.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, prod
from typing import NamedTuple, Sequence

from .complexes import (
    complete_bipartite,
    complement_complex,
    points_complex,
    power_join,
    sort_family,
    sort_labels,
)
from .errors import EpsilonOutOfRange, HypothesisViolated, Record, TooLargeForExact
from .gale import VectorConfig, general_position, gale_faces_of_card
from .linalg import Mat, affine_rank, frac, mat
from .obstructions import lovasz_kneser_chi, nonembeddable
from .polytopes import (
    HPolytope,
    VPolytope,
    dual_boundary_complex,
    h_vertices,
    is_simple,
    minkowski_sum_vertices,
    normal_fan_tuples,
    trivial_upper_bound,
)
from .projections import g_vectors, oracle_survival, vertex_survival_census
from .serialize import vec_json


class Check(NamedTuple):
    claim: str
    passed: bool
    detail: str = ""


class PipelineReport(Record):
    """A scenario's inputs, results, checks and notes; its builder fills it in, so it is mutable."""

    _fields = ("scenario", "inputs", "results", "checks", "notes")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, scenario: str, inputs: dict, results: dict | None = None):
        self.scenario, self.inputs = scenario, inputs
        self.results = {} if results is None else results
        self.checks: list[Check] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, claim: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(claim, bool(passed), detail))

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "inputs": self.inputs,
            "results": self.results,
            "checks": [c._asdict() for c in self.checks],
            "notes": self.notes,
            "passed": self.passed,
        }


def _require_summands(d: int, r: int, f0s: Sequence[int]) -> None:
    if len(f0s) != r:
        raise HypothesisViolated(f"need one vertex count per summand, got {len(f0s)} for r={r}")
    bad = [f for f in f0s if f <= d]
    if bad:
        raise HypothesisViolated(f"every summand needs at least d+1={d + 1} vertices, got {bad}")


def minkowski_vertex_bound(d: int, r: int, f0s: Sequence[int]) -> Fraction:
    """Upper bound (1 - 1/(d+1)^d) * prod f0_i on the sum's vertex count.

    Valid for d >= 2 and r >= d summands, each with at least d+1 vertices
    (`vertex_bounds` derives r > d); at d = 1 a segment has 2 vertices.
    """
    if d < 2:
        raise HypothesisViolated(f"need d >= 2, got {d}")
    if r < d:
        raise HypothesisViolated(f"need r >= d, got r={r} < d={d}")
    _require_summands(d, r, f0s)
    return (1 - Fraction(1, (d + 1) ** d)) * trivial_upper_bound(f0s)


def vertex_bounds(d: int, r: int, f0s: Sequence[int]) -> PipelineReport:
    """The trivial and the sharpened vertex bound, with the count behind it.

    Counting argument over the first d summands: every (d+1)-subset choice
    from each yields a simplex sum that misses the trivial bound; each
    vertex tuple occurs in prod C(f0_i-1, d) of those subsums, and the
    ratio of the two counts telescopes to prod(f0_i) / (d+1)^d over those
    summands.  For r > d a vertex tuple of the sum restricts to one of the
    first d summands, so each failing restricted tuple fails with every one
    of the `other_summand_tuples` choices from the rest: prod(f0_i) /
    (d+1)^d over all r.
    """
    value = minkowski_vertex_bound(d, r, f0s)
    trivial = trivial_upper_bound(f0s)
    failing = Fraction(trivial, (d + 1) ** d)
    choices = prod(comb(f, d + 1) for f in f0s[:d])
    per_tuple = prod(comb(f - 1, d) for f in f0s[:d])
    other = prod(f0s[d:])
    results = {
        "trivial_bound": trivial,
        "sharpened_bound": str(value),
        "failing_sums_at_least": str(failing),
        "simplex_subset_choices": choices,
        "subsums_per_tuple": per_tuple,
    }
    if r > d:
        results["other_summand_tuples"] = other
    if Fraction(choices, per_tuple) * other != failing:
        raise AssertionError("binomial ratio identity failed")
    report = PipelineReport("vertex_bounds", {"d": d, "r": r, "f0s": list(f0s)}, results=results)
    report.check(
        "the sharpened bound improves on the trivial bound",
        value < trivial,
        f"{value} < {trivial}",
    )
    return report


# at d = 2 the vertex tuples are read a second way, off the normal fans
FAN_CLAIM = "the normal-fan tuples equal the Gordan tuples, tuple for tuple"


def minkowski_sum_report(polys: Sequence[HPolytope | VPolytope], inputs: Sequence[str]) -> PipelineReport:
    """Vertices of the Minkowski sum, checked against the trivial bound
    and, in the plane, tuple for tuple against `normal_fan_tuples`.

    An H-polytope enters the sum by its vertices.  f0(P_i) is read off the
    vertex tuples: every vertex of P_i lies in some tuple, and a point that
    is not a vertex lies in none.  Sums whose vertex tests measure past
    `EXPERIMENT_CAP` raise TooLargeForExact before the first test.
    """
    summands = [
        P if isinstance(P, VPolytope) else VPolytope([r.vertex_coords for r in h_vertices(P)]) for P in polys
    ]
    d = max((Q.dim for Q in summands), default=0)
    tuples, columns, work = _vertex_test_work(d, [len(Q.points) for Q in summands])
    if work > EXPERIMENT_CAP:
        size = f"{tuples} tuples x {columns} LP columns x (d+1)^2 = {work}"
        raise TooLargeForExact(f"minksum of {size} exceeds the cap {EXPERIMENT_CAP}")
    sums = minkowski_sum_vertices(summands)
    bound = trivial_upper_bound([len({choice[i] for choice, _ in sums}) for i in range(len(summands))])
    report = PipelineReport(
        "minkowski_sum",
        {"inputs": list(inputs)},
        results={
            "f0_sum": len(sums),
            "trivial_bound": bound,
            "vertices": [vec_json(pt) for _, pt in sums],
            "choices": [list(choice) for choice, _ in sums],
        },
    )
    report.check(
        "the sum has at most prod f0(P_i) vertices",
        len(sums) <= bound,
        f"{len(sums)} <= {bound}",
    )
    if d == 2:
        fan = sorted(normal_fan_tuples(summands))
        report.check(FAN_CLAIM, fan == [choice for choice, _ in sums], f"{len(fan)} and {len(sums)} tuples")
    return report


# ---------------------------------------------------------------------------
# the deformed product of two triangles and its projection to the plane

TRIANGLE_PRODUCT_PROJECTION: Mat = mat([[1, 0, 0, 0], [0, 0, 0, 1]])


def deformed_triangle_product(eps) -> HPolytope:
    """The 6-facet system in R^4 that deforms a product of two triangles.

    At eps = 0 it is an honest product; for 0 < eps < 1 the combinatorial
    type is unchanged but the two triangle blocks get coupled, which is
    what makes an 8-vertex shadow possible.
    """
    e = frac(eps)
    rows = [
        [1, 1, 0, 0],
        [-1, 1, 0, 0],
        [0, -1, -e, 0],
        [0, -e, -1, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
    ]
    return HPolytope(rows, [1] * 6)


def coupling_g_matrix(eps) -> VectorConfig:
    """Closed form of the projected dual vertices of the deformed product."""
    e = frac(eps)
    return VectorConfig(
        [(1, 0), (1, 0), (-1, -e), (-e, -1), (0, 1), (0, 1)],
        labels=(1, 2, 3, 4, 5, 6),
    )


def _octahedron_checks(report: PipelineReport, G: VectorConfig) -> list[frozenset[int]]:
    """Check the octahedron encoded by G; return its 2-faces (edges)."""
    report.check(
        "the g-vectors form a Gale transform (every single deletion spans)",
        G.is_gale,
    )
    faces = [gale_faces_of_card(G, k) for k in (1, 2, 3)]
    counts = [len(f) for f in faces]
    report.results["face_counts"] = counts
    report.check(
        "the encoded polytope has octahedron face counts (6, 12, 8)",
        counts == [6, 12, 8],
        f"got {counts}",
    )
    gp = general_position(G)
    report.results["general_position"] = gp
    report.check(
        "repeated g-columns keep the configuration out of general position",
        not gp,
        "pairs of equal vectors are linearly dependent",
    )
    return faces[1]


def two_triangle_example(eps) -> PipelineReport:
    """Reproduce the worked projection of a deformed two-triangle product.

    For 0 < eps < 1: the system is simple with the 9 product vertices,
    the shadow is an 8-gon, exactly one vertex fails to survive, and the
    complete bipartite complement complex minus the corresponding edge is
    realized in the boundary of the encoded octahedron.  At eps = 1 two
    facet rows coincide, so only the g-matrix side is reported.
    """
    e = frac(eps)
    if not 0 < e <= 1:
        raise EpsilonOutOfRange(f"need 0 < eps <= 1, got {e}")
    report = PipelineReport("two_triangle_example", {"epsilon": str(e)})
    G = coupling_g_matrix(e)

    if e == 1:
        report.notes.append(
            "at eps = 1 facet rows 3 and 4 coincide, so the inequality system "
            "degenerates; the g-matrix is analyzed as a standalone configuration"
        )
        _octahedron_checks(report, G)
        return report

    P = deformed_triangle_product(e)
    records = h_vertices(P)
    report.results["f0"] = len(records)
    report.check("the system has 9 vertices", len(records) == 9, f"got {len(records)}")
    report.check("the system is a simple polytope", is_simple(P))
    incidences = {r.tight_facets for r in records}
    expected = {
        frozenset(a) | frozenset(b)
        for a in itertools.combinations((1, 2, 3), 2)
        for b in itertools.combinations((4, 5, 6), 2)
    }
    report.check(
        "vertex-facet incidences are the two-triangle product pattern",
        incidences == expected,
    )

    g = g_vectors(P, TRIANGLE_PRODUCT_PROJECTION)
    report.check("projected dual vertices match the closed-form coupling matrix", g == G)
    edges = _octahedron_checks(report, g)

    census = vertex_survival_census(P, g)
    oracle = oracle_survival(P, TRIANGLE_PRODUCT_PROJECTION)
    surviving = sum(r.strictly_preserved for r in census)
    report.results["surviving"] = surviving
    report.results["image_vertex_count"] = oracle.image_vertex_count
    report.check(
        "exactly 8 of the 9 vertices are strictly preserved",
        (len(census), surviving) == (9, 8),
        f"surviving {surviving} of {len(census)}",
    )
    report.check(
        "the shadow is an 8-gon",
        oracle.image_vertex_count == 8,
        f"image has {oracle.image_vertex_count} vertices",
    )
    report.check(
        "the g-vector census equals the image/fiber oracle vertex-for-vertex",
        census == oracle.records,
    )

    failing = [r.tight_facets for r in census if not r.strictly_preserved]
    all_labels = frozenset(P.facet_labels)
    missing_edges = [all_labels - f for f in failing]
    report.results["failing_vertices"] = [sort_labels(f) for f in failing]
    report.results["missing_edges"] = [sort_labels(m) for m in missing_edges]

    k33 = complete_bipartite((1, 2, 3), (4, 5, 6))
    absent = sorted(k33.facets - set(edges), key=sort_labels)
    report.check(
        "exactly one bipartite edge is missing from the encoded skeleton",
        len(absent) == 1 and set(absent) == set(missing_edges),
        f"missing {[sort_labels(a) for a in absent]}",
    )

    realized = k33.facets & set(edges)
    if len(absent) == 1:
        report.check(
            "the bipartite graph minus that edge is realized in the boundary",
            realized == k33.facets - {absent[0]},
        )
    report.check(
        "the full bipartite graph is not realized in the boundary",
        realized != k33.facets,
    )
    report.check(
        "the complement complex of the dual boundary is the complete "
        "bipartite graph on the two facet triples",
        complement_complex(dual_boundary_complex(P)) == k33,
    )
    return report


def obstruction_pipeline(d: int) -> PipelineReport:
    """The general-d obstruction chain for d-fold products of d-simplices.

    Builds the d-fold join of d+1 points (kept as its factors, never as
    its (d+1)^d facets), runs the chain, which colors the factor once and
    exactly (its Kneser graph by the solver up to the cap, past it the
    non-face family by the certified KG(n, k) coloring, with no graph
    built), assembles the index interval [2d-1, 2d-1], and records the
    consequence: a projection to d-space keeps at most (d+1)^d - 1 of the
    (d+1)^d vertices.  The factor coloring, the chain's chi over d, is
    checked against Lovasz's value d-1 where his theorem applies
    (d+1 >= 4), and against chi = 1 for the edgeless KG(3,2) at d = 2.
    """
    if d < 2:
        raise HypothesisViolated("the obstruction needs d >= 2 (d = 1 is vacuous)")
    report = PipelineReport("obstruction_pipeline", {"d": d})
    factor = points_complex(d + 1)
    K = power_join(factor, d)
    n = len(K.vertices)
    report.results["n"] = n
    report.check(
        "the d-fold join of d+1 points has d(d+1) vertices",
        n == d * (d + 1),
        f"got {n}",
    )

    nf = sort_family(factor.nonfaces)
    report.check(
        "the factor's minimal non-faces are exactly the 2-element subsets",
        nf == [list(c) for c in itertools.combinations(range(1, d + 2), 2)],
        f"{len(nf)} non-faces",
    )

    # K is d copies of one factor object, which the chain colors once.
    verdict = nonembeddable(K, 2 * d - 2)
    chi_factor, rest = divmod(verdict.chi_used, d)
    report.results["chi_factor"] = chi_factor
    if d + 1 >= 4:  # Lovasz's range n >= 2k for the 2-subsets of d+1 points
        formula = lovasz_kneser_chi(d + 1, 2)
        report.check(
            "exact factor coloring matches the closed-form Kneser value d-1",
            rest == 0 and chi_factor == formula == d - 1,
            f"solver {chi_factor}, formula {formula}",
        )
    else:
        # d = 2: no two 2-subsets of three points are disjoint.
        num_edges = sum(1 for s, t in itertools.combinations(nf, 2) if not set(s) & set(t))
        report.check(
            "exact factor coloring of the edgeless Kneser graph KG(3,2) is 1 = d-1",
            rest == 0 and num_edges == 0 and chi_factor == 1 == d - 1,
            f"solver {chi_factor}, {num_edges} edges",
        )

    report.results["chi_total"] = verdict.chi_used
    report.results["sarkaria_lower"] = verdict.sarkaria_lower
    report.results["djn_dim_upper"] = verdict.djn_dim_upper
    report.results["target_sphere"] = verdict.target_sphere
    report.results["embeddable"] = verdict.embeddable
    report.check(
        "chromatic numbers add over the bipartite sum to d(d-1)",
        verdict.chi_used == d * (d - 1),
        f"chi = {verdict.chi_used}",
    )
    report.check(
        "index lower and upper bounds agree at 2d-1",
        verdict.sarkaria_lower == verdict.djn_dim_upper == 2 * d - 1,
        f"[{verdict.sarkaria_lower}, {verdict.djn_dim_upper}]",
    )
    report.check(
        "the complex does not embed into the (2d-2)-sphere",
        verdict.embeddable == "no",
        f"{verdict.sarkaria_lower} > {2 * d - 2}",
    )
    f0 = (d + 1) ** d
    report.results["f0_product"] = f0
    report.results["f0_shadow_bound"] = f0 - 1
    report.notes.append(
        "consequence: no realization with this product combinatorics keeps "
        f"all {f0} vertices under a projection to {d}-space; the shadow has "
        f"at most {f0 - 1} vertices"
    )
    return report


# ---------------------------------------------------------------------------
# seeded random experiments


# units of `_vertex_test_work`, the cap of random_experiment's trials and
# of one minksum; one took 0.5-2.9 us in measured runs, so a call at the
# cap takes up to about a minute on a 2-core host
EXPERIMENT_CAP = 20_000_000


def _vertex_test_work(d: int, f0s: Sequence[int]) -> tuple[int, int, int]:
    """(tuples, columns, work) of the Minkowski vertex tests of summands
    of f0_i points in R^d: prod f0_i vertex tuples, each one LP with
    sum (f0_i - 1) columns, and work = tuples x columns x (d+1)^2."""
    tuples, columns = trivial_upper_bound(f0s), sum(f0s) - len(f0s)
    return tuples, columns, tuples * columns * (d + 1) ** 2


def sample_vpolytope(rng: random.Random, d: int, f0: int) -> VPolytope:
    """f0 random rational points of S^{d-1}, each a vertex of their hull.

    Inverse stereographic projection u -> (2u, |u|^2 - 1) / (|u|^2 + 1) is
    injective, so f0 distinct u in Z^{d-1}, with distinct first coordinates
    from [-s, s], s = max(f0, 50), give f0 vertices of the strictly convex
    ball.  A flat sample (d >= 3: on one (d-2)-sphere) is drawn again.
    """
    if not 2 <= d < f0:
        raise HypothesisViolated(f"need 2 <= d < f0, got d={d}, f0={f0}")
    s = max(f0, 50)
    while True:
        pts = []
        for first in rng.sample(range(-s, s + 1), f0):
            u = (first, *(rng.randint(-s, s) for _ in range(d - 2)))
            n = sum(x * x for x in u)
            pts.append(tuple(Fraction(2 * x, n + 1) for x in u) + (Fraction(n - 1, n + 1),))
        if affine_rank(pts) == d:
            return VPolytope(pts)


def random_experiment(d: int, r: int, f0s: Sequence[int], trials: int, seed: int) -> PipelineReport:
    """Empirical probe of the vertex-count bounds on random instances.

    For r >= d the sharpened bound is enforced; for r < d only the trivial
    bound applies and attainment is possible, so no pass/fail is attached
    to it.  Calls past `EXPERIMENT_CAP` of trials x prod f0_i x
    sum (f0_i - 1) x (d+1)^2 raise TooLargeForExact unsampled.  In the
    plane every trial's vertex tuples are also read off the normal fans,
    with no LP, and must equal the Gordan tuples.
    """
    _require_summands(d, r, f0s)
    if trials < 1:
        raise HypothesisViolated(f"need at least one trial, got {trials}")
    trivial, columns, work = _vertex_test_work(d, f0s)
    work *= trials
    if work > EXPERIMENT_CAP:
        size = f"{trials} trials x {trivial} tuples x {columns} LP columns x (d+1)^2 = {work}"
        raise TooLargeForExact(f"experiment of {size} exceeds the cap {EXPERIMENT_CAP}")
    bound = minkowski_vertex_bound(d, r, f0s) if r >= d else None
    counts = []
    fan_agrees = 0
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        polys = [sample_vpolytope(rng, d, f) for f in f0s]
        sums = minkowski_sum_vertices(polys)
        counts.append(len(sums))
        if d == 2:
            fan_agrees += sorted(normal_fan_tuples(polys)) == [choice for choice, _ in sums]
    max_count = max(counts)
    report = PipelineReport(
        "random_experiment",
        {"d": d, "r": r, "f0s": list(f0s), "trials": trials, "seed": seed},
        results={"counts": counts, "max_observed": max_count, "trivial_bound": trivial},
    )
    report.check(
        "no trial exceeded the trivial bound (product of vertex counts)",
        all(c <= trivial for c in counts),
        f"max {max_count} <= {trivial}",
    )
    if bound is not None:
        report.results["sharpened_bound"] = str(bound)
        report.check(
            "no trial exceeded the sharpened bound (1 - 1/(d+1)^d) * product",
            all(Fraction(c) <= bound for c in counts),
            f"max {max_count} <= {bound}",
        )
    else:
        report.notes.append(
            "r < d: attainment of the trivial bound is possible in principle; "
            "observed maximum reported without pass/fail"
        )
    if d == 2:
        # every edge of a sum of polygons is parallel to an edge of a summand
        f0_bound = sum(f0s)
        report.check(
            "planar sums stayed within the sum of the summands' vertex counts",
            all(c <= f0_bound for c in counts),
            f"max {max_count} <= {f0_bound}",
        )
        report.check(FAN_CLAIM, fan_agrees == trials, f"{fan_agrees} of {trials} trials")
    return report
