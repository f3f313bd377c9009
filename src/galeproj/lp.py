"""Exact linear feasibility with certificates.

Phase 1 of a simplex (Bland's rule, hence terminating) is the only
algorithm: it finds a point of {x >= 0, rows} or proves there is none.
Systems of ``<=``, ``=`` and strict ``<`` constraints on free, unbounded
variables reduce to it by homogenisation (see `lp_feasible`).  Every
feasible verdict carries a re-checked witness.

The tableau is integer over one common denominator D > 0 and pivots by
the fraction-free update of Edmonds (1967), as Avis's lrs (2000) does:
each division is exact and no gcd is taken while pivoting.  Rationals
occur only where rows come in and where the witness goes out.
The tableau differs from the rational one only by positive scalings of
rows and of slack/artificial columns, which keep every sign Bland's rule
reads, so the pivots are those of a rational simplex (see `_solve_nonneg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import DimensionMismatch
from .linalg import Vec, frac, integer_row, vdot, vec

LE = "<="
EQ = "="
LT = "<"


@dataclass(frozen=True)
class LinConstraint:
    coeffs: Vec
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LE, EQ, LT):
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds(self, x: Vec) -> bool:
        lhs = vdot(self.coeffs, x)
        if self.relation == LE:
            return lhs <= self.rhs
        if self.relation == EQ:
            return lhs == self.rhs
        return lhs < self.rhs


def le(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), LE, frac(rhs))


def eq(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), EQ, frac(rhs))


def lt(coeffs: Iterable, rhs) -> LinConstraint:
    return LinConstraint(vec(coeffs), LT, frac(rhs))


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible"
    witness: Vec | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


INFEASIBLE = FeasibilityResult("infeasible")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(T, basis, Z, D, r, c):
    """Fraction-free pivot on T[r][c] > 0; returns the new denominator p.

    Row r stays; the other rows and Z become (x*p - f*y) / D, exactly.
    """
    prow = T[r]
    p = prow[c]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and (f or p != D):
            T[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
    f = Z[c]
    Z[:] = [(x * p - f * y) // D for x, y in zip(Z, prow)]
    basis[r] = c
    return p


def _simplex_max(T, basis, Z, D, allowed):
    """Maximize the phase-1 objective with Bland's rule; returns D.

    Z holds D times the reduced costs, and Z[-1] / D is -(value).  As
    D > 0, the ratio test compares rhs_i / T[i][enter] cross-multiplied,
    so every pivot element is positive.
    """
    while True:
        enter = next((j for j in allowed if Z[j] > 0), None)
        if enter is None:
            return D
        candidates = [i for i, row in enumerate(T) if row[enter] > 0]
        if not candidates:
            # phase 1 maximizes -(sum of artificials), which is capped at 0,
            # so no improving ray can exist
            raise AssertionError("capped objective cannot be unbounded")
        best = candidates[0]
        for i in candidates[1:]:
            lhs, rhs = T[i][-1] * T[best][enter], T[best][-1] * T[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        D = _pivot(T, basis, Z, D, best, enter)


def _solve_nonneg(raw_rows, nvars):
    """A point of {x >= 0, rows} by phase 1, or None; rows are (coeffs, rel, rhs).

    Row i is scaled by the lcm lam_i of its denominators and its slack or
    artificial gets entry 1, so the first basis is the identity and D = 1.
    The phase-1 objective -sum a_i reads -sum (L / lam_i) a'_i in the
    scaled artificials a'_i = lam_i a_i, L the lcm of the lam_i.  That
    multiplies each reduced cost by a positive number, and each ratio test
    is scaled by one positive factor, ties included, so Bland's rule picks
    the pivots of the rational tableau.  An artificial still basic at the
    end has value 0 and is not read.
    """
    nslack = sum(1 for _, rel, _ in raw_rows if rel == LE)
    art_start = nvars + nslack
    width = art_start + sum(1 for _, rel, rhs in raw_rows if rel != LE or rhs < 0)
    T, basis, arts = [], [], []
    s_at = nvars
    for coeffs, rel, rhs in raw_rows:
        ints, lam = integer_row([*coeffs, rhs])
        row = ints[:-1] + [0] * (width - nvars) + ints[-1:]
        if rel == LE:
            row[s_at] = 1
            s_at += 1
        if rhs < 0:
            row = [-x for x in row]
        if rel == LE and rhs >= 0:
            basis.append(s_at - 1)
        else:
            basis.append(art_start + len(arts))
            row[basis[-1]] = 1
            arts.append((row, lam))
        T.append(row)

    D = 1
    if arts:
        # D times the reduced costs of -sum (L / lam_i) a'_i at the identity basis
        L = lcm(*(lam for _, lam in arts))
        Z = [sum(L // lam * row[j] for row, lam in arts) for j in range(width + 1)]
        Z[art_start:width] = [0] * len(arts)
        D = _simplex_max(T, basis, Z, D, range(art_start))
        if Z[-1] > 0:
            return None

    x = [_ZERO] * nvars
    for row, b in zip(T, basis):
        if b < nvars:
            x[b] = Fraction(row[-1], D)
    return x


def nonneg_combination(eq_rows: list[tuple[list, Fraction]], nvars: int) -> list[Fraction] | None:
    """Solve {x >= 0, equality rows} by phase 1; a re-checked witness or None.

    Cheaper than `lp_feasible` for cone and convex-hull membership because
    the sign constraints are native to the simplex variables.
    """
    rows = [([frac(a) for a in coeffs], EQ, frac(rhs)) for coeffs, rhs in eq_rows]
    x = _solve_nonneg(rows, nvars)
    if x is None:
        return None
    if any(v < 0 for v in x) or any(vdot(coeffs, x) != rhs for coeffs, _, rhs in rows):
        raise AssertionError("simplex returned an invalid witness")
    return x


def _membership_rows(vectors, target, kind):
    """Equality rows sum(lam_i * v_i) = target, one per coordinate."""
    vectors = [vec(v) for v in vectors]
    target = vec(target)
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch(f"{kind} membership with mixed dimensions")
    return [([v[r] for v in vectors], target[r]) for r in range(len(target))]


def cone_combination(vectors, target) -> list[Fraction] | None:
    """Coefficients lam >= 0 with sum(lam_i * v_i) = target, or None."""
    vectors = list(vectors)
    return nonneg_combination(_membership_rows(vectors, target, "cone"), len(vectors))


def convex_combination(points, target) -> list[Fraction] | None:
    """Coefficients of target as a convex combination of points, or None."""
    points = list(points)
    eq_rows = _membership_rows(points, target, "convex") + [([_ONE] * len(points), _ONE)]
    return nonneg_combination(eq_rows, len(points))


def lp_feasible(constraints: Iterable[LinConstraint], dim: int | None = None) -> FeasibilityResult:
    """Exact feasibility verdict for a finite system of linear constraints.

    The system is homogenised onto one phase 1: x = y / lam with y = u - w
    free and lam = 1 + mu >= 1, where u, w, mu >= 0.  A row a.x <= b (or
    = b) becomes a.y - b*mu <= b (or = b), and a strict row a.x < b becomes
    a.y - b*mu <= b - 1, so a.x <= b - 1/lam < b.  Conversely a point x
    with strict slack delta > 0 gives lam = max(1, 1/delta) and y = lam x.
    """
    cons = list(constraints)
    dims = {len(c.coeffs) for c in cons}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed constraint dimensions {sorted(dims)}")
    k = dims.pop() if dims else dim
    if k is None:
        raise DimensionMismatch("empty system with no declared dimension")
    if dim is not None and dim != k:
        raise DimensionMismatch(f"declared dim {dim} != constraint dim {k}")

    # variables: u_1..u_k, w_1..w_k, mu
    rows = [
        (
            [*c.coeffs, *(-a for a in c.coeffs), -c.rhs],
            EQ if c.relation == EQ else LE,
            c.rhs - 1 if c.relation == LT else c.rhs,
        )
        for c in cons
    ]
    y = _solve_nonneg(rows, 2 * k + 1)
    if y is None:
        return INFEASIBLE
    lam = 1 + y[-1]
    witness = tuple((y[j] - y[k + j]) / lam for j in range(k))
    if not all(c.holds(witness) for c in cons):
        raise AssertionError("simplex returned an invalid witness")
    return FeasibilityResult("feasible", witness)
