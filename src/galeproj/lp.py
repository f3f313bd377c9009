"""Exact linear feasibility with certificates.

A two-phase simplex (Bland's rule, hence terminating) decides systems of
``<=``, ``=`` and strict ``<`` constraints.  Strict rows are handled by
maximizing a shared margin variable t subject to t <= 1; the variables
are free and unbounded, and the system is feasible iff the optimal margin
is positive.  Every feasible verdict carries a re-checked witness.

The tableau is integer over one common denominator D > 0 and pivots by
the fraction-free update of Edmonds (1967), as Avis's lrs (2000) does:
each division is exact and no gcd is taken while pivoting.  Rationals
occur only where rows come in and where the witness and value go out.
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
    margin: Fraction | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


INFEASIBLE = FeasibilityResult("infeasible")

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(T, basis, Z, D, r, c):
    """Fraction-free pivot on T[r][c]; returns the new denominator p.

    Row r stays; the other rows and Z become (x*p - f*y) / D, exactly.
    A negative p (met only pivoting out an artificial) is made positive
    by negating row r first, which negates all of T and Z and keeps T / D.
    """
    if T[r][c] < 0:
        T[r] = [-y for y in T[r]]
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


def _reduced(c, T, basis, D):
    """D times the reduced costs of the integer objective c at the basis."""
    Z = [D * x for x in c]
    for row, b in zip(T, basis):
        f = c[b]
        if f:
            Z = [z - f * y for z, y in zip(Z, row)]
    return Z


def _simplex_max(T, basis, Z, D, allowed):
    """Maximize with Bland's rule; Z[-1] / D is -(value).  Returns D.

    As D > 0, the ratio test compares rhs_i / T[i][enter] cross-multiplied.
    """
    while True:
        enter = next((j for j in allowed if Z[j] > 0), None)
        if enter is None:
            return D
        candidates = [i for i, row in enumerate(T) if row[enter] > 0]
        if not candidates:
            # every objective maximized here is capped (phase 1 at 0, the
            # margin by its row t <= 1), so no improving ray can exist
            raise AssertionError("capped objective cannot be unbounded")
        best = candidates[0]
        for i in candidates[1:]:
            lhs, rhs = T[i][-1] * T[best][enter], T[best][-1] * T[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best = i
        D = _pivot(T, basis, Z, D, best, enter)


def _solve_nonneg(raw_rows, nvars, objective):
    """max objective over {x >= 0, rows}; rows are (coeffs, rel, rhs).

    Returns (feasible, x, value); value is None when objective is None.
    Row i is scaled by the lcm lam_i of its denominators and its slack or
    artificial gets entry 1, so the first basis is the identity and D = 1.
    The phase-1 objective -sum a_i reads -sum (L / lam_i) a'_i in the
    scaled artificials a'_i = lam_i a_i, L the lcm of the lam_i; the
    phase-2 objective is scaled by the lcm K of its denominators.  Both
    multiply each reduced cost by a positive number, and each ratio test
    is scaled by one positive factor, ties included, so Bland's rule picks
    the pivots of the rational tableau.
    """
    nslack = sum(1 for _, rel, _ in raw_rows if rel == LE)
    art_start = nvars + nslack
    width = art_start + sum(1 for _, rel, rhs in raw_rows if rel != LE or rhs < 0)
    T, basis, art_lams = [], [], []
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
            basis.append(art_start + len(art_lams))
            row[basis[-1]] = 1
            art_lams.append(lam)
        T.append(row)

    D = 1
    allowed = list(range(art_start))
    if art_lams:
        L = lcm(*art_lams)
        Z = _reduced([0] * art_start + [-(L // lam) for lam in art_lams] + [0], T, basis, D)
        D = _simplex_max(T, basis, Z, D, allowed)
        if Z[-1] > 0:
            return False, None, None
        # pivot leftover zero-valued artificials out of the basis
        for i in range(len(T)):
            if basis[i] >= art_start:
                j = next((j for j in allowed if T[i][j] != 0), None)
                if j is not None:
                    D = _pivot(T, basis, Z, D, i, j)

    value = None
    if objective is not None:
        c, K = integer_row(objective)
        Z = _reduced(c + [0] * (width - nvars + 1), T, basis, D)
        D = _simplex_max(T, basis, Z, D, allowed)
        value = Fraction(-Z[-1], K * D)

    x = [_ZERO] * nvars
    for row, b in zip(T, basis):
        if b < nvars:
            x[b] = Fraction(row[-1], D)
    return True, x, value


def nonneg_combination(eq_rows: list[tuple[list, Fraction]], nvars: int) -> list[Fraction] | None:
    """Solve {x >= 0, equality rows} by phase-1 only; witness or None.

    Much cheaper than `lp_feasible` for cone and convex-hull membership
    because the sign constraints are native to the simplex variables.
    """
    rows = [([frac(a) for a in coeffs], EQ, frac(rhs)) for coeffs, rhs in eq_rows]
    ok, x, _ = _solve_nonneg(rows, nvars, None)
    if not ok:
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

    Free variables are split into positive and negative parts and left
    unbounded.  When strict rows are present the solver maximizes their
    common slack t subject to t <= 1; the result is feasible iff t > 0, and
    the margin reported is the optimal slack capped at 1.
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

    has_strict = any(c.relation == LT for c in cons)
    # variables: u_1..u_k, w_1..w_k (x = u - w), then t if strict rows exist
    nvars = 2 * k + (1 if has_strict else 0)
    rows = []
    for c in cons:
        coeffs = list(c.coeffs) + [-a for a in c.coeffs]
        if has_strict:
            coeffs.append(_ONE if c.relation == LT else _ZERO)
        rows.append((coeffs, EQ if c.relation == EQ else LE, c.rhs))
    objective = [_ZERO] * (nvars - 1) + [_ONE] if has_strict else None
    if has_strict:
        rows.append((objective, LE, _ONE))

    ok, y, value = _solve_nonneg(rows, nvars, objective)
    if not ok or (has_strict and value <= 0):
        return INFEASIBLE
    witness = tuple(y[j] - y[k + j] for j in range(k))
    if not all(c.holds(witness) for c in cons):
        raise AssertionError("simplex returned an invalid witness")
    return FeasibilityResult("feasible", witness, value)
