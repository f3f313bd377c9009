"""Exact linear feasibility with certificates.

A two-phase rational simplex (Bland's rule, hence terminating) decides
systems of ``<=``, ``=`` and strict ``<`` constraints.  Strict rows are
handled by maximizing a shared margin variable t subject to t <= 1; the
variables themselves are free and unbounded, and the strict system is
feasible iff the optimal margin is positive.  Every feasible verdict
carries a witness that is re-checked against the input before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DimensionMismatch
from .linalg import Vec, frac, vdot, vec

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


def _pivot(rows, basis, z, r, c):
    piv_row = rows[r]
    piv = piv_row[c]
    piv_row = [x / piv for x in piv_row]
    rows[r] = piv_row
    for i, other in enumerate(rows):
        if i != r and other[c] != 0:
            f = other[c]
            rows[i] = [x - f * y for x, y in zip(other, piv_row)]
    if z[c] != 0:
        f = z[c]
        z[:] = [x - f * y for x, y in zip(z, piv_row)]
    basis[r] = c


def _reduce_objective(rows, basis, z):
    for i, b in enumerate(basis):
        if z[b] != 0:
            f = z[b]
            z[:] = [x - f * y for x, y in zip(z, rows[i])]


def _simplex_max(rows, basis, z, allowed):
    """Maximize with Bland's rule; z[-1] holds -(objective value)."""
    while True:
        enter = next((j for j in allowed if z[j] > 0), None)
        if enter is None:
            return -z[-1]
        best_ratio = None
        best_row = -1
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[best_row])
                ):
                    best_ratio = ratio
                    best_row = i
        if best_ratio is None:
            # every objective maximized here is capped (phase 1 at 0, the
            # margin by its row t <= 1), so no improving ray can exist
            raise AssertionError("capped objective cannot be unbounded")
        _pivot(rows, basis, z, best_row, enter)


def _solve_nonneg(raw_rows, nvars, objective):
    """max objective over {x >= 0, rows}; rows are (coeffs, rel, rhs).

    Returns (feasible, x, value); value is None when objective is None.
    """
    nslack = sum(1 for _, rel, _ in raw_rows if rel == LE)
    prepared = []
    s_at = nvars
    for coeffs, rel, rhs in raw_rows:
        row = list(coeffs) + [_ZERO] * nslack + [rhs]
        slack_col = None
        if rel == LE:
            row[s_at] = _ONE
            slack_col = s_at
            s_at += 1
        if row[-1] < 0:
            row = [-x for x in row]
        prepared.append((row, slack_col))

    nart = sum(1 for row, sc in prepared if sc is None or row[sc] < 0)
    width = nvars + nslack + nart
    rows = []
    basis = []
    art_start = nvars + nslack
    a_at = art_start
    for row, slack_col in prepared:
        full = row[:-1] + [_ZERO] * nart + [row[-1]]
        if slack_col is not None and full[slack_col] > 0:
            basis.append(slack_col)
        else:
            full[a_at] = _ONE
            basis.append(a_at)
            a_at += 1
        rows.append(full)

    allowed = list(range(art_start))
    if nart:
        z = [_ZERO] * (width + 1)
        for j in range(art_start, width):
            z[j] = Fraction(-1)
        _reduce_objective(rows, basis, z)
        if _simplex_max(rows, basis, z, allowed) < 0:
            return False, None, None
        # pivot leftover zero-valued artificials out of the basis
        for i in range(len(rows)):
            if basis[i] >= art_start:
                c = next((j for j in allowed if rows[i][j] != 0), None)
                if c is not None:
                    _pivot(rows, basis, z, i, c)

    value = None
    if objective is not None:
        z = list(objective) + [_ZERO] * (width - nvars + 1)
        _reduce_objective(rows, basis, z)
        value = _simplex_max(rows, basis, z, allowed)

    x = [_ZERO] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = rows[i][-1]
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
    for coeffs, _, rhs in rows:
        if sum((a * v for a, v in zip(coeffs, x)), _ZERO) != rhs or any(v < 0 for v in x):
            raise AssertionError("simplex returned an invalid witness")
    return x


def cone_combination(vectors, target) -> list[Fraction] | None:
    """Coefficients lam >= 0 with sum(lam_i * v_i) = target, or None."""
    vectors = [vec(v) for v in vectors]
    target = vec(target)
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch("cone membership with mixed dimensions")
    eq_rows = [
        ([v[r] for v in vectors], target[r]) for r in range(len(target))
    ]
    return nonneg_combination(eq_rows, len(vectors))


def convex_combination(points, target) -> list[Fraction] | None:
    """Coefficients of target as a convex combination of points, or None."""
    points = [vec(p) for p in points]
    target = vec(target)
    if any(len(p) != len(target) for p in points):
        raise DimensionMismatch("convex membership with mixed dimensions")
    eq_rows = [
        ([p[r] for p in points], target[r]) for r in range(len(target))
    ]
    eq_rows.append(([_ONE] * len(points), _ONE))
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
    if dims:
        k = dims.pop()
        if dim is not None and dim != k:
            raise DimensionMismatch(f"declared dim {dim} != constraint dim {k}")
    elif dim is not None:
        k = dim
    else:
        raise DimensionMismatch("empty system with no declared dimension")

    has_strict = any(c.relation == LT for c in cons)
    # variables: u_1..u_k, w_1..w_k (x = u - w), then t if strict rows exist
    nvars = 2 * k + (1 if has_strict else 0)
    rows = []
    for c in cons:
        coeffs = list(c.coeffs) + [-a for a in c.coeffs]
        if has_strict:
            coeffs.append(_ONE if c.relation == LT else _ZERO)
        rows.append((coeffs, EQ if c.relation == EQ else LE, c.rhs))
    objective = None
    if has_strict:
        objective = [_ZERO] * nvars
        objective[-1] = _ONE
        rows.append((objective, LE, _ONE))

    ok, y, value = _solve_nonneg(rows, nvars, objective)
    if not ok:
        return INFEASIBLE
    if has_strict and value <= 0:
        return INFEASIBLE
    witness = tuple(y[j] - y[k + j] for j in range(k))
    result = FeasibilityResult("feasible", witness, value if has_strict else None)
    for c in cons:
        if not c.holds(witness):
            raise AssertionError("simplex returned an invalid witness")
    return result
