"""Exact linear feasibility with certificates.

Phase 1 of a simplex (Bland's rule, hence terminating) is the only
algorithm: it finds a point of {x >= 0, rows} or proves there is none.
`lp_feasible` decides one relation, {x : Ax <= b} on free, unbounded
variables, by splitting x = u - w with u, w >= 0.  Every feasible verdict
carries a witness re-checked in integers against the input rows, never
the tableau, over the witness's common denominator.

The tableau is integer over one common denominator D > 0 and pivots by
the fraction-free update of Edmonds (1967), as Avis's lrs (2000) does:
each division is exact and no gcd is taken while pivoting.  Rationals
occur only where rows come in, each scaled to integers once by
`integer_row`, and where the witness goes out; ints pass as they are.
The tableau differs from the rational one only by positive scalings of
rows and of slack/artificial columns, which keep every sign Bland's rule
reads, and stores no artificial column, as none may enter; so the pivots
are those of a rational simplex (see `_solve_nonneg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch
from .linalg import Vec, integer_row

LE = "<="
EQ = "="


@dataclass(frozen=True)
class FeasibilityResult:
    witness: Vec | None

    @property
    def feasible(self) -> bool:
        return self.witness is not None


_ZERO = Fraction(0)


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


def _solve_nonneg(rows, nvars):
    """A point of {x >= 0, rows} by phase 1, or None.

    Rows arrive already integer, as (ints, lam, rel) from `integer_row`:
    ints = lam * [coeffs, rhs] with lam the lcm of the row's denominators,
    and rel one of LE, EQ.  Each row's slack or artificial gets entry 1,
    so the first basis is the identity and D = 1.  The phase-1 objective
    -sum a_i reads -sum (L / lam_i) a'_i in the scaled artificials
    a'_i = lam_i a_i, L the lcm of the lam_i.  That multiplies each reduced
    cost by a positive number, and each ratio test is scaled by one
    positive factor, ties included, so Bland's rule picks the pivots of the
    rational tableau.  An artificial still basic at the end has value 0
    and is not read.  No artificial column is stored, as none may enter:
    the k-th artificial is basic under its virtual index art_start + k,
    the index Bland's tie-break compares in the rational tableau.
    """
    art_start = nvars + sum(1 for _, _, rel in rows if rel == LE)
    T, basis, arts = [], [], []
    s_at = nvars
    for ints, lam, rel in rows:
        row = ints[:-1] + [0] * (art_start - nvars) + ints[-1:]
        if rel == LE:
            row[s_at] = 1
            s_at += 1
        if ints[-1] < 0:
            row = [-x for x in row]
        if rel == LE and ints[-1] >= 0:
            basis.append(s_at - 1)
        else:
            basis.append(art_start + len(arts))
            arts.append((row, lam))
        T.append(row)

    D = 1
    if arts:
        # D times the reduced costs of -sum (L / lam_i) a'_i at the identity basis
        L = lcm(*(lam for _, lam in arts))
        Z = [sum(L // lam * row[j] for row, lam in arts) for j in range(art_start + 1)]
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

    Entries are ints or Fractions.  Cheaper than `lp_feasible` for cone and
    convex-hull membership because the sign constraints are native to the
    simplex variables.  Each row a.x = b is scaled once by `integer_row`
    to integers a'.x = b', for the tableau and for the witness re-check.
    The re-check reads those input rows and the returned point, not the
    tableau: x = num / L, and each row must hold as a'.num = b' * L, with
    num >= 0.
    """
    rows = [integer_row([*coeffs, rhs]) for coeffs, rhs in eq_rows]
    x = _solve_nonneg([(ints, lam, EQ) for ints, lam in rows], nvars)
    if x is None:
        return None
    num, L = integer_row(x)
    # num has one entry per variable, so map leaves the rhs b' out of the sum
    if any(n < 0 for n in num) or any(sum(map(mul, a, num)) != a[-1] * L for a, _ in rows):
        raise AssertionError("simplex returned an invalid witness")
    return x


def _membership_rows(vectors, target, kind):
    """Equality rows sum(lam_i * v_i) = target, one per coordinate.

    Entries are ints or Fractions, kept as they are for `nonneg_combination`.
    """
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
    eq_rows = _membership_rows(points, target, "convex") + [([1] * len(points), 1)]
    return nonneg_combination(eq_rows, len(points))


def lp_feasible(constraints: list[tuple[Sequence, int | Fraction]]) -> FeasibilityResult:
    """A point of {x : a.x <= b for every row (a, b)}, x free, or none.

    Entries are ints or Fractions.  One phase 1 over x = u - w, u, w >= 0:
    each row becomes a.u - a.w <= b, scaled once by `integer_row` to
    a'.u - a'.w <= b', for the tableau and for the witness re-check.  As
    in `nonneg_combination`, the re-check reads those input rows and the
    returned point: x = num / L, and each row must hold as a'.num <= b' * L.
    """
    dims = {len(a) for a, _ in constraints}
    if len(dims) != 1:
        raise DimensionMismatch(f"need rows of one dimension, got dimensions {sorted(dims)}")
    k = dims.pop()
    rows = [integer_row([*a, *(-x for x in a), b]) for a, b in constraints]
    y = _solve_nonneg([(ints, lam, LE) for ints, lam in rows], 2 * k)
    if y is None:
        return FeasibilityResult(None)
    witness = tuple(y[j] - y[k + j] for j in range(k))
    num, L = integer_row(witness)
    # num has one entry per coordinate, so map reads only a' of [a', -a', b']
    if any(sum(map(mul, a, num)) > a[-1] * L for a, _ in rows):
        raise AssertionError("simplex returned an invalid witness")
    return FeasibilityResult(witness)
