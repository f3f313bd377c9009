"""Exact linear feasibility with certificates.

Phase 1 of a simplex on equality rows over nonnegative variables is the
only algorithm: `nonneg_combination` finds a point of {x >= 0, Ax = b}
or proves there is none, and re-checks the point in integers against the
input rows, never the tableau.  `lp_feasible` decides {x : Ax <= b}, x
free, by the Farkas system {y >= 0, yA = 0, yb = -1}, so each "empty"
verdict has a re-checked y.

Pricing is Dantzig's rule (enter the column of largest reduced cost, the
lowest index among ties) with a Bland fallback, which makes it
terminating.  A degenerate pivot, on a row whose rhs is 0, leaves the
point where it is; once a run of consecutive degenerate pivots grows past
n, the number of columns that may enter, Bland's rule (enter the first
improving column) prices until the next nondegenerate pivot.  A
nondegenerate pivot strictly raises the objective, so no basis recurs
across runs; within a run Dantzig's rule makes at most n + 1 pivots, and
Bland's rule cannot cycle after them (Bland 1977).  The ratio test takes
the lowest basic index among ties.

The tableau is integer over one common denominator D > 0 and pivots by
the fraction-free update of Edmonds (1967), as Avis's lrs (2000) does:
each division is exact and no gcd is taken while pivoting.  Rationals
occur only where rows come in, each scaled to integers once by
`integer_row`, and where the point goes out; ints pass as they are.
The tableau differs from the rational one only by positive scalings of
rows and of artificial columns.  Those keep every sign and every argmax
the pricing reads, and every ratio-test order, and no artificial column
is stored, as none may enter; so the pivots are those of a rational
simplex (see `_solve_nonneg`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch
from .linalg import integer_row


class FeasibilityResult(NamedTuple):
    """`lp_feasible`'s verdict; read `.feasible`, as a 1-tuple is always true."""

    feasible: bool


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
    """Maximize the objective by Dantzig's rule with a Bland fallback; returns D.

    Z holds D times the reduced costs, up to one positive factor shared by
    every column, so its argmax and its signs are the rational tableau's,
    and Z[-1] / D is -(value) up to that factor.  As D > 0, the ratio test
    compares rhs_i / T[i][enter] cross-multiplied, so every pivot element
    is positive.  `degenerate` counts consecutive pivots on a row with rhs
    0, which leave the value where it is.  Once it passes len(allowed),
    Bland's rule prices until a pivot raises the value: no basis left
    before that pivot recurs after it, and Bland's rule cannot cycle, so
    the loop ends.
    """
    degenerate = 0
    while True:
        if degenerate > len(allowed):
            enter = next((j for j in allowed if Z[j] > 0), None)
        else:
            enter = max(allowed, key=Z.__getitem__, default=None)
        if enter is None or Z[enter] <= 0:
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
        degenerate = degenerate + 1 if T[best][-1] == 0 else 0
        D = _pivot(T, basis, Z, D, best, enter)


def _solve_nonneg(rows, nvars):
    """A point of {x >= 0, rows} by phase 1, or None.

    Rows arrive already integer, as (ints, lam) from `integer_row`: ints =
    lam * [coeffs, rhs] with lam the lcm of the row's denominators, each
    meaning coeffs.x = rhs.  Each row's artificial gets entry 1, so the
    first basis is the identity and D = 1.  The phase-1 objective -sum a_i
    reads -sum (L / lam_i) a'_i in the scaled artificials a'_i = lam_i a_i,
    L the lcm of the lam_i.  That multiplies every reduced cost by the one
    positive number L, and each ratio test is scaled by one positive
    factor, ties included, so both pricing rules and the ratio test pick
    the pivots of the rational tableau.  An artificial still basic at the
    end has value 0 and is not read.  No artificial column is stored, as
    none may enter: the i-th artificial is basic under its virtual index
    nvars + i, the index the ratio test's tie-break compares in the
    rational tableau.
    """
    T = [ints if ints[-1] >= 0 else [-x for x in ints] for ints, _ in rows]
    basis = list(range(nvars, nvars + len(T)))
    # D times the reduced costs of -sum (L / lam_i) a'_i at the identity basis;
    # with L = 1 every weight is 1
    L = lcm(*(lam for _, lam in rows))
    if not T:
        Z = [0] * (nvars + 1)
    elif L == 1:
        Z = [sum(col) for col in zip(*T)]
    else:
        weights = [L // lam for _, lam in rows]
        Z = [sum(map(mul, weights, col)) for col in zip(*T)]
    D = _simplex_max(T, basis, Z, 1, range(nvars))
    if Z[-1] > 0:
        return None
    x = [_ZERO] * nvars
    for row, b in zip(T, basis):
        if b < nvars:
            x[b] = Fraction(row[-1], D)
    return x


def nonneg_combination(eq_rows: list[tuple[list, Fraction]], nvars: int) -> list[Fraction] | None:
    """Solve {x >= 0, equality rows} by phase 1; a re-checked point or None.

    Entries are ints or Fractions.  This is the one entry to phase 1: the
    cone and convex-hull tests and `lp_feasible`'s Farkas system all come
    through here.  Each row a.x = b is scaled once by `integer_row` to
    integers a'.x = b', for the tableau and for the re-check.  The re-check
    reads those input rows and the returned point, not the tableau:
    x = num / L on its nonzero entries, and each row must hold as
    a'.num = b' * L, with num >= 0.
    """
    rows = [integer_row([*coeffs, rhs]) for coeffs, rhs in eq_rows]
    x = _solve_nonneg(rows, nvars)
    if x is None:
        return None
    support = [(j, v) for j, v in enumerate(x) if v]
    L = lcm(*(v.denominator for _, v in support))
    num = [(j, v.numerator * (L // v.denominator)) for j, v in support]
    if any(n < 0 for _, n in num) or any(sum(a[j] * n for j, n in num) != a[-1] * L for a, _ in rows):
        raise AssertionError("simplex returned an invalid witness")
    return x


def _membership_rows(vectors, target, kind):
    """Equality rows sum(lam_i * v_i) = target, one per coordinate.

    Entries are ints or Fractions, kept as they are for `nonneg_combination`.
    With no vectors each row is 0 = target[r].
    """
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch(f"{kind} membership with mixed dimensions")
    columns = zip(*vectors) if vectors else [()] * len(target)
    return list(zip(columns, target))


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
    """Whether {x : a.x <= b for every row (a, b)}, x free, has a point.

    Entries are ints or Fractions.  Farkas: the set is empty iff some
    y >= 0, one entry per row, has sum y_i a_i = 0 and sum y_i b_i = -1.
    For m rows in k variables that is one `nonneg_combination` system of
    k + 1 equality rows over m variables, so an infeasible verdict rests
    on a y re-checked in integers there.  A feasible one carries no point.
    """
    dims = {len(a) for a, _ in constraints}
    if len(dims) != 1:
        raise DimensionMismatch(f"need rows of one dimension, got dimensions {sorted(dims)}")
    a_rows, b = zip(*constraints)
    farkas = [(column, 0) for column in zip(*a_rows)] + [(b, -1)]
    return FeasibilityResult(nonneg_combination(farkas, len(constraints)) is None)
