"""Exact linear feasibility with certificates.

Phase 1 of a simplex on equality rows over nonnegative variables is the
only algorithm: `nonneg_combination` finds a point of {x >= 0, Ax = b}
or proves there is none, and re-checks the point in integers against the
input rows, never the tableau.  `lp_feasible` decides {x : Ax <= b}, x
free, by the Farkas system {y >= 0, yA = 0, yb = -1}, so each "empty"
verdict has a re-checked y.  Every question comes here as an
`lp_feasible` system: the Gordan vertex test of
`polytopes.minkowski_vertex_test` and the convex-hull test of
`projections.face_preserved` as their margin systems {c.w <= -1},
`gale._ask` for every spanning and dependence verdict off the plane,
and `HPolytope` of a system that is not bounded.

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
`integer_row`; ints pass as they are.  Phase 1 runs on those integer
rows, so the integer tableau is the rational simplex on the integer rows,
times D (see `_solve_nonneg`), and the point goes out as it is, integers
over D, with no `Fraction` built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch
from .linalg import integer_row


class FeasibilityResult(NamedTuple):
    """`lp_feasible`'s verdict; read `.feasible`, as a 1-tuple is always true."""

    feasible: bool


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
    """A point of {x >= 0, rows} by phase 1, as (num, D), or None.

    Each row is a list of ints [coeffs, rhs], meaning coeffs.x = rhs.
    Each row's artificial gets entry 1, so the first basis is the identity,
    D = 1, and Z, the reduced costs of -(sum of the artificials), is the
    column sums.  From there T / D and Z / D are the rational tableau of
    these rows, so pricing and the ratio test pick its pivots.  The point
    is x = num / D: num holds the basic values of T, the rhs of each row
    whose basic variable is an x_j, and 0 elsewhere.  An artificial still
    basic at the end has value 0 and is not read.  No artificial column is
    stored, as none may enter: the i-th artificial is basic under its
    virtual index nvars + i, the index the ratio test's tie-break compares
    in the rational tableau.
    """
    T = [row if row[-1] >= 0 else [-x for x in row] for row in rows]
    basis = list(range(nvars, nvars + len(T)))
    Z = [sum(col) for col in zip(*T)] if T else [0] * (nvars + 1)
    D = _simplex_max(T, basis, Z, 1, range(nvars))
    if Z[-1] > 0:
        return None
    num = [0] * nvars
    for row, b in zip(T, basis):
        if b < nvars:
            num[b] = row[-1]
    return num, D


def nonneg_combination(eq_rows: list[tuple[list, Fraction]], nvars: int) -> tuple[list[int], int] | None:
    """Solve {x >= 0, equality rows} by phase 1; a re-checked point or None.

    Entries are ints or Fractions.  This is the one entry to phase 1, and
    `lp_feasible`'s Farkas system is its one caller in the package.  Each
    row a.x = b is scaled once by `integer_row` to integers a'.x = b', for
    the tableau and for the re-check.  The point comes back as phase 1
    leaves it, x = num / D with num integer, and the re-check reads it and
    those input rows, not the tableau: D > 0, num >= 0, and each row must
    hold as a'.num = b' * D.
    """
    rows = [integer_row([*coeffs, rhs])[0] for coeffs, rhs in eq_rows]
    point = _solve_nonneg(rows, nvars)
    if point is None:
        return None
    num, D = point
    support = [(j, n) for j, n in enumerate(num) if n]
    if D <= 0 or any(n < 0 for _, n in support) or any(sum(a[j] * n for j, n in support) != a[-1] * D for a in rows):
        raise AssertionError("simplex returned an invalid witness")
    return point


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
