"""Exact rational vectors and matrices.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of rows.
All arithmetic is exact; nothing in this package ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, RankDeficient

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like "3/4", or Fractions to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatch("matrix rows must have equal length")
    return out


def vadd(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector dims {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector dims {len(u)} != {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Vec) -> Vec:
    c = frac(c)
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector dims {len(u)} != {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(vdot(row, x) for row in m)


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def integer_row(row: Iterable) -> tuple[list[int], int]:
    """(lam * row, lam) for lam the lcm of the row's denominators."""
    row = list(row)
    lam = lcm(*(x.denominator for x in row))
    return [x.numerator * (lam // x.denominator) for x in row], lam


def _integer_rows(m: Mat) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (kernel/rank invariant)."""
    return [integer_row(row)[0] for row in m]


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination to row echelon form.

    Returns the echelon rows and the list of pivot column indices.  All
    divisions are exact by the Bareiss identity, so intermediate entries stay
    integers of controlled size.
    """
    rows = [r[:] for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fac = rows[i][c]
            for j in range(c, ncols):
                rows[i][j] = (rows[i][j] * piv - fac * rows[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rank(m: Mat) -> int:
    """Exact rank over the rationals by fraction-free elimination."""
    if not m:
        raise DimensionMismatch("rank of an empty matrix")
    _, pivots = _bareiss_echelon(_integer_rows(m))
    return len(pivots)


def kernel_basis(m: Mat) -> Mat:
    """Rational basis of the null space of a full-row-rank d x n matrix.

    Returns an n x (n-d) matrix whose columns span ker(m); each free column
    of the echelon form contributes one basis vector via back-substitution.
    """
    if not m:
        raise DimensionMismatch("kernel of an empty matrix")
    n = len(m[0])
    ech, pivots = _bareiss_echelon(_integer_rows(m))
    if len(pivots) < len(m):
        raise RankDeficient(f"row rank {len(pivots)} < {len(m)} rows")
    free = [c for c in range(n) if c not in pivots]
    cols: list[Vec] = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            p = pivots[r]
            s = sum((Fraction(ech[r][j]) * x[j] for j in range(p + 1, n)), Fraction(0))
            x[p] = -s / Fraction(ech[r][p])
        cols.append(tuple(x))
    # columns-as-rows transposed into an n x (n-d) matrix
    return transpose(tuple(cols))


def solve_square(a: Mat, b: Vec) -> Vec | None:
    """Solve a square system exactly; None if the matrix is singular.

    Fraction-free inside, returning Fractions: the rows of [a | b] are
    scaled to integers and reduced by the Bareiss update in Gauss-Jordan
    form, after which every diagonal entry is the same determinant and
    coordinate i is one quotient rhs_i / det.
    """
    n = len(a)
    if n == 0 or any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve_square needs a square system")
    aug = _integer_rows([(*row, rhs) for row, rhs in zip(a, b)])
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        prow = aug[c]
        piv = prow[c]
        for i, row in enumerate(aug):
            if i != c:
                f = row[c]
                aug[i] = [(x * piv - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    return tuple(Fraction(row[n], prev) for row in aug)


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of a point set (0 for a single point)."""
    if not points:
        return -1
    if len(points) == 1:
        return 0
    diffs = mat([vsub(p, points[0]) for p in points[1:]])
    return rank(diffs)
