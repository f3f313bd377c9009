"""Exact rational vectors and matrices.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of rows.
All arithmetic is exact; nothing in this package ever touches a float.
Rank, kernels and square solves share one fraction-free Gauss-Jordan
elimination on integer rows and build Fractions only for their results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
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


def vsub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector dims {len(u)} != {len(v)}")
    return tuple(map(sub, u, v))


def mat_vec(m: Mat, x: Vec) -> Vec:
    """m x, each entry summed in integers: x is scaled to integers once per
    call and each row once, and each entry is one Fraction."""
    nx, lx = integer_row(x)
    out = []
    for row in m:
        if len(row) != len(nx):
            raise DimensionMismatch(f"vector dims {len(row)} != {len(nx)}")
        nr, lr = integer_row(row)
        out.append(Fraction(sum(map(mul, nr, nx)), lr * lx))
    return tuple(out)


def integer_row(row: Iterable) -> tuple[list[int], int]:
    """(lam * row, lam) for lam the lcm of the row's denominators.

    A row of ints comes back as it is, with lam = 1: the scan that decides
    so stops at the first entry that is not an int (a bool is not, and
    takes the scaled path).
    """
    row = list(row)
    for x in row:
        if type(x) is not int:
            break
    else:
        return row, 1
    dens = [x.denominator for x in row]
    lam = lcm(*dens)
    if lam == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (lam // d) for x, d in zip(row, dens)], lam


def integer_points(points: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """The points scaled by the lcm of all their denominators: one positive
    scaling, which keeps equality, lexicographic order and the hull's
    vertices, into int tuples that hash far faster than `Fraction` ones."""
    L = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (L // x.denominator) for x in p) for p in points]


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries: the primitive
    vector on its ray (the zero vector stays as it is)."""
    g = gcd(*v) or 1
    return tuple(x // g for x in v)


def _gauss_jordan(m: Iterable[Iterable]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Each row is scaled to integers by `integer_row`.  A column with no
    nonzero entry left below the pivot rows is skipped; otherwise the
    pivot row is swapped up and every other row gets the Bareiss update
    (x*p - f*y) // prev, which divides exactly.  Returns the rows and the
    pivot columns: row r has its pivot in column pivots[r], every pivot
    entry equals the last pivot (a determinant), each pivot column is zero
    off its pivot, and the rows past len(pivots) are zero.
    """
    rows = [integer_row(row)[0] for row in m]
    pivots: list[int] = []
    prev = 1
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(x * piv - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
        pivots.append(c)
    return rows, pivots


def rank(m: Mat) -> int:
    """Exact rank over the rationals by fraction-free elimination."""
    if not m:
        raise DimensionMismatch("rank of an empty matrix")
    return len(_gauss_jordan(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Rational basis of the null space of a full-row-rank d x n matrix.

    Returns the n - d basis vectors of ker(m) as rows.  Each free
    column f of the reduced rows gives one basis vector, read off without
    back-substitution: 1 at f and -row[f] / det at the pivot column of
    each row, where det is the common pivot entry.
    """
    if not m:
        raise DimensionMismatch("kernel of an empty matrix")
    n = len(m[0])
    rows, pivots = _gauss_jordan(m)
    if len(pivots) < len(m):
        raise RankDeficient(f"row rank {len(pivots)} < {len(m)} rows")
    det = rows[0][pivots[0]]
    basis: list[Vec] = []
    for f in [c for c in range(n) if c not in pivots]:
        x = [0] * n
        x[f] = det
        for row, p in zip(rows, pivots):
            x[p] = -row[f]
        basis.append(tuple(Fraction(v, det) for v in x))
    return tuple(basis)


def solve_square(a: Mat, b: Vec) -> Vec | None:
    """Solve a square system exactly; None if the matrix is singular.

    Fraction-free inside, returning Fractions: [a | b] is reduced by
    `_gauss_jordan`.  The matrix is nonsingular iff the pivots are the
    columns of a, and then coordinate i is one quotient rhs_i / det.
    """
    n = len(a)
    if n == 0 or any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve_square needs a square system")
    rows, pivots = _gauss_jordan([(*row, rhs) for row, rhs in zip(a, b)])
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(rows))


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of a point set (0 for a single point)."""
    if not points:
        return -1
    if len(points) == 1:
        return 0
    diffs = mat([vsub(p, points[0]) for p in points[1:]])
    return rank(diffs)
