"""Exact rational vectors and matrices.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of rows.
All arithmetic is exact; nothing in this package ever touches a float.
One fraction-free (Bareiss 1968) elimination, `_add_row`, adds integer
rows one at a time.  `basic_solutions` steps it over a tree of row
prefixes to solve every n-subset of a system's rows, and returns
integers; a square solve is its one n-subset.  Rank and kernels fold it
over the rows of a matrix (`_echelon`).  Fractions are built only for
results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
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


def cross(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """The cross product of a - o and b - o in R^2: positive iff o, a, b
    turn counter-clockwise, 0 iff they are collinear."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def sort_by_angle(vectors: Iterable[Sequence[int]]) -> list:
    """Nonzero integer vectors in R^2 by their angle from the positive
    x-axis, in [0, 2 pi), exactly: first by half-plane, then by the turn
    from one to the other, as two vectors in one half are less than a half
    turn apart."""
    return sorted(vectors, key=cmp_to_key(_by_angle))


def _by_angle(u: Sequence[int], v: Sequence[int]) -> int:
    half_u = u[1] < 0 or (u[1] == 0 and u[0] < 0)
    half_v = v[1] < 0 or (v[1] == 0 and v[0] < 0)
    return half_u - half_v or -cross((0, 0), u, v)


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """The integer vector divided by the gcd of its entries: the primitive
    vector on its ray (the zero vector stays as it is)."""
    g = gcd(*v) or 1
    return tuple(x // g for x in v)


def _echelon(m: Sequence[Sequence]) -> tuple[int, list[int], list[int], list[list[int]]]:
    """The rows of m added one at a time by `_add_row`, each scaled to
    integers by `integer_row` and given the right-hand side 0; a row that
    depends on those before it is skipped.  Returns (det, free, pivots,
    reduced).  Each added row takes its leftmost free nonzero column as
    pivot, so the pivots are the leftmost column basis, the pivot columns
    of the RREF, in the order of their rows; reduced[t] is det times the
    RREF row with pivot pivots[t], on the columns `free`, then 0.
    """
    step = 1, list(range(len(m[0]))), [], []
    for row in m:
        step = _add_row([*integer_row(row)[0], 0], *step) or step
    return step


def rank(m: Mat) -> int:
    """Exact rank over the rationals by fraction-free elimination."""
    if not m:
        raise DimensionMismatch("rank of an empty matrix")
    return len(_echelon(m)[2])


def kernel_basis(m: Mat) -> Mat:
    """Rational basis of the null space of a full-row-rank d x n matrix.

    Returns the n - d basis vectors of ker(m) as rows, those of the RREF
    in the same order.  Each free column f of `_echelon` gives one,
    read off without back-substitution: 1 at f and -row[f] / det at the
    pivot column of each reduced row.
    """
    if not m:
        raise DimensionMismatch("kernel of an empty matrix")
    n = len(m[0])
    det, free, pivots, reduced = _echelon(m)
    if len(pivots) < len(m):
        raise RankDeficient(f"row rank {len(pivots)} < {len(m)} rows")
    basis: list[Vec] = []
    for q, f in enumerate(free):
        x = [0] * n
        x[f] = det
        for p, row in zip(pivots, reduced):
            x[p] = -row[q]
        basis.append(tuple(Fraction(v, det) for v in x))
    return tuple(basis)


def solve_square(a: Mat, b: Vec) -> Vec | None:
    """Solve a square system exactly; None if the matrix is singular.

    Fraction-free inside, returning Fractions: the n integer rows [a | b]
    are the one n-subset of `basic_solutions`, which solves it unless it
    is singular.
    """
    n = len(a)
    if n == 0 or any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatch("solve_square needs a square system")
    solved = basic_solutions([integer_row((*row, rhs))[0] for row, rhs in zip(a, b)])
    if not solved:
        return None
    [(num, L)] = solved
    return tuple(Fraction(x, L) for x in num)


def basic_solutions(rows: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int]]:
    """The solution of a.x = b on each nonsingular n-subset of the integer
    rows [a | b], as (num, L): x = num / L with L > 0 and gcd(num, L) = 1,
    the pair `integer_row` makes of x.  One pair per nonsingular subset, in
    the lexicographic order of the subsets, so a point two subsets share
    comes out twice.

    The subsets are walked depth first as a tree of row prefixes, and
    each prefix keeps one fraction-free (Bareiss 1968) reduced form.  A
    prefix P of k independent rows, with pivot columns C, keeps the rows
    R = D (P_C)^-1 P, D = det P_C, over the columns outside C and b: D
    times the Gauss-Jordan rows, whose entries are k x k minors of P by
    Cramer's rule.  Adding a row a makes new = D a - sum_t a[c_t] R_t,
    whose entry at a column j is D (a_j - a_C (P_C)^-1 P_j), the
    (k+1) x (k+1) minor of [P; a] on the columns C + {j} (Schur's
    determinant formula).  A nonzero entry at a column c outside C is the
    new pivot p, and each kept row becomes (p R_t - R_t[c] new) / D.
    That quotient is again a (k+1) x (k+1) minor, so the division is
    exact (Sylvester's identity), and every entry is a minor of the
    rows.  If new is zero on every column outside C, a is
    dependent on P, every superset of the prefix is singular, and its
    subtree is dropped.  At the last row only b is left outside the
    pivot columns, so the step updates the right-hand sides alone, and
    x[c_t] = R_t[b] / p.  See `_add_row`.
    """
    if not rows or len(rows[0]) < 2:
        raise DimensionMismatch("basic solutions need rows [a | b] with at least one coordinate")
    n = len(rows[0]) - 1
    if any(len(row) != n + 1 for row in rows):
        raise DimensionMismatch("rows [a | b] of unequal length")
    m = len(rows)
    out: list[tuple[tuple[int, ...], int]] = []
    # one frame per row of the prefix, depth first and without recursion, as
    # n may pass the interpreter's recursion limit: the rows still to try
    # in that place, and the prefix before it.  The row in place k (from
    # 0) is at most m - n + k, so that n - k - 1 rows are left after it.
    frames = [(iter(range(m - n + 1)), 1, list(range(n)), [], [])]
    while frames:
        candidates, det, free, pivots, reduced = frames[-1]
        i = next(candidates, None)
        if i is None:
            frames.pop()
            continue
        step = _add_row(rows[i], det, free, pivots, reduced)
        if step is None:
            continue
        k = len(frames)
        if k < n:
            frames.append((iter(range(i + 1, m - n + k + 1)), *step))
            continue
        p, _, columns, rhs = step
        num = [0] * n
        for c, (x,) in zip(columns, rhs):
            num[c] = x
        if p < 0:
            p, num = -p, [-x for x in num]
        g = gcd(*num, p)
        out.append((tuple(x // g for x in num), p // g))
    return out


def _add_row(
    a: Sequence[int], det: int, free: list[int], pivots: list[int], reduced: list[list[int]]
) -> tuple[int, list[int], list[int], list[list[int]]] | None:
    """One step of `basic_solutions` and `_echelon`: row a added to a
    prefix with determinant det, pivot columns `pivots` and reduced rows
    `reduced` over the columns `free` and b.  Returns the new prefix's
    (det, free, pivots, reduced), or None if a is dependent on the
    prefix."""
    new = [det * a[j] for j in free]
    new.append(det * a[-1])
    for c, row in zip(pivots, reduced):
        f = a[c]
        if f:
            new = [x - f * y for x, y in zip(new, row)]
    for q, p in enumerate(new):
        if p:
            break
    if q == len(free):
        # zero on every free column: the a-part of a depends on the prefix
        return None
    if len(free) == 1:
        # the last free column is the pivot, and only the right-hand
        # sides are left to update
        b = new[1]
        return p, [], pivots + free, [[(p * row[1] - row[0] * b) // det] for row in reduced] + [[b]]
    out = []
    for row in reduced:
        f = row[q]
        updated = [(p * x - f * y) // det for x, y in zip(row, new)]
        del updated[q]
        out.append(updated)
    del new[q]
    out.append(new)
    return p, free[:q] + free[q + 1:], pivots + [free[q]], out


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of a point set (0 for a single point)."""
    if not points:
        return -1
    if len(points) == 1:
        return 0
    diffs = mat([vsub(p, points[0]) for p in points[1:]])
    return rank(diffs)
