import random
from fractions import Fraction

import pytest

from galeproj.errors import DimensionMismatch, RankDeficient
from galeproj.linalg import (
    affine_rank,
    kernel_basis,
    mat,
    mat_vec,
    matmul,
    rank,
    solve_square,
    transpose,
    vec,
)
from helpers import gauss_jordan_solve


def gauss_rank(rows):
    """Independent oracle: plain fraction Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_identity():
    assert rank(mat([[1, 0], [0, 1]])) == 2


def test_rank_proportional_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_coupling_matrix_at_one():
    g = mat([[1, 1, -1, -1, 0, 0], [0, 0, -1, -1, 1, 1]])
    assert rank(g) == gauss_rank(g) == 2


def test_rank_matches_gauss_oracle_on_random_matrices():
    rng = random.Random(20240501)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)])
        assert rank(m) == gauss_rank(m)


def test_rank_empty_matrix_rejected():
    with pytest.raises(DimensionMismatch):
        rank(())


def test_kernel_of_coordinate_projection():
    proj = mat([[1, 0, 0, 0], [0, 0, 0, 1]])
    k = kernel_basis(proj)
    cols = transpose(k)
    assert set(cols) == {vec([0, 1, 0, 0]), vec([0, 0, 1, 0])}


def test_kernel_of_sum_functional():
    k = kernel_basis(mat([[1, 1]]))
    (col,) = transpose(k)
    assert col[0] == -col[1] != 0


def test_kernel_annihilated_exactly():
    m = mat([[1, 0, 1], [0, 1, 1]])
    k = kernel_basis(m)
    assert len(k) == 3 and len(k[0]) == 1
    prod = matmul(m, k)
    assert all(x == 0 for row in prod for x in row)
    (col,) = transpose(k)
    scale = col[2]
    assert scale != 0
    assert tuple(x / scale for x in col) == vec([-1, -1, 1])


def test_kernel_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        kernel_basis(mat([[1, 2, 3], [2, 4, 6]]))


def test_kernel_complements_row_space_on_random_full_rank():
    rng = random.Random(77)
    produced = 0
    while produced < 60:
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 6)
        m = mat([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(d)])
        if rank(m) != d:
            continue
        produced += 1
        k = kernel_basis(m)
        assert all(x == 0 for row in matmul(m, k) for x in row)
        stacked = mat(list(m) + list(transpose(k)))
        assert rank(stacked) == n


def test_solve_square_exact_and_singular():
    a = mat([[2, 1], [1, 3]])
    x = solve_square(a, vec([5, 10]))
    assert mat_vec(a, x) == vec([5, 10])
    assert solve_square(mat([[1, 2], [2, 4]]), vec([1, 1])) is None


def square_entry(rng, kind):
    if kind == "integer":
        return Fraction(rng.randint(-4, 4))
    if kind == "rational":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
    return Fraction(rng.choice([-1, 1]) * 10**7 + rng.randint(-3, 3), rng.choice([1, 7]))


def test_solve_square_matches_gauss_jordan_oracle():
    rng = random.Random(4141)
    seen = {"solved": 0, "singular": 0}
    for trial in range(400):
        n = rng.randint(1, 5)
        kind = ("integer", "rational", "large")[trial % 3]
        a = [[square_entry(rng, kind) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 4 == 0:
            # singular: one row a rational combination of two others
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            a[i] = [s * x + t * y for x, y in zip(a[j], a[k])] if i not in (j, k) else [Fraction(0)] * n
        b = [square_entry(rng, kind) for _ in range(n)]
        expected = gauss_jordan_solve(a, b)
        x = solve_square(mat(a), vec(b))
        assert x == expected
        if x is None:
            seen["singular"] += 1
            assert rank(mat(a)) < n
        else:
            seen["solved"] += 1
            assert all(type(v) is Fraction for v in x)
            assert mat_vec(mat(a), x) == vec(b)
    assert seen["solved"] > 200 and seen["singular"] > 50


def test_solve_square_one_by_one():
    assert solve_square(mat([[Fraction(-3, 7)]]), vec([Fraction(9, 2)])) == (Fraction(-21, 2),)
    assert solve_square(mat([[10**7]]), vec([1])) == (Fraction(1, 10**7),)
    assert solve_square(mat([[0]]), vec([1])) is None


def test_exactness_with_huge_entries():
    big = Fraction(10**40 + 1, 10**39)
    small = Fraction(1, 10**45)
    assert (big + small) - small == big
    m = mat([[big, small], [small, big]])
    assert rank(m) == 2


def test_affine_rank():
    assert affine_rank([vec([0, 0]), vec([1, 0]), vec([2, 0])]) == 1
    assert affine_rank([vec([0, 0]), vec([1, 0]), vec([0, 1])]) == 2
    assert affine_rank([vec([5, 5])]) == 0
