import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from galeproj import linalg
from galeproj.errors import DimensionMismatch, RankDeficient
from galeproj.linalg import (
    affine_rank,
    basic_solutions,
    integer_row,
    kernel_basis,
    mat,
    mat_vec,
    rank,
    solve_square,
    vec,
)
from helpers import (
    fraction_mat_vec,
    fraction_rref,
    gauss_jordan_solve,
    generator_integer_row,
    rref_kernel,
    subset_basic_solutions,
)


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
    assert set(kernel_basis(proj)) == {vec([0, 1, 0, 0]), vec([0, 0, 1, 0])}


def test_kernel_of_sum_functional():
    (v,) = kernel_basis(mat([[1, 1]]))
    assert v[0] == -v[1] != 0


def test_kernel_annihilated_exactly():
    m = mat([[1, 0, 1], [0, 1, 1]])
    k = kernel_basis(m)
    assert len(k) == 1 and len(k[0]) == 3
    (v,) = k
    assert not any(fraction_mat_vec(m, v))
    scale = v[2]
    assert scale != 0
    assert tuple(x / scale for x in v) == vec([-1, -1, 1])


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
        assert not any(any(fraction_mat_vec(m, v)) for v in k)
        stacked = mat(list(m) + list(k))
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


def test_basic_solutions_one_coordinate():
    # each row alone is a 1 x 1 system; a zero a-part is singular
    rows = [[2, 3], [0, 1], [-4, 2], [5, 0], [0, 0]]
    assert basic_solutions(rows) == [((3,), 2), ((-1,), 2), ((0,), 1)]


def test_basic_solutions_without_a_nonsingular_subset():
    # three parallel lines in R^2, and fewer rows than coordinates
    assert basic_solutions([[1, 2, 3], [-2, -4, 5], [3, 6, 0]]) == []
    assert basic_solutions([[1, 0, 0, 1], [0, 1, 0, 1]]) == []


def test_basic_solutions_repeat_a_shared_point():
    # three lines through (1/2, 1/3): one pair per nonsingular subset,
    # in subset order, each in lowest terms with L > 0
    rows = [[2, 0, 1], [0, -3, -1], [6, 6, 5]]
    assert basic_solutions(rows) == [((3, 2), 6)] * 3


def test_basic_solutions_match_the_subset_oracle():
    rng = random.Random(3301)
    seen = {"pairs": 0, "repeats": 0, "singular": 0}
    for trial in range(150):
        n = rng.randint(1, 4)
        kind = ("integer", "rational", "large")[trial % 3]
        rows = [[square_entry(rng, kind) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 4))]
        for _ in range(rng.randint(0, 2)):
            # a scaled copy or a combination of two rows, so singular
            # prefixes and shared points come up
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.insert(rng.randrange(len(rows) + 1), [s * x + y for x, y in zip(rows[i], rows[j])])
        ints = [integer_row(row)[0] for row in rows]
        got = basic_solutions(ints)
        assert got == subset_basic_solutions(ints), rows
        for num, L in got:
            assert L > 0 and gcd(*num, L) == 1 and all(type(x) is int for x in num)
        seen["pairs"] += len(got)
        seen["repeats"] += len(got) - len(set(got))
        seen["singular"] += comb(len(rows), n) - len(got)
    assert min(seen.values()) > 20, seen


def test_basic_solutions_drop_the_subtree_of_a_singular_prefix(monkeypatch):
    # rows 0 and 1 have parallel a-parts, so the prefix (0, 1) is singular
    # and its three subsets (0, 1, k) are never reached: 3 + 6 + 10 rows
    # added to prefixes in the full tree, 3 fewer here
    rows = [[1, 0, 0, 1], [2, 0, 0, 3], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 5]]
    steps = []
    add_row = linalg._add_row

    def counting(*args):
        step = add_row(*args)
        steps.append(step is not None)
        return step

    monkeypatch.setattr(linalg, "_add_row", counting)
    got = basic_solutions(rows)
    assert (len(steps), steps.count(False), len(got)) == (16, 1, 7)
    assert got == subset_basic_solutions(rows)


@pytest.mark.parametrize("rows", [[], [[1]], [[1, 2], [1, 2, 3]]], ids=["no rows", "no coordinate", "ragged"])
def test_basic_solutions_refuse_malformed_rows(rows):
    with pytest.raises(DimensionMismatch):
        basic_solutions(rows)


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


def structured_matrix(rng, trial):
    """Seeded matrix for the elimination tests; the trial number picks the
    entry kind (integer, rational, about 10^7) and one structure: a zero
    column, a column combined from earlier ones (no pivot there once the
    earlier columns have pivots), a row combined from two others, a zero
    row, or none."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
    kind = ("integer", "rational", "large")[trial % 3]
    m = [[square_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    structure = trial % 5
    if structure == 0:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = Fraction(0)
    elif structure == 1 and ncols > 2:
        c = rng.randrange(2, ncols)
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
        for row in m:
            row[c] = s * row[rng.randrange(c)] + t * row[0]
    elif structure == 2 and nrows > 2:
        s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(1, 3))
        m[-1] = [s * x + t * y for x, y in zip(m[0], m[1])]
    elif structure == 3:
        m[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return mat(m)


def fraction_det(rows):
    """Determinant of a square matrix by `Fraction` elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            fac = rows[i][c] / rows[c][c]
            rows[i] = [x - fac * y for x, y in zip(rows[i], rows[c])]
    return det


class ExactInt(int):
    """An int whose floor division fails unless it leaves no remainder."""

    def __floordiv__(self, other):
        q, r = divmod(int(self), int(other))
        assert r == 0, f"{int(self)} // {int(other)} leaves {r}"
        return ExactInt(q)

    def __mul__(self, other):
        return ExactInt(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return ExactInt(int(self) - int(other))


class TestGaussJordan:
    def test_rows_are_the_determinant_times_the_rref(self):
        rng = random.Random(9090)
        seen = {"full": 0, "deficient": 0, "skipped": 0, "square_det": 0, "large": 0}
        for trial in range(360):
            m = structured_matrix(rng, trial)
            rows, pivots = linalg._gauss_jordan(m)
            ref, ref_pivots = fraction_rref(m)
            assert pivots == ref_pivots
            assert all(type(x) is int for row in rows for x in row)
            if not pivots:
                assert all(x == 0 for row in rows for x in row)
                continue
            det = rows[0][pivots[0]]
            assert det != 0 and all(rows[r][p] == det for r, p in enumerate(pivots))
            assert rows == [[det * x for x in row] for row in ref]
            seen["full" if len(pivots) == len(m) else "deficient"] += 1
            seen["skipped"] += pivots != list(range(len(pivots)))
            seen["large"] += trial % 3 == 2
            if len(m) == len(m[0]) == len(pivots):
                # the common pivot is the determinant of the integer rows, up to the swaps' sign
                scaled = [linalg.integer_row(row)[0] for row in m]
                assert abs(det) == abs(fraction_det(scaled))
                seen["square_det"] += 1
        assert seen["full"] > 150 and seen["deficient"] > 50 and seen["skipped"] > 30
        assert seen["square_det"] > 20 and seen["large"] > 80

    def test_every_division_is_exact(self, monkeypatch):
        original = linalg.integer_row

        def exact_row(row):
            ints, lam = original(row)
            return [ExactInt(x) for x in ints], lam

        monkeypatch.setattr(linalg, "integer_row", exact_row)
        rng = random.Random(5151)
        for trial in range(300):
            rows, _ = linalg._gauss_jordan(structured_matrix(rng, trial))
            assert all(type(x) is ExactInt for row in rows for x in row)

    def test_kernel_basis_equals_the_rref_kernel(self):
        rng = random.Random(6262)
        checked = {"kernel": 0, "deficient": 0}
        for trial in range(360):
            m = structured_matrix(rng, trial)
            if rank(m) < len(m):
                with pytest.raises(RankDeficient):
                    kernel_basis(m)
                checked["deficient"] += 1
                continue
            k = kernel_basis(m)
            assert list(k) == rref_kernel(m)
            assert all(type(x) is Fraction for v in k for x in v)
            assert not any(any(fraction_mat_vec(m, v)) for v in k)
            checked["kernel"] += len(m[0]) > len(m)
        assert checked["kernel"] > 100 and checked["deficient"] > 30

    def test_rank_equals_the_rref_pivot_count(self):
        rng = random.Random(7373)
        for trial in range(200):
            m = structured_matrix(rng, trial)
            assert rank(m) == len(fraction_rref(m)[1]) == gauss_rank(m)


def mixed_row(rng, length):
    """A row of ints and Fractions, some with denominator 1."""
    kinds = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9)),
        lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
    )
    return [rng.choice(kinds)() for _ in range(length)]


def test_integer_row_equals_the_generator_oracle():
    rng = random.Random(2727)
    rows = [
        [],
        [True, False, 3],
        [True, True],
        [False],
        [1, 2, 3, Fraction(1, 2)],
        [4, -5, 6, Fraction(7)],
        [0] * 13,
        (5, -6, 7),
    ]
    rows += [mixed_row(rng, rng.randint(1, 13)) for _ in range(300)]
    rows += [[rng.randint(-9, 9) for _ in range(rng.randint(1, 13))] for _ in range(50)]
    seen = {"int": 0, "scaled": 0}
    for row in rows:
        got = linalg.integer_row(row)
        want = generator_integer_row(row)
        assert got == want
        assert [type(x) for x in got[0]] == [type(x) for x in want[0]] == [int] * len(row)
        # a one-shot iterator gives the same answer
        assert linalg.integer_row(iter(row)) == want
        seen["scaled" if got[1] > 1 else "int"] += 1
    assert seen["int"] > 50 and seen["scaled"] > 200


def test_integer_row_returns_a_new_list():
    row = [1, 2, 3]
    ints, lam = linalg.integer_row(row)
    assert (ints, lam) == ([1, 2, 3], 1) and ints is not row


def test_integer_points_scale_the_whole_set_once():
    rng = random.Random(2929)
    for _ in range(100):
        n = rng.randint(1, 4)
        pts = [tuple(mixed_row(rng, n)) for _ in range(rng.randint(1, 8))]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # repeated points
        keys = linalg.integer_points(pts)
        assert all(type(x) is int for key in keys for x in key)
        # one positive factor for every entry: the lcm of all denominators
        L = lcm(*(Fraction(x).denominator for p in pts for x in p))
        assert keys == [tuple(int(x * L) for x in p) for p in pts]
        # so equality and the lexicographic order are those of the points
        order = range(len(pts))
        assert sorted(order, key=keys.__getitem__) == sorted(order, key=pts.__getitem__)
        assert [[a == b for b in keys] for a in keys] == [[p == q for q in pts] for p in pts]
    assert linalg.integer_points([]) == []
    assert linalg.integer_points([(1, 2), (3, 4)]) == [(1, 2), (3, 4)]


def test_mat_vec_equals_a_fraction_dot_product():
    rng = random.Random(2828)
    for _ in range(200):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        m = [mixed_row(rng, n) for _ in range(k)]
        x = mixed_row(rng, n)
        got = mat_vec(m, x)
        assert got == fraction_mat_vec(m, x)
        assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("m, x", [
    ([[1, 2], [3, 4]], [1]),
    ([[1, 2], [3, 4]], [1, 2, 3]),
    ([[Fraction(1, 2), 2]], [Fraction(1, 3)]),
    # one row of the wrong length
    ([[1, 2], [3, 4, 5]], [1, 2]),
])
def test_mat_vec_rejects_mismatched_dimensions(m, x):
    with pytest.raises(DimensionMismatch):
        mat_vec(m, x)
