import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from ksw.errors import Singular
from ksw.linalg import (
    CERTIFICATE_PRIME,
    Matrix,
    _bareiss_echelon,
    _numerators,
    _rank_mod_p,
    determinant,
    dot,
    primitive_integer_vector,
    rank_and_kernel,
    rank_at_least,
    solve_or_invert,
)

from oracles import float_rank


def test_rank_kernel_identity():
    rank, kernel = rank_and_kernel(Matrix.identity(3))
    assert rank == 3
    assert kernel == []


def test_rank_kernel_zero_matrix():
    rank, kernel = rank_and_kernel(Matrix.zeros(2, 5))
    assert rank == 0
    assert len(kernel) == 5
    assert Matrix(kernel).rank() == 5


def test_rank_kernel_rank_one():
    # hand elimination: row2 = 2*row1, kernel is the line through (2, -1)
    m = Matrix([[1, 2], [2, 4]])
    rank, kernel = rank_and_kernel(m)
    assert rank == 1
    assert len(kernel) == 1
    v = kernel[0]
    assert m.matvec(v) == (0, 0)
    assert v[0] * (-1) - v[1] * 2 == 0  # parallel to (2, -1)
    assert v == (2, -1)


def test_kernel_vectors_are_primitive_integers():
    m = Matrix([[Fraction(1, 3), Fraction(1, 6), 0], [0, 0, 0]])
    _, kernel = rank_and_kernel(m)
    for v in kernel:
        assert all(isinstance(x, int) for x in v)
        assert m.matvec(v) == (0, 0)


def test_invert_identity_and_diagonal():
    assert solve_or_invert(Matrix.identity(4)) == Matrix.identity(4)
    inv = solve_or_invert(Matrix.diagonal([2, 3]))
    assert inv == Matrix.diagonal([Fraction(1, 2), Fraction(1, 3)])


def test_invert_swap_is_involution():
    m = Matrix([[0, 1], [1, 0]])
    inv = solve_or_invert(m)
    assert inv == m
    assert m * inv == Matrix.identity(2)


def test_invert_singular_raises():
    with pytest.raises(Singular):
        solve_or_invert(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(Singular):
        solve_or_invert(Matrix.zeros(2, 3))


def _random_fraction(rng, max_num=100, max_den=100):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def test_rank_matches_float_oracle_on_random_rationals():
    rng = random.Random(42)
    trials = 0
    agreements = 0
    for _ in range(120):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = Matrix(
            [[_random_fraction(rng) for _ in range(cols)] for _ in range(rows)]
        )
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in m.matvec(v))
        if kernel:
            assert Matrix(kernel).rank() == len(kernel)
        trials += 1
        if rank == float_rank(m):
            agreements += 1
    assert agreements >= 0.99 * trials


def test_rank_exact_on_integer_matrices_with_spread_singular_values():
    # sizes up to 64; diagonal seeds with spread values, scrambled by
    # unimodular row/column operations so the float oracle is unambiguous
    rng = random.Random(7)
    for size in (16, 32, 64):
        rank_target = size - rng.randint(1, 3)
        rows = [[0] * size for _ in range(size)]
        for i in range(rank_target):
            rows[i][i] = rng.choice([1, 2, 3, 5, 9]) * (10 ** rng.randint(0, 2))
        for _ in range(2 * size):
            i, j = rng.randrange(size), rng.randrange(size)
            if i != j:
                rows[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(rows[i], rows[j])]
        m = Matrix(rows)
        rank, kernel = rank_and_kernel(m)
        assert rank == rank_target
        assert rank == float_rank(m)
        for v in kernel:
            assert all(x == 0 for x in m.matvec(v))


def test_rank_kernel_on_structured_low_rank_matrices():
    # products A(r x k) B(k x c) with small k stress the pivotless-column
    # paths of the fraction-free elimination; the exact rank is known
    rng = random.Random(77)
    for _ in range(30):
        r = rng.randint(2, 10)
        c = rng.randint(2, 10)
        k = rng.randint(1, min(r, c))
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
        b = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(k)]
        m = Matrix(a) * Matrix(b)
        rank, kernel = rank_and_kernel(m)
        assert rank <= k
        assert rank == float_rank(m)
        assert rank + len(kernel) == c
        for v in kernel:
            assert all(x == 0 for x in m.matvec(v))
        if kernel:
            assert Matrix(kernel).rank() == len(kernel)


def test_inverse_roundtrip_random():
    rng = random.Random(3)
    done = 0
    while done < 25:
        n = rng.randint(1, 8)
        m = Matrix([[_random_fraction(rng, 9, 5) for _ in range(n)] for _ in range(n)])
        try:
            inv = solve_or_invert(m)
        except Singular:
            continue
        assert m * inv == Matrix.identity(n)
        assert inv * m == Matrix.identity(n)
        done += 1


def _square_pairs(n):
    # frequent zeros force row swaps, which the sign bookkeeping must track
    entries = st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20, max_denominator=6))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(square, square)


@given(st.integers(1, 5).flatmap(_square_pairs))
def test_determinant_vs_rank(pair):
    a, b = Matrix(pair[0]), Matrix(pair[1])
    n = a.rows
    det = determinant(a)
    assert (det == 0) == (a.rank() < n)
    assert a.rank() == rank_and_kernel(a)[0]
    # multiplicativity catches a lost or doubled row-swap sign
    assert determinant(a * b) == det * determinant(b)
    if det:
        assert det * determinant(solve_or_invert(a)) == 1


def test_determinant_known_values():
    assert determinant(Matrix([[0, 1], [1, 0]])) == -1
    assert determinant(Matrix.diagonal([2, 8, -1])) == -16
    assert determinant(Matrix([[Fraction(1, 2), 0], [5, Fraction(2, 3)]])) == Fraction(1, 3)


def test_full_rank_certificate_and_rank_at_least():
    m = Matrix([[1, 2], [3, 4]])
    assert rank_at_least(m, 2)
    deficient = Matrix([[1, 2], [2, 4]])
    assert rank_at_least(deficient, 1)
    assert not rank_at_least(deficient, 2)


def test_primitive_integer_vector_normalization():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    assert primitive_integer_vector([0, Fraction(0), Fraction(5)]) == (0, 0, 1)


def test_matrix_shape_and_empty_handling():
    empty = Matrix.zeros(0, 4)
    assert empty.rows == 0 and empty.cols == 4
    rank, kernel = rank_and_kernel(empty)
    assert rank == 0 and len(kernel) == 4
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


# -- dense list-of-lists reference for the sparse core -----------------------------

_ENTRIES = st.one_of(st.just(0), st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=4))


def _grid(rows, cols):
    return st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _operands(shape):
    """A, A2 (r x c), B (c x k), a vector v of length c and a scalar."""
    r, c, k = shape
    return st.tuples(_grid(r, c), _grid(r, c), _grid(c, k), st.lists(_ENTRIES, min_size=c, max_size=c), _ENTRIES)


def _ref_mul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(len(b[0]))] for row in a]


def _dense_views(m):
    """Every dense view of m, which must all agree with the reference.

    The stored rows must be canonical: nonzero int numerators over a
    positive denominator with no common factor, denominator 1 when empty.
    """
    for nums, den in m._rows:
        assert all(x.__class__ is int and x for x in nums.values())
        assert den.__class__ is int and den > 0 and gcd(den, *nums.values()) == 1
    rows = [m.row(i) for i in range(m.rows)]
    assert all(isinstance(x, Fraction) for r in rows for x in r)
    assert list(m) == rows
    assert [m.column(j) for j in range(m.cols)] == [tuple(r[j] for r in rows) for j in range(m.cols)]
    assert [[m[i, j] for j in range(m.cols)] for i in range(m.rows)] == [list(r) for r in rows]
    return [list(r) for r in rows]


@given(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)).flatmap(_operands))
@example(([[1, 2], [3, 4]], [[0, 0], [0, 0]], [[1], [1]], [1, 1], 2))
# the product row 1/2*2 + 1/2*2 = 2 has to reduce to 2/1 to compare and hash equal
@example(([[Fraction(1, 2), Fraction(1, 2)]], [[0, 0]], [[2], [2]], [1, 1], 2))
def test_sparse_core_matches_dense_reference(drawn):
    a, a2, b, v, c = drawn
    m, m2, n = Matrix(a), Matrix(a2), Matrix(b)
    assert _dense_views(m) == a
    assert m[0, -1] == a[0][-1] and m.column(-1) == tuple(r[-1] for r in a)
    with pytest.raises(IndexError):
        m[0, m.cols]
    products = tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)
    assert m.matvec(v) == tuple(dot(row, v) for row in a) == products
    assert all(isinstance(x, Fraction) for x in m.matvec(v))
    assert _dense_views(m * n) == _ref_mul(a, b)
    assert m * n == Matrix(_ref_mul(a, b)) and hash(m * n) == hash(Matrix(_ref_mul(a, b)))
    assert _dense_views(m + m2) == [[x + y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)]
    assert _dense_views(m - m2) == [[x - y for x, y in zip(r, r2)] for r, r2 in zip(a, a2)]
    assert _dense_views(-m) == [[-x for x in r] for r in a]
    assert _dense_views(c * m) == _dense_views(m * c) == [[c * x for x in r] for r in a]
    assert _dense_views(m.transpose()) == [list(col) for col in zip(*a)]
    assert m.is_zero() == all(not x for r in a for x in r)
    # one matrix, however it was built, compares and hashes equal
    built = [
        Matrix.from_columns(zip(*a)),
        Matrix.from_sparse_columns([{i: a[i][j] for i in range(len(a))} for j in range(len(a[0]))], len(a)),
        m + Matrix.zeros(m.rows, m.cols),
        m * Matrix.identity(m.cols),
        (m - m2) + m2,
    ]
    for other in built:
        assert other == m and hash(other) == hash(m)
    assert (m == m2) == (a == a2)
    assert m - m == Matrix.zeros(m.rows, m.cols)
    assert hash(m - m) == hash(Matrix.zeros(m.rows, m.cols))
    diag = [row[0] for row in a]
    dense_diag = [[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]
    assert Matrix.diagonal(diag) == Matrix(dense_diag)
    assert hash(Matrix.diagonal(diag)) == hash(Matrix(dense_diag))
    k = len(diag)
    eye = Matrix([[1 if i == j else 0 for j in range(k)] for i in range(k)])
    assert Matrix.identity(k) == eye and hash(Matrix.identity(k)) == hash(eye)


def _eager_bareiss(rows, ncols):
    """Textbook Bareiss that rescales every row below the pivot at every step."""
    rows = [list(r) for r in rows]
    pivots, prev, r = [], 1, 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[p], rows[r] = rows[r], rows[p]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            ric = rows[i][c]
            rows[i] = [(piv * x - ric * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows


def _rref_kernel(a, ncols):
    """Canonical reduced-echelon kernel basis, as primitive integer vectors."""
    rows = [[Fraction(x) for x in r] for r in a]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[p], rows[r] = rows[r], rows[p]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -rows[i][f]
        scale = lcm(*(y.denominator for y in x))
        ints = [int(y * scale) for y in x]
        g = gcd(*ints)
        sign = -1 if next(y for y in ints if y) < 0 else 1
        kernel.append(tuple(sign * y // g for y in ints))
    return kernel


@given(st.tuples(st.integers(1, 7), st.integers(1, 9)).flatmap(lambda shape: _grid(*shape)))
def test_echelon_and_kernel_match_dense_references(a):
    m = Matrix(a)
    rows = _numerators(m)
    dense_rows = [[row.get(j, 0) for j in range(m.cols)] for row in rows]
    pivots, _ = _bareiss_echelon(rows, m.cols)
    want_pivots, want_rows = _eager_bareiss(dense_rows, m.cols)
    assert pivots == want_pivots
    got = [[row.get(j, 0) for j in range(m.cols)] for row in rows]
    assert got[: len(pivots)] == want_rows[: len(pivots)]
    assert not any(x for r in got[len(pivots):] for x in r)
    rank, kernel = rank_and_kernel(m)
    assert rank == len(pivots)
    assert kernel == _rref_kernel(a, m.cols)
    # cleared entries are at most 108 in size, so every minor (<= 324^7) is below the prime
    assert _rank_mod_p(m, CERTIFICATE_PRIME) == rank
    assert _rank_mod_p(Matrix([[Fraction(1, 3), 1]]), 3) is None


def test_float_rejected():
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    # a float zero is refused too, by every constructor
    for build in (
        lambda: Matrix([[1, 0.0]]),
        lambda: Matrix.from_columns([[0, 0.0]]),
        lambda: Matrix.from_sparse_columns([{0: 0.0}], 1),
        lambda: Matrix.diagonal([0.0]),
        lambda: Matrix.identity(2).matvec([1, 0.0]),
    ):
        with pytest.raises(TypeError):
            build()
