"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (always in lowest terms, positive
denominator, arithmetic exact); matrices are immutable grids of them.
Row reduction is fraction-free (Bareiss) on denominator-cleared integer
rows, so intermediate entries stay at minor size instead of paying gcd
bookkeeping per operation -- the difference between seconds and minutes on
the 100+ column kernels the Clifford and symmetric-power modules produce.

Kernel bases come back as primitive integer vectors (denominators cleared,
content removed, first nonzero entry positive) so fixtures are reproducible.

No floating point lives here; numeric cross-checks belong to the test
suite's oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import Singular

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: 61-bit Mersenne prime used by the rank certificate.
CERTIFICATE_PRIME = (1 << 61) - 1


def frac(x) -> Fraction:
    """Coerce ints, rational strings like ``"3/4"``, and Fractions exactly.

    Floats are rejected: there is no exact arithmetic to be had from them.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to an exact rational" % x)
    return Fraction(x)


def vector(entries) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in entries)


class Matrix:
    """Immutable dense matrix of Fractions.

    ``rows`` / ``cols`` are counts; entries are reachable as ``m[i, j]`` or
    whole rows via ``m.row(i)``.  All operations return new matrices.
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows, cols: int | None = None):
        entries = tuple(tuple(frac(x) for x in row) for row in rows)
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self._rows = entries
        self.rows = len(entries)
        self.cols = cols

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else _ZERO for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            if any(len(c) != len(cols[0]) for c in cols):
                raise ValueError("ragged columns")
            # transposed as given; __init__ coerces each entry once
            return cls(zip(*cols), cols=len(cols))
        if rows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        return cls([[] for _ in range(rows)], cols=0)

    # -- access ---------------------------------------------------------------

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    # -- structure ------------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], cols=self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self._rows[i][i] for i in range(self.rows)), _ZERO)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(not x for row in self._rows for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.cols, self._rows))

    def __repr__(self):
        return "Matrix(%r)" % [list(map(str, row)) for row in self._rows]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            cols=self.cols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in row] for row in self._rows], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    "cannot multiply %dx%d by %dx%d"
                    % (self.rows, self.cols, other.rows, other.cols)
                )
            orows = other._rows
            out = []
            for arow in self._rows:
                acc = [_ZERO] * other.cols
                for k, a in enumerate(arow):
                    if not a:
                        continue
                    brow = orows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
                out.append(acc)
            return Matrix(out, cols=other.cols)
        return Matrix(
            [[x * other for x in row] for row in self._rows], cols=self.cols
        )

    def __rmul__(self, other):
        return Matrix(
            [[other * x for x in row] for row in self._rows], cols=self.cols
        )

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        out = []
        for row in self._rows:
            s = _ZERO
            for a, x in zip(row, v):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- derived --------------------------------------------------------------

    def rank(self) -> int:
        rows, _ = _cleared_int_rows(self)
        return len(_bareiss_echelon(rows, self.cols)[0])

    def inverse(self) -> "Matrix":
        return solve_or_invert(self)


def hstack(*mats: Matrix) -> Matrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row counts differ")
    return Matrix(
        [sum((list(m.row(i)) for m in mats), []) for i in range(rows)],
        cols=sum(m.cols for m in mats),
    )


# -- vector helpers ------------------------------------------------------------

def dot(u, v) -> Fraction:
    s = _ZERO
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * a for a in v)


def is_zero_vector(v) -> bool:
    return all(not x for x in v)


def primitive_integer_vector(v) -> tuple[int, ...]:
    """Clear denominators, remove content, make the first nonzero entry positive."""
    v = [frac(x) for x in v]
    scale = 1
    for x in v:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


# -- fraction-free elimination --------------------------------------------------

def _cleared_int_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators.

    Returns the integer rows and the product of the row scales.  Row
    scaling preserves rank and kernel; the determinant divides it back out.
    """
    out = []
    total = 1
    for row in m._rows:
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        total *= scale
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out, total


def _bareiss_echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free row echelon in place; returns (pivot columns, row swaps).

    Until a column is skipped, each pivot is a leading minor of the
    row-permuted input; on a nonsingular square matrix the last pivot is
    therefore +-det.
    """
    pivots = []
    swaps = 0
    prev = 1
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            swaps += 1
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            ric = ri[c]
            rr = rows[r]
            if ric:
                for j in range(c + 1, ncols):
                    ri[j] = (piv * ri[j] - ric * rr[j]) // prev
            elif prev != piv:
                for j in range(c + 1, ncols):
                    if ri[j]:
                        ri[j] = piv * ri[j] // prev
            ri[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def _back_substitute(rows: list[list[int]], pivots: list[int], free: int, ncols: int) -> list[Fraction]:
    """Solution of the echelon system with x[free] = 1 and every other free variable 0."""
    x: list[Fraction] = [_ZERO] * ncols
    x[free] = _ONE
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        if p > free:
            # deeper pivots only couple to columns > free, all still zero
            continue
        row = rows[i]
        s = _ZERO
        for j in range(p + 1, ncols):
            xj = x[j]
            if xj and row[j]:
                s += row[j] * xj
        if s:
            x[p] = -s / row[p]
    return x


def rank_and_kernel(m: Matrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and a primitive integer basis of the right kernel.

    rank + len(kernel) == cols; every kernel vector maps to zero exactly.
    """
    rows, _ = _cleared_int_rows(m)
    pivots, _ = _bareiss_echelon(rows, m.cols)
    pivot_set = set(pivots)
    kernel = [
        primitive_integer_vector(_back_substitute(rows, pivots, f, m.cols))
        for f in range(m.cols)
        if f not in pivot_set
    ]
    return len(pivots), kernel


def solve_or_invert(m: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix; raises Singular otherwise.

    Column k of the inverse is the kernel vector of [m | -I] whose free
    variable n + k is 1.
    """
    if m.rows != m.cols:
        raise Singular("inverse of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    rows, _ = _cleared_int_rows(hstack(m, -Matrix.identity(n)))
    pivots, _ = _bareiss_echelon(rows, 2 * n)
    if any(p >= n for p in pivots):
        raise Singular("matrix is singular (rank < %d)" % n)
    columns = [_back_substitute(rows, pivots, n + k, 2 * n)[:n] for k in range(n)]
    return Matrix.from_columns(columns, rows=n)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: +-(last Bareiss pivot) / (product of the row scales)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if not m.rows:
        return _ONE
    rows, scale = _cleared_int_rows(m)
    pivots, swaps = _bareiss_echelon(rows, m.cols)
    if len(pivots) < m.rows:
        return _ZERO
    last = rows[-1][-1]
    return Fraction(-last if swaps & 1 else last, scale)


def _rank_mod_p(m: Matrix, p: int) -> int | None:
    """Rank of the entrywise reduction num * den^-1 mod p; None if p divides a denominator."""
    rows = []
    for row in m._rows:
        out = []
        for x in row:
            den = x.denominator
            if den == 1:
                out.append(x.numerator % p)
            elif den % p:
                out.append(x.numerator * pow(den, -1, p) % p)
            else:
                return None
        rows.append(out)
    rank = 0
    nrows = len(rows)
    ncols = m.cols
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[piv], rows[rank] = rows[rank], rows[piv]
        inv = pow(rows[rank][c], -1, p)
        rrow = rows[rank]
        for i in range(rank + 1, nrows):
            f = rows[i][c]
            if f:
                f = f * inv % p
                ri = rows[i]
                for j in range(c, ncols):
                    ri[j] = (ri[j] - f * rrow[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_at_least(m: Matrix, target: int) -> bool:
    """Sound fast test for rank(m) >= target.

    A rank >= target modulo the fixed 61-bit prime certifies the exact
    statement (reduction can only lose rank); only on a shortfall, or when
    the prime divides a denominator, does the exact elimination decide.
    """
    modular = _rank_mod_p(m, CERTIFICATE_PRIME)
    if modular is not None and modular >= target:
        return True
    return m.rank() >= target


def same_span(vectors_a, vectors_b) -> bool:
    """Exact equality of the spans of two vector families."""
    a = list(vectors_a)
    b = list(vectors_b)
    if not a and not b:
        return True
    if not a or not b:
        return all(is_zero_vector(v) for v in a + b)
    ra = Matrix(a).rank()
    rb = Matrix(b).rank()
    if ra != rb:
        return False
    return Matrix(a + b).rank() == ra
