"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction`.  A matrix is an immutable tuple of rows,
each stored as a dict from column index to a nonzero ``int`` numerator
plus one positive ``int`` denominator, in lowest terms (the gcd of the
denominator and all numerators is 1; an empty row has denominator 1).  So
products, sums, ``matvec`` and elimination run on plain ints over the
nonzeros, and ``==``/``hash`` compare the stored rows however the matrix
was built: the symmetric-power, exterior-power and Clifford operators
built here have a few percent of nonzeros.  Entries, rows, columns and
iteration are dense `Fraction` views built on demand.

Row reduction is fraction-free (Bareiss) on the stored integer rows, and
back-substitution stays in integers scaled by the last pivot.  Kernel
bases are the canonical reduced-echelon bases (one free variable 1, the
others 0) as primitive integer vectors (content removed, first nonzero
entry positive), so fixtures are reproducible.

No floating point lives here; numeric cross-checks belong to the test
suite's oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import Singular

Rational = Fraction

_ZERO = Fraction(0)

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


def _int_row(items) -> tuple[dict[int, int], int]:
    """Lowest-terms (numerators, denominator) of (position, entry) pairs.

    Ints are taken as they are; other entries are coerced (floats fail)
    and cleared over the lcm of their denominators, which leaves no common
    factor.  Zeros are dropped.
    """
    row = {}
    coerced = False
    for j, x in items:
        if x.__class__ is not int:
            if x.__class__ is not Fraction:
                x = frac(x)
            coerced = True
        if x:
            row[j] = x
    if not coerced:
        return row, 1
    den = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den


def _row(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Lowest terms of nums / den for a zero-free nums and den > 0."""
    if den == 1 or not nums:
        return nums, 1
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {j: x // g for j, x in nums.items()}, den // g


class Matrix:
    """Immutable sparse matrix of rationals, stored as integer rows.

    ``rows`` / ``cols`` are counts.  Each stored row is a pair (dict from
    column index to a nonzero int numerator, positive int denominator) in
    lowest terms; ``m[i, j]``, ``m.row(i)``, ``m.column(j)`` and iteration
    build dense `Fraction` views on demand.  All operations return new
    matrices.
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows, cols: int | None = None):
        entries = [tuple(row) for row in rows]
        if entries:
            width = len(entries[0])
            if any(len(r) != width for r in entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self._rows = tuple(_int_row(enumerate(r)) for r in entries)
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def _of(cls, rows, cols: int) -> "Matrix":
        """Wrap lowest-terms (numerators, denominator) rows as they are."""
        m = object.__new__(cls)
        m._rows = tuple(rows)
        m.rows = len(m._rows)
        m.cols = cols
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of((({i: 1}, 1) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of((({}, 1) for _ in range(rows)), cols)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = list(values)
        return cls._of((_int_row(((i, v),)) for i, v in enumerate(vals)), len(vals))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            rows = len(cols[0])
            if any(len(c) != rows for c in cols):
                raise ValueError("ragged columns")
        elif rows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        # zeros are dropped here (floats are kept, to be refused): dense
        # columns of a sparse matrix would otherwise pass through as dict entries
        return cls.from_sparse_columns(
            [{i: x for i, x in enumerate(c) if x or x.__class__ is float} for c in cols], rows
        )

    @classmethod
    def from_sparse_columns(cls, columns, rows: int) -> "Matrix":
        """Matrix whose column j is the mapping ``columns[j]``: row index -> entry.

        Entries are coerced exactly (ints as they are); zero entries may be
        given and are dropped.
        """
        out = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                out[i][j] = x
        return cls._of((_int_row(r.items()) for r in out), len(columns))

    # -- access ---------------------------------------------------------------

    def row(self, i: int) -> tuple[Fraction, ...]:
        nums, den = self._rows[i]
        dense = [_ZERO] * self.cols
        for j, x in nums.items():
            dense[j] = Fraction(x, den)
        return tuple(dense)

    def column(self, j: int) -> tuple[Fraction, ...]:
        j = range(self.cols)[j]  # negative j counts from the end; out of range raises
        return tuple(Fraction(n[j], d) if j in n else _ZERO for n, d in self._rows)

    def __getitem__(self, key):
        i, j = key
        nums, den = self._rows[i]
        j = range(self.cols)[j]
        return Fraction(nums[j], den) if j in nums else _ZERO

    def __iter__(self):
        return (self.row(i) for i in range(self.rows))

    def cleared(self) -> tuple[list[list[int]], int]:
        """(dense int rows of d * self, d) with d the lcm of the row denominators."""
        rows, d = self._over_common()
        return [[r.get(j, 0) for j in range(self.cols)] for r in rows], d

    def _over_common(self) -> tuple[list[dict[int, int]], int]:
        """(sparse int rows of d * self, d) with d the lcm of the row denominators."""
        d = lcm(*(den for _, den in self._rows))
        return [n if den == d else {j: x * (d // den) for j, x in n.items()} for n, den in self._rows], d

    # -- structure ------------------------------------------------------------

    def transpose(self) -> "Matrix":
        cols, d = self._over_common()
        return Matrix.from_sparse_columns(cols, self.cols) * Fraction(1, d)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((Fraction(n[i], d) for i, (n, d) in enumerate(self._rows) if i in n), _ZERO)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def is_zero(self) -> bool:
        return not any(nums for nums, _ in self._rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self._rows) == (other.cols, other._rows)

    def __hash__(self):
        return hash((self.cols, tuple((frozenset(n.items()), d) for n, d in self._rows)))

    def __repr__(self):
        return "Matrix(%r)" % [list(map(str, row)) for row in self]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = []
        for (na, da), (nb, db) in zip(self._rows, other._rows):
            den = lcm(da, db)
            fa, fb = den // da, den // db
            acc = {j: x * fa for j, x in na.items()} if fa != 1 else dict(na)
            for j, x in nb.items():
                s = acc.get(j, 0) + x * fb
                if s:
                    acc[j] = s
                else:
                    del acc[j]
            out.append(_row(acc, den))
        return Matrix._of(out, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._of((({j: -x for j, x in n.items()}, d) for n, d in self._rows), self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            c = frac(other)
            p, q = c.numerator, c.denominator
            if not p:
                return Matrix.zeros(self.rows, self.cols)
            return Matrix._of(
                (_row({j: p * x for j, x in n.items()}, d * q) for n, d in self._rows), self.cols
            )
        if self.cols != other.rows:
            shapes = (self.rows, self.cols, other.rows, other.cols)
            raise ValueError("cannot multiply %dx%d by %dx%d" % shapes)
        # other's rows over one common denominator, so each output row sums ints
        brows, common = other._over_common()
        out = []
        for anums, aden in self._rows:
            acc = {}
            for k, a in anums.items():
                for j, b in brows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_row({j: x for j, x in acc.items() if x}, aden * common))
        return Matrix._of(out, other.cols)

    __rmul__ = __mul__

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        vnums, vden = _int_row(enumerate(v))
        out = []
        for nums, den in self._rows:
            s = 0
            for j, a in nums.items():
                x = vnums.get(j)
                if x:
                    s += a * x
            out.append(Fraction(s, den * vden) if s else _ZERO)
        return tuple(out)

    # -- derived --------------------------------------------------------------

    def rank(self) -> int:
        return len(_bareiss_echelon(_numerators(self), self.cols)[0])

    def inverse(self) -> "Matrix":
        return solve_or_invert(self)


def hstack(*mats: Matrix) -> Matrix:
    """Side-by-side blocks; each row is cleared over the lcm of its pieces' denominators."""
    if any(m.rows != mats[0].rows for m in mats):
        raise ValueError("row counts differ")
    out = []
    for pieces in zip(*(m._rows for m in mats)):
        den = lcm(*(d for _, d in pieces))
        row = {}
        offset = 0
        for m, (nums, d) in zip(mats, pieces):
            f = den // d
            row.update((offset + j, x * f) for j, x in nums.items())
            offset += m.cols
        out.append((row, den))
    return Matrix._of(out, sum(m.cols for m in mats))


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
    return _primitive(_int_row(enumerate(v))[0], len(v))


def _primitive(ints: dict[int, int], n: int) -> tuple[int, ...]:
    """Dense length-n primitive form of a sparse integer vector."""
    g = gcd(*ints.values())
    if ints and ints[min(ints)] < 0:
        g = -g
    dense = [0] * n
    for j, x in ints.items():
        dense[j] = x // g
    return tuple(dense)


# -- fraction-free elimination --------------------------------------------------

def _numerators(m: Matrix) -> list[dict[int, int]]:
    """The stored integer rows: each row of m times its denominator."""
    return [nums for nums, _ in m._rows]


def _bareiss_echelon(rows: list[dict[int, int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free row echelon of sparse rows; returns (pivot columns, row swaps).

    The list is reordered and its entries replaced; no row dict is mutated,
    so the rows may be a matrix's stored numerators.

    Until a column is skipped, each pivot is a leading minor of the
    row-permuted input; on a nonsingular square matrix the last pivot is
    therefore +-det.  A row no step touched since it was stored at
    ``base[i]`` is the true row times base[i]/prev: the next step that
    touches it divides by base[i] instead of prev, and a pivot row is
    brought up to date when chosen, so the echelon holds exactly the
    integers of the eager elimination.
    """
    pivots = []
    swaps = 0
    prev = 1
    base = [1] * len(rows)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        hits = [i for i in range(r, len(rows)) if c in rows[i]]
        if not hits:
            continue
        k = hits[0]
        if k != r:
            rows[k], rows[r] = rows[r], rows[k]
            base[k], base[r] = base[r], base[k]
            swaps += 1
        rr = rows[r]
        if base[r] != prev:
            rr = rows[r] = {j: x * prev // base[r] for j, x in rr.items()}
        piv = rr[c]
        tail = [(j, x) for j, x in rr.items() if j != c]
        for i in hits[1:]:
            ri = rows[i]
            ric = ri[c]
            new = {j: piv * x for j, x in ri.items() if j != c}
            for j, x in tail:
                new[j] = new.get(j, 0) - ric * x
            rows[i] = {j: x // base[i] for j, x in new.items() if x}
            base[i] = piv
        prev = piv
        pivots.append(c)
    return pivots, swaps


def _back_substitute(rows: list[dict[int, int]], pivots: list[int], ncols: int):
    """Canonical solutions of the echelon system, all free columns at once.

    The solution for free column f has x[f] = 1 and every other free
    variable 0.  Returns (d, y) with d the last pivot and y[j] = {f: d * x_f[j]}
    over the nonzeros: d * x_f is integral by Cramer's rule, so every
    division here is exact.
    """
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    y = {f: {f: d} for f in range(ncols) if f not in pivot_set}
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        acc: dict[int, int] = {}
        for j, a in rows[i].items():
            if j != p:
                for f, v in y[j].items():
                    acc[f] = acc.get(f, 0) + a * v
        piv = rows[i][p]
        y[p] = {f: -s // piv for f, s in acc.items() if s}
    return d, y


def rank_and_kernel(m: Matrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and a primitive integer basis of the right kernel.

    rank + len(kernel) == cols; every kernel vector maps to zero exactly.
    """
    rows = _numerators(m)
    pivots, _ = _bareiss_echelon(rows, m.cols)
    _, y = _back_substitute(rows, pivots, m.cols)
    pivot_set = set(pivots)
    vectors = {f: {} for f in range(m.cols) if f not in pivot_set}
    for j, values in y.items():
        for f, v in values.items():
            vectors[f][j] = v
    return len(pivots), [_primitive(vec, m.cols) for vec in vectors.values()]


def solve_or_invert(m: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix; raises Singular otherwise.

    Column k of the inverse is the solution of [m | -I] whose free
    variable n + k is 1.
    """
    if m.rows != m.cols:
        raise Singular("inverse of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    rows = _numerators(hstack(m, -Matrix.identity(n)))
    pivots, _ = _bareiss_echelon(rows, 2 * n)
    if any(p >= n for p in pivots):
        raise Singular("matrix is singular (rank < %d)" % n)
    d, y = _back_substitute(rows, pivots, 2 * n)
    sign = 1 if d > 0 else -1
    return Matrix._of((_row({f - n: sign * v for f, v in y[j].items()}, abs(d)) for j in range(n)), n)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: +-(last Bareiss pivot) / (product of the row denominators)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = _numerators(m)
    pivots, swaps = _bareiss_echelon(rows, m.cols)
    if len(pivots) < m.rows:
        return _ZERO
    last = rows[-1][pivots[-1]] if pivots else 1
    return Fraction(-last if swaps & 1 else last, prod(d for _, d in m._rows))


def _rank_mod_p(m: Matrix, p: int) -> int | None:
    """Rank of the stored integer rows mod p; None if p divides a denominator.

    Each row is scaled by a unit mod p, so this is the rank of the entrywise
    reduction num * den^-1.  Any pivot gives the rank: the sparsest row
    spreads the least fill.
    """
    if any(d % p == 0 for _, d in m._rows):
        return None
    active = {i: {j: v for j, x in row.items() if (v := x % p)} for i, row in enumerate(_numerators(m))}
    rank = 0
    for c in range(m.cols):
        hits = [i for i, row in active.items() if c in row]
        if not hits:
            continue
        k = min(hits, key=lambda i: len(active[i]))
        rr = active.pop(k)
        inv = pow(rr.pop(c), -1, p)
        for i in hits:
            if i != k:
                ri = active[i]
                f = ri.pop(c) * inv % p
                for j, x in rr.items():
                    s = (ri.get(j, 0) - f * x) % p
                    if s:
                        ri[j] = s
                    else:
                        del ri[j]
        rank += 1
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
    if not a or not b:
        return all(is_zero_vector(v) for v in a + b)
    return Matrix(a).rank() == Matrix(b).rank() == Matrix(a + b).rank()
