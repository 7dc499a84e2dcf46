"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction`.  A matrix is an immutable tuple of rows,
each a dict from column index to a nonzero entry, so products, elimination
and certificates walk nonzeros only: the symmetric-power, exterior-power
and Clifford operators built here have a few percent of them.

Row reduction is fraction-free (Bareiss) on denominator-cleared integer
rows, and back-substitution stays in integers scaled by the last pivot.
Kernel bases are the canonical reduced-echelon bases (one free variable 1,
the others 0) as primitive integer vectors (content removed, first nonzero
entry positive), so fixtures are reproducible.

No floating point lives here; numeric cross-checks belong to the test
suite's oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def _nonzeros(entries) -> dict[int, Fraction]:
    """Position -> coerced entry for the nonzeros; int zeros skip ``frac``, floats still fail."""
    out = {}
    for j, x in enumerate(entries):
        if x or x.__class__ is not int:
            x = frac(x)
            if x:
                out[j] = x
    return out


class Matrix:
    """Immutable sparse matrix of Fractions.

    ``rows`` / ``cols`` are counts.  Each stored row maps a column index to
    its nonzero entry; ``m[i, j]``, ``m.row(i)``, ``m.column(j)`` and
    iteration build dense views on demand.  All operations return new
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
        self._rows = tuple(_nonzeros(r) for r in entries)
        self.rows = len(entries)
        self.cols = cols

    @classmethod
    def _of(cls, rows, cols: int) -> "Matrix":
        """Wrap zero-free row dicts of Fractions as they are."""
        m = object.__new__(cls)
        m._rows = tuple(rows)
        m.rows = len(m._rows)
        m.cols = cols
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(({i: _ONE} for i in range(n)), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of(({} for _ in range(rows)), cols)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        vals = [frac(v) for v in values]
        return cls._of(({i: v} if v else {} for i, v in enumerate(vals)), len(vals))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            rows = len(cols[0])
            if any(len(c) != rows for c in cols):
                raise ValueError("ragged columns")
        elif rows is None:
            raise ValueError("a matrix with no columns needs an explicit row count")
        return cls.from_sparse_columns([_nonzeros(c) for c in cols], rows)

    @classmethod
    def from_sparse_columns(cls, columns, rows: int) -> "Matrix":
        """Matrix whose column j is the mapping ``columns[j]``: row index -> entry.

        Entries are coerced exactly; zero entries may be given and are dropped.
        """
        out = [{} for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col.items():
                x = frac(x)
                if x:
                    out[i][j] = x
        return cls._of(out, len(columns))

    # -- access ---------------------------------------------------------------

    def row(self, i: int) -> tuple[Fraction, ...]:
        dense = [_ZERO] * self.cols
        for j, x in self._rows[i].items():
            dense[j] = x
        return tuple(dense)

    def column(self, j: int) -> tuple[Fraction, ...]:
        j = range(self.cols)[j]  # negative j counts from the end; out of range raises
        return tuple(r.get(j, _ZERO) for r in self._rows)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i].get(range(self.cols)[j], _ZERO)

    def __iter__(self):
        return (self.row(i) for i in range(self.rows))

    # -- structure ------------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix.from_sparse_columns(self._rows, self.cols)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((r.get(i, _ZERO) for i, r in enumerate(self._rows)), _ZERO)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.cols, self._rows) == (other.cols, other._rows)

    def __hash__(self):
        return hash((self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        return "Matrix(%r)" % [list(map(str, row)) for row in self]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for j, x in rb.items():
                s = row.get(j, _ZERO) + x
                if s:
                    row[j] = s
                else:
                    del row[j]
            out.append(row)
        return Matrix._of(out, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix._of(({j: -x for j, x in r.items()} for r in self._rows), self.cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            c = frac(other)
            return Matrix._of(
                ({j: c * x for j, x in r.items()} if c else {} for r in self._rows), self.cols
            )
        if self.cols != other.rows:
            shapes = (self.rows, self.cols, other.rows, other.cols)
            raise ValueError("cannot multiply %dx%d by %dx%d" % shapes)
        orows = other._rows
        out = []
        for arow in self._rows:
            acc = {}
            for k, a in arow.items():
                for j, b in orows[k].items():
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return Matrix._of(out, other.cols)

    __rmul__ = __mul__

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        out = []
        for row in self._rows:
            s = _ZERO
            for j, a in row.items():
                x = v[j]
                if x:
                    s += a * x
            out.append(s)
        return tuple(out)

    # -- derived --------------------------------------------------------------

    def rank(self) -> int:
        rows, _ = _cleared_int_rows(self)
        return len(_bareiss_echelon(rows, self.cols)[0])

    def inverse(self) -> "Matrix":
        return solve_or_invert(self)


def hstack(*mats: Matrix) -> Matrix:
    if any(m.rows != mats[0].rows for m in mats):
        raise ValueError("row counts differ")
    out = [{} for _ in range(mats[0].rows)]
    offset = 0
    for m in mats:
        for row, r in zip(out, m._rows):
            row.update((offset + j, x) for j, x in r.items())
        offset += m.cols
    return Matrix._of(out, offset)


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
    m = Matrix([v])
    return _primitive(_cleared_int_rows(m)[0][0], m.cols)


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

def _cleared_int_rows(m: Matrix) -> tuple[list[dict[int, int]], int]:
    """Sparse integer rows, each scaled by the lcm of its denominators, and the
    product of those scales (rank and kernel keep; the determinant divides it out)."""
    out = []
    total = 1
    for row in m._rows:
        scale = lcm(*(x.denominator for x in row.values()))
        total *= scale
        out.append({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
    return out, total


def _bareiss_echelon(rows: list[dict[int, int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free row echelon of sparse rows in place; returns (pivot columns, row swaps).

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
            ric = ri.pop(c)
            new = {j: piv * x for j, x in ri.items()}
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
    rows, _ = _cleared_int_rows(m)
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
    rows, _ = _cleared_int_rows(hstack(m, -Matrix.identity(n)))
    pivots, _ = _bareiss_echelon(rows, 2 * n)
    if any(p >= n for p in pivots):
        raise Singular("matrix is singular (rank < %d)" % n)
    d, y = _back_substitute(rows, pivots, 2 * n)
    return Matrix._of(({f - n: Fraction(v, d) for f, v in y[j].items()} for j in range(n)), n)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: +-(last Bareiss pivot) / (product of the row scales)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows, scale = _cleared_int_rows(m)
    pivots, swaps = _bareiss_echelon(rows, m.cols)
    if len(pivots) < m.rows:
        return _ZERO
    last = rows[-1][pivots[-1]] if pivots else 1
    return Fraction(-last if swaps & 1 else last, scale)


def _rank_mod_p(m: Matrix, p: int) -> int | None:
    """Rank of the cleared integer rows mod p; None if p divides a denominator.

    Each row is scaled by a unit mod p, so this is the rank of the entrywise
    reduction num * den^-1.  Any pivot gives the rank: the sparsest row
    spreads the least fill.
    """
    rows, scale = _cleared_int_rows(m)
    if scale % p == 0:
        return None
    active = {i: {j: v for j, x in row.items() if (v := x % p)} for i, row in enumerate(rows)}
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
