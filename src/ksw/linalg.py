"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction`.  Inside the package a rational vector
is one integer row: a dict from position to a nonzero ``int`` numerator
plus one positive ``int`` denominator, in lowest terms (the gcd of the
denominator and all numerators is 1; an empty row has denominator 1), put
there by `_int_row` / `_row` / `_row_sum`.  A matrix is an immutable tuple
of such rows, an algebra element (`SparseElement`: Clifford and graded
elements) is one, and so is a single vector the package computes with
(`Matrix._apply` maps one to another).  A family of
vectors is the columns of one matrix, so an operator acts on it in one
product.  Products, sums and elimination run on plain ints over the
nonzeros; an operator identity a . b == c . d is one `products_equal`
call, which compares the two products row by row in unreduced integers
and holds neither.  ``==``/``hash`` compare the stored rows however the matrix was
built.  The symmetric-power, exterior-power and Clifford operators have a
few percent of nonzeros; `induced_operator` builds the derivations, whose
moves can meet, from integer weights over one denominator.  Entries, rows,
columns, iteration and ``matvec`` are dense `Fraction` views built on
demand (`_dense`).

Row reduction is fraction-free (Bareiss) on the stored integer rows, and
back-substitution stays in integers scaled by the last pivot: that one
echelon is all the package's exact elimination, behind rank, kernel,
inverse, the reduced-echelon basis of a span and the Weil eigenvector
choice.  Kernel bases are the canonical reduced-echelon bases (one free
variable 1, the others 0) as primitive integer vectors (content removed,
first nonzero entry positive), so fixtures are reproducible;
`kernel_basis` returns one as the integer columns of one matrix,
`rank_and_kernel` as int tuples.

No floating point lives here; numeric cross-checks belong to the test
suite's oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import Singular

Rational = Fraction

_ZERO = Fraction(0)

#: 61-bit Mersenne prime of the isotropic stack's rank certificate (`sympow._stack_rank`).
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


def _row_sum(na: dict[int, int], da: int, nb: dict[int, int], db: int) -> tuple[dict[int, int], int]:
    """Lowest terms of na / da + nb / db, summed over lcm(da, db)."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    acc = {j: x * fa for j, x in na.items()} if fa != 1 else dict(na)
    for j, x in nb.items():
        s = acc.get(j, 0) + x * fb
        if s:
            acc[j] = s
        else:
            del acc[j]
    return _row(acc, den)


class SparseElement:
    """Algebra element stored as one integer row, labelled by basis keys.

    ``nums`` maps each basis label to a nonzero int numerator over the one
    positive int ``den``, in lowest terms; neither is mutated, and
    ``terms`` is a new `Fraction` view on each access.  Sums, negation,
    scaling, ``==`` and ``hash`` act on that pair alone.  A subclass names
    its mismatch error in ``_mismatch`` (its algebra has ``compatible``)
    and gives ``_product(other)``: the zero-free product numerators and
    an int scale, the product being their row over dx * dy * scale.
    """

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra, nums: dict, den: int = 1):
        """Wrap a lowest-terms (numerators, denominator) pair as it is."""
        self.algebra = algebra
        self.nums = nums
        self.den = den

    @property
    def terms(self) -> dict:
        den = self.den
        return {k: Fraction(x, den) for k, x in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def _check(self, other: "SparseElement"):
        if not self.algebra.compatible(other.algebra):
            error, message = self._mismatch
            raise error(message)

    def __add__(self, other):
        self._check(other)
        return type(self)(self.algebra, *_row_sum(self.nums, self.den, other.nums, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -x for k, x in self.nums.items()}, self.den)

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, cls):
            self._check(other)
            nums, scale = self._product(other)
            return cls(self.algebra, *_row(nums, self.den * other.den * scale))
        c = frac(other)
        p = c.numerator
        if not p:
            return cls(self.algebra, {})
        return cls(self.algebra, *_row({k: p * x for k, x in self.nums.items()}, self.den * c.denominator))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        return self * (1 / frac(other))

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.den == other.den
            and self.nums == other.nums
            and self.algebra.compatible(other.algebra)
        )

    def __hash__(self):
        return hash((frozenset(self.nums.items()), self.den))


class Matrix:
    """Immutable sparse matrix of rationals, stored as integer rows.

    ``rows`` / ``cols`` are counts.  Each stored row is a pair (dict from
    column index to a nonzero int numerator, positive int denominator) in
    lowest terms; ``m[i, j]``, ``m.row(i)``, ``m.column(j)`` and iteration
    build dense `Fraction` views on demand.  All operations return new
    matrices.  ``Matrix(rows)`` builds one from dense entries, ``_of`` from
    integer rows; vectors as columns are ``Matrix(vectors, n).transpose()``,
    and a kernel basis is built as columns (`kernel_basis`).
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

    # -- access ---------------------------------------------------------------

    def row(self, i: int) -> tuple[Fraction, ...]:
        return _dense(self._rows[i], self.cols)

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

    def cleared(self) -> tuple[list[dict[int, int]], int]:
        """(sparse int rows of d * self, d) with d the lcm of the row denominators."""
        d = lcm(*(den for _, den in self._rows))
        return [n if den == d else {j: x * (d // den) for j, x in n.items()} for n, den in self._rows], d

    def cleared_columns(self) -> tuple[list[list[tuple[int, int]]], int]:
        """(columns, d) with d as in `cleared`: columns[t] lists the nonzero (i, x) of column t of d * self, in row order."""
        rows, d = self.cleared()
        return [[(i, row[t]) for i, row in enumerate(rows) if t in row] for t in range(self.cols)], d

    # -- structure ------------------------------------------------------------

    def transpose(self) -> "Matrix":
        rows, d = self.cleared()
        return induced_operator(range(self.rows), range(self.cols), lambda i: rows[i].items(), d)

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
        return Matrix._of((_row_sum(*a, *b) for a, b in zip(self._rows, other._rows)), self.cols)

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
        _check_multipliable(self, other)
        # other's rows over one common denominator, so each output row sums ints
        brows, common = other.cleared()
        return Matrix._of(
            (_row({j: x for j, x in _accumulate({}, n, brows, 1).items() if x}, d * common) for n, d in self._rows),
            other.cols,
        )

    __rmul__ = __mul__

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        return _dense(self._apply(_int_row(enumerate(v))), self.rows)

    def _apply(self, vec: tuple[dict[int, int], int]) -> tuple[dict[int, int], int]:
        """self . v for an integer row v, as an integer row (lowest terms)."""
        vnums, vden = vec
        common = lcm(*(den for _, den in self._rows))
        out = {}
        for i, (nums, den) in enumerate(self._rows):
            s = 0
            for j, a in nums.items():
                x = vnums.get(j)
                if x:
                    s += a * x
            if s:
                out[i] = s * (common // den)
        return _row(out, common * vden)

    # -- derived --------------------------------------------------------------

    def rank(self) -> int:
        return len(_bareiss_echelon(_numerators(self), self.cols))

    def inverse(self) -> "Matrix":
        return solve_or_invert(self)


def _check_multipliable(a: Matrix, b: Matrix) -> None:
    if a.cols != b.rows:
        raise ValueError("cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols))


def _accumulate(acc: dict[int, int], nums: dict[int, int], rows: list[dict[int, int]], f: int) -> dict[int, int]:
    """acc plus f times the integer row nums . rows, with cancelled entries kept as 0."""
    for k, x in nums.items():
        x *= f
        for j, y in rows[k].items():
            acc[j] = acc.get(j, 0) + x * y
    return acc


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """a . b == c . d, decided one output row at a time; neither product is held.

    Row i of a . b is X / (aden_i D_b) and row i of c . d is Y / (cden_i D_d),
    D_b and D_d the common denominators of b and d.  All are positive, so
    the rows agree exactly when X s - Y t = 0 for s = cden_i D_d / g and
    t = aden_i D_b / g, g = gcd(D_b, D_d): no row is put in lowest terms,
    and the first nonzero row ends the check.  Non-multipliable operands
    raise ValueError as ``*`` does; products of different shapes are unequal.
    """
    _check_multipliable(a, b)
    _check_multipliable(c, d)
    if a.rows != c.rows or b.cols != d.cols:
        return False
    brows, db = b.cleared()
    drows, dd = d.cleared()
    g = gcd(db, dd)
    db, dd = db // g, dd // g
    for (anums, aden), (cnums, cden) in zip(a._rows, c._rows):
        acc = _accumulate({}, anums, brows, cden * dd)
        if any(_accumulate(acc, cnums, drows, -aden * db).values()):
            return False
    return True


def induced_operator(keys, index, moves, den: int) -> Matrix:
    """Matrix sending basis key s to (sum of w * t over (t, w) in moves(s)) / den.

    Column j belongs to keys[j]; ``index`` maps each target key to its row
    (its length is the row count).  Weights are nonzero ints and den a
    positive int; each row is put in lowest terms once, so no rescaling
    follows.
    """
    out = [{} for _ in range(len(index))]
    for j, key in enumerate(keys):
        for target, w in moves(key):
            row = out[index[target]]
            s = row.get(j, 0) + w
            if s:
                row[j] = s
            else:
                del row[j]
    return Matrix._of((_row(r, den) for r in out), len(keys))


# -- vector helpers ------------------------------------------------------------

def _dense(vec: tuple[dict[int, int], int], n: int) -> tuple[Fraction, ...]:
    """Dense length-n `Fraction` view of an integer row."""
    nums, den = vec
    out = [_ZERO] * n
    for j, x in nums.items():
        out[j] = Fraction(x, den)
    return tuple(out)


def _primitive_columns(rows: list[dict[int, int]], keys: list[int]) -> Matrix:
    """Integer matrix of rows (column key -> nonzero int), column t the one keyed keys[t].

    Each column is made primitive: its content divided out and its first
    nonzero, in row order, positive.
    """
    scale: dict[int, int] = {}
    for row in rows:
        for f, x in row.items():
            g = scale.get(f, x)
            scale[f] = gcd(g, x) if g > 0 else -gcd(g, x)
    position = {f: t for t, f in enumerate(keys)}
    return Matrix._of((({position[f]: x // scale[f] for f, x in row.items()}, 1) for row in rows), len(keys))


def _int_columns(m: Matrix) -> list[tuple[int, ...]]:
    """The columns of a matrix of integers as dense int tuples."""
    cols = [[0] * m.rows for _ in range(m.cols)]
    for i, (nums, _) in enumerate(m._rows):
        for t, x in nums.items():
            cols[t][i] = x
    return [tuple(col) for col in cols]


# -- fraction-free elimination --------------------------------------------------

def _numerators(m: Matrix) -> list[dict[int, int]]:
    """The stored integer rows: each row of m times its denominator."""
    return [nums for nums, _ in m._rows]


def _bareiss_echelon(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Fraction-free row echelon of sparse rows; returns the pivot columns.

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
    return pivots


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


def kernel_basis(m: Matrix) -> Matrix:
    """The canonical primitive basis of the right kernel as the integer columns of one matrix.

    Column t is the solution whose t-th free variable is 1 and the others
    0, made primitive; rank m is m.cols minus the column count.  The
    columns are read off the back-substitution, with no dense vector.
    """
    rows = _numerators(m)
    pivots = _bareiss_echelon(rows, m.cols)
    _, y = _back_substitute(rows, pivots, m.cols)
    pivot_set = set(pivots)
    return _primitive_columns([y[j] for j in range(m.cols)], [f for f in range(m.cols) if f not in pivot_set])


def rank_and_kernel(m: Matrix) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and the `kernel_basis` vectors as int tuples.

    rank + len(kernel) == cols; every kernel vector maps to zero exactly.
    """
    kernel = kernel_basis(m)
    return m.cols - kernel.cols, _int_columns(kernel)


def reduced_echelon_basis(m: Matrix) -> Matrix | None:
    """Primitive reduced-echelon basis of the column span of m, read from the right.

    None if the columns are dependent.  The pivot of each basis vector is
    its last nonzero position and every other vector is zero there; the
    vectors are the columns of the result, in pivot order.  For any matrix
    whose kernel is that span this is its `kernel_basis`: a column is free
    exactly when some kernel vector ends in it, and the kernel vector of
    a free column vanishes on the other free columns.

    The columns of m, positions reversed (j -> m.rows - 1 - j), are the
    rows of one `_bareiss_echelon`; with (d, y) from `_back_substitute`,
    the reduced row of pivot p times d is d at p and -y[p][f] at each free
    f.  The reduced echelon form of a span is unique, and so is this basis.
    """
    n = m.rows
    rows = [{n - 1 - j: x for j, x in nums.items()} for nums, _ in m.transpose()._rows]
    pivots = _bareiss_echelon(rows, n)
    if len(pivots) < m.cols:
        return None
    d, y = _back_substitute(rows, pivots, n)
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for p in pivots:
        out[n - 1 - p][p] = d
        for f, v in y[p].items():
            out[n - 1 - f][p] = -v
    return _primitive_columns(out, pivots[::-1])


def solve_or_invert(m: Matrix) -> Matrix:
    """Exact inverse of a square nonsingular matrix; raises Singular otherwise.

    Column k of the inverse is the solution of [m | -I] whose free
    variable n + k is 1.
    """
    if m.rows != m.cols:
        raise Singular("inverse of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    rows = [{**nums, n + i: -den} for i, (nums, den) in enumerate(m._rows)]
    pivots = _bareiss_echelon(rows, 2 * n)
    if any(p >= n for p in pivots):
        raise Singular("matrix is singular (rank < %d)" % n)
    d, y = _back_substitute(rows, pivots, 2 * n)
    sign = 1 if d > 0 else -1
    return Matrix._of((_row({f - n: sign * v for f, v in y[j].items()}, abs(d)) for j in range(n)), n)


def _echelon_mod_p(rows, cols: int, target: int, p: int) -> tuple[int | None, list]:
    """(rank mod p, rows read) of integer rows read in order until the rank is target >= 1.

    Each row, entrywise num * den^-1 mod p, is one int of ``cols`` slots,
    column 0 the most significant.  It is reduced against the normalized
    pivot rows (pivot slot 1, every slot below p) in the order they were
    found, each zero at the pivot columns before it: each step is one
    multiply-add r += (p - f) * pivot with f = r's pivot slot mod p, so a
    slot gains at most (p - 1)^2 per step, over fewer than target steps.
    A slot is the whole bytes that (p - 1) + target (p - 1)^2 and one more
    bit need, so none carries; slots are reduced mod p once the row is.
    The rank is None if p divides the denominator of the last row read.
    """
    size = (((p - 1) + target * (p - 1) ** 2).bit_length() + 8) // 8
    width, total = 8 * size, cols * size
    mask = (1 << width) - 1
    pivots: list[tuple[int, int]] = []  # (shift of the pivot slot, packed row)
    read = []
    for nums, den in rows:
        read.append((nums, den))
        if den % p == 0:
            return None, read
        inv = pow(den, -1, p)
        r = 0
        for j, x in nums.items():
            r |= x * inv % p << width * (cols - 1 - j)
        for shift, pivot in pivots:
            f = (r >> shift & mask) % p
            if f:
                r += (p - f) * pivot
        packed = r.to_bytes(total, "big")
        slots = (int.from_bytes(packed[i : i + size], "big") % p for i in range(0, total, size))
        for c, x in enumerate(slots):
            if x:  # the new pivot column: normalize the row from here on
                inv = pow(x, -1, p)
                row = b"".join((y * inv % p).to_bytes(size, "big") for y in chain((x,), slots))
                pivots.append((width * (cols - 1 - c), int.from_bytes(row, "big")))
                break
        if len(pivots) == target:
            break
    return len(pivots), read


def same_span(vectors_a, vectors_b) -> bool:
    """Exact equality of the spans of two vector families."""
    a = list(vectors_a)
    b = list(vectors_b)
    if not a or not b:
        return not any(x for v in a + b for x in v)
    return Matrix(a).rank() == Matrix(b).rank() == Matrix(a + b).rank()
