"""Clifford algebra of a rational quadratic space, on blades of a diagonalizing basis.

Blades are bitmasks over the diagonal basis e_1..e_h; the empty mask is the
unit.  In an orthogonal basis the product of two blades is a pure
sign-and-contraction computation:

    e_A . e_B = sign(A, B) * prod_{i in A&B} d_i * e_{A^B}

where sign(A, B) is the parity of the transpositions that merge the two
sorted index lists (normative convention: masks ordered by increasing
index).  Elements arriving in the original basis are converted through the
diagonalizing change of basis first.

Products run on integers.  With d_i = n_i / m_i and scale = prod m_i, each
algebra tabulates once

    contract[C] = scale * prod_{i in C} d_i
                = prod_{i in C} n_i * prod_{i not in C} m_i,
    sign[A]     = mask whose bit j is the parity of the bits of A above j,

so sign(A, B) is the parity of popcount(sign[A] & B).

An element is a `linalg.SparseElement`, the one element class shared
with the graded elements of `formal_corr`: a dict from blade mask to a
nonzero int numerator plus one positive int denominator, in lowest terms,
as a `Matrix` row is stored.  Sums, scaling, ``==`` and ``hash`` are that
class's, on the stored pair.  A product accumulates
+-x_A * y_B * contract[A&B] over the stored numerators in ints, and the
shared frame puts the result over dx * dy * scale in lowest terms with
one gcd, so no `Fraction` is made.  The kernel (`_product_numerators`)
sums at least 2^h pairs into a list of 2^h slots and fewer into a dict,
and drops the zeros itself.
Multiplying by one blade b is a signed relabel: the terms c_m e_m of x
land on the distinct masks m ^ b, with weights +-c_m * contract[m & b],
so `_blade_columns` writes the columns x.e_b and e_b.x straight from the
tables, with nothing to sum.  Multiplication operators are sparse
matrices over the graded piece they act on, with those columns.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceeded, ParityViolation, SpaceMismatch
from .linalg import Matrix, SparseElement, _int_row, _row, vector
from .qspace import QuadraticSpace

_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

#: operator matrices are 2^h square; beyond h = 16 that is no longer desk scale
DEFAULT_CAP_H = 16


def reorder_parity(a: int, b: int) -> int:
    """Parity of the transpositions that merge index mask a, then b, into sorted order.

    Counts the pairs (i in a, j in b) with i > j.
    """
    swaps = 0
    while b:
        low = b & -b
        swaps += (a >> low.bit_length()).bit_count()
        b ^= low
    return swaps & 1


def blade_product(a: int, b: int, diag) -> tuple[Fraction, int]:
    """Product of basis blades given the diagonal form values.

    Returns (coef, a ^ b) where coef is the reordering sign times the
    product of d_i over the contracted indices a & b.
    """
    coef = _MINUS_ONE if reorder_parity(a, b) else _ONE
    common = a & b
    while common:
        low = common & -common
        coef = coef * diag[low.bit_length() - 1]
        common ^= low
    return coef, a ^ b


def _contraction_table(diag) -> tuple[int, list[int]]:
    """(scale, contract) with contract[C] = scale * prod_{i in C} d_i, an integer."""
    scale = 1
    for d in diag:
        scale *= d.denominator
    table = [scale] * (1 << len(diag))
    for mask in range(1, len(table)):
        low = mask & -mask
        d = diag[low.bit_length() - 1]
        table[mask] = table[mask ^ low] // d.denominator * d.numerator
    return scale, table


def _sign_table(h: int) -> list[int]:
    """sign[A] with reorder_parity(A, B) == popcount(sign[A] & B) & 1."""
    table = [0] * (1 << h)
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] ^ (low - 1)
    return table


def _product_numerators(alg: "CliffordAlgebra", xs, ys) -> dict[int, int]:
    """Zero-free integer product of (mask, numerator) operands; divide by dx * dy * alg.scale.

    At least 2^h pairs sum into a list with one slot per blade, fewer into
    a dict (the dict is faster well below 2^h pairs, e.g. the h^2 pairs of
    two vectors); both give the same dict without the masks whose terms
    cancelled.  A product with one blade is `_blade_columns`' relabel.
    """
    sign = alg.sign
    contract = alg.contract
    if len(xs) * len(ys) >= alg.dim:
        slots = [0] * alg.dim
        for am, ac in xs:
            sa = sign[am]
            for bm, bc in ys:
                v = ac * bc * contract[am & bm]
                if (sa & bm).bit_count() & 1:
                    slots[am ^ bm] -= v
                else:
                    slots[am ^ bm] += v
        return {m: x for m, x in enumerate(slots) if x}
    out: dict[int, int] = {}
    for am, ac in xs:
        sa = sign[am]
        for bm, bc in ys:
            v = ac * bc * contract[am & bm]
            m = am ^ bm
            if (sa & bm).bit_count() & 1:
                out[m] = out.get(m, 0) - v
            else:
                out[m] = out.get(m, 0) + v
    return {m: x for m, x in out.items() if x}


class CliffordAlgebra:
    """Cliff(H, (,)) for a rational quadratic space, capped at desk scale.

    ``scale``, ``contract`` and ``sign`` are the integer product tables
    described in the module docstring (2 * 2^h ints).
    """

    def __init__(self, space: QuadraticSpace, cap: int | None = None):
        cap = DEFAULT_CAP_H if cap is None else cap
        if space.h > cap:
            raise CapExceeded(
                "Clifford algebra on h=%d exceeds the cap %d" % (space.h, cap)
            )
        self.space = space
        self.h = space.h
        self.diag = space.diag_values
        self.dim = 1 << self.h
        self.even_masks = tuple(m for m in range(self.dim) if m.bit_count() % 2 == 0)
        self.odd_masks = tuple(m for m in range(self.dim) if m.bit_count() % 2 == 1)
        self.even_index = {m: i for i, m in enumerate(self.even_masks)}
        self.odd_index = {m: i for i, m in enumerate(self.odd_masks)}
        self.scale, self.contract = _contraction_table(self.diag)
        self.sign = _sign_table(self.h)

    # -- element constructors --------------------------------------------------

    def element(self, terms: dict[int, Fraction]) -> "CliffordElement":
        nums, den = _int_row(terms.items())
        for mask in nums:
            if mask < 0 or mask >= self.dim:
                raise ValueError("blade mask %d out of range" % mask)
        return CliffordElement(self, nums, den)

    def scalar(self, c) -> "CliffordElement":
        return self.blade(0, c)

    @property
    def unit(self) -> "CliffordElement":
        return self.scalar(1)

    def blade(self, mask: int, coef=1) -> "CliffordElement":
        return self.element({mask: coef})

    def vector_diag(self, coords) -> "CliffordElement":
        coords = vector(coords)
        if len(coords) != self.h:
            raise ValueError("expected %d coordinates" % self.h)
        return self.element({1 << i: c for i, c in enumerate(coords) if c})

    def vector(self, coords) -> "CliffordElement":
        """Grade-1 element for a vector given in the original basis, from its integer diagonal coordinates."""
        inv = self.space.diag_basis_inv
        coords = vector(coords)
        if len(coords) != inv.cols:
            raise ValueError("vector length %d != cols %d" % (len(coords), inv.cols))
        nums, den = inv._apply(_int_row(enumerate(coords)))
        return CliffordElement(self, {1 << i: x for i, x in nums.items()}, den)

    def compatible(self, other: "CliffordAlgebra") -> bool:
        return self is other or self.space == other.space

    def masks(self, part: str):
        if part == "full":
            return range(self.dim)
        if part == "even":
            return self.even_masks
        if part == "odd":
            return self.odd_masks
        raise ValueError("unknown graded part %r" % part)

    def index_map(self, part: str):
        if part == "full":
            return range(self.dim)  # position == mask
        return self.even_index if part == "even" else self.odd_index

    def __repr__(self):
        return "CliffordAlgebra(h=%d, diag=%s)" % (
            self.h,
            tuple(str(d) for d in self.diag),
        )


class CliffordElement(SparseElement):
    """Sparse blade-indexed rational element of a Clifford algebra.

    A `linalg.SparseElement`: ``nums`` maps each blade mask to a nonzero
    int numerator over the one positive int ``den``, in lowest terms, as a
    `Matrix` row is stored; the product numerators come from
    `_product_numerators`, over the algebra's ``scale``.
    """

    __slots__ = ()

    _mismatch = SpaceMismatch, "elements live over different quadratic spaces"

    @property
    def parity(self) -> str:
        """'even', 'odd', or 'mixed'; the zero element counts as even."""
        parities = {m.bit_count() & 1 for m in self.nums}
        if parities == {1}:
            return "odd"
        return "mixed" if len(parities) == 2 else "even"

    def _product(self, other: "CliffordElement") -> tuple[dict[int, int], int]:
        alg = self.algebra
        return _product_numerators(alg, self.nums.items(), other.nums.items()), alg.scale

    def __repr__(self):
        if not self.nums:
            return "<0>"
        bits = []
        for m, c in sorted(self.terms.items()):
            name = (
                "1"
                if m == 0
                else "".join("e%d" % (i + 1) for i in range(self.algebra.h) if m >> i & 1)
            )
            bits.append("%s*%s" % (c, name))
        return "<" + " + ".join(bits) + ">"


def mul(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """Clifford product; bilinear, associative, parity adds mod 2."""
    return x * y


def _blade_columns(x: CliffordElement, side: str, blades):
    """The columns x.e_b (side 'left') or e_b.x ('right'), one per blade b, over x.den * scale.

    Term c_m e_m goes to its own mask m ^ b, weight c_m * contract[m & b]
    negated on the parity of sign[m] & b (x.e_b) or sign[b] & m (e_b.x); a
    zero weight, which only a corrupted ``contract`` has, is left out.
    """
    alg = x.algebra
    sign, contract = alg.sign, alg.contract
    terms = [(m, c, sign[m]) for m, c in x.nums.items()]
    left = side == "left"
    for b in blades:
        sb = sign[b]
        column = {}
        for m, c, sm in terms:
            w = c * contract[m & b]
            if w:
                flip = sm & b if left else sb & m
                column[m ^ b] = -w if flip.bit_count() & 1 else w
        yield column


def _mul_block(x: CliffordElement, side: str, domain: str) -> Matrix:
    """Matrix of left/right multiplication by x from one graded piece.

    The codomain is determined by the element parity ('full' stays full);
    x must have homogeneous parity unless domain is 'full'.
    """
    alg = x.algebra
    par = x.parity
    if domain != "full" and par == "mixed":
        raise ParityViolation("mixed-parity element on a graded piece")
    masks = alg.masks(domain)
    codomain = {"even": "odd", "odd": "even"}[domain] if domain != "full" and par == "odd" else domain
    index = alg.index_map(codomain)
    rows = [{} for _ in range(len(index))]
    for j, column in enumerate(_blade_columns(x, side, masks)):
        for m, w in column.items():
            rows[index[m]][j] = w
    den = x.den * alg.scale
    return Matrix._of([_row(r, den) for r in rows], len(masks))


def left_mul_operator(v: CliffordElement, restrict: str = "full") -> Matrix:
    """Matrix of x -> v.x on the chosen graded piece, in blade basis.

    A graded restriction requires even parity (odd v does not preserve
    C+/C-); ParityViolation otherwise.
    """
    if restrict != "full" and v.parity != "even":
        raise ParityViolation(
            "left multiplication by a %s element does not preserve C%s"
            % (v.parity, "+" if restrict == "even" else "-")
        )
    return _mul_block(v, "left", restrict)


def right_mul_operator(c: CliffordElement, restrict: str = "full") -> Matrix:
    """Matrix of x -> x.c with x in the chosen graded piece.

    Parity is mirrored: an odd c maps C+ to C- (restrict names the domain);
    mixed parity on a graded piece raises ParityViolation.
    """
    return _mul_block(c, "right", restrict)
