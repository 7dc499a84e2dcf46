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

so sign(A, B) is the parity of popcount(sign[A] & B).  A product clears each
factor to integer numerators over one denominator, accumulates
+-x_A * y_B * contract[A&B] in ints, and divides once per output blade.

Elements are sparse maps blade -> Fraction; multiplication operators are
dense matrices over the graded piece they act on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import CapExceeded, ParityViolation, SpaceMismatch
from .linalg import Matrix, frac, vector
from .qspace import QuadraticSpace

_ZERO = Fraction(0)
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


def _cleared(terms: dict[int, Fraction]) -> tuple[list[tuple[int, int]], int]:
    """(blade, integer numerator) pairs over the least common denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in terms.items()], den


def _product_numerators(alg: "CliffordAlgebra", xs, ys) -> dict[int, int]:
    """Integer product of cleared operands; divide by dx * dy * alg.scale."""
    sign = alg.sign
    contract = alg.contract
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
    return out


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
        clean = {}
        for mask, coef in terms.items():
            coef = frac(coef)
            if coef:
                if mask < 0 or mask >= self.dim:
                    raise ValueError("blade mask %d out of range" % mask)
                clean[mask] = coef
        return CliffordElement(self, clean)

    def scalar(self, c) -> "CliffordElement":
        return self.element({0: frac(c)})

    @property
    def unit(self) -> "CliffordElement":
        return self.scalar(1)

    def blade(self, mask: int, coef=1) -> "CliffordElement":
        return self.element({mask: frac(coef)})

    def basis_vector(self, i: int) -> "CliffordElement":
        """Grade-1 element for the i-th *diagonal* basis vector (0-based)."""
        return self.blade(1 << i)

    def vector_diag(self, coords) -> "CliffordElement":
        coords = vector(coords)
        if len(coords) != self.h:
            raise ValueError("expected %d coordinates" % self.h)
        return self.element({1 << i: c for i, c in enumerate(coords) if c})

    def vector(self, coords) -> "CliffordElement":
        """Grade-1 element for a vector given in the original basis."""
        return self.vector_diag(self.space.to_diag_coords(coords))

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
            return None  # identity: position == mask
        return self.even_index if part == "even" else self.odd_index

    def __repr__(self):
        return "CliffordAlgebra(h=%d, diag=%s)" % (
            self.h,
            tuple(str(d) for d in self.diag),
        )


class CliffordElement:
    """Sparse blade-indexed rational element of a Clifford algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: CliffordAlgebra, terms: dict[int, Fraction]):
        self.algebra = algebra
        self.terms = terms

    @property
    def parity(self) -> str:
        """'even', 'odd', or 'mixed'; the zero element counts as even."""
        if not self.terms:
            return "even"
        parities = {m.bit_count() & 1 for m in self.terms}
        if parities == {0}:
            return "even"
        if parities == {1}:
            return "odd"
        return "mixed"

    def is_zero(self) -> bool:
        return not self.terms

    def grade_part(self, k: int) -> "CliffordElement":
        return CliffordElement(
            self.algebra, {m: c for m, c in self.terms.items() if m.bit_count() == k}
        )

    def _require_same_space(self, other: "CliffordElement"):
        if not self.algebra.compatible(other.algebra):
            raise SpaceMismatch("elements live over different quadratic spaces")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._require_same_space(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return CliffordElement(self.algebra, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            self._require_same_space(other)
            alg = self.algebra
            xs, dx = _cleared(self.terms)
            ys, dy = _cleared(other.terms)
            den = dx * dy * alg.scale
            out = _product_numerators(alg, xs, ys)
            return CliffordElement(alg, {m: Fraction(v, den) for m, v in out.items() if v})
        c = frac(other)
        if not c:
            return CliffordElement(self.algebra, {})
        return CliffordElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        return self * (_ONE / frac(other))

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.algebra.compatible(other.algebra)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
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


def _mul_block(x: CliffordElement, side: str, domain: str) -> Matrix:
    """Matrix of left/right multiplication by x from one graded piece.

    The codomain is determined by the element parity ('full' stays full);
    x must have homogeneous parity unless domain is 'full'.
    """
    alg = x.algebra
    par = x.parity
    if domain == "full":
        codomain = "full"
    else:
        if par == "mixed":
            raise ParityViolation("mixed-parity element on a graded piece")
        if par == "even":
            codomain = domain
        else:
            codomain = "odd" if domain == "even" else "even"
    dom_masks = alg.masks(domain)
    cod_index = alg.index_map(codomain)
    place = range(alg.dim) if cod_index is None else cod_index
    size = alg.dim if codomain == "full" else alg.dim >> 1
    xs, dx = _cleared(x.terms)
    den = dx * alg.scale
    cols = []
    for m in dom_masks:
        unit = [(m, 1)]
        if side == "left":
            col = _product_numerators(alg, xs, unit)
        else:
            col = _product_numerators(alg, unit, xs)
        cols.append({place[out]: v for out, v in col.items() if v})
    return Matrix.from_sparse_columns(cols, size) * Fraction(1, den)


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
    if restrict != "full" and c.parity == "mixed":
        raise ParityViolation("mixed-parity element on a graded piece")
    return _mul_block(c, "right", restrict)
