"""Rational quadratic spaces.

A `QuadraticSpace` wraps a symmetric nondegenerate Gram matrix over Q and
carries a rational diagonalization computed once at construction: a
nonsingular change of basis T with T^t G T diagonal.  Everything downstream
(blade products, period validation, harmonic contraction) reads the form
through this object.

Diagonalization orthogonalizes the basis vectors for the form in turn,
each an integer row (`linalg`): G.b_i once per step, each b(b_i, b_j) an
integer dot product.  A null b_i is swapped with the next non-null b_j,
or else b_i += b_j for the first b_j it pairs with (then b(b_i, b_i) =
2 b(b_i, b_j) != 0); this succeeds for every nondegenerate form over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import Degenerate, NotSymmetric
from .linalg import Matrix, _int_row, _row_sum, frac, solve_or_invert, vector

_ONE = Fraction(1)


def diagonalize(gram: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Rational congruence diagonalization of a symmetric Gram matrix.

    Returns (T, d) with T nonsingular and T^t . gram . T = diag(d), every
    d_i nonzero.  Raises NotSymmetric / Degenerate on bad input.
    """
    if gram.rows != gram.cols:
        raise NotSymmetric("Gram matrix must be square")
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    n = gram.rows
    basis = [({j: 1}, 1) for j in range(n)]  # the columns of T
    d = []
    for i in range(n):
        g_i = gram._apply(basis[i])
        if not _pair(g_i, basis[i]):
            for j in range(i + 1, n):
                g_j = gram._apply(basis[j])
                if _pair(g_j, basis[j]):
                    basis[i], basis[j], g_i = basis[j], basis[i], g_j
                    break
            else:
                off = next((j for j in range(i + 1, n) if _pair(g_i, basis[j])), None)
                if off is None:
                    raise Degenerate("form is degenerate (zero row in reduced Gram)")
                basis[i] = _row_sum(*basis[i], *basis[off])
                g_i = gram._apply(basis[i])
        (b_nums, b_den), piv = basis[i], _pair(g_i, basis[i])
        # b_j - (c / piv) b_i = (piv b_j - c b_i) / (piv den_j) for c = b(b_i, b_j)
        sign = 1 if piv > 0 else -1
        for j in range(i + 1, n):
            c = _pair(g_i, basis[j])
            if c:
                nums, den = basis[j]
                basis[j] = _row_sum(nums, den, {k: -sign * c * x for k, x in b_nums.items()}, abs(piv) * den)
        d.append(Fraction(piv, g_i[1] * b_den))
    return Matrix._of(basis, n).transpose(), tuple(d)


def _pair(gv, w) -> int:
    """Numerator of b(v, w) = (G.v) . w over the two rows' denominators."""
    w_nums = w[0]
    return sum(x * w_nums[k] for k, x in gv[0].items() if k in w_nums)


def rational_sqrt(r: Fraction) -> Fraction | None:
    """The nonnegative rational square root of r, or None if r has none."""
    r = frac(r)
    if r < 0:
        return None
    n, d = r.numerator, r.denominator
    rn, rd = isqrt(n), isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


def same_square_class(a: Fraction, b: Fraction) -> bool:
    """True iff a and b differ by a nonzero rational square.

    Pure perfect-square test on the product; no factorization involved.
    """
    a, b = frac(a), frac(b)
    if not a or not b:
        raise ValueError("square classes are defined for nonzero rationals")
    return rational_sqrt(a * b) is not None


def square_class_representative(r: Fraction) -> int:
    """Signed squarefree integer representing the square class of r."""
    r = frac(r)
    if not r:
        raise ValueError("square class of zero is undefined")
    n = r.numerator * r.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    from sympy import factorint  # deliberate lazy import; only used here

    rep = 1
    for p, e in factorint(n).items():
        if e % 2:
            rep *= int(p)
    return sign * rep


@dataclass(frozen=True)
class InverseForm:
    """The inverse Gram matrix viewed as an element of Sym^2 of the space."""

    components: Matrix


class QuadraticSpace:
    """Symmetric nondegenerate rational bilinear form with cached diagonalization."""

    def __init__(self, gram: Matrix):
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        t, d = diagonalize(gram)
        self.gram = gram
        self.h = gram.rows
        self.diag_basis = t
        self.diag_values = d
        self.sym_powers: dict = {}  # Sym^k models by degree, each built once by `sympow.build_sym`

    @cached_property
    def diag_basis_inv(self) -> Matrix:
        return solve_or_invert(self.diag_basis)

    @cached_property
    def signature(self) -> tuple[int, int]:
        plus = sum(1 for x in self.diag_values if x > 0)
        return plus, self.h - plus

    @cached_property
    def inverse_gram(self) -> Matrix:
        return solve_or_invert(self.gram)

    def inverse_form(self) -> InverseForm:
        return InverseForm(self.inverse_gram)

    @cached_property
    def discriminant_square_class(self) -> int:
        disc = _ONE
        for x in self.diag_values:
            disc *= x
        return square_class_representative(disc)

    def bilinear(self, u, v) -> Fraction:
        """u^t G v: (G v) . u on integer rows, one Fraction out."""
        if len(u) != self.h or len(v) != self.h:
            raise ValueError("vector lengths %d, %d != dimension %d" % (len(u), len(v), self.h))
        gv, u = self.gram._apply(_int_row(enumerate(v))), _int_row(enumerate(u))
        return Fraction(_pair(gv, u), gv[1] * u[1])

    def quadratic(self, v) -> Fraction:
        return self.bilinear(v, v)

    def to_diag_coords(self, v) -> tuple[Fraction, ...]:
        return self.diag_basis_inv.matvec(vector(v))

    def from_diag_coords(self, c) -> tuple[Fraction, ...]:
        return self.diag_basis.matvec(vector(c))

    def __eq__(self, other):
        return isinstance(other, QuadraticSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "QuadraticSpace(h=%d, signature=%s)" % (self.h, self.signature)


def signature(space: QuadraticSpace) -> tuple[int, int]:
    """Sylvester signature (s_plus, s_minus); basis independent."""
    return space.signature


def inverse_form(space: QuadraticSpace) -> InverseForm:
    """The element of Sym^2 whose components invert the Gram matrix."""
    form = space.inverse_form()
    assert form.components * space.gram == Matrix.identity(space.h)
    return form
