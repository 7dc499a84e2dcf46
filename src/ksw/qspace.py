"""Rational quadratic spaces.

A `QuadraticSpace` wraps a symmetric nondegenerate Gram matrix over Q and
carries a rational diagonalization computed once at construction: a
nonsingular change of basis T with T^t G T diagonal.  Everything downstream
(blade products, period validation, harmonic contraction) reads the form
through this object.

Diagonalization uses symmetric Gaussian elimination with the classical
pivot-repair step (add a suitable basis vector when a diagonal entry
vanishes), which always succeeds over Q for nondegenerate symmetric forms
and keeps every entry rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import Degenerate, NotSymmetric
from .linalg import Matrix, _int_row, frac, solve_or_invert, vector

_ZERO = Fraction(0)
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
    g = [list(row) for row in gram]
    # columns of T, i.e. the evolving basis vectors in original coordinates
    basis = [[_ONE if i == j else _ZERO for i in range(n)] for j in range(n)]

    def add_basis(i, j, c):
        # basis_i += c * basis_j, with the matching symmetric Gram update
        for k in range(n):
            basis[i][k] += c * basis[j][k]
        for k in range(n):
            g[i][k] += c * g[j][k]
        for k in range(n):
            g[k][i] += c * g[k][j]

    def swap_basis(i, j):
        basis[i], basis[j] = basis[j], basis[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if not g[i][i]:
            pivot_at = next((j for j in range(i + 1, n) if g[j][j]), None)
            if pivot_at is not None:
                swap_basis(i, pivot_at)
            else:
                off = next((j for j in range(i + 1, n) if g[i][j]), None)
                if off is None:
                    raise Degenerate("form is degenerate (zero row in reduced Gram)")
                add_basis(i, off, _ONE)
        piv = g[i][i]
        for j in range(i + 1, n):
            if g[i][j]:
                add_basis(j, i, -g[i][j] / piv)
    d = tuple(g[i][i] for i in range(n))
    if any(not x for x in d):
        raise Degenerate("form is degenerate (zero diagonal value)")
    t = Matrix.from_columns(basis)
    return t, d


def is_rational_square(r: Fraction) -> bool:
    r = frac(r)
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def same_square_class(a: Fraction, b: Fraction) -> bool:
    """True iff a and b differ by a nonzero rational square.

    Pure perfect-square test on the product; no factorization involved.
    """
    a, b = frac(a), frac(b)
    if not a or not b:
        raise ValueError("square classes are defined for nonzero rationals")
    return is_rational_square(a * b)


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
        """u^t G v: both vectors cleared once, summed in ints, one Fraction out."""
        if len(u) != self.h or len(v) != self.h:
            raise ValueError("vector lengths %d, %d != dimension %d" % (len(u), len(v), self.h))
        (un, ud), (vn, vd) = _int_row(enumerate(u)), _int_row(enumerate(v))
        rows, d = self.gram.cleared()
        s = sum(x * a * vn[j] for i, x in un.items() for j, a in rows[i].items() if j in vn)
        return Fraction(s, ud * vd * d)

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
