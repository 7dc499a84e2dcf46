"""Quadratic endomorphisms of weight-1 structures and their degree-4 classes.

An endomorphism phi with phi^2 = -d (d > 0 rational) commuting with the
complex structure J splits the (1,0) part into +-i.sqrt(d) eigenspaces;
the balanced case is detected exactly through the rational operator phi.J,
whose square is d times the identity.

Fourth exterior powers are handled through derivation extensions (an
operator acts once on each factor, summed), whose eigenvalue on a (p, q)
component is i(p - q) times the base eigenvalue scale.  That choice is
normative: the multiplicative extension of J cannot separate the
(4,0)+(0,4) part from (2,2) since i^4 = 1.

The subfield-module line inside the fourth exterior power is cut out as
ker(D_phi^2 + 16 d): the derivation eigenvalues on a-fold products of the
+i.sqrt(d) eigenspace are (2a - 4) i sqrt(d), and (2a - 4)^2 = 16 exactly
for a in {0, 4}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt

from .errors import (
    NonScalarSquare,
    NotCommutingWithJ,
    NotQuadratic,
    UnexpectedDimension,
    WorkbenchError,
)
from .clifford import reorder_parity
from .linalg import Matrix, rank_and_kernel

_ZERO = Fraction(0)


@dataclass(frozen=True)
class QuadraticEndo:
    """phi with phi^2 = -d.identity, commuting with J."""

    phi: Matrix
    j: Matrix
    d: Fraction

    @property
    def dim(self) -> int:
        return self.phi.rows


@dataclass
class WeilReport:
    mult_plus: int
    mult_minus: int
    is_weil: bool
    weil_space_dim: int | None
    all_weil_classes_22: bool | None


def check_quadratic_endo(j: Matrix, phi: Matrix) -> QuadraticEndo:
    """Certify phi^2 + d.I = 0 and [phi, J] = 0 exactly; recover d.

    Raises NonScalarSquare / NotQuadratic / NotCommutingWithJ.
    """
    n = phi.rows
    if phi.cols != n or j.rows != n or j.cols != n:
        raise ValueError("phi and J must be square of equal dimension")
    sq = phi * phi
    scalar = sq[0, 0] if n else _ZERO
    if sq != scalar * Matrix.identity(n):
        raise NonScalarSquare("phi^2 is not a scalar matrix")
    d = -scalar
    if d <= 0:
        raise NotQuadratic("phi^2 = %s.I; need a negative scalar" % scalar)
    if phi * j != j * phi:
        raise NotCommutingWithJ("phi does not commute with J")
    return QuadraticEndo(phi=phi, j=j, d=d)


def _rational_sqrt(d: Fraction) -> Fraction | None:
    n, den = d.numerator, d.denominator
    rn, rd = isqrt(n), isqrt(den)
    if rn * rn == n and rd * rd == den:
        return Fraction(rn, rd)
    return None


def weil_multiplicities(endo: QuadraticEndo) -> tuple[int, int]:
    """Multiplicities (a, b) of +-i.sqrt(d) on the (1,0) part.

    Normative semantics: (phi.J)^2 = d.I; for square d = m^2 the counts are
    2a = nullity(phi.J + m.I) and 2b = nullity(phi.J - m.I); for nonsquare
    d the minimal polynomial x^2 - d forces a = b, and trace(phi.J) = 0 is
    certified.
    """
    n = endo.dim
    g = n // 2
    fj = endo.phi * endo.j
    m = _rational_sqrt(endo.d)
    if m is None:
        if fj.trace() != 0:
            raise WorkbenchError(
                "nonsquare d but trace(phi.J) != 0; module structure is inconsistent"
            )
        if g % 2:
            raise WorkbenchError("nonsquare d forces even complex dimension")
        return g // 2, g // 2
    ident = Matrix.identity(n)
    two_a = n - (fj + m * ident).rank()
    two_b = n - (fj - m * ident).rank()
    if two_a % 2 or two_b % 2 or two_a + two_b != n:
        raise WorkbenchError("eigenspace nullities do not partition the space")
    return two_a // 2, two_b // 2


def is_weil(endo: QuadraticEndo) -> bool:
    """Balanced multiplicities; equivalent to trace(phi.J) = 0, exactly."""
    a, b = weil_multiplicities(endo)
    return a == b


# -- fourth exterior power -------------------------------------------------------

def wedge4_basis(dim: int) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(combinations(range(dim), 4))


def derivation_wedge4(op: Matrix) -> Matrix:
    """Derivation extension of an operator to the fourth exterior power.

    Swapping e_t for e_j in the wedge e_S moves e_t to the front of
    e_(S-t), replaces it, and moves e_j back into sorted position.
    """
    dim = op.rows
    masks = [sum(1 << i for i in subset) for subset in wedge4_basis(dim)]
    index = {mask: i for i, mask in enumerate(masks)}
    size = len(masks)
    cols = [dict() for _ in range(size)]
    ints, den = op.cleared()
    col_of = [[r[t] for r in ints] for t in range(dim)]
    for s_pos, mask in enumerate(masks):
        acc = cols[s_pos]
        for t in range(dim):
            if not mask >> t & 1:
                continue
            rest = mask ^ (1 << t)
            out_parity = reorder_parity(1 << t, rest)
            column = col_of[t]
            for j in range(dim):
                c = column[j]
                if not c or rest >> j & 1:
                    continue
                pos = index[rest | (1 << j)]
                flip = out_parity ^ reorder_parity(1 << j, rest)
                acc[pos] = acc.get(pos, 0) + (-c if flip else c)
    return Matrix.from_sparse_columns(cols, size) * Fraction(1, den)


def weil_class_space(endo: QuadraticEndo) -> list[tuple[int, ...]]:
    """Primitive basis of ker(D_phi^2 + 16 d) inside the fourth exterior power.

    Exactly 2-dimensional for dim V = 8 (the image of the subfield line);
    UnexpectedDimension otherwise.
    """
    if endo.dim != 8:
        raise ValueError("weil_class_space is the fourfold case: dim V must be 8")
    d_phi = derivation_wedge4(endo.phi)
    size = d_phi.rows
    mat = d_phi * d_phi + (16 * endo.d) * Matrix.identity(size)
    _, kernel = rank_and_kernel(mat)
    if len(kernel) != 2:
        raise UnexpectedDimension(
            "subfield-power kernel has dimension %d, expected 2" % len(kernel)
        )
    return kernel


def certify_22(classes, j: Matrix) -> bool:
    """True iff every generator lies in ker(D_J), the exact (2,2) part."""
    d_j = derivation_wedge4(j)
    zero = tuple([_ZERO] * d_j.rows)
    return all(d_j.matvec(v) == zero for v in classes)


def hodge_class_dimension(dim: int, j: Matrix) -> int:
    """Rational dimension of the (2,2) part of the fourth exterior power."""
    if dim < 4:
        return 0
    d_j = derivation_wedge4(j)
    return d_j.cols - d_j.rank()


def analyze(j: Matrix, phi: Matrix) -> WeilReport:
    """Full report: multiplicities, balance, class-space dimension, (2,2) check."""
    endo = check_quadratic_endo(j, phi)
    a, b = weil_multiplicities(endo)
    balanced = a == b
    space_dim = None
    classes_22 = None
    if endo.dim == 8:
        classes = weil_class_space(endo)
        space_dim = len(classes)
        classes_22 = certify_22(classes, j)
    return WeilReport(
        mult_plus=a,
        mult_minus=b,
        is_weil=balanced,
        weil_space_dim=space_dim,
        all_weil_classes_22=classes_22,
    )
