"""Hodge-theoretic data over rationally presented periods.

The positive 2-plane of a weight-2 structure with one-dimensional (2,0)
part is stored as a rational pair (alpha, beta) of equal positive norm and
orthogonal to each other; sigma = alpha + i.beta then spans an isotropic
line, and every identity the workbench checks becomes an exact rational
assertion.

Complex numbers never appear: Hodge components are cut out as kernels of
real polynomial expressions in the rotation generator A (the q-skew
operator with A(alpha) = N.beta, A(beta) = -N.alpha, zero on the
orthogonal complement), whose derivation extension acts on a (p, q)
component with eigenvalue -i(N/2)(p - q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DependentVectors,
    InconsistentWeight,
    NotOrthogonal,
    NotPositive,
    UnequalNorm,
)
from .linalg import Matrix, vector
from .qspace import QuadraticSpace

_TWO = Fraction(2)


@dataclass(frozen=True)
class PeriodPlane:
    """Rational orthogonal pair of equal positive norm spanning the positive plane."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    norm: Fraction


def validate_period(space: QuadraticSpace, alpha, beta) -> PeriodPlane:
    """Check the period constraints exactly and package the plane.

    Raises DependentVectors / NotOrthogonal / UnequalNorm / NotPositive.
    """
    alpha, beta = vector(alpha), vector(beta)
    if len(alpha) != space.h or len(beta) != space.h:
        raise ValueError("period vectors must have length %d" % space.h)
    if Matrix([alpha, beta]).rank() != 2:
        raise DependentVectors("alpha and beta are linearly dependent")
    cross = space.bilinear(alpha, beta)
    if cross:
        raise NotOrthogonal("q(alpha, beta) = %s != 0" % cross)
    na = space.quadratic(alpha)
    nb = space.quadratic(beta)
    if na != nb:
        raise UnequalNorm("q(alpha, alpha) = %s != %s = q(beta, beta)" % (na, nb))
    if na <= 0:
        raise NotPositive("common norm %s is not positive" % na)
    return PeriodPlane(alpha, beta, na)


@dataclass(frozen=True)
class HKStructure:
    """A quadratic space together with a validated rational period plane."""

    space: QuadraticSpace
    period: PeriodPlane

    @classmethod
    def build(cls, space: QuadraticSpace, alpha, beta) -> "HKStructure":
        return cls(space, validate_period(space, alpha, beta))

    def sigma_isotropy(self) -> tuple[Fraction, Fraction, Fraction]:
        """(q(a,a) - q(b,b), q(a,b), q(sigma, sigma-bar)/2) for sigma = a + ib.

        The first two vanish exactly iff q(sigma, sigma) = 0; the third is N.
        """
        a, b = self.period.alpha, self.period.beta
        return (
            self.space.quadratic(a) - self.space.quadratic(b),
            self.space.bilinear(a, b),
            (self.space.quadratic(a) + self.space.quadratic(b)) / _TWO,
        )


def rotation_generator(hk: HKStructure) -> Matrix:
    """The q-skew operator A(x) = q(alpha, x).beta - q(beta, x).alpha.

    A(alpha) = N.beta, A(beta) = -N.alpha, A vanishes on the orthogonal
    complement of the plane; its derivation extension acts on a (p, q)
    component with eigenvalue -i(N/2)(p - q).
    """
    a, b = hk.period.alpha, hk.period.beta
    # b (G a)^t - a (G b)^t = [b | a] . diag(1, -1) . [G a | G b]^t, G symmetric
    return Matrix([b, a]).transpose() * Matrix.diagonal([1, -1]) * (Matrix([a, b]) * hk.space.gram)


@dataclass
class HodgeTypeSpectrum:
    """Dimensions of the (p, q) components of a weight-w structure."""

    weight: int
    dims: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.dims.values())

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)


def type_spectrum(op_matrix: Matrix, norm: Fraction, weight: int) -> HodgeTypeSpectrum:
    """Exact Hodge-type dimensions from a derivation-extended rotation generator.

    ``op_matrix`` acts on the ambient space with eigenvalue -i(norm/2)(p-q)
    on the (p, q) part; the dimension of each |p-q| class is the exact
    kernel rank of op^2 + ((norm/2)(p-q))^2, and the symmetric split
    between (p, q) and (q, p) is asserted, not assumed.
    """
    ambient = op_matrix.rows
    if op_matrix.cols != ambient:
        raise ValueError("operator matrix must be square")
    op2 = op_matrix * op_matrix
    dims: dict[tuple[int, int], int] = {}
    total = 0
    for m in range(weight, -1, -2):
        if m == 0:
            k = ambient - op_matrix.rank() if ambient else 0
            if k:
                dims[(weight // 2, weight // 2)] = k
        else:
            c = norm * m / 2
            shifted = op2 + (c * c) * Matrix.identity(ambient) if ambient else op2
            k = ambient - shifted.rank() if ambient else 0
            if k % 2:
                raise InconsistentWeight(
                    "|p-q| = %d class has odd rational dimension %d" % (m, k)
                )
            if k:
                p, q = (weight + m) // 2, (weight - m) // 2
                dims[(p, q)] = k // 2
                dims[(q, p)] = k // 2
        total += k
    if total != ambient:
        raise InconsistentWeight(
            "kernel ranks cover %d of %d ambient dimensions" % (total, ambient)
        )
    return HodgeTypeSpectrum(weight, dims)


def hodge_level(spectrum: HodgeTypeSpectrum) -> int:
    """max |p - q| over nonzero components (0 for the empty spectrum)."""
    return max((abs(p - q) for (p, q), n in spectrum.dims.items() if n), default=0)


def h2_spectrum(hk: HKStructure) -> HodgeTypeSpectrum:
    """Type spectrum of the weight-2 structure itself: (1, h-2, 1) expected."""
    return type_spectrum(rotation_generator(hk), hk.period.norm, 2)


class Weight1Structure:
    """Even-dimensional rational space with an exact complex structure J."""

    def __init__(self, dim: int, j: Matrix):
        if dim % 2:
            raise ValueError("weight-1 structure needs even dimension")
        if j.rows != dim or j.cols != dim:
            raise ValueError("J must be %dx%d" % (dim, dim))
        if j * j != -Matrix.identity(dim):
            raise ValueError("J^2 != -identity")
        self.dim = dim
        self.j = j
