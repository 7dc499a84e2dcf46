"""Free graded-commutative engine for the Kunneth-square correspondence check.

Two anticommuting families over Q -- degree-1 generators f1*..fb* (one per
degree-3 class) and degree-3 generators e1..eb -- plus one central
degree-4 generator Q.  The Koszul rule governs every reordering:
moving x past y costs (-1)^(|x||y|), so the e's anticommute among
themselves and anticommute past single f's.

The identity correspondence Z = sum_i fi* (x) ei then satisfies

    Z^2 . Q^(n-2) = c . sum_(i<j) fi* fj* (x) ei ej Q^(n-2)

for one nonzero rational c (the (i,j) and (j,i) expansions pick up equal
signs and combine instead of cancelling).  Contracting the fi* fj*
component against fi ^ fj recovers c times the degree-4(n-1) pairing map
alpha ^ beta -> Q^(n-2).alpha.beta, i.e. the formal shadow of the
correspondence acting on 2-vectors.

The negative control misgrades the degree-3 generators as even: every
Koszul sign involving them (the cross sign past f's and their mutual
anticommutation) collapses to +1, the two expansions cancel, and
Z^2 . Q^(n-2) = 0 -- the nonzero-uniform-coefficient check genuinely
fails.  Omitting only the cross sign is not a usable control: it flips c
to +2 but leaves the identity intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .clifford import reorder_parity
from .errors import CapExceeded, IndexOutOfRange
from .linalg import frac

_ZERO = Fraction(0)
_ONE = Fraction(1)

SIGN_KOSZUL = "koszul"
SIGN_BROKEN = "broken"

#: desk-scale caps of `kunneth_square`: b3 = 128, n = 16 takes about a second
CAP_B3 = 128
CAP_N = 16


@dataclass(frozen=True)
class GradedAlgebra:
    """Free graded-commutative algebra on f*-, e- and Q-generators."""

    generators: int
    sign_rule: str = SIGN_KOSZUL

    def __post_init__(self):
        if self.generators < 1:
            raise ValueError("need at least one generator pair")
        if self.sign_rule not in (SIGN_KOSZUL, SIGN_BROKEN):
            raise ValueError("unknown sign rule %r" % self.sign_rule)

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def element(self, terms) -> "GradedElement":
        clean = {}
        for key, coef in terms.items():
            coef = frac(coef)
            if coef:
                clean[key] = coef
        return GradedElement(self, clean)

    def term(self, fmask: int, emask: int, qpow: int, coef=1) -> "GradedElement":
        limit = 1 << self.generators
        if fmask >= limit or emask >= limit or fmask < 0 or emask < 0 or qpow < 0:
            raise IndexOutOfRange("generator mask out of range")
        return self.element({(fmask, emask, qpow): frac(coef)})

    def q_generator(self) -> "GradedElement":
        return self.term(0, 0, 1)

    def _check_index(self, i: int):
        if not 1 <= i <= self.generators:
            raise IndexOutOfRange(
                "generator index %d outside 1..%d" % (i, self.generators)
            )


@dataclass
class GradedElement:
    """Sparse sum of monomials (f-mask, e-mask, Q-power) with rational coefficients."""

    algebra: GradedAlgebra
    terms: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            s = out.get(key, _ZERO) + coef
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return GradedElement(self.algebra, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.algebra, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GradedElement):
            c = frac(other)
            if not c:
                return self.algebra.zero()
            return GradedElement(
                self.algebra, {k: c * v for k, v in self.terms.items()}
            )
        self._check(other)
        broken = self.algebra.sign_rule == SIGN_BROKEN
        out: dict[tuple[int, int, int], Fraction] = {}
        for (f1, e1, q1), c1 in self.terms.items():
            for (f2, e2, q2), c2 in other.terms.items():
                if f1 & f2 or e1 & e2:
                    continue  # odd squares vanish; e-squares vanish in both rules
                sign = 1
                if reorder_parity(f1, f2):
                    sign = -sign
                if not broken:
                    # Koszul: e's are odd, so they anticommute among
                    # themselves and cost a sign crossing each f.
                    if reorder_parity(e1, e2):
                        sign = -sign
                    if (e1.bit_count() & 1) and (f2.bit_count() & 1):
                        sign = -sign
                key = (f1 | f2, e1 | e2, q1 + q2)
                val = c1 * c2 if sign > 0 else -(c1 * c2)
                s = out.get(key, _ZERO) + val
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return GradedElement(self.algebra, out)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def _check(self, other: "GradedElement"):
        if self.algebra != other.algebra:
            raise ValueError("elements of different graded algebras")


def graded_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Sign-correct product; x.y = (-1)^(|x||y|) y.x on homogeneous elements."""
    return x * y


def identity_correspondence(algebra: GradedAlgebra) -> GradedElement:
    """Z = sum_i fi* (x) ei, the Kunneth form of the identity on degree 3."""
    out = {}
    for i in range(algebra.generators):
        out[(1 << i, 1 << i, 0)] = _ONE
    return GradedElement(algebra, out)


def kunneth_square(b3: int, n: int, sign_rule: str = SIGN_KOSZUL) -> GradedElement:
    """Z^2 . Q^(n-2) in the free algebra on b3 generator pairs."""
    if b3 < 2:
        raise ValueError("need b3 >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    if b3 > CAP_B3 or n > CAP_N:
        raise CapExceeded("Kunneth square on b3=%d, n=%d exceeds the caps (b3 <= %d, n <= %d)" % (b3, n, CAP_B3, CAP_N))
    algebra = GradedAlgebra(b3, sign_rule)
    z = identity_correspondence(algebra)
    gamma = z * z
    for _ in range(n - 2):
        gamma = gamma * algebra.q_generator()
    return gamma


def kunneth_coefficient(
    gamma: GradedElement, b3: int, n: int
) -> tuple[int, Fraction | None, bool]:
    """(pair count, uniform coefficient or None, uniformity flag).

    Uniform means: gamma equals c . sum_(i<j) fi* fj* (x) ei ej Q^(n-2)
    for a single nonzero rational c, over all C(b3, 2) pairs.
    """
    pairs = comb(b3, 2)
    expected_q = n - 2
    coef = None
    for i in range(b3):
        for j in range(i + 1, b3):
            key = ((1 << i) | (1 << j), (1 << i) | (1 << j), expected_q)
            c = gamma.terms.get(key)
            if not c:
                return pairs, None, False
            if coef is None:
                coef = c
            elif c != coef:
                return pairs, None, False
    if len(gamma.terms) != pairs:
        return pairs, None, False
    return pairs, coef, True


def is_kunneth_concentrated(gamma: GradedElement) -> bool:
    """All monomials sit in the (2 f-generators) x (2 e-generators) block."""
    return all(
        f.bit_count() == 2 and e.bit_count() == 2 for (f, e, _q) in gamma.terms
    )


def gamma_pushforward(gamma: GradedElement, i: int, j: int) -> GradedElement:
    """Contract the fi* fj* component against fi ^ fj (1-based indices).

    Antisymmetric in (i, j); the result lives in the e/Q part of the
    algebra.  Expected value: c . ei ej Q^(n-2), matching the formal
    pairing map up to the single global constant.
    """
    algebra = gamma.algebra
    algebra._check_index(i)
    algebra._check_index(j)
    if i == j:
        return algebra.zero()
    sign = 1 if i < j else -1
    fkey = (1 << (i - 1)) | (1 << (j - 1))
    out = {}
    for (f, e, q), c in gamma.terms.items():
        if f == fkey:
            out[(0, e, q)] = c if sign > 0 else -c
    return GradedElement(algebra, out)
