"""Free graded-commutative engine for the Kunneth-square correspondence check.

Two anticommuting families over Q -- degree-1 generators f1*..fb* (one per
degree-3 class) and degree-3 generators e1..eb -- plus one central
degree-4 generator Q.  An element is a `linalg.SparseElement`, the one
element class shared with `CliffordElement`: int numerators of the
monomials (f-mask, e-mask, Q-power) over one denominator, with that
class's sums, scaling, ``==``, ``hash`` and product frame.  One sign rule
governs every reordering: a monomial's odd generators form one mask, the
f's in the low bits and, under the Koszul rule, the e's shifted above
them (f | e << b), and a product of two monomials costs `reorder_parity`
of their masks.  That counts the f-f
inversions, |E1||F2| (every e on the left sits above every f on the
right) and the e-e inversions, so moving x past y costs (-1)^(|x||y|).

The identity correspondence Z = sum_i fi* (x) ei then satisfies

    Z^2 . Q^(n-2) = c . sum_(i<j) fi* fj* (x) ei ej Q^(n-2)

for one nonzero rational c (the (i,j) and (j,i) expansions pick up equal
signs and combine instead of cancelling).  Contracting the fi* fj*
component against fi ^ fj recovers c times the degree-4(n-1) pairing map
alpha ^ beta -> Q^(n-2).alpha.beta, i.e. the formal shadow of the
correspondence acting on 2-vectors.

The negative control misgrades the degree-3 generators as even: they are
left out of the odd mask, which is then the f-mask alone.  Every sign
involving them (the cross sign past f's and their mutual anticommutation)
collapses to +1, the two expansions cancel, and Z^2 . Q^(n-2) = 0 -- the
nonzero-uniform-coefficient check genuinely fails.  Omitting only the
cross sign is not a usable control: it flips c to +2 but leaves the
identity intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .clifford import reorder_parity
from .errors import CapExceeded, IndexOutOfRange
from .linalg import SparseElement, _int_row, _row

SIGN_KOSZUL = "koszul"
SIGN_BROKEN = "broken"

#: desk-scale caps of `kunneth_square`: b3 = 128, n = 16 takes about 0.09 s (2-vCPU host, Python 3.11)
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
        return GradedElement(self, *_int_row(terms.items()))

    def term(self, fmask: int, emask: int, qpow: int, coef=1) -> "GradedElement":
        limit = 1 << self.generators
        if fmask >= limit or emask >= limit or fmask < 0 or emask < 0 or qpow < 0:
            raise IndexOutOfRange("generator mask out of range")
        return self.element({(fmask, emask, qpow): coef})

    def q_generator(self) -> "GradedElement":
        return self.term(0, 0, 1)

    def compatible(self, other: "GradedAlgebra") -> bool:
        return self == other

    def _check_index(self, i: int):
        if not 1 <= i <= self.generators:
            raise IndexOutOfRange(
                "generator index %d outside 1..%d" % (i, self.generators)
            )


class GradedElement(SparseElement):
    """Sparse sum of monomials (f-mask, e-mask, Q-power) with rational coefficients.

    A `linalg.SparseElement`, as a `CliffordElement` is: ``nums`` maps
    each monomial to a nonzero int numerator over the one positive int
    ``den``, in lowest terms; the product numerators come from one
    `reorder_parity` per pair of monomials, over scale 1.
    """

    __slots__ = ()

    _mismatch = ValueError, "elements of different graded algebras"

    def _product(self, other: "GradedElement") -> tuple[dict[tuple[int, int, int], int], int]:
        alg = self.algebra
        b = alg.generators
        koszul = alg.sign_rule == SIGN_KOSZUL
        # one odd mask per monomial: the broken rule grades the e's even
        xs, ys = ([(f, e, q, f | e << b if koszul else f, x) for (f, e, q), x in u.nums.items()] for u in (self, other))
        out: dict[tuple[int, int, int], int] = {}
        for f1, e1, q1, odd1, x in xs:
            for f2, e2, q2, odd2, y in ys:
                if f1 & f2 or e1 & e2:
                    continue  # odd squares vanish; e-squares vanish in both rules
                key = (f1 | f2, e1 | e2, q1 + q2)
                s = out.get(key, 0) + (-x * y if reorder_parity(odd1, odd2) else x * y)
                if s:
                    out[key] = s
                else:
                    del out[key]
        return out, 1


def graded_mul(x: GradedElement, y: GradedElement) -> GradedElement:
    """Sign-correct product; x.y = (-1)^(|x||y|) y.x on homogeneous elements."""
    return x * y


def identity_correspondence(algebra: GradedAlgebra) -> GradedElement:
    """Z = sum_i fi* (x) ei, the Kunneth form of the identity on degree 3."""
    return GradedElement(algebra, {(1 << i, 1 << i, 0): 1 for i in range(algebra.generators)})


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
    for a single nonzero rational c over all C(b3, 2) pairs, compared as
    int numerators over gamma's one denominator.  The flag alone is the
    verdict: b3 >= 2 gives a pair, and a missing c returns early.
    """
    pairs = comb(b3, 2)
    expected_q = n - 2
    nums = gamma.nums
    coef = None
    for i in range(b3):
        for j in range(i + 1, b3):
            key = ((1 << i) | (1 << j), (1 << i) | (1 << j), expected_q)
            c = nums.get(key)
            if c is None or (coef is not None and c != coef):
                return pairs, None, False
            coef = c
    if len(nums) != pairs:
        return pairs, None, False
    return pairs, Fraction(coef, gamma.den), True


def is_kunneth_concentrated(gamma: GradedElement) -> bool:
    """All monomials sit in the (2 f-generators) x (2 e-generators) block."""
    return all(
        f.bit_count() == 2 and e.bit_count() == 2 for (f, e, _q) in gamma.nums
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
    out = {(0, e, q): sign * x for (f, e, q), x in gamma.nums.items() if f == fkey}
    return GradedElement(algebra, *_row(out, gamma.den))
