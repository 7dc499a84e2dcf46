"""Kuga-Satake construction over a rationally presented period.

From a validated period (alpha, beta) of common norm N, the even element
e = (alpha . beta) / N of the Clifford algebra satisfies e^2 = -1 exactly,
and left multiplication by e restricted to the even part C+ is the complex
structure of the associated weight-1 structure.  This module builds that
data and verifies the commutation laws that make the construction tick:

  (i)   vectors orthogonal to the plane commute with e,
  (ii)  alpha and beta anticommute with e,
  (iii) the rational rotation identities alpha.e = beta, e.alpha = -beta,
        beta.e = -alpha, e.beta = alpha,
  (iv)  right multiplications commute with left multiplication by e.

Families (i)-(iii) are element identities; by associativity (property-
tested in the Clifford suite) they are equivalent to the corresponding
operator identities on the full algebra.  Family (iv) is proved on the
generators: R_(cd) = R_d . R_c and the basis vectors v_i generate the
algebra, so L_e commutes with every R_c once it commutes with the h
operators R_(v_i), that is once (e.x).v_i == e.(x.v_i) for every blade x.
The columns E[x] = e.x are written once, on integer numerators, by
`clifford._blade_columns` (each is a signed relabel of e's terms); x.v_i
is a signed multiple of the blade x ^ 2^i, so each identity compares E[x]
relabelled term by term with one scalar multiple of E[x ^ 2^i], once per
pair x, x ^ 2^i, and no operator matrix is built.  The reduction to
generators needs an associative product table, so the family also
certifies the table itself in O(2^h): the contraction is multiplicative,
the sign parity is bilinear and every d_i is nonzero.

J^2 = -I is checked the same way, on the integer columns e.e_m of the
even blades: e.(e.x) is summed from them by linearity and compared
unreduced, so no element product is formed per blade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .clifford import (
    CliffordAlgebra,
    CliffordElement,
    _blade_columns,
    _mul_block,
    left_mul_operator,
)
from .errors import CommutatorViolation, NullReference
from .hodge import HKStructure
from .linalg import Matrix, products_equal, rank_and_kernel, vector
from .qspace import QuadraticSpace

_ONE = Fraction(1)


@dataclass
class KSStructure:
    """Clifford algebra, complex-structure element, and J on the even part."""

    base: HKStructure
    algebra: CliffordAlgebra
    e: CliffordElement
    j_even: Matrix
    torus_complex_dim: int

    @property
    def space(self) -> QuadraticSpace:
        return self.base.space


def complex_structure_element(hk: HKStructure, algebra: CliffordAlgebra | None = None) -> CliffordElement:
    """The even element e = (alpha . beta) / N with e^2 = -unit, exactly.

    Independent of the choice of equal-norm oriented orthogonal basis of
    the plane; swapping alpha and beta negates it.
    """
    algebra = algebra or CliffordAlgebra(hk.space)
    a = algebra.vector(hk.period.alpha)
    b = algebra.vector(hk.period.beta)
    e = (a * b) / hk.period.norm
    if e.parity != "even":
        raise CommutatorViolation("e is not even")  # unreachable for valid periods
    return e


def build(hk: HKStructure, cap: int | None = None) -> KSStructure:
    """Assemble the Kuga-Satake data: algebra, e, and J = L_e on C+."""
    algebra = CliffordAlgebra(hk.space, cap=cap)
    e = complex_structure_element(hk, algebra)
    j_even = left_mul_operator(e, "even")
    return KSStructure(
        base=hk,
        algebra=algebra,
        e=e,
        j_even=j_even,
        torus_complex_dim=1 << (hk.space.h - 2),
    )


def verify_e_square(ks: KSStructure) -> bool:
    """e . e == -unit, exactly."""
    return ks.e * ks.e == -ks.algebra.unit


def verify_j_square(ks: KSStructure) -> bool:
    """J^2 = -I on C+, column by column: e.(e.x) == -x for every even blade x.

    Each column of the J matrix is by definition e times a basis blade, so
    this is the matrix identity verified without materializing the product.
    The integer columns E[m] = e.e_m, over e.den * scale, are computed once
    from ``ks.e``; by linearity e.(e.x) is the sum of E[x]_m * E[m] over
    the masks m of E[x], over (e.den * scale)^2.  That sum is compared
    unreduced: slot x must hold -(e.den * scale)^2 and every other slot 0.
    An even e reads only the even columns; any other e reads them all.
    """
    alg, e = ks.algebra, ks.e
    masks = alg.even_masks if e.parity == "even" else range(alg.dim)
    columns = dict(zip(masks, _blade_columns(e, "left", masks)))
    minus_one = -((e.den * alg.scale) ** 2)
    for x in alg.even_masks:
        slots = [0] * alg.dim
        for m, c in columns[x].items():
            for k, n in columns[m].items():
                slots[k] += c * n
        if slots[x] != minus_one:
            return False
        slots[x] = 0
        if any(slots):
            return False
    return True


def plane_orthogonal_basis(hk: HKStructure) -> list[tuple[Fraction, ...]]:
    """Primitive basis of the orthogonal complement of the period plane."""
    # rows (G alpha)^t and (G beta)^t, G symmetric
    _, kernel = rank_and_kernel(Matrix([hk.period.alpha, hk.period.beta]) * hk.space.gram)
    return [vector(v) for v in kernel]


@dataclass
class CommutatorReport:
    """Outcome of the structure-commutator families, one entry per identity."""

    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed_names(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]


def structure_commutators(
    ks: KSStructure,
    samples: int = 2,
    rng: random.Random | None = None,
    raise_on_failure: bool = True,
) -> CommutatorReport:
    """Verify the four commutation families exactly; see the module docstring.

    Family (iv) reports ``samples`` entries ``right_mul_commutes[s]``: entry
    s covers the generators v_i with i == s (mod samples), and every entry
    also carries the table certificate, so together they prove the family
    for every c.  ``samples=0`` skips the family.  Being a proof, the
    family draws nothing: ``rng`` is accepted and unread, for callers that
    still pass one (the benchmark's ks case does).

    Raises CommutatorViolation naming the first failed identity unless
    ``raise_on_failure`` is False, in which case the report carries them.
    """
    alg = ks.algebra
    e = ks.e
    a = alg.vector(ks.base.period.alpha)
    b = alg.vector(ks.base.period.beta)
    checks: list[tuple[str, bool, str]] = []

    for idx, w_coords in enumerate(plane_orthogonal_basis(ks.base)):
        w = alg.vector(w_coords)
        ok = w * e == e * w
        checks.append(("perp_commutes[%d]" % idx, ok, "w.e == e.w on P-perp basis"))

    ae, ea, be, eb = a * e, e * a, b * e, e * b
    for name, ve, ev in (("alpha", ae, ea), ("beta", be, eb)):
        checks.append(("plane_anticommutes[%s]" % name, ve == -ev, "v.e == -e.v for v in P"))

    rotations = (
        ("alpha.e == beta", ae == b),
        ("e.alpha == -beta", ea == -b),
        ("beta.e == -alpha", be == -a),
        ("e.beta == alpha", eb == a),
    )
    for name, ok in rotations:
        checks.append(("rotation[%s]" % name, ok, "rational rotation identity"))

    if samples > 0:
        table_ok = _table_is_clifford(alg)
        columns = list(_blade_columns(e, "left", range(alg.dim)))
    for s in range(samples):
        ok = table_ok and _commutes_with_generators(alg, columns, range(s, alg.h, samples))
        checks.append(
            ("right_mul_commutes[%d]" % s, ok, "R_c . L_e == L_e . R_c on full Cliff")
        )

    report = CommutatorReport(checks)
    if raise_on_failure and not report.ok:
        raise CommutatorViolation(
            "failed identities: %s" % ", ".join(report.failed_names())
        )
    return report


def _table_is_clifford(alg: CliffordAlgebra) -> bool:
    """The product table is associative: contract multiplicative, sign parity bilinear, d_i != 0.

    contract[m] * contract[0] == contract[m ^ low] * contract[low] for the
    lowest bit low of m makes contract[C] / scale the product of the d_i
    over C; sign[m] == sign[m ^ low] ^ sign[low] (with sign[0] == 0 at
    m = 0) makes popcount(sign[A] & B) bilinear in (A, B) mod 2.  Then both
    ways of bracketing e_A . e_B . e_C carry the same sign and contraction.
    """
    contract, sign = alg.contract, alg.sign
    unit = contract[0]
    for m in range(alg.dim):
        low = m & -m
        if contract[m] * unit != contract[m ^ low] * contract[low] or sign[m] != sign[m ^ low] ^ sign[low]:
            return False
    return unit != 0 and all(contract[1 << i] for i in range(alg.h))


def _commutes_with_generators(alg: CliffordAlgebra, columns, generators) -> bool:
    """(e.x).v_i == e.(x.v_i) for every blade x and every i in ``generators``.

    ``columns[x]`` holds the numerators of e.x.  With f[m] the sign and
    contraction of e_m . v_i, the left side relabels e.x term by term,
    n at m -> f[m] * n at m ^ 2^i, and the right side is f[x] times
    columns[x ^ 2^i]; both sides share one denominator.

    Only the x without bit i are compared: each pair x, x ^ 2^i once.  On
    a table with bilinear sign parity and nonzero contract[0] and
    contract[2^i] (which `_table_is_clifford` certifies), f[m] * f[m ^ 2^i]
    is one nonzero constant c for every m, namely contract[0] *
    contract[2^i], negated when sign[2^i] & 2^i.  The identity at x fixes
    columns[x ^ 2^i] as the relabelled columns[x] over f[x], and then the
    identity at x ^ 2^i is the one at x multiplied through by c.
    """
    sign, contract = alg.sign, alg.contract
    for i in generators:
        bit = 1 << i
        f = [-contract[m & bit] if sign[m] & bit else contract[m & bit] for m in range(alg.dim)]
        for x, col in enumerate(columns):
            if x & bit:
                continue
            target = columns[x ^ bit]
            if len(target) != len(col):
                return False
            k = f[x]
            for m, n in col.items():
                if target.get(m ^ bit, 0) * k != n * f[m]:
                    return False
    return True


def _random_element(alg: CliffordAlgebra, rng: random.Random) -> CliffordElement:
    out = {}
    for _ in range(3):
        mask = rng.randrange(alg.dim)
        out[mask] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    out = {m: c for m, c in out.items() if c}
    if not out:
        out = {0: _ONE}
    return alg.element(out)


def default_v0(ks: KSStructure):
    """First diagonal basis vector outside the period plane (original coords).

    Deterministic choice keeping fixtures stable; every diagonal basis
    vector has nonzero norm, so only the plane condition matters.  When no
    basis vector lies outside the plane (h = 2), the first one is used:
    the odd/even isomorphism only needs a nonzero norm.
    """
    space = ks.space
    plane = Matrix([ks.base.period.alpha, ks.base.period.beta])
    first = None
    for i in range(space.h):
        cand = space.from_diag_coords(tuple(_ONE if j == i else 0 for j in range(space.h)))
        if first is None:
            first = cand
        stacked = Matrix(list(plane) + [cand])
        if stacked.rank() == 3:
            return cand
    return first


def _non_null(ks: KSStructure, v0) -> tuple[Fraction, ...]:
    """v0 as a vector, or NullReference when (v0, v0) = 0."""
    v0 = vector(v0)
    if not ks.space.quadratic(v0):
        raise NullReference("(v0, v0) = 0")
    return v0


def endomorphism_embedding(ks: KSStructure, v, v0) -> Matrix:
    """Matrix on C+ of x -> v . x . v0 for grade-1 v, v0 with (v0, v0) != 0.

    The assignment v -> E_v is linear and injective; J anticommutes with
    E_v for v in the plane and commutes for v orthogonal to it.  E_v is
    R_v0 from C+ to C- followed by L_v from C- back to C+.
    """
    alg = ks.algebra
    right = _mul_block(alg.vector(_non_null(ks, v0)), "right", "even")
    return _mul_block(alg.vector(vector(v)), "left", "odd") * right


def embedding_unit_block(ks: KSStructure, v0) -> Matrix:
    """Rows = E_{b_i}(1) = b_i . v0 over the even blades, h x 2^(h-1)."""
    alg = ks.algebra
    ev0 = alg.vector(_non_null(ks, v0))
    h = ks.space.h
    rows = []
    for i in range(h):
        row = alg.vector(tuple(_ONE if j == i else 0 for j in range(h))) * ev0
        rows.append(({alg.even_index[m]: x for m, x in row.nums.items()}, row.den))
    return Matrix._of(rows, len(alg.even_masks))


def embedding_has_full_rank(ks: KSStructure, v0) -> bool:
    """rank of v -> E_v equals h, by the exact rank of the unit-blade block.

    The rows E_{b_i}(1) of the unit-blade block are the unit-blade columns
    of the h x 4^(h-1) stack of vectorized E_{b_i}, so rank h there proves
    rank h for the stack, which is never built.  Right multiplication by a
    non-null v0 is injective, so the block always has rank h.
    """
    return embedding_unit_block(ks, v0).rank() == ks.space.h


def embedding_sign_laws(ks: KSStructure, v0, matrix_level: bool = False) -> bool:
    """J E_v = -E_v J for v in P and J E_w = E_w J for w in P-perp, exactly.

    Element identities (v.e = -e.v, w.e = e.w) plus the universal
    commutation of right and left multiplications give the operator laws;
    ``matrix_level`` additionally compares the matrices themselves.
    """
    alg = ks.algebra
    e = ks.e
    a = alg.vector(ks.base.period.alpha)
    b = alg.vector(ks.base.period.beta)
    if a * e != -(e * a) or b * e != -(e * b):
        return False
    perp = plane_orthogonal_basis(ks.base)
    for w_coords in perp:
        w = alg.vector(w_coords)
        if w * e != e * w:
            return False
    if matrix_level:
        j = ks.j_even
        for v_coords, sign in [
            (ks.base.period.alpha, -1),
            (ks.base.period.beta, -1),
        ] + [(w, 1) for w in perp]:
            ev = endomorphism_embedding(ks, v_coords, v0)
            if not products_equal(j, ev, -ev if sign < 0 else ev, j):
                return False
    return True


def odd_even_isomorphism(ks: KSStructure, v0) -> Matrix:
    """Right multiplication by v0 as an isomorphism C+ -> C-.

    Its two-sided inverse is right multiplication by v0 / (v0, v0), and it
    intertwines the two J actions: J_odd . R = R . J_even.
    """
    return _mul_block(ks.algebra.vector(_non_null(ks, v0)), "right", "even")


def odd_even_inverse(ks: KSStructure, v0) -> Matrix:
    v0 = _non_null(ks, v0)
    return _mul_block(ks.algebra.vector(v0) / ks.space.quadratic(v0), "right", "odd")
