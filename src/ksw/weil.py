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

The kernel is built rather than eliminated for.  Over Q(lam), lam^2 = -d,
take standard basis vectors u_1..u_4 with {u_i, phi u_i} a basis of V,
the pivots of one fraction-free echelon of the pairs (e_c, phi e_c).
Then w_i = phi u_i + lam u_i are lam-eigenvectors, w_1^w_2^w_3^w_4 =
A + lam B with A, B rational, and it spans the kernel together with its
conjugate A - lam B, so the kernel is span{A, B}.  The wedge is built
one factor at a time as X + mu.Y, mu = m.lam for d = n/m, with X and Y
integer vectors: mu^2 = -n.m keeps each step in ints.  By a theorem
(Weil 1977; van Geemen, LNM 1594), if phi^2 = -d with d > 0 then phi
has eigenvalues +-lam of multiplicity 4 (conjugation swaps them), D_phi
is (2a - 4) lam on wedge^a E+ (x) wedge^(4-a) E-, and the kernel
wedge^4 E+ + wedge^4 E- has dimension 2.
So that hypothesis (checked on entry), X and Y independent, and two
first-order relations, the rational and mu parts of D_phi W = 4 lam.W,
certify span{X, Y}; the basis is read straight off X and Y, D_phi and D_J
are applied move by move, and no 70x70 matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .errors import NonScalarSquare, NotCommutingWithJ, NotQuadratic, UnexpectedDimension, WorkbenchError
from .hodge import Weight1Structure
from .linalg import Matrix, _bareiss_echelon, products_equal
from .qspace import rational_sqrt


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
    scalar = sq[0, 0] if n else Fraction(0)
    if sq != scalar * Matrix.identity(n):
        raise NonScalarSquare("phi^2 is not a scalar matrix")
    d = -scalar
    if d <= 0:
        raise NotQuadratic("phi^2 = %s.I; need a negative scalar" % scalar)
    if not products_equal(phi, j, j, phi):
        raise NotCommutingWithJ("phi does not commute with J")
    return QuadraticEndo(phi=phi, j=j, d=d)


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
    m = rational_sqrt(endo.d)
    if m is None:
        if fj.trace() != 0:
            raise WorkbenchError("nonsquare d but trace(phi.J) != 0; module structure is inconsistent")
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

def _wedge4_moves(cols, mask):
    """(target mask, int weight) of each move e_t -> e_j of the wedge e_mask.

    Swapping e_t for e_j in the wedge e_S moves e_t to the front of
    e_(S-t), replaces it, and moves e_j back into sorted position: the
    sign is the parity of the indices of S - t strictly between j and t,
    one popcount of (low(t) ^ low(j)) & (S - t) with low(x) = 2^x - 1
    (the sign-mask identity of `clifford.reorder_parity`, for {t} and {j}).
    Only the nonzero entries (j, c) of each column t are visited.
    """
    for t, col in enumerate(cols):
        if mask >> t & 1:
            rest = mask ^ (1 << t)
            low_t = (1 << t) - 1
            for j, c in col:
                if not rest >> j & 1:
                    flip = ((low_t ^ ((1 << j) - 1)) & rest).bit_count() & 1
                    yield rest | (1 << j), -c if flip else c


def _wedge4_masks(dim: int) -> list[int]:
    """The 4-subsets of range(dim) as bit masks, in the order of the wedge basis."""
    return [1 << a | 1 << b | 1 << c | 1 << e for a, b, c, e in combinations(range(dim), 4)]


_POSITIONS_8 = {mask: i for i, mask in enumerate(_wedge4_masks(8))}


def _apply_wedge4(cols, vec: dict[int, int]) -> dict[int, int]:
    """den.D_op applied to a sparse int vector (mask -> nonzero int), with (cols, den) of `Matrix.cleared_columns`."""
    out: dict[int, int] = {}
    for mask, x in vec.items():
        for target, w in _wedge4_moves(cols, mask):
            out[target] = out.get(target, 0) + w * x
    return {mask: y for mask, y in out.items() if y}


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """The nonzero entries of a.u + b.v for sparse int vectors u and v."""
    out = {key: a * u.get(key, 0) + b * v.get(key, 0) for key in u.keys() | v.keys()}
    return {key: x for key, x in out.items() if x}


def _span_basis(xs: dict[int, int], ys: dict[int, int]) -> list[tuple[int, ...]] | None:
    """Primitive reduced-echelon basis of span{X, Y} read from the right, dense; None if dependent.

    Pivots are last nonzero positions in `_wedge4_masks(8)` order.  Z is
    nonzero at q2, the last position where X or Y is, and W is the other:
    v1 = Z[q2].W - W[q2].Z is zero at q2, empty iff X, Y are dependent, and
    with q1 its last nonzero, v2 = v1[q1].Z - Z[q1].v1 is zero at q1.  Each
    is made primitive, first nonzero positive; they come in pivot order.
    """
    position = _POSITIONS_8.__getitem__
    q2 = max(xs.keys() | ys.keys(), key=position, default=None)
    z, w = (xs, ys) if q2 in xs else (ys, xs)
    v1 = _combine(z.get(q2, 0), w, -w.get(q2, 0), z)
    if not v1:
        return None
    q1 = max(v1, key=position)
    basis = []
    for v in (v1, _combine(v1[q1], z, -z.get(q1, 0), v1)):
        g = gcd(*v.values()) if v[min(v, key=position)] > 0 else -gcd(*v.values())
        basis.append(tuple(v.get(mask, 0) // g for mask in _POSITIONS_8))
    return basis


def weil_class_space(endo: QuadraticEndo) -> list[tuple[int, ...]]:
    """Primitive basis of ker(D_phi^2 + 16 d) inside the fourth exterior power.

    dim V must be 8 (ValueError), and phi.phi == -d.I with d > 0 must hold
    exactly (NotQuadratic): then the kernel is 2-dimensional (the theorem
    above).  The basis is the reduced-echelon one of the exact kernel (one
    vector per free column, in column order), read off the eigenvector
    wedge X + mu.Y by `_span_basis`.  UnexpectedDimension if X and Y are
    dependent, or unless D_P X = -4 n.den.Y and m.D_P Y = 4 den.X (P =
    den.phi integral, d = n/m, D_P applied move by move): these are the
    rational and mu parts of D_phi W = 4 lam.W, which holds as each w_i is a
    lam-eigenvector, and they give D_phi^2 = -16 d on X and on Y.
    """
    if endo.dim != 8:
        raise ValueError("weil_class_space is the fourfold case: dim V must be 8")
    d = endo.d
    if not (d > 0 and endo.phi * endo.phi == -d * Matrix.identity(8)):
        raise NotQuadratic("class space needs phi^2 = -d.I with d > 0; d = %s" % d)
    xs, ys = _eigenvector_wedge(endo)
    basis = _span_basis(xs, ys)
    if basis is None:
        raise UnexpectedDimension("eigenvector wedge: A and B are dependent")
    cols, den = endo.phi.cleared_columns()
    n, m = d.numerator, d.denominator
    if _apply_wedge4(cols, xs) != {mask: -4 * n * den * y for mask, y in ys.items()} or (
        {mask: m * y for mask, y in _apply_wedge4(cols, ys).items()} != {mask: 4 * den * x for mask, x in xs.items()}
    ):
        raise UnexpectedDimension("eigenvector wedge is no 4 lam-eigenvector of D_phi: it may lie outside the kernel of D_phi^2 + 16 d")
    return basis


def _wedge_into(out: dict[int, int], acc: dict[int, int], vec: dict[int, int]) -> None:
    """Add acc^vec into out: acc maps masks S to ints, vec indices r to ints.

    e_S^e_r is e_(S+r) for r not in S, signed by the parity of the bits of S
    above r (the sign-mask identity of `clifford.reorder_parity` for {r}).
    """
    for mask, x in acc.items():
        for r, y in vec.items():
            if not mask >> r & 1:
                key = mask | 1 << r
                out[key] = out.get(key, 0) + (-x * y if (mask >> r).bit_count() & 1 else x * y)


def _eigenvector_wedge(endo: QuadraticEndo) -> tuple[dict[int, int], dict[int, int]]:
    """Integer (X, Y) with w_1^w_2^w_3^w_4 a positive multiple of X + mu.Y.

    u_i = e_c is taken greedily whenever e_c is outside the span of the
    earlier u_i and phi u_i; for phi^2 = -d, d > 0, that span is
    phi-invariant and grows by 2 each time (phi e_c = s + t e_c with s in
    it would put (-d - t^2) e_c in it), so exactly four are taken.  They
    are the even pivots of `_bareiss_echelon` on the 8x16 matrix with
    columns e_c, P e_c for c = 0..7: a pivot column lies outside the span
    of the columns before it, and that span is the span of the earlier u_i
    and phi u_i, since a skipped e_j lies in it and so does phi e_j.
    With P = den.phi integral, m.den.w_i = R + mu.den.e_c for u_i = e_c and
    R = m.P e_c.  The wedge X + mu.Y is built one factor at a time from
    X = 1, Y = 0: since mu^2 = -n.m, the product with R + mu.den.e_c is
    X^R - n.m.den.(Y^e_c) + mu.(Y^R + den.(X^e_c)), all in ints.
    Returned as sparse mask -> nonzero int dicts.
    """
    rows, den = endo.phi.cleared()
    pairs = [{2 * r: 1, **{2 * c + 1: x for c, x in row.items()}} for r, row in enumerate(rows)]
    us = [p // 2 for p in _bareiss_echelon(pairs, 16) if p % 2 == 0]
    n, m = endo.d.numerator, endo.d.denominator
    xs, ys = {0: 1}, {}
    for c in us:
        r_col = {r: m * row[c] for r, row in enumerate(rows) if c in row}
        x_next, y_next = {}, {}
        _wedge_into(x_next, xs, r_col)
        _wedge_into(x_next, ys, {c: -n * m * den})
        _wedge_into(y_next, ys, r_col)
        _wedge_into(y_next, xs, {c: den})
        xs, ys = x_next, y_next
    return {mask: x for mask, x in xs.items() if x}, {mask: y for mask, y in ys.items() if y}


def certify_22(classes, j: Matrix) -> bool:
    """True iff every generator lies in ker(D_J), the exact (2,2) part; D_J is applied move by move.

    ValueError unless each class vector has length C(dim, 4).
    """
    masks = _wedge4_masks(j.rows)
    if any(len(v) != len(masks) for v in classes):
        raise ValueError("class vectors must have length %d" % len(masks))
    cols, _ = j.cleared_columns()
    return not any(_apply_wedge4(cols, {mask: x for mask, x in zip(masks, v) if x}) for v in classes)


def hodge_class_dimension(dim: int, j: Matrix) -> int:
    """Rational dimension C(m, 2)^2 of the (2,2) part of the fourth exterior power, dim = 2m.

    ValueError unless j is dim x dim with j.j == -I (`hodge.Weight1Structure`).
    Then wedge^4 V (x) C is the sum of wedge^p V^(1,0) (x) wedge^q V^(0,1)
    over p + q = 4, the +-i eigenspaces V^(1,0), V^(0,1) of J being m-dimensional,
    and D_J acts on each piece by i(p - q); the rational D_J has the same
    nullity over Q as over C, that of the p = q = 2 piece.
    """
    if j.rows != dim or j.cols != dim:
        raise ValueError("J is %dx%d, expected %dx%d" % (j.rows, j.cols, dim, dim))
    Weight1Structure(dim, j)
    return comb(dim // 2, 2) ** 2


def analyze(j: Matrix, phi: Matrix) -> WeilReport:
    """Full report: multiplicities, balance, class-space dimension, (2,2) check."""
    endo = check_quadratic_endo(j, phi)
    a, b = weil_multiplicities(endo)
    if endo.dim != 8:
        return WeilReport(mult_plus=a, mult_minus=b, is_weil=a == b, weil_space_dim=None, all_weil_classes_22=None)
    classes = weil_class_space(endo)
    return WeilReport(mult_plus=a, mult_minus=b, is_weil=a == b, weil_space_dim=len(classes), all_weil_classes_22=certify_22(classes, j))
