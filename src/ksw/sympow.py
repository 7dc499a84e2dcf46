"""Symmetric powers of a quadratic space: contraction, Q-multiplication, harmonics.

Sym^k is modelled as degree-k polynomials in commuting variables y_1..y_h
(one per basis vector), on the monomial basis in multiset-lex order.  Two
operators drive everything:

  * q_mult: multiplication by the inverse-form element
        Q = sum_ij (G^-1)_ij y_i y_j,  Sym^(k-2) -> Sym^k;
  * contraction: the Laplacian of the form itself,
        sum_ij G_ij d/dy_i d/dy_j,    Sym^k -> Sym^(k-2),

which pair into the classical raising/lowering structure.  Both come from
one pass over the raising moves y^nu -> y^nu y_i y_j (i <= j) of
Sym^(k-2): each move is one entry of each, and no two moves share an
entry, so nothing is accumulated.  A linear form
l_a = sum a_i y_i satisfies contraction(l_a^k) = k(k-1) q(a) l_a^(k-2), so
the harmonic space ker(contraction) is exactly the span of k-th powers of
isotropic vectors whenever the form has rational zeros; any nonzero
normalization of the contraction has the same kernel, and the kernel is
what is normative.

The blocks q_mult^l(Harm^(k-2l)) decompose Sym^k.  Each block basis is
the columns of one matrix: the harmonic one is `kernel_basis` of the
contraction, and block l >= 1 is Q times block l-1 of Sym^(k-2), so the
stack is built by recursion on k and a space builds each Sym^j once
(`build_sym`).  One exact identity certifies the stack nonsingular, the
sl2 relation contraction(Q.f) = (2h + 4 deg f).f + Q.contraction(f):
the contraction kills the harmonic block, which owns one row per column,
and sends block l to a nonzero multiple c_l of block l-1 of Sym^(k-2),
one exact comparison per block and no rank.  Isotropic powers are
certified to span the harmonic space by a rank modulo a fixed 61-bit
prime, read row by row until it reaches dim Harm^k, behind one exact
product that puts the rows read in ker(contraction).  The level <= 2 block,
the Q-power image of H^2, is the top block of the stack.  The Hodge-level
annihilators act on a block basis one product per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd

from .errors import CapExceeded, DecompositionFailure, LevelMismatch, NotApplicable
from .hodge import HKStructure, rotation_generator
from .linalg import (
    CERTIFICATE_PRIME,
    Matrix,
    _echelon_mod_p,
    _int_columns,
    _int_row,
    _row,
    induced_operator,
    kernel_basis,
    reduced_echelon_basis,
)
from .qspace import QuadraticSpace

#: default desk-scale caps: ambient dimension stays <= C(11, 5) = 462
CAP_H = 7
CAP_K = 5


def sym_dim(h: int, k: int) -> int:
    return comb(h + k - 1, k) if k >= 0 else 0


def harmonic_dim(h: int, k: int) -> int:
    return sym_dim(h, k) - sym_dim(h, k - 2)


def _exponent_basis(h: int, k: int):
    basis = []
    for combo in combinations_with_replacement(range(h), k):
        mu = [0] * h
        for i in combo:
            mu[i] += 1
        basis.append(tuple(mu))
    return tuple(basis)


@dataclass
class SymTensorSpace:
    """Monomial-basis model of Sym^k with its contraction and Q-multiplication."""

    space: QuadraticSpace
    k: int
    basis: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    contraction: Matrix
    q_mult: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_sym(space: QuadraticSpace, k: int) -> SymTensorSpace:
    """Sym^k with exact contraction and Q-multiplication matrices, built once per space object."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = space.h
    if h > CAP_H or k > CAP_K:
        raise CapExceeded(
            "Sym^%d of an h=%d space exceeds the default caps (h <= %d, k <= %d)"
            % (k, h, CAP_H, CAP_K)
        )
    if k in space.sym_powers:
        return space.sym_powers[k]
    basis = _exponent_basis(h, k)
    index = {mu: i for i, mu in enumerate(basis)}
    lower = _exponent_basis(h, k - 2) if k >= 2 else ()
    # a symmetric form summed over ordered pairs: (i, j) for i < j stands for both
    (g, g_den), (b, b_den) = space.gram.cleared(), space.inverse_gram.cleared()
    pairs = [
        (i, j, g[i].get(j, 0) * (1 if i == j else 2), b[i].get(j, 0) * (1 if i == j else 2))
        for i in range(h) for j in range(i, h) if j in g[i] or j in b[i]
    ]
    # the raising move nu -> mu = nu + y_i y_j is the one entry of C at
    # (nu, mu), d/dy_i d/dy_j y^mu = mu_i (mu_j - [i == j]) y^nu, and the one
    # entry of Q at (mu, nu); distinct moves meet distinct entries
    c_rows, q_rows = [], [{} for _ in basis]
    for n, nu in enumerate(lower):
        c_row = {}
        for i, j, gw, bw in pairs:
            mu = list(nu)
            mu[i] += 1
            mu[j] += 1
            m = index[tuple(mu)]
            if gw:
                c_row[m] = gw * mu[i] * (mu[j] - (i == j))
            if bw:
                q_rows[m][n] = bw
        c_rows.append(_row(c_row, g_den))
    contraction = Matrix._of(c_rows, len(basis))
    q_mult = Matrix._of((_row(row, b_den) for row in q_rows), len(lower))
    sym = space.sym_powers[k] = SymTensorSpace(space, k, basis, index, contraction, q_mult)
    return sym


def _power_row(sym: SymTensorSpace, v) -> tuple[dict[int, int], int]:
    """(sum v_i y_i)^k as an integer row.

    With v cleared to ints n over one denominator d, the y^mu coefficient
    is the integer k!/prod(mu_i!) * prod(n_i^mu_i), divided once by d^k.
    Only the monomials in the support of v are visited, in basis order.
    """
    nums, d = _int_row(enumerate(v))
    k = sym.k
    fact = [factorial(m) for m in range(k + 1)]
    support = sorted(nums)
    out = {}
    for combo in combinations_with_replacement(support, k):
        mu = [0] * sym.space.h
        for i in combo:
            mu[i] += 1
        coef = fact[k]
        for i in support:
            if mu[i]:
                coef = coef // fact[mu[i]] * nums[i] ** mu[i]
        out[sym.index[tuple(mu)]] = coef
    return _row(out, d**k)


def harmonic(space: QuadraticSpace, k: int):
    """Primitive basis of ker(contraction) in Sym^k.

    For k in {0, 1} the harmonic space is all of Sym^k; otherwise the
    dimension is C(h+k-1, k) - C(h+k-3, k-2), exactly.
    """
    return _int_columns(_harmonic_basis(build_sym(space, k)))


def _harmonic_basis(sym: SymTensorSpace) -> Matrix:
    """ker(contraction) as the integer columns of one matrix (the identity for k < 2)."""
    return kernel_basis(sym.contraction)


@dataclass
class Decomposition:
    """Blocks q_mult^l(Harm^(k-2l)) with dims and the full-rank certificate.

    ``lifts[l]`` holds the basis of block l as the columns of one matrix;
    block l = 0 is the primitive integer harmonic basis itself (Q^0 = 1).
    The certificate names the exact identity `_blocks` checked on them:
    the contraction C sends Q^l H to c_l Q^(l-1) H.
    """

    k: int
    lifts: list[Matrix]
    certificate: str

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return [(l, lift.cols) for l, lift in enumerate(self.lifts)]

    @property
    def total(self) -> int:
        return sum(lift.cols for lift in self.lifts)


def q_power_lift(space: QuadraticSpace, from_k: int, l: int) -> Matrix:
    """Matrix of multiplication by Q^l: Sym^from_k -> Sym^(from_k + 2l)."""
    mat = Matrix.identity(sym_dim(space.h, from_k))
    for step in range(l):
        sym = build_sym(space, from_k + 2 * (step + 1))
        mat = sym.q_mult * mat
    return mat


def decompose(space: QuadraticSpace, k: int) -> Decomposition:
    """Exact block decomposition of Sym^k into Q-power images of harmonics.

    Dimensions must total dim Sym^k and the stacked basis must have full
    rank; DecompositionFailure otherwise (it would signal an arithmetic
    bug for a nondegenerate form).  Each Sym^j is built once; the blocks
    of Sym^(k-2), as the columns of one matrix each, are lifted by one
    Q-multiplication Sym^(k-2) -> Sym^k.
    """
    return Decomposition(k=k, lifts=_blocks(space, k), certificate="C.Q^l H = c_l Q^(l-1) H, exact")


def _blocks(space: QuadraticSpace, k: int) -> list[Matrix]:
    """The lifted harmonic bases behind `decompose`, block l's as the columns of entry l.

    Block 0 is H, the canonical kernel basis of the contraction
    C: Sym^k -> Sym^(k-2); block l >= 1 is Q times block l-1 of
    `_blocks(space, k - 2)`, and below k = 2 there is no lower block.  With
    L the blocks l >= 1 side by side, the stack [H | L] is square once the
    dimensions total dim Sym^k, and three exact checks prove it nonsingular:

      (a) each column of H is the only nonzero of H in some row (the
          canonical kernel basis owns its free rows), so H y0 = 0 forces
          y0 = 0;
      (b) C . H = 0, one exact product;
      (c') C . (block l) == c_l . (block l-1 of Sym^(k-2)) for each l >= 1,
          with c_l = `casimir_block_eigenvalue(h, k, l)` = 2l(h + 2k - 2l - 2)
          >= 2h > 0.

    By induction on k the Sym^(k-2) stack is nonsingular.  H y0 + L y1 = 0
    gives C L y1 = 0 by (b); by (c') that is the Sym^(k-2) stack applied to
    y1 scaled blockwise by the c_l, so y1 = 0, and then y0 = 0 by (a).  The
    true blocks pass all three (the sl2 relation of C and Q), and a failed
    check means the stack is not certified: it is reported rank deficient.

    Raises ValueError for k < 0 and DecompositionFailure as `decompose` documents.
    """
    sym = build_sym(space, k)
    harm = _harmonic_basis(sym)
    lower = _blocks(space, k - 2) if k >= 2 else []
    lifts = [harm] + [sym.q_mult * block for block in lower]
    total = sum(lift.cols for lift in lifts)
    if total != sym.dim:
        raise DecompositionFailure("block dimensions total %d != %d" % (total, sym.dim))
    rows, _ = harm.cleared()
    owns_rows = len({next(iter(row)) for row in rows if len(row) == 1}) == harm.cols
    if not (
        owns_rows
        and (sym.contraction * harm).is_zero()
        and all(
            sym.contraction * lift == casimir_block_eigenvalue(space.h, k, l) * block
            for l, (lift, block) in enumerate(zip(lifts[1:], lower), 1)
        )
    ):
        raise DecompositionFailure("stacked block basis is rank deficient")
    return lifts


def _primitive_int_vectors_in_box(h: int, height: int):
    """Primitive integer vectors, first nonzero positive, max|coord| <= height, in lex order."""
    for v in product(range(-height, height + 1), repeat=h):
        if gcd(*v) == 1 and next(x for x in v if x) > 0:
            yield v


def isotropic_span_check(space: QuadraticSpace, k: int) -> bool:
    """Do k-th powers of rational isotropic vectors span the harmonic space?

    One witness from one zero v, the first primitive one by height:
    F(w) = q(w).v - 2b(v,w).w is isotropic for every w and constant along
    v, so F^k is a form of degree 2k on the coordinates of a complement of
    v, and its values at the points a in N^(h-1) with |a| = 2k span what
    its coefficients span.  Those values and v^k (the second isotropic
    line when h = 2) span the k-th powers of all rational zeros, hence
    Harm^k, which is irreducible.  The power rows are built one at a time,
    v^k and then each new F(w) line in point order, and the certificate
    reads them only until their rank mod p reaches dim Harm^k (`_stack_rank`);
    a shortfall contradicts the above and raises DecompositionFailure.
    NotApplicable when the form is definite or no zero has height <= 8.
    """
    s_plus, s_minus = space.signature
    if s_plus == 0 or s_minus == 0:
        raise NotApplicable("definite form has no rational isotropic vectors")
    gram, _ = space.gram.cleared()  # a positive multiple of the form, for integer vectors

    def form(u, v) -> int:
        return sum(u[i] * x * v[j] for i, row in enumerate(gram) for j, x in row.items())
    zero = next((
        v for height in range(1, 9) for v in _primitive_int_vectors_in_box(space.h, height)
        if max(map(abs, v)) == height and not form(v, v)
    ), None)
    if zero is None:
        raise NotApplicable("no rational isotropic vectors of height <= 8")
    # the complement of v: the coordinates other than its first nonzero one
    p = next(i for i, x in enumerate(zero) if x)

    def lines():
        yield zero
        seen = {zero}
        for a in _exponent_basis(space.h - 1, 2 * k):
            w = a[:p] + (0,) + a[p:]
            # F(w) up to a nonzero factor, made primitive with its first nonzero
            # positive: the same k-th power line
            qw, c = form(w, w), -2 * form(zero, w)
            u = [qw * x + c * y for x, y in zip(zero, w)]
            g = gcd(*u) * (1 if next((x for x in u if x), 0) > 0 else -1)
            if g and (u := tuple(x // g for x in u)) not in seen:
                seen.add(u)
                yield u
    sym = build_sym(space, k)
    target = sym.dim - sym.contraction.rank()  # dim ker C = dim Harm^k
    if _stack_rank(sym, (_power_row(sym, u) for u in lines()), target) != target:
        raise DecompositionFailure("harmonic blocks failed to span; signals an arithmetic bug")
    return True


def _stack_rank(sym: SymTensorSpace, rows, target: int) -> int:
    """target if the power rows read certify it, else the exact rank of all of them.

    The modular echelon reads the rows in order and stops once their rank
    mod p is target, so their exact rank is at least target.  One exact
    product checks that the contraction sends each row read to zero: then
    they lie in ker(contraction), of dimension target, and span it.  Rows
    after them are never built and are no part of the certificate.  On a
    modular shortfall, a denominator divisible by p or a row read outside
    ker(contraction), the exact rank of the complete stack decides.
    """
    rows = iter(rows)
    rank, read = _echelon_mod_p(rows, sym.dim, target, CERTIFICATE_PRIME)
    if rank == target and (Matrix._of(read, sym.dim) * sym.contraction.transpose()).is_zero():
        return target
    return Matrix._of(read + list(rows), sym.dim).rank()


def sym_derivation(sym: SymTensorSpace, op: Matrix) -> Matrix:
    """Derivation extension of an operator on H to Sym^k (acts once per slot)."""
    h = sym.space.h
    if op.rows != h or op.cols != h:
        raise ValueError("operator must be %dx%d" % (h, h))
    rows, den = op.cleared()
    # y_i -> sum_j A_ji y_j, once per slot: A_ji y_j d/dy_i, for the i in the
    # support of mu and the nonzeros of column i; every i = j move lands on mu
    columns = [[(j, row[i]) for j, row in enumerate(rows) if i in row] for i in range(h)]

    def moves(mu):
        for i, e in enumerate(mu):
            if e:
                for j, a in columns[i]:
                    target = list(mu)
                    target[i] -= 1
                    target[j] += 1
                    yield tuple(target), a * e

    return induced_operator(sym.basis, sym.index, moves, den)


def casimir_block_eigenvalue(h: int, k: int, l: int) -> Fraction:
    """Eigenvalue of q_mult . contraction on the block Q^l(Harm^(k-2l)).

    From the commutator of the Laplacian with Q-multiplication
    (contraction(Q.f) = (2h + 4 deg f).f + Q.contraction(f)) one gets
    contraction(Q^l u) = 2l(h + 2k - 2l - 2) Q^(l-1) u for harmonic u of
    degree k - 2l; the values are pairwise distinct over l for h >= 2, so
    each block is exactly one eigenspace.
    """
    return Fraction(2 * l * (h + 2 * k - 2 * l - 2))


def level_two_part(hk: HKStructure, k: int):
    """The maximal Hodge-level <= 2 piece of Sym^k for odd k (primitive basis).

    Every block Q^l(Harm^(k-2l)) with k - 2l > 1 has Hodge level
    2(k - 2l) > 2, so the level <= 2 piece of the decomposition is the
    single block l = (k-1)/2, i.e. Q^((k-1)/2).H^2 of dimension h: the top
    block of `_blocks`, certified with the whole stack.  With Q = q_mult and
    C = contraction it is the eigenspace ker(Q.C - a) of the Casimir
    operator at a = c_((k-1)/2): by check (c') of `_blocks`, Q.C acts on
    block l by c_l, and these values are pairwise distinct.  (A polynomial
    in the rotation derivation alone cannot cut the block out: its kernels
    are sums of full type components, and the block shares the types
    |p-q| <= 2 with larger blocks.)  On one path that raises LevelMismatch
    at its first failed step:

      * the h columns of the top block are independent
        (`reduced_echelon_basis`);
      * D_A(D_A^2 + N^2) kills them, D_A the derivation of the rotation
        generator: they carry only types |p-q| <= 2.

    The basis returned is the one `kernel_basis` would return for Q.C - a
    (`reduced_echelon_basis`).  No dim Sym^k square is formed.
    """
    if k % 2 != 1:
        raise ValueError("level filtration applies to odd symmetric powers")
    sym = build_sym(hk.space, k)
    image = reduced_echelon_basis(_blocks(hk.space, k)[-1])
    if image is None:
        raise LevelMismatch("Q-power image of H^2 is degenerate")
    d_a, norm = sym_derivation(sym, rotation_generator(hk)), hk.period.norm
    if not _level_factor(d_a, norm, 2, _level_factor(d_a, norm, 0, image)).is_zero():
        raise LevelMismatch("kernel vector carries a type with |p-q| > 2")
    return _int_columns(image)


def block_max_level(hk: HKStructure, k: int):
    """For each block l, certify max |p - q| on it equals 2(k - 2l).

    The full annihilator (all even m up to 2(k-2l), including the D_A
    factor for m = 0) kills the block; dropping the top factor must leave
    some block vector alive.  Returns [(l, level)] on success.
    """
    space = hk.space
    sym = build_sym(space, k)
    norm = hk.period.norm
    d_a = sym_derivation(sym, rotation_generator(hk))
    out = []
    for l, reduced in enumerate(_blocks(space, k)):
        level = 2 * (k - 2 * l)
        for m in range(0, level - 1, 2):
            reduced = _level_factor(d_a, norm, m, reduced)
        if not _level_factor(d_a, norm, level, reduced).is_zero():
            raise LevelMismatch("block l=%d not annihilated at level %d" % (l, level))
        if level > 0 and reduced.is_zero():
            raise LevelMismatch(
                "block l=%d already killed below level %d" % (l, level)
            )
        out.append((l, level))
    return out


def _level_factor(d_a: Matrix, norm: Fraction, m: int, v: Matrix) -> Matrix:
    """The annihilator factor of |p - q| = m applied to the columns of v.

    D_A for m = 0 and D_A^2 + (N m / 2)^2 otherwise: D_A acts on a (p, q)
    component by -i(N/2)(p - q).
    """
    if m == 0:
        return d_a * v
    return d_a * (d_a * v) + Fraction(norm * m, 2) ** 2 * v
