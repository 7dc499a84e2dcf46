"""Symmetric powers of a quadratic space: contraction, Q-multiplication, harmonics.

Sym^k is modelled as degree-k polynomials in commuting variables y_1..y_h
(one per basis vector), on the monomial basis in multiset-lex order.  Two
operators drive everything:

  * q_mult: multiplication by the inverse-form element
        Q = sum_ij (G^-1)_ij y_i y_j,  Sym^(k-2) -> Sym^k;
  * contraction: the Laplacian of the form itself,
        sum_ij G_ij d/dy_i d/dy_j,    Sym^k -> Sym^(k-2),

which pair into the classical raising/lowering structure.  A linear form
l_a = sum a_i y_i satisfies contraction(l_a^k) = k(k-1) q(a) l_a^(k-2), so
the harmonic space ker(contraction) is exactly the span of k-th powers of
isotropic vectors whenever the form has rational zeros; any nonzero
normalization of the contraction has the same kernel, and the kernel is
what is normative.

The blocks q_mult^l(Harm^(k-2l)) decompose Sym^k; the full-rank
certificate for the stacked block basis is a maximal minor checked modulo
a fixed 61-bit prime (nonzero residue certifies exact nonvanishing), with
exact elimination as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, gcd

from .errors import CapExceeded, DecompositionFailure, LevelMismatch, NotApplicable
from .hodge import HKStructure, rotation_generator
from .linalg import Matrix, is_zero_vector, rank_and_kernel, rank_at_least, vec_add, vec_scale, vector
from .qspace import QuadraticSpace

_ZERO = Fraction(0)

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


def _check_caps(h: int, k: int, allow_large: bool):
    if not allow_large and (h > CAP_H or k > CAP_K):
        raise CapExceeded(
            "Sym^%d of an h=%d space exceeds the default caps (h <= %d, k <= %d)"
            % (k, h, CAP_H, CAP_K)
        )


def build_sym(space: QuadraticSpace, k: int, allow_large: bool = False) -> SymTensorSpace:
    """Sym^k with exact contraction and Q-multiplication matrices."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = space.h
    _check_caps(h, k, allow_large)
    basis = _exponent_basis(h, k)
    index = {mu: i for i, mu in enumerate(basis)}
    lower = _exponent_basis(h, k - 2) if k >= 2 else ()
    lower_index = {mu: i for i, mu in enumerate(lower)}
    # both forms as integers over one denominator each
    (g, g_den), (b, b_den) = space.gram.cleared(), space.inverse_gram.cleared()
    # (i, j, weight) for i <= j: an off-diagonal pair stands for (i, j) and (j, i)
    pairs = [(i, j, 1 if i == j else 2) for i in range(h) for j in range(i, h)]
    g_terms = [(i, j, w * g[i][j]) for i, j, w in pairs if g[i][j]]
    b_terms = [(i, j, w * b[i][j]) for i, j, w in pairs if b[i][j]]

    # within a column every term lands on its own monomial
    contraction_cols = []
    for mu in basis:
        col = {}
        for i, j, c in g_terms:
            count = mu[i] * (mu[j] - (i == j))
            if count:
                target = list(mu)
                target[i] -= 1
                target[j] -= 1
                col[lower_index[tuple(target)]] = c * count
        contraction_cols.append(col)
    contraction = Matrix.from_sparse_columns(contraction_cols, len(lower)) * Fraction(1, g_den)

    qmult_cols = []
    for nu in lower:
        col = {}
        for i, j, c in b_terms:
            target = list(nu)
            target[i] += 1
            target[j] += 1
            col[index[tuple(target)]] = c
        qmult_cols.append(col)
    q_mult = Matrix.from_sparse_columns(qmult_cols, len(basis)) * Fraction(1, b_den)

    return SymTensorSpace(
        space=space,
        k=k,
        basis=basis,
        index=index,
        contraction=contraction,
        q_mult=q_mult,
    )


def power_vector(sym: SymTensorSpace, v) -> tuple[Fraction, ...]:
    """Coordinates of (sum v_i y_i)^k in the monomial basis."""
    v = vector(v)
    k = sym.k
    kfact = factorial(k)
    out = []
    for mu in sym.basis:
        coef = Fraction(kfact)
        for i, m in enumerate(mu):
            if m:
                if not v[i]:
                    coef = _ZERO
                    break
                coef = coef * v[i] ** m / factorial(m)
            # zero exponent contributes factor 1
        out.append(coef)
    return tuple(out)


def harmonic(space: QuadraticSpace, k: int, allow_large: bool = False):
    """Primitive basis of ker(contraction) in Sym^k.

    For k in {0, 1} the harmonic space is all of Sym^k; otherwise the
    dimension is C(h+k-1, k) - C(h+k-3, k-2), exactly.
    """
    return _harmonic_basis(build_sym(space, k, allow_large))


def _harmonic_basis(sym: SymTensorSpace):
    if sym.k < 2:
        return [
            tuple(1 if i == j else 0 for i in range(sym.dim)) for j in range(sym.dim)
        ]
    _, kernel = rank_and_kernel(sym.contraction)
    return kernel


@dataclass
class Decomposition:
    """Blocks q_mult^l(Harm^(k-2l)) with dims and the full-rank certificate.

    Block l = 0 is the primitive integer harmonic basis itself (Q^0 = 1).
    """

    k: int
    blocks: list[tuple[int, list[tuple[int | Fraction, ...]]]]
    certificate: str

    @property
    def block_dims(self) -> list[tuple[int, int]]:
        return [(l, len(vecs)) for l, vecs in self.blocks]

    @property
    def total(self) -> int:
        return sum(len(vecs) for _, vecs in self.blocks)


def q_power_lift(space: QuadraticSpace, from_k: int, l: int, allow_large: bool = False) -> Matrix:
    """Matrix of multiplication by Q^l: Sym^from_k -> Sym^(from_k + 2l)."""
    mat = Matrix.identity(sym_dim(space.h, from_k))
    for step in range(l):
        sym = build_sym(space, from_k + 2 * (step + 1), allow_large)
        mat = sym.q_mult * mat
    return mat


def decompose(space: QuadraticSpace, k: int, allow_large: bool = False) -> Decomposition:
    """Exact block decomposition of Sym^k into Q-power images of harmonics.

    Dimensions must total dim Sym^k and the stacked basis must have full
    rank; DecompositionFailure otherwise (it would signal an arithmetic
    bug for a nondegenerate form).  Each Sym^j is built once; a harmonic
    vector of degree j is lifted by the chain of Q-multiplications
    Sym^j -> Sym^(j+2) -> ... -> Sym^k.
    """
    syms = {j: build_sym(space, j, allow_large) for j in range(k, -1, -2)}
    blocks = []
    total = 0
    for l in range(k // 2 + 1):
        kh = k - 2 * l
        vecs = _harmonic_basis(syms[kh])
        for j in range(kh + 2, k + 1, 2):
            q_mult = syms[j].q_mult
            vecs = [q_mult.matvec(v) for v in vecs]
        blocks.append((l, vecs))
        total += len(vecs)
    ambient = sym_dim(space.h, k)
    if total != ambient:
        raise DecompositionFailure(
            "block dimensions total %d != %d" % (total, ambient)
        )
    stacked = Matrix.from_columns(
        [v for _, vecs in blocks for v in vecs], rows=ambient
    )
    if not rank_at_least(stacked, ambient):
        raise DecompositionFailure("stacked block basis is rank deficient")
    return Decomposition(k=k, blocks=blocks, certificate="maximal minor nonzero mod 2^61-1")


def _primitive_int_vectors_in_box(h: int, height: int):
    """Primitive integer vectors, first nonzero positive, max|coord| <= height."""
    coords = range(-height, height + 1)

    def rec(prefix, started):
        if len(prefix) == h:
            if started:
                yield tuple(prefix)
            return
        for c in coords if started else range(0, height + 1):
            yield from rec(prefix + [c], started or c != 0)

    for v in rec([], False):
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            yield v


def isotropic_span_check(
    space: QuadraticSpace, k: int, max_height: int = 8, allow_large: bool = False
) -> bool:
    """Do k-th powers of rational isotropic vectors span the harmonic space?

    Enumerates isotropic vectors of growing height until the span
    stabilizes for two consecutive rounds; NotApplicable when the form is
    definite (no rational zeros) or none are found within the height cap.
    """
    s_plus, s_minus = space.signature
    if s_plus == 0 or s_minus == 0:
        raise NotApplicable("definite form has no rational isotropic vectors")
    sym = build_sym(space, k, allow_large)
    target = len(harmonic(space, k, allow_large))
    collected: list[tuple[Fraction, ...]] = []
    found_any = False
    prev_rank = -1
    stable_rounds = 0
    rank = 0
    for height in range(1, max_height + 1):
        for v in _primitive_int_vectors_in_box(space.h, height):
            if max(abs(x) for x in v) != height:
                continue  # only the new shell
            if space.quadratic(v) == 0:
                found_any = True
                collected.append(power_vector(sym, v))
        rank = Matrix(collected).rank() if collected else 0
        if rank == target:
            return True
        if found_any:
            if rank == prev_rank:
                stable_rounds += 1
                if stable_rounds >= 2:
                    return rank == target
            else:
                stable_rounds = 0
        prev_rank = rank
    if not found_any:
        raise NotApplicable(
            "no rational isotropic vectors of height <= %d" % max_height
        )
    return rank == target


def sym_derivation(sym: SymTensorSpace, op: Matrix) -> Matrix:
    """Derivation extension of an operator on H to Sym^k (acts once per slot)."""
    h = sym.space.h
    if op.rows != h or op.cols != h:
        raise ValueError("operator must be %dx%d" % (h, h))
    cols = []
    ints, den = op.cleared()
    op_cols = [[r[i] for r in ints] for i in range(h)]
    for mu in sym.basis:
        col = {}
        for i in range(h):
            mi = mu[i]
            if not mi:
                continue
            for j, c in enumerate(op_cols[i]):
                if c:
                    target = list(mu)
                    target[i] -= 1
                    target[j] += 1
                    pos = sym.index[tuple(target)]
                    col[pos] = col.get(pos, 0) + mi * c
        cols.append(col)
    return Matrix.from_sparse_columns(cols, sym.dim) * Fraction(1, den)


def casimir_block_eigenvalue(h: int, k: int, l: int) -> Fraction:
    """Eigenvalue of q_mult . contraction on the block Q^l(Harm^(k-2l)).

    From the commutator of the Laplacian with Q-multiplication
    (contraction(Q.f) = (2h + 4 deg f).f + Q.contraction(f)) one gets
    contraction(Q^l u) = 2l(h + 2k - 2l - 2) Q^(l-1) u for harmonic u of
    degree k - 2l; the values are pairwise distinct over l for h >= 2, so
    each block is exactly one eigenspace.
    """
    return Fraction(2 * l * (h + 2 * k - 2 * l - 2))


def level_two_part(hk: HKStructure, k: int, allow_large: bool = False):
    """The maximal Hodge-level <= 2 piece of Sym^k for odd k (primitive basis).

    Every block Q^l(Harm^(k-2l)) with k - 2l > 1 has Hodge level
    2(k - 2l) > 2, so the level <= 2 piece of the decomposition is the
    single block l = (k-1)/2, i.e. Q^((k-1)/2).H^2 of dimension h.  Two
    independent exact computations must agree or LevelMismatch is raised:

      * kernel side: the eigenspace ker(q_mult . contraction - a_l) of the
        Casimir operator, whose block eigenvalues are pairwise distinct
        (a polynomial in the rotation derivation alone cannot cut the
        block out: its kernels are sums of full type components, and the
        block shares the types |p-q| <= 2 with larger blocks);
      * image side: the columns of multiplication by Q^((k-1)/2) on H^2.

    The kernel is additionally certified to carry only types |p-q| <= 2:
    the derivation D_A of the rotation generator kills it under
    D_A(D_A^2 + N^2).
    """
    if k % 2 != 1:
        raise ValueError("level filtration applies to odd symmetric powers")
    space = hk.space
    sym = build_sym(space, k, allow_large)
    h = space.h
    norm = hk.period.norm
    l_top = (k - 1) // 2
    casimir = sym.q_mult * sym.contraction
    shift = casimir_block_eigenvalue(h, k, l_top) * Matrix.identity(sym.dim)
    _, kernel = rank_and_kernel(casimir - shift)
    if len(kernel) != h:
        raise LevelMismatch(
            "Casimir eigenspace has dimension %d, expected h = %d" % (len(kernel), h)
        )
    d_a = sym_derivation(sym, rotation_generator(hk))
    for v in kernel:
        if not is_zero_vector(_level_factor(d_a, norm, 2, _level_factor(d_a, norm, 0, v))):
            raise LevelMismatch("kernel vector carries a type with |p-q| > 2")
    lift = q_power_lift(space, 1, l_top, allow_large)
    image = [lift.column(j) for j in range(h)]
    if Matrix(image).rank() != h:
        raise LevelMismatch("Q-power image of H^2 is degenerate")
    combined = Matrix([list(v) for v in kernel] + [list(v) for v in image])
    if combined.rank() != h:
        raise LevelMismatch("kernel and Q-power image of H^2 differ")
    return kernel


def block_max_level(hk: HKStructure, k: int, allow_large: bool = False):
    """For each block l, certify max |p - q| on it equals 2(k - 2l).

    The full annihilator (all even m up to 2(k-2l), including the D_A
    factor for m = 0) kills the block; dropping the top factor must leave
    some block vector alive.  Returns [(l, level)] on success.
    """
    space = hk.space
    sym = build_sym(space, k, allow_large)
    norm = hk.period.norm
    d_a = sym_derivation(sym, rotation_generator(hk))
    dec = decompose(space, k, allow_large)
    out = []
    for l, vecs in dec.blocks:
        level = 2 * (k - 2 * l)
        reduced = vecs
        for m in range(0, level - 1, 2):
            reduced = [_level_factor(d_a, norm, m, v) for v in reduced]
        full = [_level_factor(d_a, norm, level, v) for v in reduced]
        if any(not is_zero_vector(v) for v in full):
            raise LevelMismatch("block l=%d not annihilated at level %d" % (l, level))
        if level > 0 and all(is_zero_vector(v) for v in reduced):
            raise LevelMismatch(
                "block l=%d already killed below level %d" % (l, level)
            )
        out.append((l, level))
    return out


def _level_factor(d_a: Matrix, norm: Fraction, m: int, v) -> tuple[Fraction, ...]:
    """The annihilator factor of |p - q| = m applied to v.

    D_A for m = 0 and D_A^2 + (N m / 2)^2 otherwise: D_A acts on a (p, q)
    component by -i(N/2)(p - q).
    """
    w = d_a.matvec(v)
    if m == 0:
        return w
    c = norm * m / 2
    return vec_add(d_a.matvec(w), vec_scale(c * c, v))
