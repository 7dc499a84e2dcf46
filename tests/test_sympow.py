import random
from fractions import Fraction
from hashlib import sha256
from math import comb

import pytest

from ksw.errors import CapExceeded, DecompositionFailure, LevelMismatch, NotApplicable
from ksw.hodge import HKStructure
from ksw import linalg as linalg_mod
from ksw import sympow as sympow_mod
from ksw.linalg import CERTIFICATE_PRIME, Matrix, _dense, _int_columns, rank_and_kernel, same_span
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_congruence_scramble, random_hk
from ksw.sympow import (
    block_max_level,
    build_sym,
    casimir_block_eigenvalue,
    decompose,
    harmonic,
    harmonic_dim,
    isotropic_span_check,
    level_two_part,
    q_power_lift,
    sym_derivation,
    sym_dim,
)

from oracles import contraction_column_reference, hstack, power_row_full_basis, q_mult_column_reference


def test_sym_dims():
    assert sym_dim(5, 3) == 35
    assert sym_dim(7, 3) == 84
    assert sym_dim(4, 0) == 1
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2, 3, -5]))
    assert build_sym(space, 3).dim == 35
    assert build_sym(space, 0).dim == 1
    assert build_sym(space, 0).contraction.rows == 0


def test_harmonic_dimension_formula():
    space5 = QuadraticSpace(Matrix.diagonal([1, 1, -1, 2, -3]))
    assert len(harmonic(space5, 3)) == 35 - 5 == harmonic_dim(5, 3)
    space3 = QuadraticSpace(Matrix.diagonal([2, -1, 1]))
    assert len(harmonic(space3, 2)) == 6 - 1
    assert len(harmonic(space3, 1)) == 3  # all of Sym^1


def test_harmonic_vectors_are_in_contraction_kernel():
    rng = random.Random(61)
    gram = random_congruence_scramble(rng, Matrix.diagonal([1, 1, -1, -2]))
    space = QuadraticSpace(gram)
    sym = build_sym(space, 3)
    for v in harmonic(space, 3):
        assert all(x == 0 for x in sym.contraction.matvec(v))


def test_contraction_kills_isotropic_powers():
    # q(1,0,1) = 0 for diag(1, 1, -1): the cube of the vector is harmonic
    space = QuadraticSpace(Matrix.diagonal([1, 1, -1]))
    sym = build_sym(space, 3)
    power = _power_vector(sym, (1, 0, 1))
    assert all(x == 0 for x in sym.contraction.matvec(power))
    assert any(power)


def test_contraction_surjective():
    # full row rank of the contraction on the whole h <= 7, k <= 5 grid
    rng = random.Random(62)
    for h in range(2, 8):
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        space = QuadraticSpace(Matrix.diagonal(entries))
        for k in range(2, 6):
            sym = build_sym(space, k)
            assert sym.contraction.rank() == sym_dim(h, k - 2)


def test_commutator_of_contraction_and_q_mult():
    # contraction(Q f) = (2h + 4 deg f) f + Q contraction(f) -- the identity
    # the Casimir eigenvalue formula rests on, checked on random elements
    rng = random.Random(63)
    gram = random_congruence_scramble(rng, Matrix.diagonal([2, -1, 3, 1]))
    space = QuadraticSpace(gram)
    h, k = 4, 3
    sym_k = build_sym(space, k)
    sym_k2 = build_sym(space, k + 2)
    for _ in range(5):
        f = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(sym_k.dim))
        lhs = sym_k2.contraction.matvec(sym_k2.q_mult.matvec(f))
        scale = 2 * h + 4 * k
        rhs = tuple(
            scale * a + b
            for a, b in zip(f, sym_k.q_mult.matvec(sym_k.contraction.matvec(f)))
        )
        assert lhs == rhs


def test_casimir_eigenvalue_on_blocks():
    rng = random.Random(64)
    space = QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal([1, 2, -1, -3])))
    k = 4
    sym = build_sym(space, k)
    casimir = sym.q_mult * sym.contraction
    for l in range(k // 2 + 1):
        expected = casimir_block_eigenvalue(space.h, k, l)
        lift = q_power_lift(space, k - 2 * l, l)
        for u in harmonic(space, k - 2 * l):
            v = lift.matvec(u)
            assert casimir.matvec(v) == tuple(expected * x for x in v)


def test_decompose_k2():
    space = QuadraticSpace(Matrix.diagonal([1, 1, -1, 2]))
    dec = decompose(space, 2)
    assert dec.block_dims == [(0, sym_dim(4, 2) - 1), (1, 1)]
    assert dec.total == sym_dim(4, 2)


def test_decompose_sums_and_certificates():
    rng = random.Random(65)
    cases = {(5, 3): [30, 5], (4, 4): [25, 9, 1]}
    for (h, k), dims in cases.items():
        entries = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(h)]
        space = QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal(entries)))
        dec = decompose(space, k)
        assert [d for _, d in dec.block_dims] == dims
        assert dec.total == sym_dim(h, k)
        assert dec.certificate == "C.Q^l H = c_l Q^(l-1) H, exact"


def _block_vectors(dec):
    """(l, basis vectors of block l) per block: int tuples for l = 0, `Fraction` columns for l >= 1."""
    return [
        (l, [tuple(map(int, lift.column(j))) if l == 0 else lift.column(j) for j in range(lift.cols)])
        for l, lift in enumerate(dec.lifts)
    ]


def test_decompose_blocks_pairwise_independent():
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    dec = decompose(space, 4)
    blocks = _block_vectors(dec)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            vi = [list(v) for v in blocks[i][1]]
            vj = [list(v) for v in blocks[j][1]]
            assert Matrix(vi + vj).rank() == len(vi) + len(vj)


def test_harmonic_invariant_under_equal_norm_permutation():
    # swapping two diagonal basis vectors of equal norm is q-orthogonal and
    # must permute the harmonic space into itself
    space = QuadraticSpace(Matrix.diagonal([2, 2, -1, 2]))
    sym = build_sym(space, 3)
    harm = harmonic(space, 3)
    for a, b in [(0, 1), (1, 3)]:
        perm = list(range(4))
        perm[a], perm[b] = perm[b], perm[a]
        permuted = []
        for v in harm:
            out = [Fraction(0)] * sym.dim
            for pos, mu in enumerate(sym.basis):
                nu = [0] * 4
                for idx, mult in enumerate(mu):
                    nu[perm[idx]] += mult
                out[sym.index[tuple(nu)]] = Fraction(v[pos])
            permuted.append(tuple(out))
        assert same_span(harm, permuted)


@pytest.mark.parametrize(
    "gram, k",
    [
        (Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]), 2),
        (Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]), 3),
        (Matrix.diagonal([1, 1, -1, -1]), 4),
        (Matrix.diagonal([1, 1, -1]), 4),
        (Matrix.diagonal([1, 1, -1]), 5),
        (Matrix.diagonal([2, 3, -1, -1]), 3),
    ],
    ids=["2xy-z2-k2", "2xy-z2-k3", "diag(1,1,-1,-1)-k4", "diag(1,1,-1)-k4", "diag(1,1,-1)-k5", "diag(2,3,-1,-1)-k3"],
)
def test_isotropic_span_hyperbolic_plus_negative(gram, k):
    # the last five stall short of Harm^k on the primitive zeros of the shells alone
    assert isotropic_span_check(QuadraticSpace(gram), k) is True


def test_isotropic_span_definite_not_applicable():
    with pytest.raises(NotApplicable):
        isotropic_span_check(QuadraticSpace(Matrix.identity(3)), 2)


def test_isotropic_span_indefinite_anisotropic_not_applicable():
    # x^2 = 2 y^2 has no rational solutions: indefinite but anisotropic
    with pytest.raises(NotApplicable):
        isotropic_span_check(QuadraticSpace(Matrix.diagonal([1, -2])), 2)


@pytest.mark.parametrize("gram", [Matrix([[0, 1], [1, 0]]), Matrix.diagonal([1, -1])], ids=["2xy", "x2-y2"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_isotropic_span_hyperbolic_plane(gram, k):
    # the complement of v is one point, whose F(w) is the other isotropic
    # line: v^k itself is the second row of the witness
    assert isotropic_span_check(QuadraticSpace(gram), k) is True


def test_isotropic_span_shortfall_raises(monkeypatch):
    # a stack short of Harm^k contradicts the witness identity: a fault, not a False
    monkeypatch.setattr(sympow_mod, "_stack_rank", lambda sym, rows, target: target - 1)
    with pytest.raises(DecompositionFailure, match="failed to span"):
        isotropic_span_check(QuadraticSpace(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])), 2)


def test_isotropic_span_signature_33():
    space = QuadraticSpace(Matrix.diagonal([1, 1, 1, -1, -1, -1]))
    assert isotropic_span_check(space, 3) is True


def test_isotropic_stack_rank_certifies_only_harmonic_stacks(monkeypatch):
    space = QuadraticSpace(Matrix.diagonal([1, 1, -1]))
    sym = build_sym(space, 2)
    zeros = [(1, 0, 1), (0, 1, 1), (1, 0, -1), (0, 1, -1), (3, 4, 5)]
    rows = [sympow_mod._power_row(sym, v) for v in zeros]
    target = harmonic_dim(3, 2)
    exact = Matrix.rank
    assert sympow_mod._stack_rank(sym, rows[:2], target) == 2
    # a row outside ker(contraction), read before the rank mod p reaches the
    # target, lifts the rank past it, which only the exact elimination can see
    assert sympow_mod._stack_rank(sym, [sympow_mod._power_row(sym, (1, 0, 0))] + rows, target) == target + 1

    def refuse(m):
        raise AssertionError("exact rank of a certified stack")

    monkeypatch.setattr(Matrix, "rank", refuse)
    assert sympow_mod._stack_rank(sym, rows, target) == target == exact(Matrix._of(rows, sym.dim))


def test_isotropic_span_builds_only_the_power_rows_it_reads(monkeypatch):
    # at (6,3) the first 50 witness lines already span Harm^3, of dimension
    # 50: the echelon stops there, and the other 77 rows are never built
    built = []
    power_row = sympow_mod._power_row

    def counted(sym, v):
        built.append(v)
        return power_row(sym, v)

    monkeypatch.setattr(sympow_mod, "_power_row", counted)
    assert isotropic_span_check(QuadraticSpace(Matrix.diagonal([1, 1, 1, -1, -1, -1])), 3) is True
    assert len(built) == harmonic_dim(6, 3) == 50


def test_stack_rank_falls_back_to_the_exact_rank():
    sym = build_sym(QuadraticSpace(Matrix.diagonal([1, 1, -1])), 1)
    p = CERTIFICATE_PRIME
    # the prime divides an entry, then a denominator: only the exact rank decides
    assert sympow_mod._stack_rank(sym, [({0: p}, 1), ({1: 1}, 1), ({2: 1}, 1)], 3) == 3
    assert sympow_mod._stack_rank(sym, [({0: 1}, p), ({1: 1}, 1), ({2: 1}, 1)], 3) == 3
    # a repeated row: the modular rank falls short and the exact rank is 2
    assert sympow_mod._stack_rank(sym, [({0: 1}, 1), ({0: 1}, 1), ({2: 1}, 1)], 3) == 2


def test_level_two_part_identity_case():
    rng = random.Random(66)
    hk = random_hk(rng, 4)
    part = level_two_part(hk, 1)
    assert len(part) == 4
    assert same_span(part, [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)])


def test_level_two_part_matches_q_image():
    rng = random.Random(67)
    for h, k in [(5, 3), (4, 5)]:
        hk = random_hk(rng, h)
        part = level_two_part(hk, k)
        assert len(part) == h
        lift = q_power_lift(hk.space, 1, (k - 1) // 2)
        image = [lift.column(j) for j in range(h)]
        assert same_span(part, image)


def _casimir_kernel(hk, k):
    """The exact kernel that level_two_part certifies, by elimination."""
    sym = build_sym(hk.space, k)
    a = casimir_block_eigenvalue(hk.space.h, k, (k - 1) // 2)
    return rank_and_kernel(sym.q_mult * sym.contraction - a * Matrix.identity(sym.dim))[1]


@pytest.mark.parametrize("h, k", [(2, 3), (3, 3), (5, 3), (7, 3), (2, 5), (3, 5), (4, 5), (5, 5)])
def test_level_two_part_certified_without_elimination(h, k, monkeypatch):
    # the harmonic blocks are kernels of contractions; nothing else is
    # eliminated but the h columns of the top block
    hk = random_hk(random.Random(70 + 10 * h + k), h)
    reference = _casimir_kernel(hk, k)
    contractions = {id(build_sym(hk.space, j).contraction) for j in range(k, -1, -2)}
    real_kernel, real_echelon = sympow_mod.kernel_basis, linalg_mod._bareiss_echelon
    inside = []

    def contraction_kernel(m):
        assert id(m) in contractions, "the certified path eliminated on a matrix other than a contraction"
        inside.append(m)
        try:
            return real_kernel(m)
        finally:
            inside.pop()

    def small_echelon(rows, ncols):
        assert inside or len(rows) <= h, "an elimination of %d rows outside the contraction kernels" % len(rows)
        return real_echelon(rows, ncols)

    monkeypatch.setattr(sympow_mod, "kernel_basis", contraction_kernel)
    monkeypatch.setattr(linalg_mod, "_bareiss_echelon", small_echelon)
    assert level_two_part(hk, k) == reference


def test_level_two_part_forms_no_square_of_sym_k(monkeypatch):
    # the Casimir matrix Q.C - a would be dim Sym^5 square: 56 x 56 at h = 4
    hk = random_hk(random.Random(72), 4)
    shapes = []
    real = Matrix.__mul__

    def recorded(self, other):
        product = real(self, other)
        shapes.append((product.rows, product.cols))
        return product

    monkeypatch.setattr(Matrix, "__mul__", recorded)
    monkeypatch.setattr(Matrix, "__rmul__", recorded)
    level_two_part(hk, 5)
    # C.(Q^2 H^1) = c_2 Q H^1 in Sym^3, and the top block Q^2 H^1 itself
    assert (20, 4) in shapes and (56, 4) in shapes
    assert (sym_dim(4, 5), sym_dim(4, 5)) not in shapes


def _columns(vectors, n):
    """The n-row matrix whose columns are the given vectors."""
    return Matrix(zip(*vectors), len(vectors)) if vectors else Matrix.zeros(n, 0)


def _edited(m, columns):
    """The matrix whose columns are columns(the columns of m)."""
    return _columns(columns([m.column(j) for j in range(m.cols)]), m.rows)


def _patched_blocks(monkeypatch, degree, edit):
    """Make `_blocks` return edit(true blocks) in the given degree; the recursion sees the edit too."""
    real = sympow_mod._blocks
    monkeypatch.setattr(sympow_mod, "_blocks", lambda space, k: edit(real(space, k)) if k == degree else real(space, k))


def _patched_top_block(monkeypatch, k, columns):
    """Make the top block of Sym^k, which level_two_part reads, the one with columns(true top columns)."""
    _patched_blocks(monkeypatch, k, lambda lifts: lifts[:-1] + [_edited(lifts[-1], columns)])


def test_level_two_part_rejects_a_degenerate_image(monkeypatch):
    # two equal top-block columns: still in the Casimir kernel, but dependent
    hk = random_hk(random.Random(71), 5)
    _patched_top_block(monkeypatch, 3, lambda cols: [cols[0]] + cols[:-1])
    with pytest.raises(LevelMismatch, match="Q-power image of H\\^2 is degenerate"):
        level_two_part(hk, 3)


def test_level_two_part_rejects_an_image_off_the_kernel(monkeypatch):
    # h independent coordinate vectors of Sym^5 as the top block: not the span
    # of the Casimir kernel, and they carry types with |p-q| > 2
    hk = random_hk(random.Random(71), 4)
    _patched_top_block(monkeypatch, 5, lambda cols: [Matrix.identity(len(cols[0])).column(j) for j in range(len(cols))])
    with pytest.raises(LevelMismatch, match="block l=2 not annihilated at level 2"):
        level_two_part(hk, 5)


def test_level_two_part_rejects_a_wrong_rotation_generator(monkeypatch):
    # 2A in place of A: its derivation doubles every type eigenvalue, so the
    # level <= 2 annihilator no longer kills the Casimir kernel
    hk = random_hk(random.Random(71), 5)
    real = sympow_mod.rotation_generator
    monkeypatch.setattr(sympow_mod, "rotation_generator", lambda hk: 2 * real(hk))
    with pytest.raises(LevelMismatch, match="block l=1 not annihilated at level 2"):
        level_two_part(hk, 3)


def test_level_two_part_rejects_a_zero_rotation_generator(monkeypatch):
    # A = 0: D_A(D_A^2 + N^2) kills the top block, but so does D_A alone, so
    # its level is not exactly 2
    hk = random_hk(random.Random(71), 5)
    monkeypatch.setattr(sympow_mod, "rotation_generator", lambda hk: Matrix.zeros(hk.space.h, hk.space.h))
    with pytest.raises(LevelMismatch, match="block l=1 already killed below level 2"):
        level_two_part(hk, 3)


def test_block_max_level_rejects_a_wrong_annihilator(monkeypatch):
    hk = random_hk(random.Random(69), 4)
    # D_A = I: no factor D_A^2 + c, c >= 0, kills anything
    monkeypatch.setattr(sympow_mod, "sym_derivation", lambda sym, op: Matrix.identity(sym.dim))
    with pytest.raises(LevelMismatch, match="block l=0 not annihilated at level 6"):
        block_max_level(hk, 3)
    # D_A = 0 kills every block before its top factor
    monkeypatch.setattr(sympow_mod, "sym_derivation", lambda sym, op: Matrix.zeros(sym.dim, sym.dim))
    with pytest.raises(LevelMismatch, match="block l=0 already killed below level 6"):
        block_max_level(hk, 3)


_TRUE_HARMONIC_BASIS = sympow_mod._harmonic_basis


def _edited_basis(wrong):
    """A `_harmonic_basis` whose columns are wrong(sym, true columns as int tuples)."""
    return lambda sym: _columns(wrong(sym, _int_columns(_TRUE_HARMONIC_BASIS(sym))), sym.dim)


def test_decompose_rejects_a_wrong_harmonic_basis(monkeypatch):
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    # one harmonic vector of Sym^3 missing; Sym^1 is right
    monkeypatch.setattr(sympow_mod, "_harmonic_basis", _only_in_degree(3, lambda sym, vecs: vecs[1:]))
    with pytest.raises(DecompositionFailure, match="block dimensions total 9 != 10"):
        decompose(space, 3)
    # the first vector twice: the right count, but rank deficient
    monkeypatch.setattr(sympow_mod, "_harmonic_basis", _edited_basis(lambda sym, vecs: vecs[:1] + vecs[:-1]))
    with pytest.raises(DecompositionFailure, match="stacked block basis is rank deficient"):
        decompose(space, 3)


def _lifted(space, k, basis):
    """The blocks of Sym^k from the harmonic bases basis(sym), each lifted by its chain of Q-multiplications."""
    lifts = []
    for kh in range(k, -1, -2):
        lift = basis(build_sym(space, kh))
        for j in range(kh + 2, k + 1, 2):
            lift = build_sym(space, j).q_mult * lift
        lifts.append(lift)
    return lifts


def _failing_conditions(space, k, lifts, lower):
    """The checks (a), (b), (c') of `_blocks` that fail on the Sym^k blocks lifts over the Sym^(k-2) blocks lower.

    Decided column by column in dense `Fraction`s; the stack must be singular.
    """
    assert hstack(*lifts).rank() == sym_dim(space.h, k) - 1
    harm, contraction = lifts[0], build_sym(space, k).contraction
    owns = all(any(r[j] and sum(1 for x in r if x) == 1 for r in harm) for j in range(harm.cols))
    annihilated = all(not any(contraction.matvec(harm.column(j))) for j in range(harm.cols))
    lowered = all(
        contraction.matvec(lift.column(j)) == tuple(casimir_block_eigenvalue(space.h, k, l) * x for x in below.column(j))
        for l, (lift, below) in enumerate(zip(lifts[1:], lower), 1)
        for j in range(lift.cols)
    )
    return [name for name, ok in zip(("a", "b", "c'"), (owns, annihilated, lowered)) if not ok]


def _only_in_degree(degree, wrong):
    """A `_harmonic_basis` that returns the columns wrong(sym, true columns) in the given degree only."""
    edited = _edited_basis(wrong)
    return lambda sym: edited(sym) if sym.k == degree else _TRUE_HARMONIC_BASIS(sym)


def _assert_only_condition_fails(monkeypatch, space, k, basis, condition):
    # the control breaks just the named check, on a singular stack, which
    # decompose must reject
    assert _failing_conditions(space, k, _lifted(space, k, basis), _lifted(space, k - 2, basis)) == [condition]
    monkeypatch.setattr(sympow_mod, "_harmonic_basis", basis)
    with pytest.raises(DecompositionFailure, match="stacked block basis is rank deficient"):
        decompose(space, k)


def test_decompose_rejects_a_harmonic_block_that_owns_no_rows(monkeypatch):
    # (a): the first harmonic vector of Sym^3 twice; the two copies share every row
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    basis = _only_in_degree(3, lambda sym, vecs: vecs[:1] + vecs[:-1])
    _assert_only_condition_fails(monkeypatch, space, 3, basis, "a")


def test_decompose_rejects_a_harmonic_block_off_the_contraction_kernel(monkeypatch):
    # (b): the first harmonic vector of Sym^3 replaced by Q . y_0 (the first
    # lifted column) minus the harmonic vectors that clear the other free rows
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))

    def wrong(sym, vecs):
        owned = [next(i for i, x in enumerate(v) if x and not any(w[i] for w in vecs if w is not v)) for v in vecs]
        lifted = sym.q_mult.column(0)
        first = [
            x - sum(Fraction(lifted[r], v[r]) * v[i] for v, r in zip(vecs[1:], owned[1:]))
            for i, x in enumerate(lifted)
        ]
        return [tuple(first)] + vecs[1:]

    _assert_only_condition_fails(monkeypatch, space, 3, _only_in_degree(3, wrong), "b")


def test_decompose_rejects_a_lower_block_with_a_swapped_column(monkeypatch):
    # (c'): the first column of Harm^2 swapped for Q, the column of the l = 1
    # block of Sym^2, so Q times it is a second copy of Q^2 in Sym^4; the
    # contraction sends that copy to c_2 Q, not c_1 Q
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))

    def swap(lifts):
        harm, raised = lifts
        return [_edited(harm, lambda cols: [raised.column(0)] + cols[1:]), raised]

    lower = swap(_lifted(space, 2, _TRUE_HARMONIC_BASIS))
    lifts = [_TRUE_HARMONIC_BASIS(build_sym(space, 4))] + [build_sym(space, 4).q_mult * b for b in lower]
    assert _failing_conditions(space, 4, lifts, lower) == ["c'"]
    _patched_blocks(monkeypatch, 2, swap)
    with pytest.raises(DecompositionFailure, match="stacked block basis is rank deficient"):
        decompose(space, 4)


def test_decompose_rejects_a_wrong_block_eigenvalue(monkeypatch):
    # (c') with c_1 off by one: the true blocks, which the checked identity no longer describes
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    real = sympow_mod.casimir_block_eigenvalue
    monkeypatch.setattr(sympow_mod, "casimir_block_eigenvalue", lambda h, k, l: real(h, k, l) + (l == 1))
    for k in (2, 3):
        with pytest.raises(DecompositionFailure, match="stacked block basis is rank deficient"):
            decompose(space, k)


def test_sympow_certificates_take_no_rank(monkeypatch):
    # the block and level <= 2 certificates are exact identities: no rank is
    # taken, modular or exact, and the results are those with ranks allowed
    gram = random_congruence_scramble(random.Random(73), Matrix.diagonal([1, -1, 2, 3, -5, 1, -2]))
    inputs = {
        "decompose": (decompose, lambda: QuadraticSpace(gram), 5),
        "level_two_part h=4": (level_two_part, lambda: random_hk(random.Random(74), 4), 5),
        "level_two_part h=7": (level_two_part, lambda: random_hk(random.Random(75), 7), 3),
        "block_max_level": (block_max_level, lambda: random_hk(random.Random(76), 4), 3),
    }
    built = {name: (fn, make(), k) for name, (fn, make, k) in inputs.items()}
    expected = {name: fn(make(), k) for name, (fn, make, k) in inputs.items()}

    def refuse(*args):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(Matrix, "rank", refuse)
    monkeypatch.setattr(sympow_mod, "_echelon_mod_p", refuse)
    for name, (fn, subject, k) in built.items():
        assert fn(subject, k) == expected[name], name


def test_decompose_rejects_negative_k():
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    for k in (-1, -2):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            decompose(space, k)


def test_level_two_part_rejects_even_k():
    rng = random.Random(68)
    hk = random_hk(rng, 4)
    with pytest.raises(ValueError):
        level_two_part(hk, 2)


def test_block_max_level():
    rng = random.Random(69)
    hk = random_hk(rng, 4)
    assert block_max_level(hk, 3) == [(0, 6), (1, 2)]
    hk5 = random_hk(rng, 5)
    assert block_max_level(hk5, 3) == [(0, 6), (1, 2)]


def test_sym_derivation_against_polynomial_oracle():
    # derivation on monomials: D(y^mu) = sum_i mu_i (A y_i) y^(mu - e_i)
    # expanded with a tiny independent polynomial model
    # the second operator has rational entries: one denominator for all terms
    rng = random.Random(70)
    space = QuadraticSpace(Matrix.diagonal([1, -1, 2]))
    sym = build_sym(space, 2)
    integral = Matrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
    rational = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)])
    assert any(x.denominator != 1 for row in rational for x in row)
    for a in (integral, rational):
        _check_derivation_column_by_column(sym, a)


def _check_derivation_column_by_column(sym, a):
    d = sym_derivation(sym, a)

    def poly_mul_var(poly, i):
        out = {}
        for mu, c in poly.items():
            nu = list(mu)
            nu[i] += 1
            out[tuple(nu)] = out.get(tuple(nu), Fraction(0)) + c
        return out

    for pos, mu in enumerate(sym.basis):
        expected: dict = {}
        for i in range(3):
            if not mu[i]:
                continue
            lowered = list(mu)
            lowered[i] -= 1
            for j in range(3):
                if a[j, i]:
                    term = poly_mul_var({tuple(lowered): Fraction(mu[i]) * a[j, i]}, j)
                    for key, c in term.items():
                        expected[key] = expected.get(key, Fraction(0)) + c
        col = d.column(pos)
        for key, c in expected.items():
            assert col[sym.index[key]] == c
        assert sum(1 for x in col if x) == sum(1 for c in expected.values() if c)


def _rational_gram(rng, h):
    """A nondegenerate symmetric rational Gram matrix whose inverse is not integral."""
    while True:
        entries = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(h)] for _ in range(h)]
        gram = Matrix([[entries[min(i, j)][max(i, j)] for j in range(h)] for i in range(h)])
        if gram.rank() == h and any(x.denominator != 1 for row in gram.inverse() for x in row):
            return gram


@pytest.mark.parametrize("h", [1, 3, 5])
def test_contraction_and_q_mult_against_polynomial_oracle(h):
    # every column of C and Q against the operators expanded term by term,
    # on a scrambled integer Gram and on a rational one; Sym^(k-2) is empty
    # for k < 2
    rng = random.Random(290 + h)
    scrambled = random_congruence_scramble(rng, Matrix.diagonal([rng.choice([1, -1, 2, -3]) for _ in range(h)]))
    for gram in (scrambled, _rational_gram(rng, h)):
        space = QuadraticSpace(gram)
        assert gram * space.inverse_gram == Matrix.identity(h)
        for k in range(5):
            sym = build_sym(space, k)
            lower = build_sym(space, k - 2).basis if k >= 2 else ()
            assert (sym.contraction.rows, sym.contraction.cols) == (len(lower), sym.dim)
            assert (sym.q_mult.rows, sym.q_mult.cols) == (sym.dim, len(lower))
            for pos, mu in enumerate(sym.basis):
                col = sym.contraction.column(pos)
                assert {lower[r]: x for r, x in enumerate(col) if x} == contraction_column_reference(gram, mu), (k, mu)
            for pos, nu in enumerate(lower):
                col = sym.q_mult.column(pos)
                assert {sym.basis[r]: x for r, x in enumerate(col) if x} == q_mult_column_reference(
                    space.inverse_gram, nu
                ), (k, nu)


def _power_vector(sym, v):
    """Coordinates of (sum v_i y_i)^k in the monomial basis."""
    return _dense(sympow_mod._power_row(sym, v), sym.dim)


def test_power_vector_multinomial():
    space = QuadraticSpace(Matrix.diagonal([1, 1]))
    sym = build_sym(space, 3)
    v = _power_vector(sym, (1, 2))
    # (y1 + 2 y2)^3 = y1^3 + 6 y1^2 y2 + 12 y1 y2^2 + 8 y2^3
    coeffs = {mu: c for mu, c in zip(sym.basis, v)}
    assert coeffs[(3, 0)] == 1
    assert coeffs[(2, 1)] == 6
    assert coeffs[(1, 2)] == 12
    assert coeffs[(0, 3)] == 8
    # (y1/2 - 2 y2/3)^3 = y1^3/8 - y1^2 y2/2 + 2 y1 y2^2/3 - 8 y2^3/27
    v = _power_vector(sym, (Fraction(1, 2), Fraction(-2, 3)))
    assert dict(zip(sym.basis, v)) == {
        (3, 0): Fraction(1, 8),
        (2, 1): Fraction(-1, 2),
        (1, 2): Fraction(2, 3),
        (0, 3): Fraction(-8, 27),
    }
    assert _power_vector(sym, (Fraction(3, 5), 0)) == (Fraction(27, 125), 0, 0, 0)


def test_power_row_matches_the_full_basis_expansion():
    # the support-only expansion gives the same nonzeros in the same key order
    rng = random.Random(72)
    for h, k in [(1, 3), (3, 0), (3, 2), (4, 3), (5, 5), (7, 3)]:
        sym = build_sym(QuadraticSpace(Matrix.identity(h)), k)
        for _ in range(40):
            v = [rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(-5, 5), rng.randint(1, 6)))) for _ in range(h)]
            nums, den = sympow_mod._power_row(sym, v)
            assert [(pos, Fraction(x, den)) for pos, x in nums.items()] == power_row_full_basis(sym, v)


def test_sym_powers_are_built_once_per_space(monkeypatch):
    gram = Matrix.diagonal([1, -1, 2, 3])
    space, twin = QuadraticSpace(gram), QuadraticSpace(gram)
    assert build_sym(space, 3) is build_sym(space, 3)
    # equal Grams, different spaces: nothing is shared
    assert space == twin and build_sym(twin, 3) is not build_sym(space, 3)
    assert not {id(s) for s in space.sym_powers.values()} & {id(s) for s in twin.sym_powers.values()}
    built = []
    real = sympow_mod.SymTensorSpace
    monkeypatch.setattr(sympow_mod, "SymTensorSpace", lambda space, k, *rest: built.append(k) or real(space, k, *rest))
    hk = random_hk(random.Random(69), 4)
    block_max_level(hk, 5)
    decompose(hk.space, 5)
    level_two_part(hk, 5)
    assert sorted(built) == [1, 3, 5]


def test_caps():
    space8 = QuadraticSpace(Matrix.diagonal([1] * 8))
    with pytest.raises(CapExceeded):
        build_sym(space8, 2)
    with pytest.raises(CapExceeded):
        build_sym(QuadraticSpace(Matrix.diagonal([1, -1])), 6)
    # the caps are inclusive
    assert build_sym(QuadraticSpace(Matrix.diagonal([1] * 7)), 2).dim == comb(8, 2)
    assert build_sym(QuadraticSpace(Matrix.diagonal([1, -1])), 5).dim == comb(6, 5)


# -- pinned canonical bases --------------------------------------------------------
# Congruence-scrambled forms written out, so the pins do not depend on randgen.
_PIN_H5 = [[-1, 2, 1, 0, -1], [2, -42, -40, 15, 34], [1, -40, -37, 15, 33], [0, 15, 15, -5, -10], [-1, 34, 33, -10, -20]]
_PIN_H6 = [
    [2, -2, 4, -2, -2, 0], [-2, -20, 11, 10, -1, -5], [4, 11, -2, -7, -1, 3],
    [-2, 10, -7, -2, 3, 1], [-2, -1, -1, 3, 2, -1], [0, -5, 3, 1, -1, -1],
]
_PIN_PERIOD_FORM = [
    [-5, 0, -10, -5, 0], [0, 1, 4, 2, -2], [-10, 4, -53, -36, 38], [-5, 2, -36, -27, 31], [0, -2, 38, 31, -43],
]
_PIN_ALPHA = ["-144/13", "-57/13", "0", "144/13", "108/13"]
_PIN_BETA = ["60/13", "66/13", "0", "-60/13", "-45/13"]


def _digest(lines):
    return sha256("\n".join(lines).encode()).hexdigest()


def _lines(vectors):
    return [",".join(map(str, v)) for v in vectors]


def test_canonical_bases_are_pinned():
    # a changed kernel basis (pivot order, free-variable convention or
    # normalisation) changes these digests even when every span is right
    harm = harmonic(QuadraticSpace(Matrix(_PIN_H5)), 4)
    assert _digest(_lines(harm)) == "d363e921800aa0d571a56b0416f8d2f77a705afeaffa40671372aa2890759968"
    dec = decompose(QuadraticSpace(Matrix(_PIN_H6)), 3)
    blocks = [line for l, vecs in _block_vectors(dec) for line in ["l=%d" % l] + _lines(vecs)]
    assert _digest(blocks) == "48470e8b7c08bcc03525737f33546ec03b252c88079b27c89bd63839e77ad88b"
    hk = HKStructure.build(QuadraticSpace(Matrix(_PIN_PERIOD_FORM)), _PIN_ALPHA, _PIN_BETA)
    part = level_two_part(hk, 3)
    assert _digest(_lines(part)) == "31686adbcc07b2380474dbd029bcb3aa34f80dccdcbe86136f24e6a54bac1504"
