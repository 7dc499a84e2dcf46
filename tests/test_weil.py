import random
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256
from itertools import combinations

import numpy as np
import pytest

from ksw import kuga_satake as ks_mod
from ksw import linalg as linalg_mod
from ksw import weil as weil_mod
from ksw.clifford import _mul_block
from ksw.errors import (
    NonScalarSquare,
    NotCommutingWithJ,
    NotQuadratic,
    UnexpectedDimension,
)
from ksw.hodge import HKStructure, type_spectrum
from ksw.linalg import Matrix, rank_and_kernel
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_unimodular
from ksw.weil import (
    QuadraticEndo,
    analyze,
    certify_22,
    check_quadratic_endo,
    hodge_class_dimension,
    is_weil,
    weil_class_space,
    weil_multiplicities,
    _eigenvector_wedge,
    _wedge_into,
)

from oracles import (
    certify_22_operator_form,
    derivation_wedge4,
    eigenvector_wedge_reference,
    signed_permutation_conjugate,
    to_float,
    wedge4_derivation_bruteforce,
)


def block_j(dim=8):
    j0 = [[0, -1], [1, 0]]
    return Matrix(
        [
            [j0[i % 2][k % 2] if i // 2 == k // 2 else 0 for k in range(dim)]
            for i in range(dim)
        ]
    )


def block_phi():
    """J on the first two 2x2 blocks, -J on the last two: balanced by design."""
    j0 = [[0, -1], [1, 0]]
    rows = []
    for i in range(8):
        row = []
        for k in range(8):
            if i // 2 == k // 2:
                row.append((1 if i < 4 else -1) * j0[i % 2][k % 2])
            else:
                row.append(0)
        rows.append(row)
    return Matrix(rows)


def test_check_quadratic_endo_examples():
    j = block_j()
    assert check_quadratic_endo(j, j).d == 1
    assert check_quadratic_endo(j, 3 * j).d == 9


def test_check_quadratic_endo_errors():
    j = block_j()
    with pytest.raises(NotQuadratic):
        check_quadratic_endo(j, Matrix.identity(8))  # phi^2 = +I
    with pytest.raises(NonScalarSquare):
        check_quadratic_endo(j, Matrix.diagonal([1, 2, 1, 1, 1, 1, 1, 1]))
    # a genuine square root of -1 that fails to commute with J
    phi = Matrix(
        [
            [0, 0, -1, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, -2],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, Fraction(1, 2), 0, 0],
        ]
    )
    sq = phi * phi
    assert sq == -1 * Matrix.identity(8)
    with pytest.raises(NotCommutingWithJ):
        check_quadratic_endo(block_j(), phi)


def test_ks_derived_endomorphism():
    # right multiplication by e4 e5 on C+ squares to -(d4 d5) = -1 and
    # commutes with J = left multiplication by e
    hk = HKStructure.build(
        QuadraticSpace(Matrix.diagonal([1, 1, 1, -1, -1, -1])),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
    )
    ks = ks_mod.build(hk)
    phi = _mul_block(ks.algebra.blade(0b011000), "right", "even")
    endo = check_quadratic_endo(ks.j_even, phi)
    assert endo.d == 1
    assert endo.dim == 32


def test_weil_multiplicities_phi_equals_j():
    j = block_j()
    a, b = weil_multiplicities(check_quadratic_endo(j, j))
    assert (a, b) == (4, 0)


def test_weil_multiplicities_block_instance():
    j = block_j()
    phi = block_phi()
    endo = check_quadratic_endo(j, phi)
    assert weil_multiplicities(endo) == (2, 2)
    assert is_weil(endo)
    # float eigendecomposition oracle at 1e-9: phi J has eigenvalues -1, +1
    fj = to_float(phi * j)
    eig = np.linalg.eigvals(fj)
    assert int(np.sum(np.abs(eig + 1.0) < 1e-9)) == 4  # 2a
    assert int(np.sum(np.abs(eig - 1.0) < 1e-9)) == 4  # 2b


def test_weil_multiplicities_nonsquare_d():
    # multiplication by sqrt(-2) and i on the field Q(sqrt(-2), i),
    # basis (1, s, i, si): phi^2 = -2, J^2 = -1, commuting
    phi = Matrix([[0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]])
    j = Matrix([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    endo = check_quadratic_endo(j, phi)
    assert endo.d == 2
    assert weil_multiplicities(endo) == (1, 1)
    assert is_weil(endo)
    assert (phi * j).trace() == 0


def test_trace_criterion_matches_kernel_computation():
    rng = random.Random(51)
    j = block_j()
    for cand, balanced in ((block_phi(), True), (block_j(), False)):
        for _ in range(3):
            g = random_unimodular(rng, 8)
            ginv = g.inverse()
            endo = check_quadratic_endo(ginv * j * g, ginv * cand * g)
            assert is_weil(endo) == balanced
            assert ((endo.phi * endo.j).trace() == 0) == balanced


def test_weil_class_space_block_instance():
    j = block_j()
    endo = check_quadratic_endo(j, block_phi())
    classes = weil_class_space(endo)
    assert len(classes) == 2
    assert certify_22(classes, j)


def test_weil_class_space_exists_without_balance():
    j = block_j()
    endo = check_quadratic_endo(j, j)
    classes = weil_class_space(endo)
    assert len(classes) == 2
    # the K-line survives, but its classes meet (4,0)+(0,4)
    assert not certify_22(classes, j)


def test_certify_22_refuses_vectors_of_the_wrong_length():
    j = block_j()
    classes = weil_class_space(check_quadratic_endo(j, block_phi()))
    for bad in ([classes[0] + (0,)], [classes[0][:-1]]):
        with pytest.raises(ValueError):
            certify_22(bad, j)


def test_weil_class_space_conjugation_invariance():
    rng = random.Random(52)
    j = block_j()
    phi = block_phi()
    for _ in range(3):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        endo = check_quadratic_endo(ginv * j * g, ginv * phi * g)
        assert len(weil_class_space(endo)) == 2


def _basis_digest(vectors):
    return sha256("\n".join(",".join(map(str, v)) for v in vectors).encode()).hexdigest()


def test_weil_class_space_bases_are_pinned():
    # a changed kernel basis (pivot order, free-variable convention or
    # normalisation) changes these digests even when the span is right
    j, phi = block_j(), block_phi()
    block = weil_class_space(check_quadratic_endo(j, phi))
    assert _basis_digest(block) == "e405f460ff448700edccf3cdac4c81c5b088669e13455e97e1e9883b460935b7"
    g = random_unimodular(random.Random(55), 8)
    ginv = g.inverse()
    conjugate = weil_class_space(check_quadratic_endo(ginv * j * g, ginv * phi * g))
    assert _basis_digest(conjugate) == "446a1fa1f19de5d77a462a78139a60ee6d0047de16d89e56dccae034cdd2b9a9"


@lru_cache(maxsize=None)
def _exact_class_space(endo):
    d_phi = derivation_wedge4(endo.phi)
    mat = d_phi * d_phi + (16 * endo.d) * Matrix.identity(d_phi.rows)
    return rank_and_kernel(mat)[1]


def _refuse(*args):
    raise AssertionError("a rank bound or an elimination ran")


def _no_elimination(patch):
    """Make every rank, kernel, 70x70 by 70x70 product and large echelon raise inside the context.

    The one echelon left is the 8x16 one of the eigenvector choice; none
    runs over the 70 wedge coordinates, not even on the two class vectors.
    """
    for name in ("rank_and_kernel", "kernel_basis"):
        patch.setattr(weil_mod, name, _refuse, raising=False)
        patch.setattr(linalg_mod, name, _refuse)
    patch.setattr(Matrix, "rank", _refuse)
    echelon = linalg_mod._bareiss_echelon

    def small_echelon(rows, ncols):
        if len(rows) > 8 or ncols > 16:
            raise AssertionError("an echelon of %d rows and %d columns ran" % (len(rows), ncols))
        return echelon(rows, ncols)

    patch.setattr(linalg_mod, "_bareiss_echelon", small_echelon)
    patch.setattr(weil_mod, "_bareiss_echelon", small_echelon)
    product = Matrix.__mul__

    def no_square_of_size_70(a, b):
        if isinstance(b, Matrix) and a.cols == b.rows == b.cols == 70:
            raise AssertionError("a 70x70 by 70x70 product was formed")
        return product(a, b)

    patch.setattr(Matrix, "__mul__", no_square_of_size_70)


def _hypothesis_endos():
    """phi = J/2, 3J, a doubled d = 2 block, and five conjugates each of phi and J."""
    j, phi = block_j(), block_phi()
    phi4 = [[0, -2, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]]
    j4 = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    doubled = [Matrix([[b[i % 4][k % 4] if i // 4 == k // 4 else 0 for k in range(8)] for i in range(8)]) for b in (j4, phi4)]
    endos = [check_quadratic_endo(j, phi * Fraction(1, 2)), check_quadratic_endo(j, 3 * phi)]
    endos.append(check_quadratic_endo(*doubled))
    rng = random.Random(56)
    for _ in range(5):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        endos += [check_quadratic_endo(ginv * j * g, ginv * cand * g) for cand in (phi, j)]
    return endos


def test_constructed_class_space_is_the_exact_kernel_basis():
    # every case gives the primitive reduced-echelon basis of the exact kernel
    endos = _hypothesis_endos()
    assert [e.d for e in endos[:3]] == [Fraction(1, 4), 9, 2]
    for endo in endos:
        assert weil_class_space(endo) == _exact_class_space(endo)


def test_class_space_is_certified_from_the_hypothesis_alone(monkeypatch):
    # phi^2 = -d with d > 0 makes the kernel 2-dimensional (Weil), so the
    # basis needs no rank bound, no elimination and no 70x70 square
    # D_phi^2; every case is decided by the construction and its
    # certificate, and it is still the exact kernel's basis
    for endo in _hypothesis_endos():
        with monkeypatch.context() as patch:
            _no_elimination(patch)
            certified = weil_class_space(endo)
        assert certified == _exact_class_space(endo)


def test_eigenvector_choice_is_the_greedy_reference(monkeypatch):
    # the pivots of the [e_c | P e_c] echelon come in pairs (2u, 2u + 1),
    # one per greedily taken u, and the wedge of the taken u's is the
    # Leibniz expansion of its minors
    j, phi = block_j(), block_phi()
    endos = _hypothesis_endos()
    rng = random.Random(58)
    for _ in range(6):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        endos += [check_quadratic_endo(ginv * j * g, ginv * cand * g) for cand in (phi, j, 3 * phi)]
    # the sparse phi of the pinned `weil analyze` conjugates, whose wedge factors have one or two entries
    rng = random.Random(3303)
    for _ in range(4):
        endos.append(check_quadratic_endo(*map(Matrix, signed_permutation_conjugate(rng, list(j), list(phi)))))
    echelon = weil_mod._bareiss_echelon
    pivots = []

    def recorded(rows, ncols):
        pivots[:] = echelon(rows, ncols)
        return pivots

    monkeypatch.setattr(weil_mod, "_bareiss_echelon", recorded)
    choices = set()
    for endo in endos:
        us, xs, ys = eigenvector_wedge_reference(endo)
        assert len(us) == 4
        choices.add(tuple(us))
        assert _eigenvector_wedge(endo) == tuple({mask: x for mask, x in zip(weil_mod._wedge4_masks(8), v) if x} for v in (xs, ys))
        assert pivots == [q for u in us for q in (2 * u, 2 * u + 1)]
    # the block fixtures take every other basis vector, the conjugates the first four
    assert {(0, 2, 4, 6), (0, 1, 2, 3)} <= choices


def test_wedge_into_adds_the_exterior_product_of_basis_vectors():
    # e_S^e_r is e_(S+r) signed by the inversions of the factor order, and
    # 0 for r in S; the eigenvector wedge reads only grade 4, which a term
    # kept for r in S never reaches, so that case is checked here
    for mask in range(1 << 6):
        factors = [i for i in range(6) if mask >> i & 1]
        for r in range(6):
            out = {mask | 1 << r: 5}
            _wedge_into(out, {mask: 2}, {r: 3})
            sign = -1 if sum(a > b for a, b in combinations(factors + [r], 2)) % 2 else 1
            assert out == {mask | 1 << r: 5 if r in factors else 5 + 6 * sign}, (mask, r)


def _assert_refused_before_any_elimination(monkeypatch, phi, d):
    # QuadraticEndo built without check_quadratic_endo: the entry check
    # raises NotQuadratic before the construction runs
    with monkeypatch.context() as inner:
        _no_elimination(inner)
        inner.setattr(weil_mod, "_eigenvector_wedge", _refuse)
        with pytest.raises(NotQuadratic, match="d = %d$" % d):
            weil_class_space(QuadraticEndo(phi=phi, j=block_j(), d=Fraction(d)))


def test_class_space_refuses_d_not_positive_before_any_elimination(monkeypatch):
    # in the d = 0 and d = -1 cases phi^2 = -d.I holds and only d > 0 fails
    swaps = Matrix([[int(i // 2 == k // 2 and i != k) for k in range(8)] for i in range(8)])
    assert swaps * swaps == Matrix.identity(8)
    cases = [
        (block_phi(), -4),
        (block_phi(), 0),
        (Matrix.zeros(8, 8), 0),
        (Matrix.diagonal([1] * 5 + [-1] * 3), -1),
        (swaps, -1),
    ]
    for phi, d in cases:
        _assert_refused_before_any_elimination(monkeypatch, phi, d)


def test_class_space_refuses_phi_squared_not_minus_d_before_any_elimination(monkeypatch):
    for phi, d in ((Matrix.zeros(8, 8), 1), (block_phi(), 4)):
        _assert_refused_before_any_elimination(monkeypatch, phi, d)


def test_a_wrong_eigenvector_wedge_raises(monkeypatch):
    # two independent standard basis vectors of the fourth exterior power
    # are no class space, and X = Y spans a line: each raises at its step
    e0, e1 = ({mask: 1} for mask in weil_mod._wedge4_masks(8)[:2])
    j, phi = block_j(), block_phi()
    g = random_unimodular(random.Random(57), 8)
    ginv = g.inverse()
    for endo in (check_quadratic_endo(j, phi), check_quadratic_endo(ginv * j * g, ginv * phi * g)):
        for pair, step in (((e0, e1), "outside the kernel"), ((e1, e1), "A and B are dependent")):
            with monkeypatch.context() as patch:
                _no_elimination(patch)
                patch.setattr(weil_mod, "_eigenvector_wedge", lambda endo: pair)
                with pytest.raises(UnexpectedDimension, match=step):
                    weil_class_space(endo)


def test_each_relation_is_checked_on_its_own(monkeypatch):
    # from v outside the kernel, (4n.den.v, -D_P v) satisfies D_P X =
    # -4n.den.Y alone and (m.D_P v, 4den.v) satisfies m.D_P Y = 4den.X
    # alone: each pair is independent and raises at the relation step
    def scale(c, vec):
        return {mask: c * x for mask, x in vec.items()}

    v = {weil_mod._wedge4_masks(8)[1]: 1}
    j, phi = block_j(), block_phi()
    g = random_unimodular(random.Random(62), 8)
    ginv = g.inverse()
    for endo in (check_quadratic_endo(j, phi * Fraction(3, 2)), check_quadratic_endo(ginv * j * g, ginv * phi * g)):
        cols, den = endo.phi.cleared_columns()
        n, m = endo.d.numerator, endo.d.denominator
        dv = weil_mod._apply_wedge4(cols, v)
        first = (scale(4 * n * den, v), scale(-1, dv))
        second = (scale(m, dv), scale(4 * den, v))
        assert weil_mod._apply_wedge4(cols, first[0]) == scale(-4 * n * den, first[1])
        assert scale(m, weil_mod._apply_wedge4(cols, second[1])) == scale(4 * den, second[0])
        for pair in (first, second):
            with monkeypatch.context() as patch:
                patch.setattr(weil_mod, "_eigenvector_wedge", lambda endo: pair)
                with pytest.raises(UnexpectedDimension, match="outside the kernel"):
                    weil_class_space(endo)


def test_weil_class_space_dimension_precondition():
    j = Matrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        weil_class_space(QuadraticEndo(phi=j, j=j, d=Fraction(1)))


def test_certify22_iff_balanced_is_the_weil_implication():
    j = block_j()
    balanced = check_quadratic_endo(j, block_phi())
    unbalanced = check_quadratic_endo(j, j)
    assert certify_22(weil_class_space(balanced), j) == is_weil(balanced) == True
    assert certify_22(weil_class_space(unbalanced), j) == is_weil(unbalanced) == False


def test_hodge_class_dimension_small_and_block():
    tiny_j = Matrix([[0, -1], [1, 0]])
    assert hodge_class_dimension(2, tiny_j) == 0

    j = block_j()
    dim22 = hodge_class_dimension(8, j)
    assert dim22 >= 2
    # complex eigenbasis oracle: J has +-i eigenspaces V+ and V- of
    # dimension 4 each, and the (2,2) part of the 4th exterior power is
    # wedge2(V+) (x) wedge2(V-), so the kernel of a *rational* matrix has
    # the same dimension over Q as over C: C(4,2)^2 = 36
    eig = np.linalg.eigvals(to_float(j))
    plus = int(np.sum(np.abs(eig - 1j) < 1e-9))
    minus = int(np.sum(np.abs(eig + 1j) < 1e-9))
    assert (plus, minus) == (4, 4)
    from math import comb

    assert dim22 == comb(plus, 2) * comb(minus, 2) == 36
    # cross-check against the full type spectrum of the derivation (two
    # independent exact computations)
    d_j = derivation_wedge4(j)
    spec = type_spectrum(d_j, Fraction(2), 4)
    assert spec.dim(2, 2) == dim22
    # float oracle: rank of D_J at tolerance 1e-9
    arr = to_float(d_j)
    s = np.linalg.svd(arr, compute_uv=False)
    float_nullity = int(np.sum(s < 1e-9 * max(s)))
    assert float_nullity == dim22


def test_hodge_class_dimension_needs_j_of_size_dim():
    for dim, j in ((5, block_j()), (3, block_j()), (12, block_j(2))):
        with pytest.raises(ValueError, match="expected %dx%d" % (dim, dim)):
            hodge_class_dimension(dim, j)


def test_hodge_class_dimension_needs_j_squared_minus_identity():
    # the right shape is not enough: J.J must be -I exactly, and no J on an
    # odd-dimensional space squares to -I
    for j in (Matrix.identity(8), 2 * block_j(), block_j() + Matrix.identity(8), Matrix.zeros(6, 6)):
        with pytest.raises(ValueError, match="J\\^2 != -identity"):
            hodge_class_dimension(j.rows, j)
    with pytest.raises(ValueError, match="even dimension"):
        hodge_class_dimension(5, Matrix.zeros(5, 5))


def test_hodge_class_dimension_is_the_nullity_of_d_j():
    # C(m, 2)^2 against the rank of the whole 70x70 (or smaller) D_J of the
    # reference, on unimodular conjugates of the block J at 2m = 4, 6, 8
    rng = random.Random(61)
    for dim in (4, 6, 8):
        g = random_unimodular(rng, dim)
        j = g.inverse() * block_j(dim) * g
        d_j = derivation_wedge4(j)
        assert hodge_class_dimension(dim, j) == d_j.cols - d_j.rank() == (1, 9, 36)[dim // 2 - 2]


def test_hodge_class_dimension_conjugation_invariant():
    rng = random.Random(53)
    j = block_j()
    base = hodge_class_dimension(8, j)
    for _ in range(3):
        g = random_unimodular(rng, 8)
        assert hodge_class_dimension(8, g.inverse() * j * g) == base


def test_derivation_wedge4_against_bruteforce():
    rng = random.Random(54)
    m = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)])
    assert derivation_wedge4(m) == Matrix(wedge4_derivation_bruteforce(m))
    q = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(5)] for _ in range(5)])
    assert any(x.denominator != 1 for row in q for x in row)
    assert derivation_wedge4(q) == Matrix(wedge4_derivation_bruteforce(q))
    # in dimension 8 (70 basis 4-vectors): the operators `analyze` meets,
    # and a sparse rational one with diagonal entries and an all-zero column
    j, phi = block_j(), block_phi()
    g = random_unimodular(rng, 8)
    sparse = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.3 else 0 for _ in range(8)] for _ in range(8)]
    for i in range(8):
        sparse[i][i] = Fraction(i - 3, 2)
        sparse[i][5] = 0
    for op in (j, phi, g.inverse() * phi * g, Matrix(sparse)):
        assert derivation_wedge4(op) == Matrix(wedge4_derivation_bruteforce(op))


def _sparse_int_vector(rng, n):
    return tuple(rng.randint(-5, 5) if rng.random() < 0.3 else 0 for _ in range(n))


def test_apply_wedge4_is_the_derivation_times_the_vector():
    # den.D_op applied move by move to a sparse int vector is den times
    # the raw 4-tensor derivation of op times X, with no zero entry kept
    rng = random.Random(59)
    j, phi = block_j(), block_phi()
    g = random_unimodular(rng, 8)
    ginv = g.inverse()
    ops = [j, phi, ginv * phi * g]
    for dim in range(4, 9):
        for dens in ((1,), (1, 2, 3, 6)):
            entries = [[Fraction(rng.randint(-3, 3), rng.choice(dens)) if rng.random() < 0.6 else 0 for _ in range(dim)] for _ in range(dim)]
            ops.append(Matrix(entries))
    assert any(op.cleared()[1] > 1 for op in ops)
    for op in ops:
        masks = weil_mod._wedge4_masks(op.rows)
        vectors = [_sparse_int_vector(rng, len(masks)) for _ in range(3)] + [(0,) * len(masks)]
        if op.rows == 8:
            vectors += weil_class_space(check_quadratic_endo(ginv * j * g, ginv * phi * g))
        expected = Matrix(wedge4_derivation_bruteforce(op)) * Matrix(vectors, len(masks)).transpose()
        cols, den = op.cleared_columns()
        for t, v in enumerate(vectors):
            out = weil_mod._apply_wedge4(cols, {mask: x for mask, x in zip(masks, v) if x})
            assert all(out.values())
            assert [Fraction(out.get(mask, 0), den) for mask in masks] == [expected[i, t] for i in range(len(masks))]


def test_certify_22_is_the_operator_form_off_dimension_8():
    # J of dimension 4..7 (odd ones with a zero row) and rational operators:
    # kernel vectors of D_J, their sums with a vector outside, and random vectors
    rng = random.Random(60)
    answers = set()
    for dim in range(4, 8):
        rational = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)])
        for j in (block_j(dim), rational):
            n = len(weil_mod._wedge4_masks(dim))
            kernel = rank_and_kernel(derivation_wedge4(j))[1]
            outside = [_sparse_int_vector(rng, n) for _ in range(2)]
            mixed = [tuple(x + y for x, y in zip(kernel[0], outside[0]))] if kernel else []
            for classes in ([], kernel, kernel[:2], outside, kernel[:1] + outside[:1], mixed):
                answer = certify_22(classes, j)
                assert answer == certify_22_operator_form(classes, j)
                answers.add(answer)
            for bad in ([(0,) * (n + 1)], kernel[:1] + [(1,) * (n - 1)]):
                for form in (certify_22, certify_22_operator_form):
                    with pytest.raises(ValueError, match="must have length %d$" % n):
                        form(bad, j)
    assert answers == {True, False}


def test_analyze_builds_no_70x70_operator(monkeypatch):
    # the class checks apply D_phi and D_J to the class vectors, whose basis
    # is read straight off the eigenvector wedge, and the (2,2) dimension is
    # C(m, 2)^2: no 70x70 derivation is built on the way to either
    assert not hasattr(weil_mod, "induced_operator") and not hasattr(weil_mod, "reduced_echelon_basis")
    induced = linalg_mod.induced_operator

    def refuse_70x70(keys, index, moves, den):
        if len(keys) == len(index) == 70:
            raise AssertionError("a 70x70 induced operator was built")
        return induced(keys, index, moves, den)

    monkeypatch.setattr(linalg_mod, "induced_operator", refuse_70x70)
    j, phi = block_j(), block_phi()
    assert hodge_class_dimension(8, j) == hodge_class_dimension(8, phi) == 36
    for cand, fields in ((phi, (2, 2, True, 2, True)), (j, (4, 0, False, 2, False))):
        report = analyze(j, cand)
        assert (report.mult_plus, report.mult_minus, report.is_weil, report.weil_space_dim, report.all_weil_classes_22) == fields


def test_ks_invariant_subspace_is_weil():
    # blade-orbit subspace of C+ for h = 6: masks closed under left e1e2
    # and right e4e5 multiplication; J and phi restrict, and the restricted
    # pair is a balanced dim-8 instance
    hk = HKStructure.build(
        QuadraticSpace(Matrix.diagonal([1, 1, 1, -1, -1, -1])),
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
    )
    ks = ks_mod.build(hk)
    masks = [0b000000, 0b000011, 0b011000, 0b011011,
             0b000101, 0b000110, 0b011101, 0b011110]
    index = {m: i for i, m in enumerate(masks)}
    e = ks.e
    c45 = ks.algebra.blade(0b011000)

    def restricted(action):
        cols = []
        for m in masks:
            product = action(ks.algebra.blade(m))
            col = [Fraction(0)] * 8
            for mask, coef in product.terms.items():
                col[index[mask]] = coef  # KeyError would mean not invariant
            cols.append(col)
        return Matrix(cols).transpose()

    j_r = restricted(lambda x: e * x)
    phi_r = restricted(lambda x: x * c45)
    endo = check_quadratic_endo(j_r, phi_r)
    assert endo.d == 1
    a, b = weil_multiplicities(endo)
    assert (a, b) == (2, 2)
    assert is_weil(endo)
    classes = weil_class_space(endo)
    assert len(classes) == 2
    assert certify_22(classes, j_r)
    # float oracle agreement at 1e-9
    eig = np.linalg.eigvals(to_float(phi_r * j_r))
    assert int(np.sum(np.abs(eig + 1.0) < 1e-9)) == 2 * a
    assert int(np.sum(np.abs(eig - 1.0) < 1e-9)) == 2 * b


def test_analyze_report_shape():
    report = analyze(block_j(), block_phi())
    assert report.mult_plus == report.mult_minus == 2
    assert report.is_weil and report.weil_space_dim == 2
    assert report.all_weil_classes_22 is True
