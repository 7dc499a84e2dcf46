import random
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest

from ksw import kuga_satake as ks_mod
from ksw.clifford import _mul_block
from ksw.errors import (
    NonScalarSquare,
    NotCommutingWithJ,
    NotQuadratic,
)
from ksw.hodge import HKStructure, type_spectrum
from ksw.linalg import Matrix
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_unimodular
from ksw.weil import (
    QuadraticEndo,
    analyze,
    certify_22,
    check_quadratic_endo,
    derivation_wedge4,
    hodge_class_dimension,
    is_weil,
    weil_class_space,
    weil_multiplicities,
)

from oracles import to_float, wedge4_derivation_bruteforce


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
        return Matrix.from_columns(cols)

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
