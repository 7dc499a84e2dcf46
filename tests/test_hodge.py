import random
from fractions import Fraction

import pytest

from ksw.errors import (
    DependentVectors,
    InconsistentWeight,
    NotOrthogonal,
    NotPositive,
    UnequalNorm,
)
from ksw.hodge import (
    HodgeTypeSpectrum,
    Weight1Structure,
    h2_spectrum,
    hodge_level,
    rotation_generator,
    type_spectrum,
    validate_period,
)
from ksw.linalg import Matrix, rank_and_kernel
from ksw.qspace import QuadraticSpace
from ksw.randgen import PYTHAGOREAN_PAIRS, random_hk
from ksw import sympow

from oracles import eigenvalue_counts, hstack


def test_validate_period_basic():
    space = QuadraticSpace(Matrix.diagonal([1, 1, -1, -1, -1]))
    plane = validate_period(space, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
    assert plane.norm == 1


def test_validate_period_not_orthogonal():
    space = QuadraticSpace(Matrix.diagonal([1, 1, -1, -1, -1]))
    with pytest.raises(NotOrthogonal):
        validate_period(space, (1, 0, 0, 0, 0), (1, 1, 0, 0, 0))


def test_validate_period_equal_norm_evaluation():
    space = QuadraticSpace(Matrix.diagonal([2, 8, -1]))
    plane = validate_period(space, (2, 0, 0), (0, 1, 0))
    assert plane.norm == 8


def test_validate_period_other_errors():
    space = QuadraticSpace(Matrix.diagonal([1, 2, -1]))
    with pytest.raises(UnequalNorm):
        validate_period(space, (1, 0, 0), (0, 1, 0))
    with pytest.raises(DependentVectors):
        validate_period(space, (1, 0, 0), (2, 0, 0))
    neg = QuadraticSpace(Matrix.diagonal([-1, -1, 1]))
    with pytest.raises(NotPositive):
        validate_period(neg, (1, 0, 0), (0, 1, 0))


def test_rotation_generator_plane_action():
    rng = random.Random(31)
    for h in (3, 4, 5):
        hk = random_hk(rng, h)
        a = rotation_generator(hk)
        n = hk.period.norm
        alpha, beta = hk.period.alpha, hk.period.beta
        assert a.matvec(alpha) == tuple(n * x for x in beta)
        assert a.matvec(beta) == tuple(-n * x for x in alpha)
        # q-skew
        g = hk.space.gram
        assert (a.transpose() * g + g * a).is_zero()
        # vanishes on the orthogonal complement of the plane
        ga = g.matvec(alpha)
        gb = g.matvec(beta)
        _, perp = rank_and_kernel(Matrix([ga, gb]))
        for w in perp:
            assert all(x == 0 for x in a.matvec(w))


def test_rotation_generator_float_eigenvalues():
    rng = random.Random(32)
    hk = random_hk(rng, 5)
    a = rotation_generator(hk)
    n = float(hk.period.norm)
    counts = eigenvalue_counts(a, [1j * n, -1j * n, 0.0], tol=1e-9 * max(n, 1.0))
    assert counts == [1, 1, 3]


def test_type_spectrum_h2():
    rng = random.Random(33)
    for h in (3, 5, 8):
        hk = random_hk(rng, h)
        spec = h2_spectrum(hk)
        assert spec.dims == {(2, 0): 1, (0, 2): 1, (1, 1): h - 2}
        assert hodge_level(spec) == 2


def test_type_spectrum_sym2_matches_float_oracle():
    rng = random.Random(34)
    hk = random_hk(rng, 3)
    sym = sympow.build_sym(hk.space, 2)
    d_a = sympow.sym_derivation(sym, rotation_generator(hk))
    n = hk.period.norm
    spec = type_spectrum(d_a, n, 4)
    # float clustering of the derivation eigenvalues at 1e-9
    nf = float(n)
    counts = eigenvalue_counts(d_a, [2j * nf, 1j * nf, 0.0, -1j * nf, -2j * nf], tol=1e-7)
    assert counts[0] == spec.dim(4, 0)
    assert counts[2] == spec.dim(2, 2)
    assert counts[4] == spec.dim(0, 4)
    assert spec.total() == sym.dim
    # weight-4 symmetric spectrum on Sym^2 of an h=3 space: types (4,0)..(0,4)
    assert spec.dim(4, 0) == spec.dim(0, 4) == 1


def test_type_spectrum_at_odd_weight():
    # the |p-q| classes of an odd weight are odd and stop at 1: no class 0, none below
    assert type_spectrum(Matrix([[0, -1], [1, 0]]), Fraction(2), 1).dims == {(1, 0): 1, (0, 1): 1}
    blocks = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 3, 0]])
    assert type_spectrum(blocks, Fraction(2), 3).dims == {(3, 0): 1, (0, 3): 1, (2, 1): 1, (1, 2): 1}


def test_type_spectrum_inconsistent_weight():
    # a nilpotent operator is not a valid derivation extension: the kernel
    # ranks cannot partition the space
    bogus = Matrix([[0, 1], [0, 0]])
    with pytest.raises(InconsistentWeight):
        type_spectrum(bogus, Fraction(1), 2)


def test_hodge_level_examples():
    assert hodge_level(HodgeTypeSpectrum(1, {(1, 0): 4, (0, 1): 4})) == 1
    assert hodge_level(HodgeTypeSpectrum(2, {(1, 1): 5})) == 0
    assert hodge_level(HodgeTypeSpectrum(4, {})) == 0


def _restriction_matrix(block_columns, big_op):
    """Exact matrix of big_op restricted to the span of block_columns."""
    basis = Matrix(block_columns).transpose()
    cols = []
    for v in block_columns:
        target = big_op.matvec(v)
        aug = hstack(basis, Matrix([target]).transpose())
        _, kernel = rank_and_kernel(aug)
        assert len(kernel) == 1
        coeffs = kernel[0]
        scale = -Fraction(1, coeffs[-1])
        cols.append([scale * c for c in coeffs[:-1]])
    return Matrix(cols).transpose()


def test_q_times_h2_block_has_level_two():
    # spectrum of Q.H^2 inside Sym^3: restrict the derivation to the block
    rng = random.Random(35)
    hk = random_hk(rng, 5)
    sym3 = sympow.build_sym(hk.space, 3)
    d_a = sympow.sym_derivation(sym3, rotation_generator(hk))
    lift = sympow.q_power_lift(hk.space, 1, 1)
    block = [lift.column(j) for j in range(5)]
    restricted = _restriction_matrix(block, d_a)
    spec = type_spectrum(restricted, hk.period.norm, 6)
    assert hodge_level(spec) == 2
    assert spec.dims == {(4, 2): 1, (2, 4): 1, (3, 3): 3}


def test_pythagorean_pairs_lie_on_the_unit_circle():
    # the period rotations of randgen keep both norms only if a^2 + b^2 = 1
    assert len(PYTHAGOREAN_PAIRS) == 5
    assert all(a * a + b * b == 1 for a, b in PYTHAGOREAN_PAIRS)


def test_weight1_structure_validation():
    j = Matrix([[0, -1], [1, 0]])
    w = Weight1Structure(2, j)
    assert w.dim // 2 == 1
    with pytest.raises(ValueError):
        Weight1Structure(2, Matrix.identity(2))
    with pytest.raises(ValueError):
        Weight1Structure(3, Matrix.identity(3))


def test_sigma_isotropy_exact():
    rng = random.Random(36)
    for h in (3, 6):
        hk = random_hk(rng, h)
        diff, cross, half = hk.sigma_isotropy()
        assert diff == 0 and cross == 0
        assert half == hk.period.norm > 0


def test_spectrum_symmetry_asserted_not_assumed():
    rng = random.Random(37)
    hk = random_hk(rng, 4)
    spec = h2_spectrum(hk)
    for (p, q), dim in spec.dims.items():
        assert spec.dims[(q, p)] == dim
