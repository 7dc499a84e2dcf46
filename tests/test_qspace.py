import random
from fractions import Fraction

import numpy as np
import pytest

from ksw.errors import Degenerate, NotSymmetric
from ksw.linalg import Matrix
from ksw.qspace import (
    QuadraticSpace,
    diagonalize,
    inverse_form,
    rational_sqrt,
    same_square_class,
    signature,
    square_class_representative,
)
from ksw.randgen import random_congruence_scramble, random_unimodular

from oracles import diagonalize_reference, to_float


def test_diagonalize_identity():
    t, d = diagonalize(Matrix.identity(4))
    assert t == Matrix.identity(4)
    assert d == (1, 1, 1, 1)


def test_diagonalize_hyperbolic_plane():
    g = Matrix([[0, 1], [1, 0]])
    t, d = diagonalize(g)
    assert t.transpose() * g * t == Matrix.diagonal(d)
    assert all(x != 0 for x in d)
    assert sorted(x > 0 for x in d) == [False, True]


def test_diagonalize_already_diagonal():
    g = Matrix.diagonal([1, 1, 1, -1, -1, -1])
    t, d = diagonalize(g)
    assert t == Matrix.identity(6)
    assert d == (1, 1, 1, -1, -1, -1)


def test_diagonalize_errors():
    with pytest.raises(NotSymmetric):
        diagonalize(Matrix([[1, 2], [3, 4]]))
    with pytest.raises(NotSymmetric):
        diagonalize(Matrix.zeros(2, 3))
    with pytest.raises(Degenerate):
        diagonalize(Matrix([[1, 1], [1, 1]]))
    with pytest.raises(Degenerate):
        diagonalize(Matrix.zeros(3, 3))


def test_diagonalize_random_congruence_identity():
    rng = random.Random(11)
    for _ in range(20):
        h = rng.randint(2, 6)
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        g = random_congruence_scramble(rng, Matrix.diagonal(entries))
        t, d = diagonalize(g)
        assert t.transpose() * g * t == Matrix.diagonal(d)


def _signed_permutation(rng, n):
    order = rng.sample(range(n), n)
    return Matrix([[rng.choice((-1, 1)) if order[i] == c else 0 for c in range(n)] for i in range(n)])


def test_diagonalize_matches_the_fraction_reference():
    # congruence-scrambled diagonal forms, plus hyperbolic planes under
    # signed permutations and unimodular scrambles: their zero diagonal
    # entries take the swap and the add-a-basis-vector repairs
    rng = random.Random(2024)
    grams = []
    for h in range(2, 10):
        for _ in range(9):
            entries = [rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)) for _ in range(h)]
            grams.append(random_congruence_scramble(rng, Matrix.diagonal(entries)))
        planes = h // 2
        hyper = [[0] * h for _ in range(h)]
        for p in range(planes):
            hyper[2 * p][2 * p + 1] = hyper[2 * p + 1][2 * p] = rng.choice((1, 2, -3))
        for i in range(2 * planes, h):
            hyper[i][i] = rng.choice((-2, 1, 3))
        grams.append(Matrix(hyper))
        p = _signed_permutation(rng, h)
        grams.append(p.transpose() * Matrix(hyper) * p)
        p = random_unimodular(rng, h, steps=h)
        grams.append(p.transpose() * Matrix(hyper) * p)
    repairs = []
    for g in grams:
        assert diagonalize(g) == diagonalize_reference(g, repairs)
    assert len(grams) >= 96
    assert {"swap", "add"} <= set(repairs)
    for g in (Matrix([[1, 1], [1, 1]]), Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])):
        with pytest.raises(Degenerate):
            diagonalize(g)
        with pytest.raises(Degenerate):
            diagonalize_reference(g)


def test_signature_examples():
    assert QuadraticSpace(Matrix.diagonal([1, 1, -1])).signature == (2, 1)
    assert QuadraticSpace(Matrix([[0, 1], [1, 0]])).signature == (1, 1)


def test_signature_float_eigenvalue_oracle():
    rng = random.Random(23)
    base = Matrix.diagonal([1, 1, 1, -1, -1, -1])
    for _ in range(10):
        g = random_congruence_scramble(rng, base)
        space = QuadraticSpace(g)
        eigs = np.linalg.eigvalsh(to_float(g))
        assert space.signature == (int(np.sum(eigs > 0)), int(np.sum(eigs < 0)))
        assert space.signature == (3, 3)


def test_signature_invariant_under_many_congruences():
    # basis independence, >= 50 random congruences per form
    rng = random.Random(5)
    for entries in ([2, -1, 3], [1, 1, -1, -1, 5]):
        base = QuadraticSpace(Matrix.diagonal(entries))
        for _ in range(50):
            scrambled = QuadraticSpace(random_congruence_scramble(rng, base.gram))
            assert scrambled.signature == base.signature


def test_discriminant_square_class_congruence_invariant():
    rng = random.Random(6)
    base = QuadraticSpace(Matrix.diagonal([2, 3, -5]))
    disc = Fraction(1)
    for x in base.diag_values:
        disc *= x
    for _ in range(20):
        scrambled = QuadraticSpace(random_congruence_scramble(rng, base.gram))
        sdisc = Fraction(1)
        for x in scrambled.diag_values:
            sdisc *= x
        assert same_square_class(disc, sdisc)
        assert scrambled.discriminant_square_class == base.discriminant_square_class


def test_inverse_form_examples():
    ident = QuadraticSpace(Matrix.identity(3))
    assert inverse_form(ident).components == Matrix.identity(3)

    diag = QuadraticSpace(Matrix.diagonal([2, 8, -1]))
    assert inverse_form(diag).components == Matrix.diagonal(
        [Fraction(1, 2), Fraction(1, 8), -1]
    )

    hyp = QuadraticSpace(Matrix([[0, 1], [1, 0]]))
    comp = inverse_form(hyp).components
    assert comp == Matrix([[0, 1], [1, 0]])
    assert comp * hyp.gram == Matrix.identity(2)


def test_square_class_representative():
    assert square_class_representative(Fraction(18)) == 2
    assert square_class_representative(Fraction(-16)) == -1
    assert square_class_representative(Fraction(1, 2)) == 2
    assert square_class_representative(Fraction(-75, 7)) == -21
    with pytest.raises(ValueError):
        square_class_representative(Fraction(0))


def test_is_rational_square_and_same_class():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(1, 49)) == Fraction(1, 7)
    assert rational_sqrt(49) == 7
    for r in (Fraction(2), Fraction(-4), Fraction(9, 2), Fraction(2, 9)):
        assert rational_sqrt(r) is None
    assert same_square_class(Fraction(2), Fraction(8))
    assert not same_square_class(Fraction(2), Fraction(-8))
    assert not same_square_class(Fraction(2), Fraction(3))


def test_bilinear_and_coordinate_roundtrip():
    rng = random.Random(9)
    g = random_congruence_scramble(rng, Matrix.diagonal([2, 2, -3, -1]))
    space = QuadraticSpace(g)
    v = (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0))
    assert space.quadratic(v) == space.bilinear(v, v)
    assert space.from_diag_coords(space.diag_basis_inv.matvec(v)) == v
    # the diagonal basis evaluates the form diagonally
    for i in range(4):
        for j in range(4):
            ei = space.diag_basis.column(i)
            ej = space.diag_basis.column(j)
            expected = space.diag_values[i] if i == j else 0
            assert space.bilinear(ei, ej) == expected


def test_signature_function_matches_property():
    space = QuadraticSpace(Matrix.diagonal([2, 8, -1]))
    assert signature(space) == (2, 1)


def _reference_bilinear(gram, u, v):
    """Sum of u_i G_ij v_j, one Fraction term at a time."""
    return sum(
        (Fraction(u[i]) * gram[i, j] * Fraction(v[j]) for i in range(gram.rows) for j in range(gram.cols)),
        Fraction(0),
    )


def test_bilinear_matches_fraction_reference():
    rng = random.Random(13)
    for h in range(1, 7):
        diag = [Fraction(rng.choice((-5, -2, 1, 3)), rng.choice((1, 2, 3))) for _ in range(h)]
        space = QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal(diag)))
        for _ in range(10):
            ints = tuple(rng.randint(-6, 6) for _ in range(h))
            rationals = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(h))
            mixed = tuple(rng.choice((x, y)) for x, y in zip(ints, rationals))
            for u in (ints, rationals, mixed):
                for v in (ints, rationals, mixed):
                    got = space.bilinear(u, v)
                    assert type(got) is Fraction
                    assert got == _reference_bilinear(space.gram, u, v) == space.bilinear(v, u)
                assert space.quadratic(u) == _reference_bilinear(space.gram, u, u)


def test_bilinear_refuses_floats_and_wrong_lengths():
    space = QuadraticSpace(Matrix.diagonal([1, 2, -3]))
    with pytest.raises(TypeError):
        space.bilinear((1, 0.5, 0), (1, 0, 0))
    with pytest.raises(TypeError):
        space.quadratic((0, 0, 1.0))
    with pytest.raises(ValueError):
        space.bilinear((1, 0), (1, 0, 0))
