import random
from fractions import Fraction
from math import comb

import pytest

from ksw.errors import CapExceeded, IndexOutOfRange
from ksw.formal_corr import (
    CAP_B3,
    CAP_N,
    SIGN_BROKEN,
    SIGN_KOSZUL,
    GradedAlgebra,
    gamma_pushforward,
    graded_mul,
    identity_correspondence,
    is_kunneth_concentrated,
    kunneth_coefficient,
    kunneth_square,
)

from oracles import graded_product_reference


@pytest.fixture
def alg():
    return GradedAlgebra(4)


def test_odd_squares_vanish(alg):
    f1 = alg.term(0b0001, 0, 0)
    assert (f1 * f1).is_zero()
    e1 = alg.term(0, 0b0001, 0)
    assert (e1 * e1).is_zero()


def test_koszul_cross_sign(alg):
    # (f1 (x) e1)(f2 (x) e2) = (-1)^(3*1) f1 f2 (x) e1 e2
    x = alg.term(0b0001, 0b0001, 0)
    y = alg.term(0b0010, 0b0010, 0)
    assert x * y == alg.term(0b0011, 0b0011, 0, -1)


def test_e_generators_anticommute(alg):
    e1, e2 = alg.term(0, 0b0001, 0), alg.term(0, 0b0010, 0)
    assert e1 * e2 == -(e2 * e1)
    f1, f2 = alg.term(0b0001, 0, 0), alg.term(0b0010, 0, 0)
    assert f1 * f2 == -(f2 * f1)


def test_q_is_central(alg):
    q = alg.q_generator()
    x = alg.term(0b0101, 0b0011, 1, Fraction(3, 2))
    assert q * x == x * q


def test_graded_sign_rule_on_homogeneous_elements(alg):
    rng = random.Random(71)
    for _ in range(20):
        fx, ex = rng.randrange(16), rng.randrange(16)
        fy, ey = rng.randrange(16), rng.randrange(16)
        x = alg.term(fx, ex, rng.randrange(2))
        y = alg.term(fy, ey, rng.randrange(2))
        deg_x = fx.bit_count() + 3 * ex.bit_count()
        deg_y = fy.bit_count() + 3 * ey.bit_count()
        lhs = graded_mul(x, y)
        rhs = graded_mul(y, x)
        if (deg_x * deg_y) % 2:
            assert lhs == -rhs
        else:
            assert lhs == rhs


def test_associativity_random(alg):
    rng = random.Random(72)
    for _ in range(20):
        xs = []
        for _ in range(3):
            terms = {
                (rng.randrange(16), rng.randrange(16), rng.randrange(2)): Fraction(
                    rng.randint(-3, 3) or 1
                )
                for _ in range(2)
            }
            xs.append(alg.element(terms))
        x, y, z = xs
        assert (x * y) * z == x * (y * z)


def test_products_match_the_three_term_reference():
    # seeded elements with fractional coefficients on few generators, so
    # that factors often share an f or an e, under both sign rules
    rng = random.Random(2302)
    shared = nonzero = 0
    for rule in (SIGN_KOSZUL, SIGN_BROKEN):
        for _ in range(150):
            alg = GradedAlgebra(rng.randint(2, 4), rule)
            size = 1 << alg.generators
            x, y = (
                alg.element(
                    {
                        (rng.randrange(size), rng.randrange(size), rng.randrange(2)): Fraction(
                            rng.randint(-5, 5), rng.randint(1, 6)
                        )
                        for _ in range(rng.randint(1, 4))
                    }
                )
                for _ in range(2)
            )
            product = x * y
            assert product.terms == graded_product_reference(x, y)
            shared += any(f1 & f2 or e1 & e2 for (f1, e1, _) in x.terms for (f2, e2, _) in y.terms)
            nonzero += not product.is_zero()
    assert shared > 50 and nonzero > 50


def test_kunneth_square_minimal_case():
    # direct expansion with two generators: both orderings contribute the
    # same sign, so the single pair survives with a nonzero coefficient
    gamma = kunneth_square(2, 2)
    pairs, coef, uniform = kunneth_coefficient(gamma, 2, 2)
    assert pairs == 1
    assert uniform and coef != 0
    assert gamma.terms == {(0b11, 0b11, 0): coef}


def test_kunneth_square_kummer_case():
    gamma = kunneth_square(8, 2)
    pairs, coef, uniform = kunneth_coefficient(gamma, 8, 2)
    assert pairs == comb(8, 2) == 28
    assert uniform and coef != 0
    assert len(gamma.terms) == 28
    assert is_kunneth_concentrated(gamma)


def test_kunneth_square_with_q_power():
    gamma = kunneth_square(8, 3)
    pairs, coef, uniform = kunneth_coefficient(gamma, 8, 3)
    assert uniform and coef != 0
    assert all(q == 1 for (_, _, q) in gamma.terms)


def test_uniformity_and_pushforward_exhaustive_small_range():
    # exact and exhaustive for every b3 <= 10, n <= 4: the square has a
    # uniform nonzero coefficient and pushes forward to c times the formal
    # pairing map on every ordered pair
    for b3 in range(2, 11):
        for n in range(2, 5):
            gamma = kunneth_square(b3, n)
            pairs, coef, uniform = kunneth_coefficient(gamma, b3, n)
            assert pairs == comb(b3, 2)
            assert uniform and coef != 0
            assert is_kunneth_concentrated(gamma)
            alg = gamma.algebra
            for i in range(1, b3 + 1):
                for j in range(i + 1, b3 + 1):
                    expected = alg.term(
                        0, (1 << (i - 1)) | (1 << (j - 1)), n - 2, coef
                    )
                    assert gamma_pushforward(gamma, i, j) == expected
                    assert gamma_pushforward(gamma, j, i) == -expected


def test_kunneth_coefficient_refuses_unequal_pair_coefficients():
    # every one of the C(b3, 2) pair coefficients is present and no other
    # monomial, but the (1, 2) coefficient is doubled: not uniform
    gamma = kunneth_square(4, 2)
    _, coef, _ = kunneth_coefficient(gamma, 4, 2)
    skewed = gamma + gamma.algebra.term(0b11, 0b11, 0, coef)
    assert len(skewed.terms) == comb(4, 2) and is_kunneth_concentrated(skewed)
    assert skewed.terms[(0b11, 0b11, 0)] == 2 * coef
    assert kunneth_coefficient(skewed, 4, 2) == (comb(4, 2), None, False)


def test_pushforward_matches_pairing_map():
    gamma = kunneth_square(8, 2)
    _, coef, _ = kunneth_coefficient(gamma, 8, 2)
    alg = gamma.algebra
    for i in range(1, 9):
        for j in range(i + 1, 9):
            fwd = gamma_pushforward(gamma, i, j)
            assert fwd == alg.term(0, (1 << (i - 1)) | (1 << (j - 1)), 0, coef)
            assert gamma_pushforward(gamma, j, i) == -fwd


def test_pushforward_diagonal_and_range():
    gamma = kunneth_square(4, 2)
    assert gamma_pushforward(gamma, 2, 2).is_zero()
    with pytest.raises(IndexOutOfRange):
        gamma_pushforward(gamma, 0, 1)
    with pytest.raises(IndexOutOfRange):
        gamma_pushforward(gamma, 1, 5)


def test_identity_correspondence_shape(alg):
    z = identity_correspondence(alg)
    assert len(z.terms) == 4
    assert all(f == e and q == 0 for (f, e, q) in z.terms)


def test_negative_control_broken_grading_kills_the_square():
    gamma = kunneth_square(8, 2, SIGN_BROKEN)
    assert gamma.is_zero()
    pairs, coef, uniform = kunneth_coefficient(gamma, 8, 2)
    assert not uniform and coef is None


def test_negative_control_fails_for_all_small_cases():
    for b3 in (2, 5, 8):
        for n in (2, 3):
            gamma = kunneth_square(b3, n, SIGN_BROKEN)
            _, coef, uniform = kunneth_coefficient(gamma, b3, n)
            assert not (uniform and coef)


def test_sign_rules_differ_only_by_sign_on_the_square():
    # the koszul and broken rules are genuinely different conventions
    good = kunneth_square(3, 2, SIGN_KOSZUL)
    bad = kunneth_square(3, 2, SIGN_BROKEN)
    assert not good.is_zero()
    assert bad.is_zero()


def test_bad_inputs():
    with pytest.raises(ValueError):
        kunneth_square(1, 2)
    with pytest.raises(ValueError):
        kunneth_square(4, 1)
    with pytest.raises(ValueError):
        GradedAlgebra(3, "bogus")


def test_kunneth_square_caps():
    # the caps are checked before any product is formed
    for b3, n in [(CAP_B3 + 1, 2), (2, CAP_N + 1), (10**6, 10**6)]:
        with pytest.raises(CapExceeded, match="exceeds the caps"):
            kunneth_square(b3, n)
    gamma = kunneth_square(CAP_B3, 2)
    assert kunneth_coefficient(gamma, CAP_B3, 2)[0] == comb(CAP_B3, 2)
