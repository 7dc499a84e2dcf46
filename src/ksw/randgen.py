"""Seeded random instances: scrambled forms, valid periods, random elements.

Valid rationally presented periods are built by construction, not
rejection: start from a diagonal form whose first two entries share a
positive value, scramble by a random unimodular congruence, pull the two
distinguished basis vectors back through it, then apply a rational
rotation (Pythagorean pair) and a common scale inside the plane.  Every
instance is exact and reproducible from the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hodge import HKStructure
from .linalg import Matrix
from .qspace import QuadraticSpace

_ONE = Fraction(1)

#: rational points on the unit circle, for plane rotations
PYTHAGOREAN_PAIRS = (
    (Fraction(1), Fraction(0)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(20, 29), Fraction(21, 29)),
)


def random_rational(rng: random.Random, max_num: int = 9, max_den: int = 4, nonzero: bool = False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if x or not nonzero:
            return x


def random_vector(rng: random.Random, n: int, max_num: int = 9, max_den: int = 4):
    return tuple(random_rational(rng, max_num, max_den) for _ in range(n))


def random_rational_matrix(
    rng: random.Random, rows: int, cols: int, max_num: int = 9, max_den: int = 4
) -> Matrix:
    return Matrix(
        [[random_rational(rng, max_num, max_den) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_unimodular(rng: random.Random, n: int, steps: int | None = None) -> Matrix:
    """Random integer matrix of determinant +-1 (products of shears and swaps)."""
    steps = 2 * n if steps is None else steps
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return Matrix(rows, cols=n)


def random_space_with_period(
    rng: random.Random, h: int
) -> tuple[QuadraticSpace, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Scrambled mixed-signature form with a valid rational period pair.

    The diagonal seed is (n, n, d_3, ..., d_h) with n > 0 and at least one
    negative later entry for h >= 3, congruence-scrambled by a unimodular
    P; alpha, beta pull back the first two diagonal basis vectors.
    """
    if h < 2:
        raise ValueError("periods need h >= 2")
    n = rng.randint(1, 6)
    rest = []
    for idx in range(h - 2):
        mag = rng.randint(1, 5)
        positive = rng.random() < 0.3
        rest.append(mag if positive else -mag)
    if rest and all(x > 0 for x in rest):
        rest[rng.randrange(len(rest))] *= -1
    diag = Matrix.diagonal([n, n] + rest)
    p = random_unimodular(rng, h)
    gram = p.transpose() * diag * p
    p_inv = p.inverse()
    alpha = p_inv.column(0)
    beta = p_inv.column(1)
    a, b = rng.choice(PYTHAGOREAN_PAIRS)
    if rng.random() < 0.5:
        a, b = b, a
    s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    alpha, beta = (
        tuple(s * (a * x + b * y) for x, y in zip(alpha, beta)),
        tuple(s * (a * y - b * x) for x, y in zip(alpha, beta)),
    )
    return QuadraticSpace(gram), alpha, beta


def random_hk(rng: random.Random, h: int) -> HKStructure:
    space, alpha, beta = random_space_with_period(rng, h)
    return HKStructure.build(space, alpha, beta)


def random_congruence_scramble(rng: random.Random, gram: Matrix) -> Matrix:
    p = random_unimodular(rng, gram.rows)
    return p.transpose() * gram * p
