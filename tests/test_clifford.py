import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from ksw.clifford import (
    CliffordAlgebra,
    _blade_columns,
    _mul_block,
    _product_numerators,
    blade_product,
    left_mul_operator,
    mul,
    reorder_parity,
    right_mul_operator,
)
from ksw.errors import CapExceeded, ParityViolation, SpaceMismatch
from ksw.linalg import Matrix
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_congruence_scramble, random_vector

from oracles import clifford_word_reduce, mask_word, mul_block_reference


def test_blade_product_vector_square():
    # x.x = (x,x).1 on basis vectors
    assert blade_product(0b1, 0b1, (Fraction(1),)) == (1, 0)
    assert blade_product(0b1, 0b1, (Fraction(-7),)) == (-7, 0)


def test_blade_product_transposition_contraction():
    # one transposition then a contraction: (e1 e2).e1 = -d1 e2
    coef, mask = blade_product(0b11, 0b01, (Fraction(1), Fraction(1)))
    assert (coef, mask) == (-1, 0b10)


def test_blade_product_against_tensor_algebra_oracle():
    # brute-force reduction in the tensor algebra modulo the defining relations
    diag = (Fraction(2), Fraction(5), Fraction(-3))
    coef, mask = blade_product(0b011, 0b110, diag)
    assert (coef, mask) == (5, 0b101)  # the d2 = 5 contraction
    for a in range(8):
        for b in range(8):
            expected = clifford_word_reduce(mask_word(a) + mask_word(b), diag)
            assert blade_product(a, b, diag) == expected


def test_blade_product_exhaustive_h4_random_diag():
    rng = random.Random(17)
    diag = tuple(Fraction(rng.choice((-4, -2, -1, 1, 3, 5))) for _ in range(4))
    for a, b in product(range(16), repeat=2):
        expected = clifford_word_reduce(mask_word(a) + mask_word(b), diag)
        assert blade_product(a, b, diag) == expected


@pytest.fixture
def alg5():
    return CliffordAlgebra(QuadraticSpace(Matrix.diagonal([1, 1, -1, 2, -3])))


def test_mul_unit_is_identity(alg5):
    rng = random.Random(1)
    x = alg5.element({rng.randrange(32): Fraction(3, 2), 7: Fraction(-1)})
    assert mul(alg5.unit, x) == x
    assert mul(x, alg5.unit) == x


def test_vector_square_rule():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(4)))
    v = alg.vector_diag((1, 1, 0, 0))
    assert v * v == alg.scalar(2)  # (x, x) = 2


def test_anticommutation_on_random_pairs():
    # v.w + w.v = 2(v,w).unit, exactly, >= 100 random rational pairs
    rng = random.Random(2)
    diag = (Fraction(2), Fraction(-1), Fraction(3), Fraction(-5))
    alg = CliffordAlgebra(QuadraticSpace(Matrix.diagonal(diag)))
    for _ in range(100):
        vc = random_vector(rng, 4)
        wc = random_vector(rng, 4)
        v = alg.vector_diag(vc)
        w = alg.vector_diag(wc)
        pairing = sum((a * b * d for a, b, d in zip(vc, wc, diag)), Fraction(0))
        assert v * w + w * v == alg.scalar(2 * pairing)


def test_associativity_random_triples(alg5):
    rng = random.Random(3)
    for _ in range(40):
        x, y, z = (
            alg5.element(
                {rng.randrange(32): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
            )
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


def test_parity_additivity(alg5):
    even = alg5.element({0b00011: 1, 0: 2})
    odd = alg5.element({0b00001: 1, 0b00111: Fraction(1, 2)})
    assert even.parity == "even"
    assert odd.parity == "odd"
    assert (even * even).parity == "even"
    assert (even * odd).parity == "odd"
    assert (odd * odd).parity == "even"
    assert (even + odd).parity == "mixed"


def test_dimensions_enumerated_h2_to_h10():
    for h in range(2, 11):
        alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(h)))
        assert alg.dim == 2 ** h
        assert len(alg.even_masks) == 2 ** (h - 1)
        assert len(alg.odd_masks) == 2 ** (h - 1)


def test_left_mul_operator_unit_and_example():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(2)))
    assert left_mul_operator(alg.unit, "full") == Matrix.identity(4)
    # C+ basis {1, e1 e2}: multiplication by e1 e2 is the standard rotation
    op = left_mul_operator(alg.blade(0b11), "even")
    assert op == Matrix([[0, -1], [1, 0]])


def test_left_mul_operator_rank_full_for_anisotropic_vector():
    rng = random.Random(4)
    for h in (3, 4):
        diag = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(h)]
        space = QuadraticSpace(Matrix.diagonal(diag))
        alg = CliffordAlgebra(space)
        while True:
            coords = random_vector(rng, h)
            if space.quadratic(space.from_diag_coords(coords)) != 0:
                break
        v = alg.vector_diag(coords)
        assert left_mul_operator(v, "full").rank() == 2 ** h


def test_left_mul_parity_violation():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(3)))
    odd = alg.blade(0b001)
    with pytest.raises(ParityViolation):
        left_mul_operator(odd, "even")
    with pytest.raises(ParityViolation):
        left_mul_operator(odd + alg.unit, "odd")
    left_mul_operator(odd, "full")  # fine


def test_right_mul_operator_identity_and_commutation():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(3)))
    assert right_mul_operator(alg.unit, "full") == Matrix.identity(8)

    # [L_v, R_c] = 0: matrix level for h <= 4, element level for h in {5, 6}
    rng = random.Random(5)
    pairs_done = 0
    for h in (2, 3, 4):
        algh = CliffordAlgebra(QuadraticSpace(Matrix.diagonal([rng.choice((-2, -1, 1, 2)) for _ in range(h)])))
        for _ in range(10):
            v = algh.element({rng.randrange(algh.dim): Fraction(rng.randint(-3, 3) or 1)})
            c = algh.element({rng.randrange(algh.dim): Fraction(rng.randint(-3, 3) or 1)})
            lv = left_mul_operator(v, "full")
            rc = right_mul_operator(c, "full")
            assert lv * rc == rc * lv
            pairs_done += 1
    for h in (5, 6):
        algh = CliffordAlgebra(QuadraticSpace(Matrix.diagonal([rng.choice((-2, -1, 1, 2)) for _ in range(h)])))
        for _ in range(10):
            v = algh.element({rng.randrange(algh.dim): Fraction(rng.randint(-3, 3) or 1)})
            c = algh.element({rng.randrange(algh.dim): Fraction(rng.randint(-3, 3) or 1)})
            assert all(
                v * (algh.blade(m) * c) == (v * algh.blade(m)) * c
                for m in range(algh.dim)
            )
            pairs_done += 1
    assert pairs_done == 50


def test_right_mul_odd_maps_even_to_odd_isomorphically():
    # right multiplication by an anisotropic vector: C+ -> C- isomorphism
    space = QuadraticSpace(Matrix.diagonal([2, -1, 3]))
    alg = CliffordAlgebra(space)
    v0 = alg.blade(1 << 0)
    op = right_mul_operator(v0, "even")
    assert op.rows == 4 and op.cols == 4
    assert op.rank() == 4
    back = right_mul_operator(v0, "odd")
    assert back * op == 2 * Matrix.identity(4)  # R_{v0}^2 = (v0, v0).I


def test_space_mismatch():
    a1 = CliffordAlgebra(QuadraticSpace(Matrix.identity(2)))
    a2 = CliffordAlgebra(QuadraticSpace(Matrix.diagonal([1, -1])))
    with pytest.raises(SpaceMismatch):
        a1.unit * a2.unit


def test_vector_conversion_through_scrambled_basis():
    # elements given in the original basis convert through the diagonalizer:
    # the Clifford relation must read the *original* Gram matrix
    rng = random.Random(8)
    gram = random_congruence_scramble(rng, Matrix.diagonal([2, 2, -3]))
    space = QuadraticSpace(gram)
    alg = CliffordAlgebra(space)
    for _ in range(20):
        u = random_vector(rng, 3)
        w = random_vector(rng, 3)
        lhs = alg.vector(u) * alg.vector(w) + alg.vector(w) * alg.vector(u)
        assert lhs == alg.scalar(2 * space.bilinear(u, w))
        # the integer row of the diagonal coordinates is the element, stored as vector_diag stores it
        x, ref = alg.vector(u), alg.vector_diag(space.diag_basis_inv.matvec(u))
        assert (list(x.nums.items()), x.den) == (list(ref.nums.items()), ref.den)
    assert alg.vector((0, 0, 0)) == alg.element({})
    with pytest.raises(ValueError):
        alg.vector((1, 2))


def test_cap_exceeded():
    space = QuadraticSpace(Matrix.identity(3))
    with pytest.raises(CapExceeded):
        CliffordAlgebra(space, cap=2)
    CliffordAlgebra(space, cap=3)


def test_element_json_roundtrip():
    from ksw.serialize import clifford_element_to_json

    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(3)))
    x = alg.element({0b101: Fraction(3, 7), 0: Fraction(-2)})
    data = clifford_element_to_json(x)
    assert data == {
        "terms": [
            {"mask": [], "coef": "-2"},
            {"mask": [1, 3], "coef": "3/7"},
        ]
    }


def _fractional_algebra(rng, h):
    """Diagonal algebra whose first d_i is never an integer."""
    diag = [Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 4))) for _ in range(h)]
    diag[0] = Fraction(rng.choice((-5, -1, 3, 7)), 2)
    alg = CliffordAlgebra(QuadraticSpace(Matrix.diagonal(diag)))
    assert any(d.denominator != 1 for d in alg.diag)
    return alg


def _reference_product(x, y):
    """Per-pair Fraction product through blade_product."""
    out = {}
    for am, ac in x.terms.items():
        for bm, bc in y.terms.items():
            coef, mask = blade_product(am, bm, x.algebra.diag)
            out[mask] = out.get(mask, Fraction(0)) + ac * bc * coef
    return {m: c for m, c in out.items() if c}


def _random_rational_element(rng, alg, terms):
    return alg.element(
        {rng.randrange(alg.dim): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(terms)}
    )


def test_sign_and_contract_tables_exhaustive_h1_to_h6():
    rng = random.Random(23)
    for h in range(1, 7):
        alg = _fractional_algebra(rng, h)
        for a, b in product(range(alg.dim), repeat=2):
            parity = (alg.sign[a] & b).bit_count() & 1
            assert parity == reorder_parity(a, b)
            coef, mask = blade_product(a, b, alg.diag)
            assert mask == a ^ b
            assert Fraction(-alg.contract[a & b] if parity else alg.contract[a & b], alg.scale) == coef


def test_element_product_matches_fraction_reference():
    rng = random.Random(29)
    for h in range(1, 9):
        alg = _fractional_algebra(rng, h)
        operands = [
            tuple(_random_rational_element(rng, alg, rng.randint(0, 6)) for _ in range(2)) for _ in range(40)
        ]
        # a single-blade operand on either side, and the zero element
        zero = alg.element({})
        for _ in range(5):
            x = _random_rational_element(rng, alg, rng.randint(1, 12))
            blade = alg.blade(rng.randrange(alg.dim), Fraction(rng.choice((-7, -1, 2, 5)), rng.randint(1, 6)))
            operands += [(blade, x), (x, blade), (zero, x), (x, zero), (blade, zero)]
        # at least 2^h pairs: dense operands, and (v.w).(w.v) = q(v) q(w),
        # whose 2^h-slot sum cancels everywhere but on the unit
        side = 1 << (h + 1) // 2
        for _ in range(3):
            masks = (rng.sample(range(alg.dim), side) for _ in range(2))
            operands.append(
                tuple(alg.element({m: Fraction(rng.randint(1, 9), rng.randint(1, 6)) for m in ms}) for ms in masks)
            )
            coords = [[Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(h)] for _ in range(2)]
            coords[1][0] *= -1  # so v and w are not parallel
            v, w = (alg.vector_diag(c) for c in coords)
            x, y = v * w, w * v
            if h > 1:
                assert len(x.nums) * len(y.nums) >= alg.dim
            assert set((x * y).nums) == {0}
            operands.append((x, y))
        for x, y in operands:
            z = x * y
            got = z.terms
            assert got == _reference_product(x, y)
            assert all(type(c) is Fraction for c in got.values())
            _assert_canonical(z)


def _assert_canonical(x):
    """Stored numerators are nonzero ints over a positive int denominator, in lowest terms."""
    assert all(type(n) is int and n for n in x.nums.values())
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.nums.values()) == 1


def test_one_element_built_several_ways_is_equal_and_hashes_equal():
    rng = random.Random(37)
    for h in range(1, 7):
        alg = _fractional_algebra(rng, h)
        m, n = rng.randrange(alg.dim), rng.randrange(alg.dim)
        c = Fraction(rng.choice((-9, -2, 3, 7)), rng.choice((1, 4, 6)))
        target = alg.element({m: c})
        coef, mask = blade_product(m ^ n, n, alg.diag)  # e_{m^n} . e_n = coef * e_m
        assert mask == m
        ways = [
            alg.element({n: 0, m: c}),
            alg.element({m: str(c)}),
            alg.blade(m, c),
            alg.blade(m) * c,
            c * alg.blade(m),
            alg.blade(m, c * 3) / 3,
            alg.blade(m, c.numerator) / c.denominator,
            (alg.blade(m, c) + alg.blade(n ^ 1, 5)) - alg.blade(n ^ 1, 5),
            -(-target),
            alg.blade(m, c) * alg.unit,
            alg.blade(m ^ n, c / coef) * alg.blade(n),
            alg.blade(m ^ n, 3 * c / coef) * alg.blade(n, Fraction(1, 3)),
        ]
        for x in ways:
            _assert_canonical(x)
            assert x == target
            assert hash(x) == hash(target)
        zero = alg.blade(m, c) - target
        assert zero == alg.element({}) and hash(zero) == hash(alg.element({}))
        assert (zero.nums, zero.den) == ({}, 1)


def test_terms_view_matches_reference():
    rng = random.Random(41)
    for h in range(1, 7):
        alg = _fractional_algebra(rng, h)
        for _ in range(20):
            raw = {rng.randrange(alg.dim): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(5)}
            x = alg.element(raw)
            assert x.terms == {mm: cc for mm, cc in raw.items() if cc}
            x.terms.clear()  # a new dict each time: the element is untouched
            assert x.terms == {mm: cc for mm, cc in raw.items() if cc}
            y = _random_rational_element(rng, alg, rng.randint(0, 6))
            assert (x * y).terms == _reference_product(x, y)
            assert (x + y).terms == {
                mm: cc
                for mm in set(x.terms) | set(y.terms)
                if (cc := x.terms.get(mm, 0) + y.terms.get(mm, 0))
            }


def test_mul_operators_match_element_products():
    rng = random.Random(31)
    alg = _fractional_algebra(rng, 4)
    for _ in range(5):
        x = _random_rational_element(rng, alg, 4)
        left = left_mul_operator(x)
        right = right_mul_operator(x)
        for m in range(alg.dim):
            blade = alg.blade(m)
            left_col = (x * blade).terms
            right_col = (blade * x).terms
            assert left.column(m) == tuple(left_col.get(i, 0) for i in range(alg.dim))
            assert right.column(m) == tuple(right_col.get(i, 0) for i in range(alg.dim))
    # homogeneous elements on C+ and C-: an odd element swaps the pieces
    masks = {"even": alg.even_masks, "odd": alg.odd_masks}
    swap = {"even": "odd", "odd": "even"}
    for parity in ("even", "odd"):
        for _ in range(3):
            x = alg.element(
                {rng.choice(masks[parity]): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)}
            )
            for domain in ("even", "odd"):
                codomain = domain if parity == "even" else swap[domain]
                ops = [(right_mul_operator(x, domain), lambda b: b * x)]
                if parity == "even":
                    ops.append((left_mul_operator(x, domain), lambda b: x * b))
                for op, act in ops:
                    assert (op.rows, op.cols) == (alg.dim // 2, alg.dim // 2)
                    for pos, m in enumerate(masks[domain]):
                        terms = act(alg.blade(m)).terms
                        assert op.column(pos) == tuple(terms.get(c, 0) for c in masks[codomain])


def _seeded_elements(rng, alg):
    """Rational elements of each parity, a dense one, a vector and the zero element."""
    masks = {"even": alg.even_masks, "odd": alg.odd_masks, "mixed": range(alg.dim)}
    out = [alg.element({}), alg.vector_diag([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(alg.h)])]
    for parity in ("even", "odd", "mixed"):
        for terms in (1, 3, alg.dim):
            out.append(
                alg.element(
                    {rng.choice(masks[parity]): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(terms)}
                )
            )
    return out


def test_blade_columns_are_the_unit_blade_products():
    # x.e_b and e_b.x for every blade b, against the summing element kernel
    rng = random.Random(53)
    for h in range(1, 7):
        alg = _fractional_algebra(rng, h)
        blades = list(range(alg.dim))
        for x in _seeded_elements(rng, alg):
            xs = x.nums.items()
            for side in ("left", "right"):
                columns = list(_blade_columns(x, side, blades))
                assert len(columns) == alg.dim
                for b, column in zip(blades, columns):
                    unit = ((b, 1),)
                    assert column == _product_numerators(alg, *((xs, unit) if side == "left" else (unit, xs)))
                    assert all(type(n) is int and n for n in column.values())
            # any blade order, and a blade list read once
            shuffled = rng.sample(blades, len(blades))
            assert list(_blade_columns(x, "right", iter(shuffled))) == [
                _product_numerators(alg, ((b, 1),), xs) for b in shuffled
            ]


def test_mul_block_matches_the_induced_operator_construction():
    rng = random.Random(59)
    for h in range(1, 8):
        alg = _fractional_algebra(rng, h)
        for x in _seeded_elements(rng, alg):
            for side in ("left", "right"):
                domains = ("full",) if x.parity == "mixed" else ("full", "even", "odd")
                for domain in domains:
                    got = _mul_block(x, side, domain)
                    assert got == mul_block_reference(x, side, domain)
                    assert (got.rows, got.cols) == ((alg.dim, alg.dim) if domain == "full" else (alg.dim // 2,) * 2)


def test_element_refuses_floats_and_out_of_range_masks():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.diagonal([1, -2, 3])))
    for bad in ({0: 0.5}, {1: 0.0}, {0: 1, 3: 2.5}):
        with pytest.raises(TypeError):
            alg.element(bad)
    with pytest.raises(TypeError):
        alg.blade(1, 1.5)
    with pytest.raises(TypeError):
        alg.unit * 2.0
    for mask in (alg.dim, -1):
        with pytest.raises(ValueError):
            alg.element({mask: 1})
        # a zero coefficient is dropped before the mask is looked at
        assert alg.element({mask: 0, 1: Fraction(2, 4)}) == alg.blade(1, Fraction(1, 2))


def test_element_repr_names_blades_from_e1():
    alg = CliffordAlgebra(QuadraticSpace(Matrix.diagonal([1, 2, -3])))
    x = alg.element({0: Fraction(3), 0b101: Fraction(-1, 2), 0b010: Fraction(2)})
    assert repr(x) == "<3*1 + 2*e2 + -1/2*e1e3>"
    assert repr(alg.element({})) == "<0>"
