import dataclasses
import random
from fractions import Fraction

import pytest

from ksw import kuga_satake as ks_mod
from ksw import suite
from ksw.clifford import CliffordAlgebra, _product_numerators, left_mul_operator
from ksw.errors import CapExceeded, CommutatorViolation, NotCommutingWithJ, NullReference
from ksw.hodge import HKStructure, Weight1Structure
from ksw.linalg import Matrix
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_hk, random_unimodular
from ksw.weil import check_quadratic_endo

from oracles import (
    embedding_matrix_stack,
    embedding_rank,
    generator_identities_reference,
    j_square_reference,
    right_mul_commutes_reference,
)


def _hk(diag, alpha, beta):
    return HKStructure.build(QuadraticSpace(Matrix.diagonal(diag)), alpha, beta)


def test_e_from_unit_periods():
    hk = _hk([1, 1, -1], (1, 0, 0), (0, 1, 0))
    alg = CliffordAlgebra(hk.space)
    e = ks_mod.complex_structure_element(hk, alg)
    assert e == alg.blade(0b011)
    assert e * e == -alg.unit


def test_e_scale_invariance():
    hk = _hk([1, 1, -1], (2, 0, 0), (0, 2, 0))
    assert hk.period.norm == 4
    alg = CliffordAlgebra(hk.space)
    e = ks_mod.complex_structure_element(hk, alg)
    assert e == alg.blade(0b011)  # (4 e1 e2) / 4


def test_e_blade_arithmetic_mixed_norms():
    hk = _hk([2, 8, -1], (2, 0, 0), (0, 1, 0))
    alg = CliffordAlgebra(hk.space)
    e = ks_mod.complex_structure_element(hk, alg)
    assert e == alg.element({0b011: Fraction(1, 4)})
    assert e * e == -alg.unit


def test_weight1_counts():
    hk = _hk([1, 1, -1], (1, 0, 0), (0, 1, 0))
    ks = ks_mod.build(hk)
    w = Weight1Structure(4, ks.j_even)
    assert w.dim == 4
    assert ks.torus_complex_dim == 2

    hk6 = _hk([1, 1, 1, -1, -1, -1], (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))
    ks6 = ks_mod.build(hk6)
    assert Weight1Structure(32, ks6.j_even).dim == 32
    assert ks6.torus_complex_dim == 16


def test_j_square_random_periods():
    rng = random.Random(41)
    for h in (3, 4, 5, 6):
        for _ in range(3):
            ks = ks_mod.build(random_hk(rng, h))
            assert ks_mod.verify_e_square(ks)
            assert ks_mod.verify_j_square(ks)
            w = Weight1Structure(2 ** (h - 1), ks.j_even)  # validates J^2 = -I again
            assert w.dim == 2 ** (h - 1)


def test_j_square_rejects_a_perturbed_e():
    # negative controls: e + 1 squares to 2e, not -1, on every even blade;
    # 2e squares to -4, so each e.(e.x) lies on x alone with the wrong coefficient
    rng = random.Random(43)
    for h in (3, 4, 5):
        ks = ks_mod.build(random_hk(rng, h))
        assert not ks_mod.verify_j_square(dataclasses.replace(ks, e=ks.e + ks.algebra.unit))
        assert not ks_mod.verify_j_square(dataclasses.replace(ks, e=2 * ks.e))


def test_j_square_rejects_a_square_off_minus_one_by_a_nonscalar():
    # over diag(1, 1, -1), e' = 1 + (3/2) e1e2 + (1/2) e1e3 squares to -1 + 3 e1e2 + e1e3:
    # e'.(e'.x) has coefficient -1 on x for every even x, the defect lies on other blades
    ks = ks_mod.build(_hk([1, 1, -1], (1, 0, 0), (0, 1, 0)))
    alg = ks.algebra
    e = alg.element({0: 1, 0b011: Fraction(3, 2), 0b101: Fraction(1, 2)})
    assert e * e == alg.element({0: -1, 0b011: 3, 0b101: 1})
    bad = dataclasses.replace(ks, e=e)
    assert not ks_mod.verify_j_square(bad)
    assert not j_square_reference(bad)


def test_j_square_matches_the_element_reference():
    # the same boolean as e.(e.x) == -x, on e, e + 1, 2e, e plus one even or
    # one odd blade, over the algebra's table and over a non-associative one
    rng = random.Random(44)
    outcomes = set()
    for h in range(2, 9):
        ks = ks_mod.build(random_hk(rng, h))
        alg, e = ks.algebra, ks.e
        variants = [e, e + alg.unit, 2 * e, e + alg.blade(0b11), e + alg.blade(1)]
        for tampered in (False, True):
            if tampered:
                # e_1.e_1 = 2 d_1 while every other contraction is kept
                alg.contract[1] *= 2
            for v in variants:
                ks_v = dataclasses.replace(ks, e=v)
                got = ks_mod.verify_j_square(ks_v)
                assert got == j_square_reference(ks_v), (h, tampered, v)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_rotation_identities_unit_case():
    hk = _hk([1, 1, -1], (1, 0, 0), (0, 1, 0))
    ks = ks_mod.build(hk)
    alg = ks.algebra
    a = alg.vector(hk.period.alpha)
    b = alg.vector(hk.period.beta)
    assert a * ks.e == b
    assert ks.e * a == -b
    assert b * ks.e == -a
    assert ks.e * b == a
    # w = e3 commutes with e (two transpositions)
    w = alg.blade(1 << 2)
    assert w * ks.e == ks.e * w


def test_structure_commutators_random_h7():
    rng = random.Random(42)
    ks = ks_mod.build(random_hk(rng, 7))
    report = ks_mod.structure_commutators(ks, rng=rng)
    assert report.ok
    names = [name for name, _, _ in report.checks]
    assert any(name.startswith("perp_commutes") for name in names)
    assert any(name.startswith("plane_anticommutes") for name in names)
    assert any(name.startswith("rotation") for name in names)
    assert any(name.startswith("right_mul_commutes") for name in names)


def _right_mul_entries(ks, samples=3):
    report = ks_mod.structure_commutators(ks, samples=samples, rng=random.Random(0), raise_on_failure=False)
    return [ok for name, ok, _ in report.checks if name.startswith("right_mul_commutes")]


def _generator_loop(ks):
    """Family (iv) without the table certificate: every generator, on the columns e.x."""
    alg = ks.algebra
    columns = [_product_numerators(alg, ks.e.nums.items(), ((x, 1),)) for x in range(alg.dim)]
    return ks_mod._commutes_with_generators(alg, columns, range(alg.h))


def test_right_mul_commutes_matches_element_reference():
    rng = random.Random(47)
    parities = set()
    for h in range(2, 8):
        ks = ks_mod.build(random_hk(rng, h))
        alg = ks.algebra
        for tampered in (False, True):
            if tampered:
                # e_1.e_1 = 2 d_1 while every other contraction is kept: not associative
                alg.contract[1] *= 2
            got = _right_mul_entries(ks)
            reference = right_mul_commutes_reference(ks, 3, random.Random(h))
            sampled = [ok for _, ok in reference]
            assert len(got) == 3
            # the family is a proof, so it never passes where a sampled c fails
            if tampered:
                assert not all(got)
            else:
                assert all(got) and all(sampled)
            parities.update(c.parity for c, _ in reference)
    assert "mixed" in parities


def test_halved_generator_loop_matches_both_halves():
    # each pair x, x ^ 2^i compared once agrees with comparing it at both ends,
    # on the columns e.x and on columns with one entry doubled, dropped or added
    rng = random.Random(49)
    outcomes = set()
    for h in range(2, 8):
        ks = ks_mod.build(random_hk(rng, h))
        alg = ks.algebra
        columns = [_product_numerators(alg, ks.e.nums.items(), ((x, 1),)) for x in range(alg.dim)]
        tables = [columns]
        for kind in (0, 1, 2) * 8:
            x = rng.randrange(alg.dim)
            col = dict(columns[x])
            if kind == 0:
                col[rng.choice(sorted(col))] *= 2
            elif kind == 1:
                del col[rng.choice(sorted(col))]
            else:
                free = [m for m in range(alg.dim) if m not in col]
                if not free:
                    continue
                col[rng.choice(free)] = rng.choice((-3, -1, 1, 2))
            tables.append(columns[:x] + [col] + columns[x + 1 :])
        for table in tables:
            for i in range(h):
                got = ks_mod._commutes_with_generators(alg, table, [i])
                assert got == generator_identities_reference(alg, table, [i])
                outcomes.add(got)
    assert outcomes == {True, False}


def test_right_mul_commutes_needs_the_table_certificate():
    # at h = 6 this e never meets index 0 in a way the generators see, so
    # the generator loop alone passes the doubled e_1.e_1; a sampled c and
    # the table certificate both catch it
    rng = random.Random(47)
    for h in range(2, 7):
        ks = ks_mod.build(random_hk(rng, h))
    ks.algebra.contract[1] *= 2
    assert _generator_loop(ks)
    assert not ks_mod._table_is_clifford(ks.algebra)
    assert not all(ok for _, ok in right_mul_commutes_reference(ks, 3, random.Random(6)))
    assert _right_mul_entries(ks) == [False] * 3


def _spoil(alg, law):
    if law == "multiplicative":
        # e_1.e_1 doubled alone
        alg.contract[1] *= 2
    elif law == "bilinear":
        # e_1 e_2 . e_1 signed unlike e_2 . e_1
        alg.sign[3] ^= 1
    elif law == "unit":
        # the unit multiplies with a sign
        alg.sign[0] = 1
    else:
        # d_2 = 0 throughout: multiplicative and bilinear, but degenerate
        alg.contract = [0 if m & 2 else c for m, c in enumerate(alg.contract)]


@pytest.mark.parametrize("law", ["multiplicative", "bilinear", "unit", "nondegenerate"])
def test_table_certificate_rejects_each_broken_law(law):
    for h in (2, 3, 5):
        ks = ks_mod.build(random_hk(random.Random(60 + h), h))
        assert ks_mod._table_is_clifford(ks.algebra)
        _spoil(ks.algebra, law)
        assert not ks_mod._table_is_clifford(ks.algebra)
        assert not any(_right_mul_entries(ks))


@pytest.mark.parametrize("h", [3, 4, 5])
def test_right_mul_commutes_entries_split_the_generators(h, monkeypatch):
    # e.x negated whenever x holds the last index: a left operator that
    # commutes with every R_(v_i) but the last, over an associative table
    ks = ks_mod.build(random_hk(random.Random(50 + h), h))
    top = 1 << (h - 1)
    columns = ks_mod._blade_columns

    def flipped(x, side, blades):
        for b, column in zip(blades, columns(x, side, blades)):
            yield {m: -n for m, n in column.items()} if b & top else column

    assert _right_mul_entries(ks, samples=h) == [True] * h
    monkeypatch.setattr(ks_mod, "_blade_columns", flipped)
    assert _right_mul_entries(ks, samples=h) == [True] * (h - 1) + [False]
    assert _right_mul_entries(ks, samples=2) == [(h - 1) % 2 == 1, (h - 1) % 2 == 0]


def test_structure_commutators_builds_no_full_algebra_matrix(monkeypatch):
    block = ks_mod._mul_block

    def graded_only(x, side, domain):
        assert domain != "full", "a 2^h-square operator"
        return block(x, side, domain)

    monkeypatch.setattr(ks_mod, "_mul_block", graded_only)
    for h in (2, 5, 8):
        ks = ks_mod.build(random_hk(random.Random(70 + h), h))
        report = ks_mod.structure_commutators(ks, samples=2, rng=random.Random(h))
        assert report.ok and len(report.checks) == (h - 2) + 2 + 4 + 2


def test_structure_commutators_operator_matrices_small_h():
    rng = random.Random(43)
    ks = ks_mod.build(random_hk(rng, 4))
    e_op = left_mul_operator(ks.e, "full")
    for w in ks_mod.plane_orthogonal_basis(ks.base):
        lw = left_mul_operator(ks.algebra.vector(w), "full")
        assert lw * e_op == e_op * lw
    for v in (ks.base.period.alpha, ks.base.period.beta):
        lv = left_mul_operator(ks.algebra.vector(v), "full")
        assert lv * e_op == -(e_op * lv)


def test_commutator_violation_raises_with_name():
    rng = random.Random(44)
    ks = ks_mod.build(random_hk(rng, 3))
    ks.e = ks.e + ks.algebra.element({0b110: Fraction(1, 3)})  # tamper
    with pytest.raises(CommutatorViolation):
        ks_mod.structure_commutators(ks, rng=rng)
    report = ks_mod.structure_commutators(ks, rng=rng, raise_on_failure=False)
    assert not report.ok and report.failed_names()


def test_basis_independence_pythagorean():
    rng = random.Random(45)
    hk = random_hk(rng, 4)
    ks = ks_mod.build(hk)
    a, b = Fraction(3, 5), Fraction(4, 5)
    alpha, beta = hk.period.alpha, hk.period.beta
    alpha2 = tuple(a * x + b * y for x, y in zip(alpha, beta))
    beta2 = tuple(-b * x + a * y for x, y in zip(alpha, beta))
    hk2 = HKStructure.build(hk.space, alpha2, beta2)
    assert ks_mod.complex_structure_element(hk2, ks.algebra) == ks.e


def test_orientation_reversal_negates_e_and_conjugates_j():
    rng = random.Random(46)
    hk = random_hk(rng, 4)
    ks = ks_mod.build(hk)
    flipped = HKStructure.build(hk.space, hk.period.beta, hk.period.alpha)
    ks_flipped = ks_mod.build(flipped)
    assert ks_flipped.e == -ks.e
    assert ks_flipped.j_even == -ks.j_even


def test_endo_embedding_diagonal_vector():
    # E_{v0}(unit) = (v0, v0).unit when v = v0
    hk = _hk([1, 1, -1, 2], (1, 0, 0, 0), (0, 1, 0, 0))
    ks = ks_mod.build(hk)
    v0 = ks_mod.default_v0(ks)
    c = hk.space.quadratic(v0)
    assert c != 0
    em = ks_mod.endomorphism_embedding(ks, v0, v0)
    unit_col = em.column(0)  # the unit blade is the first even basis mask
    assert unit_col[0] == c
    assert all(x == 0 for x in unit_col[1:])


def test_endo_embedding_rank_and_signs():
    rng = random.Random(47)
    for h in (3, 4, 5, 6):
        ks = ks_mod.build(random_hk(rng, h))
        v0 = ks_mod.default_v0(ks)
        assert embedding_rank(ks, v0) == h
        assert ks_mod.embedding_has_full_rank(ks, v0)
        assert ks_mod.embedding_sign_laws(ks, v0, matrix_level=h < 6)
    for h in (6, 7):
        ks = ks_mod.build(random_hk(rng, h))
        v0 = ks_mod.default_v0(ks)
        assert ks_mod.embedding_has_full_rank(ks, v0)
        assert ks_mod.embedding_sign_laws(ks, v0)


def test_embedding_full_rank_rejects_a_repeated_row(monkeypatch):
    ks = ks_mod.build(random_hk(random.Random(48), 4))
    v0 = ks_mod.default_v0(ks)
    block = ks_mod.embedding_unit_block(ks, v0)
    assert ks_mod.embedding_has_full_rank(ks, v0)
    repeated = Matrix([block.row(0)] + [block.row(i) for i in range(block.rows - 1)])
    monkeypatch.setattr(ks_mod, "embedding_unit_block", lambda *args: repeated)
    assert ks_mod.embedding_has_full_rank(ks, v0) is False


def test_unit_blade_block_is_a_column_subset_of_the_stack():
    rng = random.Random(50)
    for h in (3, 4, 5):
        ks = ks_mod.build(random_hk(rng, h))
        v0 = ks_mod.default_v0(ks)
        stack = embedding_matrix_stack(ks, v0)
        size = 1 << (h - 1)
        # each stack row is E_v flattened row-major; the unit blade is domain column 0
        unit_columns = Matrix([[row[r * size] for r in range(size)] for row in stack])
        assert ks_mod.embedding_unit_block(ks, v0) == unit_columns


def test_endo_embedding_null_reference():
    hk = _hk([1, 1, -1], (1, 0, 0), (0, 1, 0))
    ks = ks_mod.build(hk)
    with pytest.raises(NullReference):
        ks_mod.endomorphism_embedding(ks, (1, 0, 0), (0, 0, 0))
    with pytest.raises(NullReference):
        ks_mod.embedding_has_full_rank(ks, (0, 0, 0))
    # isotropic v0 in a form with a hyperbolic summand is also rejected
    hyp = HKStructure.build(
        QuadraticSpace(Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    ks_hyp = ks_mod.build(hyp)
    with pytest.raises(NullReference):
        ks_mod.endomorphism_embedding(ks_hyp, (1, 0, 0, 0), (0, 0, 1, 0))


def test_odd_even_iso_h2_fixture():
    space = QuadraticSpace(Matrix.diagonal([3, 3]))
    hk = HKStructure.build(space, (1, 0), (0, 1))
    ks = ks_mod.build(hk)
    v0 = (1, 0)  # e1: (v0, v0) = 3
    r = ks_mod.odd_even_isomorphism(ks, v0)
    # C+ basis {1, e1e2} -> C- basis {e1, e2}: 1 -> e1, e1e2 -> -d1 e2
    assert r == Matrix([[1, 0], [0, -3]])
    rinv = ks_mod.odd_even_inverse(ks, v0)
    assert rinv * r == Matrix.identity(2)
    assert r * rinv == Matrix.identity(2)


def test_odd_even_iso_intertwines_j():
    rng = random.Random(48)
    for h in (3, 4, 5):
        ks = ks_mod.build(random_hk(rng, h))
        v0 = ks_mod.default_v0(ks)
        r = ks_mod.odd_even_isomorphism(ks, v0)
        from ksw.clifford import _mul_block

        j_odd = _mul_block(ks.e, "left", "odd")
        assert j_odd * r == r * ks.j_even


def _perturbed(ks):
    """ks with 1 added to the (0, 0) entry of J: J stays square, no longer L_e on C+."""
    n = ks.j_even.rows
    return dataclasses.replace(ks, j_even=ks.j_even + Matrix.diagonal([1] + [0] * (n - 1)))


@pytest.mark.parametrize("h", [3, 4, 5, 6])
def test_operator_identity_checks_reject_a_perturbed_j(h, monkeypatch):
    rng = random.Random(60 + h)
    ks = ks_mod.build(random_hk(rng, h))
    v0 = ks_mod.default_v0(ks)
    bad = _perturbed(ks)
    assert ks_mod.embedding_sign_laws(ks, v0, matrix_level=True)
    assert not ks_mod.embedding_sign_laws(bad, v0, matrix_level=True)

    cfg = suite.load_config({"ks": {"h_range": [h, h], "instances_per_h": 1, "commutator_samples": 0}})

    def odd_even_iso():
        return {c["name"]: c["status"] for c in suite._stream_checks("_ks_checks", cfg, random.Random(h))}["ks.odd_even_iso"]

    assert odd_even_iso() == "pass"
    build = ks_mod.build
    monkeypatch.setattr(ks_mod, "build", lambda hk, cap=None: _perturbed(build(hk, cap=cap)))
    assert odd_even_iso() == "fail"

    # a square root of -1 conjugate to J: phi^2 = -I, but phi J != J phi
    g = random_unimodular(rng, ks.j_even.rows)
    phi = g.inverse() * ks.j_even * g
    assert phi * phi == -Matrix.identity(ks.j_even.rows) and phi * ks.j_even != ks.j_even * phi
    with pytest.raises(NotCommutingWithJ):
        check_quadratic_endo(ks.j_even, phi)


def test_default_v0_outside_plane():
    rng = random.Random(49)
    for h in (3, 5):
        hk = random_hk(rng, h)
        ks = ks_mod.build(hk)
        v0 = ks_mod.default_v0(ks)
        stacked = Matrix([hk.period.alpha, hk.period.beta, v0])
        assert stacked.rank() == 3
        assert hk.space.quadratic(v0) != 0


def test_cap_exceeded_propagates():
    hk = _hk([1, 1, -1], (1, 0, 0), (0, 1, 0))
    with pytest.raises(CapExceeded):
        ks_mod.build(hk, cap=2)
