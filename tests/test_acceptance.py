"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints (and records for the terminal summary) one pass/fail line.
Exact checks carry zero tolerance; the floating-point cross-checks run at
1e-9; wall-clock budgets are asserted where stated.
"""

import random
import resource
import time
from math import comb

import numpy as np
import pytest

from ksw import betti, formal_corr, kuga_satake, sympow
from ksw.clifford import CliffordAlgebra
from ksw.hodge import h2_spectrum
from ksw.linalg import Matrix, same_span
from ksw.qspace import QuadraticSpace
from ksw.randgen import random_congruence_scramble, random_hk, random_unimodular
from ksw.suite import _weil_block_instance, run_full_suite
from ksw.weil import (
    certify_22,
    check_quadratic_endo,
    weil_class_space,
    weil_multiplicities,
)

from conftest import ACCEPTANCE_RESULTS
from oracles import to_float

ACCEPTANCE_SEED = 1789


def _record(number, description):
    ACCEPTANCE_RESULTS.append((number, True, description))
    print("ACCEPTANCE %d: PASS -- %s" % (number, description))


@pytest.fixture(scope="module")
def ks_battery():
    """>= 100 seeded rational periods across h = 3..8, mixed signatures."""
    rng = random.Random(ACCEPTANCE_SEED)
    start = time.perf_counter()
    instances = []
    for h in range(3, 9):
        for _ in range(17):
            hk = random_hk(rng, h)
            instances.append(kuga_satake.build(hk))
    build_time = time.perf_counter() - start
    assert len(instances) == 102
    signatures = {ks.space.signature for ks in instances}
    assert len(signatures) > 3  # genuinely mixed signatures
    return instances, build_time


def test_criterion_1_kummer_numerology():
    start = time.perf_counter()
    k = betti.bound_exponent(7)
    bound = 2 ** k
    results = [betti.audit_b3(entry) for entry in betti.default_catalog()]
    elapsed = time.perf_counter() - start
    assert k == 3 and bound == 8
    assert all(r.status == betti.STATUS_TIGHT for r in results)
    assert elapsed < 0.001
    _record(1, "b2=7 gives k=3, bound 8; shipped catalog audits tight (%.3f ms)" % (elapsed * 1e3))


def test_criterion_2_clifford_dimensions():
    start = time.perf_counter()
    for h in range(2, 11):
        alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(h)))
        assert alg.dim == 2 ** h
        assert len(alg.even_masks) == 2 ** (h - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _record(2, "dim Cliff = 2^h and dim C+ = 2^(h-1), enumerated for h = 2..10 (%.2f s)" % elapsed)


def test_criterion_3_complex_structure_identity(ks_battery):
    instances, build_time = ks_battery
    start = time.perf_counter()
    for ks in instances:
        assert kuga_satake.verify_e_square(ks)
        assert kuga_satake.verify_j_square(ks)
    elapsed = time.perf_counter() - start + build_time
    assert elapsed < 60.0
    _record(
        3,
        "e^2 = -unit and J^2 = -I exactly on %d seeded periods, h = 3..8 (%.1f s incl. construction)"
        % (len(instances), elapsed),
    )


def test_criterion_4_commutation_laws(ks_battery):
    instances, _ = ks_battery
    rng = random.Random(ACCEPTANCE_SEED + 4)
    for ks in instances:
        report = kuga_satake.structure_commutators(ks, samples=2, rng=rng)
        assert report.ok
        rotation_checks = [n for n, _, _ in report.checks if n.startswith("rotation")]
        assert len(rotation_checks) == 4
    _record(4, "all four commutator families exact on every instance, rotation identities included")


def test_criterion_5_endomorphism_embedding(ks_battery):
    instances, _ = ks_battery
    for ks in instances:
        v0 = kuga_satake.default_v0(ks)
        assert kuga_satake.embedding_has_full_rank(ks, v0)
        assert kuga_satake.embedding_sign_laws(ks, v0, matrix_level=ks.space.h <= 5)
    _record(5, "rank of v -> E_v equals h and the J sign laws hold exactly on every instance")


def test_criterion_6_harmonic_decomposition():
    rng = random.Random(ACCEPTANCE_SEED + 6)
    start = time.perf_counter()
    worst = 0.0
    for h in range(2, 7):
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        space = QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal(entries)))
        for k in range(2, 6):
            t0 = time.perf_counter()
            dec = sympow.decompose(space, k)
            worst = max(worst, time.perf_counter() - t0)
            for l, dim in dec.block_dims:
                assert dim == sympow.harmonic_dim(h, k - 2 * l)
            assert dec.total == comb(h + k - 1, k)
            assert len(sympow.harmonic(space, k)) == comb(h + k - 1, k) - comb(h + k - 3, k - 2)
    elapsed = time.perf_counter() - start
    assert worst < 120.0
    _record(
        6,
        "harmonic block dims, independence certificates, and totals exact for h <= 6, k <= 5 "
        "(largest case %.1f s, all %.1f s)" % (worst, elapsed),
    )


def test_criterion_7_level_filtration():
    rng = random.Random(ACCEPTANCE_SEED + 7)
    for h, k in [(5, 3), (6, 3), (7, 3), (4, 5)]:
        hk = random_hk(rng, h)
        part = sympow.level_two_part(hk, k)
        assert len(part) == h
        lift = sympow.q_power_lift(hk.space, 1, (k - 1) // 2)
        image = [lift.column(j) for j in range(h)]
        assert same_span(part, image)
    _record(7, "level <= 2 piece equals Q^((k-1)/2).H^2 (kernel vs image) at (5,3),(6,3),(7,3),(4,5)")


def test_criterion_8_weil_analysis():
    rng = random.Random(ACCEPTANCE_SEED + 8)
    j, phi = _weil_block_instance()
    fixtures = [(j, phi), (j, j)]
    for _ in range(3):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        fixtures.append((ginv * j * g, ginv * phi * g))
    for jm, pm in fixtures:
        endo = check_quadratic_endo(jm, pm)
        a, b = weil_multiplicities(endo)
        balanced = a == b
        assert balanced == ((pm * jm).trace() == 0)
        assert (a, b) == ((2, 2) if balanced else (4, 0))
        classes = weil_class_space(endo)
        assert len(classes) == 2
        assert certify_22(classes, jm) == balanced
        # float eigendecomposition oracle at 1e-9
        eig = np.linalg.eigvals(to_float(pm * jm))
        assert int(np.sum(np.abs(eig + 1.0) < 1e-9)) == 2 * a
        assert int(np.sum(np.abs(eig - 1.0) < 1e-9)) == 2 * b
    _record(8, "(2,2) multiplicities iff trace 0; class space dim 2; certify_22 iff balanced; float oracle at 1e-9")


def test_criterion_9_formal_correspondence():
    start = time.perf_counter()
    for n in (2, 3):
        gamma = formal_corr.kunneth_square(8, n)
        pairs, coef, uniform = formal_corr.kunneth_coefficient(gamma, 8, n)
        assert pairs == 28
        assert uniform and coef is not None and coef != 0
    broken = formal_corr.kunneth_square(8, 2, formal_corr.SIGN_BROKEN)
    _, coef_bad, uniform_bad = formal_corr.kunneth_coefficient(broken, 8, 2)
    assert not (uniform_bad and coef_bad)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _record(9, "uniform nonzero coefficient over 28 pairs for n in {2,3}; broken-sign control fails (%.2f s)" % elapsed)


def test_criterion_10_spectrum_sanity():
    rng = random.Random(ACCEPTANCE_SEED + 10)
    for h in range(3, 9):
        for _ in range(20):
            hk = random_hk(rng, h)
            spec = h2_spectrum(hk)
            assert spec.dims == {(2, 0): 1, (0, 2): 1, (1, 1): h - 2}
            # float cross-check of the rotation generator spectrum at 1e-9
            from ksw.hodge import rotation_generator

            arr = to_float(rotation_generator(hk))
            eig = np.linalg.eigvals(arr)
            n = float(hk.period.norm)
            tol = 1e-9 * max(n, 1.0)
            assert int(np.sum(np.abs(eig - 1j * n) < tol)) == 1
            assert int(np.sum(np.abs(eig + 1j * n) < tol)) == 1
            assert int(np.sum(np.abs(eig) < tol)) == h - 2
    _record(10, "type spectrum (1, h-2, 1) on H^2 for 20 random periods per h in 3..8; float oracle at 1e-9")


def test_criterion_11_factor_dimension_table():
    assert betti.ks_factor_dims(7) == {4, 8}
    assert betti.ks_factor_dims(6) == {2, 4, 8}
    _record(11, "simple factor dimensions {4,8} at h=7 and {2,4,8} at h=6")


def test_criterion_12_whole_suite_budget():
    start = time.perf_counter()
    report = run_full_suite()
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert report.exit_code == 0
    assert all(c["status"] in ("pass", "vacuous", "skipped") for c in report.checks)
    assert elapsed < 600.0
    assert peak_kb < 2 * 1024 * 1024
    _record(
        12,
        "default suite: %d checks, exit 0, %.1f s, peak RSS %.0f MB"
        % (len(report.checks), elapsed, peak_kb / 1024),
    )
