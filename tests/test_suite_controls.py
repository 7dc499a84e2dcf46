"""Fault-injection controls: each suite check reports `fail` when its subject is wrong.

Each row is (patches, failing checks).  The patches give a wrong but
well-typed result; with them in place the named checks must report
`fail` and every other check must keep its status.  A check predicate
that cannot fail (a comparison dropped or short-circuited) leaves its
check `pass` under the row's fault, so the row catches it.

Two pins guard what the rows cannot see: the values each family draws
from its own random stream, and the shapes of a ks family with instances
over the cap.
"""

import dataclasses
import hashlib
import random
from functools import cache
from itertools import combinations
from types import SimpleNamespace

from ksw import betti as betti_mod
from ksw import formal_corr as corr_mod
from ksw import kuga_satake as ks_mod
from ksw import suite as suite_mod
from ksw import sympow as sympow_mod
from ksw import weil as weil_mod
from ksw.errors import NotApplicable
from ksw.clifford import CliffordAlgebra, CliffordElement
from ksw.hodge import HKStructure, HodgeTypeSpectrum
from ksw.linalg import Matrix, induced_operator

#: every family small, and every family still runs
TRIMMED = {
    "linalg": {"trials": 2, "max_size": 3},
    "qspace": {"h_range": [3, 3], "scrambles": 1},
    "clifford": {"h_range": [2, 3], "pair_trials": 4, "triple_trials": 4, "element_h": 3},
    "ks": {"h_range": [3, 4], "instances_per_h": 1, "commutator_samples": 1},
    "sympow": {"decompose": [[3, 2]], "level": [[3, 3]], "isotropic": [[3, 2]], "block_level": [[3, 3]]},
    "weil": {"conjugations": 1},
    # two b2 of each parity, so that bound_monotone compares
    "betti": {"b2_range": [3, 6]},
    "corr": {"b3": 4, "n": [2], "sign_rule": "koszul", "negative_control": True},
}


def _statuses(config=TRIMMED) -> dict[str, str]:
    return {c["name"]: c["status"] for c in suite_mod.run_full_suite(config).checks}


@cache
def _baseline() -> dict[str, str]:
    return _statuses()


def _assert_rows_cover(families, rows):
    """Every check of the trimmed run in `families` is failed by some row of `rows`."""
    covered = set().union(*(failing for _, failing in rows))
    assert {name for name in _baseline() if name.partition(".")[0] in families} == covered


def _check_row(monkeypatch, patches, failing, config=TRIMMED):
    before = _baseline() if config is TRIMMED else _statuses(config)
    assert all(before[name] == "pass" for name in failing)
    with monkeypatch.context() as m:
        for owner, attr, value in patches:
            m.setattr(owner, attr, value)
        after = _statuses(config)
    assert after == dict(before, **dict.fromkeys(failing, "fail"))


# -- linalg and qspace: an inverse or a congruence scramble wrong -------------------

_random_rational_matrix = suite_mod.random_rational_matrix
_random_congruence_scramble = suite_mod.random_congruence_scramble


class _DoubledInverse(Matrix):
    __slots__ = ()

    def inverse(self):
        return 2 * super().inverse()


def _with_doubled_inverse(rng, rows, cols):
    m = _random_rational_matrix(rng, rows, cols)
    return _DoubledInverse._of(m._rows, m.cols)


def _rescrambled(diag_change):
    """The scramble of a diagonal Gram matrix with its entries changed first; the draws stay."""

    def scramble(rng, gram):
        entries = [gram[i, i] for i in range(gram.rows)]
        diag_change(entries)
        return _random_congruence_scramble(rng, Matrix.diagonal(entries))

    return scramble


def _two_of_one_sign_negated(entries):
    """Two entries of one sign negated: the determinant stays, the signature moves by two."""
    i, j = next((i, j) for i, j in combinations(range(len(entries)), 2) if (entries[i] > 0) == (entries[j] > 0))
    entries[i], entries[j] = -entries[i], -entries[j]


def _first_doubled(entries):
    """The first entry doubled: the signature stays, the determinant moves by the non-square 2."""
    entries[0] *= 2


LINALG_QSPACE_ROWS = [
    ([(suite_mod, "random_rational_matrix", _with_doubled_inverse)], {"linalg.inverse_roundtrip"}),
    ([(suite_mod, "random_congruence_scramble", _rescrambled(_two_of_one_sign_negated))], {"qspace.signature_congruence"}),
    ([(suite_mod, "random_congruence_scramble", _rescrambled(_first_doubled))], {"qspace.discriminant_square_class"}),
]


def test_linalg_and_qspace_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in LINALG_QSPACE_ROWS:
        _check_row(monkeypatch, patches, failing)


def test_every_linalg_and_qspace_check_has_a_control_row():
    _assert_rows_cover({"linalg", "qspace"}, LINALG_QSPACE_ROWS)


# -- clifford: the suite's own algebras, one table or product altered -------------


class _ShortOddPart(CliffordAlgebra):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.odd_masks = self.odd_masks[1:]


class _NoSigns(CliffordAlgebra):
    """Every reordering sign +1: Q[e_i]/(e_i^2 - d_i), still associative and graded."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sign = [0] * self.dim


class _DoubledContractions(CliffordAlgebra):
    """Contractions over two or more indices doubled: vectors still square to q(v)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.contract = [c * 2 if m.bit_count() > 1 else c for m, c in enumerate(self.contract)]


class _EvenTimesEvenIsOdd(CliffordElement):
    __slots__ = ()

    def _product(self, other):
        nums, scale = super()._product(other)
        if self.parity == other.parity == "even":
            nums = {m ^ 1: x for m, x in nums.items()}
        return nums, scale


class _UngradedProduct(CliffordAlgebra):
    def element(self, terms):
        x = super().element(terms)
        return _EvenTimesEvenIsOdd(self, x.nums, x.den)


CLIFFORD_ROWS = [
    ([(suite_mod, "CliffordAlgebra", _ShortOddPart)], {"clifford.dimension_counts[h=2]", "clifford.dimension_counts[h=3]"}),
    ([(suite_mod, "CliffordAlgebra", _NoSigns)], {"clifford.anticommutation"}),
    ([(suite_mod, "CliffordAlgebra", _DoubledContractions)], {"clifford.associativity"}),
    ([(suite_mod, "CliffordAlgebra", _UngradedProduct)], {"clifford.parity_additivity"}),
]


def test_clifford_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in CLIFFORD_ROWS:
        _check_row(monkeypatch, patches, failing)


# -- ks: one step of the construction wrong ---------------------------------------

_complex_structure_element = ks_mod.complex_structure_element
_build = ks_mod.build
_embedding_unit_block = ks_mod.embedding_unit_block
_endomorphism_embedding = ks_mod.endomorphism_embedding
_odd_even_inverse = ks_mod.odd_even_inverse
_blade_columns = ks_mod._blade_columns


class _OrientationLost:
    """HKStructure.build with beta negated: the rebuilt periods lose their orientation."""

    @staticmethod
    def build(space, alpha, beta):
        return HKStructure.build(space, alpha, tuple(-x for x in beta))


def _first_row_repeated(ks, v0):
    block = _embedding_unit_block(ks, v0)
    return Matrix([block.row(0)] + [block.row(i) for i in range(block.rows - 1)])


def _last_index_negated(x, side, blades):
    """The column e.x negated when x is odd and holds the last index: J^2 reads only even columns."""
    top = x.algebra.h - 1
    for b, column in zip(blades, _blade_columns(x, side, blades)):
        yield {m: -n for m, n in column.items()} if b.bit_count() & 1 and b >> top & 1 else column


class _DoubledTripleContractions(CliffordAlgebra):
    """Contractions over three or more indices doubled: not associative, but e.e and J read none of them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.contract = [c * 2 if m.bit_count() > 2 else c for m, c in enumerate(self.contract)]


KS_ROWS = [
    (
        [(ks_mod, "complex_structure_element", lambda hk, algebra=None: 2 * _complex_structure_element(hk, algebra))],
        {"ks.e_square", "ks.j_square", "ks.commutators"},
    ),
    (
        [(ks_mod, "build", lambda hk, cap=None: dataclasses.replace(_build(hk, cap), torus_complex_dim=1 << hk.space.h))],
        {"ks.torus_dimension"},
    ),
    ([(suite_mod, "HKStructure", _OrientationLost)], {"ks.basis_independence", "ks.orientation_reversal"}),
    ([(ks_mod, "embedding_unit_block", _first_row_repeated)], {"ks.endo_rank"}),
    (
        [(ks_mod, "endomorphism_embedding", lambda ks, v, v0: _endomorphism_embedding(ks, v, v0) + Matrix.identity(1 << (ks.space.h - 1)))],
        {"ks.endo_sign_laws"},
    ),
    ([(ks_mod, "odd_even_inverse", lambda ks, v0: 2 * _odd_even_inverse(ks, v0))], {"ks.odd_even_iso"}),
    # family (iv) alone: generator identities off by a sign, or the product table off
    ([(ks_mod, "_blade_columns", _last_index_negated)], {"ks.commutators"}),
    ([(ks_mod, "CliffordAlgebra", _DoubledTripleContractions)], {"ks.commutators"}),
]


def test_ks_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in KS_ROWS:
        _check_row(monkeypatch, patches, failing)


# -- hodge: the period, the rotation generator or the spectrum wrong ---------------

_sigma_isotropy = HKStructure.sigma_isotropy
_rotation_generator = suite_mod.rotation_generator
_h2_spectrum = suite_mod.h2_spectrum


def _doubled_half_norm(hk):
    d_aa, cross, half = _sigma_isotropy(hk)
    return d_aa, cross, 2 * half


def _one_more_11(hk):
    spec = _h2_spectrum(hk)
    return HodgeTypeSpectrum(spec.weight, {**spec.dims, (1, 1): spec.dim(1, 1) + 1})


HODGE_ROWS = [
    ([(HKStructure, "sigma_isotropy", _doubled_half_norm)], {"hodge.period_isotropy"}),
    ([(suite_mod, "rotation_generator", lambda hk: _rotation_generator(hk) + Matrix.identity(hk.space.h))], {"hodge.rotation_skew"}),
    ([(suite_mod, "h2_spectrum", _one_more_11)], {"hodge.h2_spectrum"}),
]


def test_hodge_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in HODGE_ROWS:
        _check_row(monkeypatch, patches, failing)


def test_every_hodge_check_has_a_control_row():
    _assert_rows_cover({"hodge"}, HODGE_ROWS)


# -- corr: the Kunneth square or its contraction wrong ----------------------------

_kunneth_square = corr_mod.kunneth_square
_gamma_pushforward = corr_mod.gamma_pushforward


def _with_cross_term(b3, n, sign_rule=corr_mod.SIGN_KOSZUL):
    gamma = _kunneth_square(b3, n, sign_rule)
    return gamma + gamma.algebra.term(0b111, 0b11, n - 2)


CORR_ROWS = [
    (
        [(corr_mod, "kunneth_square", _with_cross_term)],
        {"corr.uniform_coefficient[n=2]", "corr.kunneth_block[n=2]", "corr.pushforward_pairing[n=2]"},
    ),
    ([(corr_mod, "gamma_pushforward", lambda gamma, i, j: 2 * _gamma_pushforward(gamma, i, j))], {"corr.pushforward_pairing[n=2]"}),
    (
        [(corr_mod, "gamma_pushforward", lambda gamma, i, j: _gamma_pushforward(gamma, min(i, j), max(i, j)))],
        {"corr.pushforward_pairing[n=2]"},
    ),
    ([(corr_mod, "kunneth_square", lambda b3, n, sign_rule=None: _kunneth_square(b3, n))], {"corr.negative_control"}),
]


def test_corr_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in CORR_ROWS:
        _check_row(monkeypatch, patches, failing)


# -- weil: the derivation, the multiplicities, the (2,2) test or the class space wrong --

_weil_class_space = weil_mod.weil_class_space


def _unsigned_derivation_wedge4(op):
    """derivation_wedge4 with the sign of every move dropped."""
    dim = op.rows
    masks = [sum(1 << i for i in subset) for subset in combinations(range(dim), 4)]
    rows, den = op.cleared()

    def moves(mask):
        for t in range(dim):
            if mask >> t & 1:
                rest = mask ^ (1 << t)
                for j, row in enumerate(rows):
                    if t in row and not rest >> j & 1:
                        yield rest | (1 << j), row[t]

    return induced_operator(masks, {mask: i for i, mask in enumerate(masks)}, moves, den)


WEIL_ROWS = [
    # the block instance is a signed-permutation conjugate, so its moves
    # carry both signs and the block checks see the dropped sign too
    (
        [(weil_mod, "derivation_wedge4", _unsigned_derivation_wedge4)],
        {"weil.balanced_block", "weil.unbalanced_control", "weil.conjugation_invariance"},
    ),
    ([(weil_mod, "weil_multiplicities", lambda endo: (endo.dim // 4, endo.dim // 4))], {"weil.unbalanced_control", "weil.trace_criterion"}),
    ([(weil_mod, "certify_22", lambda classes, j: False)], {"weil.balanced_block"}),
    ([(suite_mod, "weil_class_space", lambda endo: _weil_class_space(endo)[:1])], {"weil.conjugation_invariance"}),
]


def test_weil_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in WEIL_ROWS:
        _check_row(monkeypatch, patches, failing)


def test_weil_block_checks_see_a_dropped_move_sign_without_conjugates(monkeypatch):
    no_conjugates = dict(TRIMMED, weil={"conjugations": 0})
    patches = [(weil_mod, "derivation_wedge4", _unsigned_derivation_wedge4)]
    _check_row(monkeypatch, patches, {"weil.balanced_block", "weil.unbalanced_control"}, no_conjugates)


def test_every_clifford_ks_weil_and_corr_check_has_a_control_row():
    _assert_rows_cover({"clifford", "ks", "weil", "corr"}, CLIFFORD_ROWS + KS_ROWS + WEIL_ROWS + CORR_ROWS)


# -- sympow: one dimension, swap, level piece, level or span wrong -----------------

_harmonic_dim = sympow_mod.harmonic_dim
_induced_operator = suite_mod.induced_operator
_level_two_part = sympow_mod.level_two_part
_block_max_level = sympow_mod.block_max_level
_isotropic_span_check = sympow_mod.isotropic_span_check


def _unequal_norm_swap(basis, index, moves, den):
    """The suite's swap built on x0 <-> x2, whose norms 1 and -2 differ."""
    return _induced_operator(basis, index, lambda mu: (((mu[2], mu[1], mu[0]), 1),), den)


def _definite_span_passes(space, k):
    """isotropic_span_check with NotApplicable turned into a plain False."""
    try:
        return _isotropic_span_check(space, k)
    except NotApplicable:
        return False


SYMPOW_ROWS = [
    # the block certificate holds; only the suite's dimension count is off
    ([(sympow_mod, "harmonic_dim", lambda h, k: _harmonic_dim(h, k) + (k == 0))], {"sympow.decompose[h=3,k=2]"}),
    ([(suite_mod, "induced_operator", _unequal_norm_swap)], {"sympow.harmonic_symmetry"}),
    ([(sympow_mod, "level_two_part", lambda hk, k: _level_two_part(hk, k)[:-1])], {"sympow.level_filtration[h=3,k=3]"}),
    (
        [(sympow_mod, "block_max_level", lambda hk, k: [(l, lvl + 2 * (l == 0)) for l, lvl in _block_max_level(hk, k)])],
        {"sympow.block_level[h=3,k=3]"},
    ),
    # the definite control still raises NotApplicable inside the negation
    ([(sympow_mod, "isotropic_span_check", lambda space, k: not _isotropic_span_check(space, k))], {"sympow.isotropic_span[h=3,k=2]"}),
    ([(sympow_mod, "isotropic_span_check", _definite_span_passes)], {"sympow.isotropic_definite_control"}),
]


def test_sympow_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in SYMPOW_ROWS:
        _check_row(monkeypatch, patches, failing)


# -- betti: the bound exponent, the catalog or the factor dimensions wrong ---------

_bound_exponent = betti_mod.bound_exponent
_default_catalog = betti_mod.default_catalog
_ks_factor_dims = betti_mod.ks_factor_dims

BETTI_ROWS = [
    # k(5) below k(3); the catalog's b2 = 7 keeps its exponent
    (
        [(betti_mod, "bound_exponent", lambda b2, div4_improve=False: _bound_exponent(b2, div4_improve) - 2 * (b2 == 5))],
        {"betti.bound_monotone"},
    ),
    (
        [(betti_mod, "default_catalog", lambda: [dataclasses.replace(e, b3=2 * e.b3) for e in _default_catalog()])],
        {"betti.catalog_tight"},
    ),
    ([(betti_mod, "ks_factor_dims", lambda h: _ks_factor_dims(h) | {1 << h})], {"betti.factor_dims"}),
]


def test_betti_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in BETTI_ROWS:
        _check_row(monkeypatch, patches, failing)


ROWS = LINALG_QSPACE_ROWS + CLIFFORD_ROWS + KS_ROWS + HODGE_ROWS + CORR_ROWS + WEIL_ROWS + SYMPOW_ROWS + BETTI_ROWS


def test_every_check_has_a_control_row():
    assert {c.partition(".")[0] for c in _baseline()} == {
        "linalg", "qspace", "clifford", "ks", "hodge", "sympow", "weil", "betti", "corr",
    }
    assert set().union(*(failing for _, failing in ROWS)) == _baseline().keys()


# -- the draws of each family's stream ---------------------------------------------

#: stream key -> (values drawn, sha256 prefix of their reprs), default config and seed 7
PINNED_DRAWS = {
    None: {
        "_linalg_checks": (971, "51c456f4c51c01d2"),
        "_qspace_checks": (1159, "1a9207aae765bbd9"),
        "_clifford_checks": (4902, "3b12d37fbfa86252"),
        "_ks_checks": (1368, "c6e8875ce427f346"),
        "_hodge_checks": (1406, "f2f43865247f034f"),
        "_sympow_checks": (387, "1fb8a14ae8a18770"),
        "_weil_checks": (318, "34b42cd44db9cf33"),
        "_betti_checks": (0, "4f53cda18c2baa0c"),
        "_corr_checks": (0, "4f53cda18c2baa0c"),
    },
    7: {
        "_linalg_checks": (1074, "0a067d9845f271b9"),
        "_qspace_checks": (1116, "1a815c139526b286"),
        "_clifford_checks": (4903, "574366729dbde9a4"),
        "_ks_checks": (1380, "de177db98f2dd113"),
        "_hodge_checks": (1441, "7573a2495a9eaa69"),
        "_sympow_checks": (394, "93d7608c6f83d683"),
        "_weil_checks": (303, "3ed8e60bdec4c843"),
        "_betti_checks": (0, "4f53cda18c2baa0c"),
        "_corr_checks": (0, "4f53cda18c2baa0c"),
    },
}


def _draws(monkeypatch, overrides) -> dict[str, tuple[int, str]]:
    """Every random() and getrandbits() value of each family's stream, by stream key."""
    logs: dict[int, list] = {}

    class Recorder(random.Random):
        # both methods, so that randrange keeps the getrandbits path of random.Random
        def random(self):
            x = super().random()
            logs.setdefault(self.stream, []).append(x)
            return x

        def getrandbits(self, k):
            x = super().getrandbits(k)
            logs.setdefault(self.stream, []).append(x)
            return x

        def seed(self, a=None, version=2):
            self.stream = a
            super().seed(a, version)

    with monkeypatch.context() as m:
        m.setattr(suite_mod, "random", SimpleNamespace(Random=Recorder))
        seed = suite_mod.run_full_suite(overrides).seed
    by_seed = {seed + sum(key.encode()): key for key in PINNED_DRAWS[None]}
    assert logs.keys() <= by_seed.keys()
    return {
        key: (len(logs.get(s, [])), hashlib.sha256(repr(logs.get(s, [])).encode()).hexdigest()[:16])
        for s, key in by_seed.items()
    }


def test_each_family_draws_what_it_drew(monkeypatch):
    # the report digests cannot see a family's instances move to other draws
    for seed, pinned in PINNED_DRAWS.items():
        assert _draws(monkeypatch, None if seed is None else {"seed": seed}) == pinned, seed


# -- ks instances over the cap ------------------------------------------------------

KS_NAMES = [
    "ks.e_square", "ks.j_square", "ks.commutators", "ks.torus_dimension", "ks.basis_independence",
    "ks.orientation_reversal", "ks.endo_rank", "ks.endo_sign_laws", "ks.odd_even_iso",
]


def _ks_lines(h_range) -> list[tuple[str, str, str]]:
    config = dict(TRIMMED, cap_h=3, ks=dict(TRIMMED["ks"], h_range=h_range))
    return [(c["name"], c["status"], c["detail"]) for c in suite_mod.run_full_suite(config).checks if c["name"].startswith("ks.")]


def test_ks_instances_over_the_cap_keep_their_shapes():
    cap = "Clifford algebra on h=4 exceeds the cap 3"
    # some built: their checks, then one ks.build line
    partly = _ks_lines([3, 4])
    assert [name for name, _, _ in partly] == KS_NAMES + ["ks.build"]
    assert {status for _, status, _ in partly[:-1]} == {"pass"}
    assert partly[0][2] == "e.e == -unit on 1 instances"
    assert partly[-1] == ("ks.build", "skipped", cap)
    # none built: every ks check takes the cap outcome
    assert _ks_lines([4, 4]) == [(name, "skipped", cap) for name in KS_NAMES]
