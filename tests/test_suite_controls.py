"""Fault-injection controls: each suite check reports `fail` when its subject is wrong.

Each row is (patches, failing checks).  The patches give a wrong but
well-typed result; with them in place the named checks must report
`fail` and every other check must keep its status.  A check predicate
that cannot fail (a comparison dropped or short-circuited) leaves its
check `pass` under the row's fault, so the row catches it.
"""

import dataclasses
from functools import cache
from itertools import combinations

from ksw import formal_corr as corr_mod
from ksw import kuga_satake as ks_mod
from ksw import suite as suite_mod
from ksw import weil as weil_mod
from ksw.clifford import CliffordAlgebra, CliffordElement
from ksw.hodge import HKStructure, HodgeTypeSpectrum
from ksw.linalg import Matrix, induced_operator

#: every family small; the linalg, qspace, clifford, ks, hodge, weil and corr families still run
TRIMMED = {
    "linalg": {"trials": 2, "max_size": 3},
    "qspace": {"h_range": [3, 3], "scrambles": 1},
    "clifford": {"h_range": [2, 3], "pair_trials": 4, "triple_trials": 4, "element_h": 3},
    "ks": {"h_range": [3, 4], "instances_per_h": 1, "commutator_samples": 1},
    "sympow": {"decompose": [], "level": [], "isotropic": [], "block_level": []},
    "weil": {"conjugations": 1},
    "betti": {"b2_range": [3, 4]},
    "corr": {"b3": 4, "n": [2], "sign_rule": "koszul", "negative_control": True},
}


def _statuses() -> dict[str, str]:
    return {c["name"]: c["status"] for c in suite_mod.run_full_suite(TRIMMED).checks}


@cache
def _baseline() -> dict[str, str]:
    return _statuses()


def _check_row(monkeypatch, patches, failing):
    before = _baseline()
    assert all(before[name] == "pass" for name in failing)
    with monkeypatch.context() as m:
        for owner, attr, value in patches:
            m.setattr(owner, attr, value)
        after = _statuses()
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
    covered = set().union(*(failing for _, failing in LINALG_QSPACE_ROWS))
    assert {name for name in _baseline() if name.partition(".")[0] in ("linalg", "qspace")} == covered


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
_product_numerators = ks_mod._product_numerators


class _OrientationLost:
    """HKStructure.build with beta negated: the rebuilt periods lose their orientation."""

    @staticmethod
    def build(space, alpha, beta):
        return HKStructure.build(space, alpha, tuple(-x for x in beta))


def _first_row_repeated(ks, v0):
    block = _embedding_unit_block(ks, v0)
    return Matrix([block.row(0)] + [block.row(i) for i in range(block.rows - 1)])


def _last_index_negated(alg, xs, ys):
    """The column e.x negated when x is odd and holds the last index: J^2 reads only even columns."""
    ((x, _),) = ys
    nums = _product_numerators(alg, xs, ys)
    return {m: -n for m, n in nums.items()} if x.bit_count() & 1 and x >> (alg.h - 1) & 1 else nums


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
    ([(ks_mod, "_product_numerators", _last_index_negated)], {"ks.commutators"}),
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
    covered = set().union(*(failing for _, failing in HODGE_ROWS))
    assert {name for name in _baseline() if name.startswith("hodge.")} == covered


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
    # on the block instance every move is within a 2x2 block and has sign
    # +1, so only the conjugates see the dropped sign
    ([(weil_mod, "derivation_wedge4", _unsigned_derivation_wedge4)], {"weil.conjugation_invariance"}),
    ([(weil_mod, "weil_multiplicities", lambda endo: (endo.dim // 4, endo.dim // 4))], {"weil.unbalanced_control", "weil.trace_criterion"}),
    ([(weil_mod, "certify_22", lambda classes, j: False)], {"weil.balanced_block"}),
    ([(suite_mod, "weil_class_space", lambda endo: _weil_class_space(endo)[:1])], {"weil.conjugation_invariance"}),
]


def test_weil_checks_fail_under_their_faults(monkeypatch):
    for patches, failing in WEIL_ROWS:
        _check_row(monkeypatch, patches, failing)


def test_every_clifford_ks_weil_and_corr_check_has_a_control_row():
    covered = set().union(*(failing for _, failing in CLIFFORD_ROWS + KS_ROWS + WEIL_ROWS + CORR_ROWS))
    assert {name for name in _baseline() if name.partition(".")[0] in ("clifford", "ks", "weil", "corr")} == covered
