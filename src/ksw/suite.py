"""Whole-workbench invariant suite with seeded, byte-stable reports.

Every check name maps one-to-one to a documented invariant of some module.
All checks are exact (floating-point oracles live in the test suite, not
here); randomized instances derive from the single seeded generator, and
reports carry no timestamps, so identical config + seed means identical
bytes.

Statuses: pass | fail | vacuous | skipped.  One rule (`_attempt`) maps an
exception to a status: CapExceeded is skipped, NotApplicable vacuous, any
other WorkbenchError a fail; a family with no instances is vacuous
(`_family`).  Exit code 0 means nothing failed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import betti, formal_corr, kuga_satake, sympow
from .clifford import CliffordAlgebra, _mul_block
from .errors import CapExceeded, NotApplicable, UsageError, WorkbenchError
from .hodge import HKStructure, h2_spectrum, rotation_generator
from .linalg import Matrix, induced_operator, products_equal, reduced_echelon_basis
from .qspace import QuadraticSpace, same_square_class
from .randgen import (
    random_congruence_scramble,
    random_hk,
    random_rational_matrix,
    random_unimodular,
    random_vector,
)
from .serialize import canonical_json, content_hash
from .weil import analyze, check_quadratic_endo, is_weil, weil_class_space

_ONE = Fraction(1)

OK_STATUSES = ("pass", "vacuous", "skipped")

NO_INSTANCES = "no instances"


@dataclass
class RunReport:
    """Machine-readable outcome of a command or suite run."""

    command: str
    inputs: dict[str, str]
    checks: list[dict]
    seed: int | None = None
    data: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return exit_code_from_checks(self.checks)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.checks:
            out[c["status"]] = out.get(c["status"], 0) + 1
        return out

    def to_dict(self) -> dict:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "checks": self.checks,
            "counts": self.counts(),
            "exit_code": self.exit_code,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.data:
            payload["data"] = self.data
        return payload


def exit_code_from_checks(checks: list[dict]) -> int:
    return 0 if all(c["status"] in OK_STATUSES for c in checks) else 1


def _result(name: str, status: str, detail: str = "") -> dict:
    return {"name": name, "status": status, "detail": detail}


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return _result(name, "pass" if ok else "fail", detail)


def _vacuous(name: str, detail: str) -> dict:
    return _result(name, "vacuous", detail)


def _attempt(fn, *args, **kwargs):
    """(fn(*args, **kwargs), None), or (None, (status, detail)) if it raised.

    The one rule by which a suite outcome becomes a status: CapExceeded is
    skipped, NotApplicable vacuous, and any other WorkbenchError a fail
    carrying its message.
    """
    try:
        return fn(*args, **kwargs), None
    except CapExceeded as exc:
        return None, ("skipped", str(exc))
    except NotApplicable as exc:
        return None, ("vacuous", str(exc))
    except WorkbenchError as exc:
        return None, ("fail", str(exc))


def _family(results: dict[str, tuple[bool, str]], count: int) -> list[dict]:
    """Checks from name -> (ok, detail); a family with no instances is vacuous."""
    if not count:
        return [_vacuous(name, NO_INSTANCES) for name in results]
    return [_check(name, ok, detail) for name, (ok, detail) in results.items()]


def _embedding_laws(ks, v0) -> tuple[bool, bool, bool, Matrix]:
    """Full rank of v -> E_v, the J sign laws, the exact inverse of R_v0; and R_v0."""
    h = ks.space.h
    rank_ok = kuga_satake.embedding_has_full_rank(ks, v0)
    sign_ok = kuga_satake.embedding_sign_laws(ks, v0, matrix_level=h <= 5)
    riso = kuga_satake.odd_even_isomorphism(ks, v0)
    rinv = kuga_satake.odd_even_inverse(ks, v0)
    return rank_ok, sign_ok, rinv * riso == Matrix.identity(1 << (h - 1)), riso


def default_config() -> dict:
    with resources.files("ksw.data").joinpath("default_suite.json").open("rb") as fh:
        return json.load(fh)


def _validate_config(value, default, where: str) -> None:
    """UsageError unless value has the JSON shape of the default (bool is not int).

    Dict keys must exist in the default; list elements must match the
    default's first element.
    """
    if type(value) is not type(default):
        raise UsageError(
            "suite config %s: expected %s, got %s"
            % (where or "(top level)", type(default).__name__, type(value).__name__)
        )
    if isinstance(default, dict):
        for key, sub in value.items():
            path = "%s.%s" % (where, key) if where else key
            if key not in default:
                raise UsageError("unknown suite config key %s" % path)
            _validate_config(sub, default[key], path)
    elif isinstance(default, list) and default:
        for i, item in enumerate(value):
            _validate_config(item, default[0], "%s[%d]" % (where, i))


#: [lo, hi] range keys and the least lo each family can run
_RANGE_KEYS = (
    ("qspace", "h_range", 1),
    ("clifford", "h_range", 1),
    ("ks", "h_range", 2),
    ("betti", "b2_range", 3),
)

#: size and count keys (each entry, for a list) and the least value each family can run
_LEAST = (
    ("linalg", "trials", 0),
    ("linalg", "max_size", 1),
    ("qspace", "scrambles", 0),
    ("clifford", "element_h", 1),
    ("clifford", "pair_trials", 0),
    ("clifford", "triple_trials", 0),
    ("ks", "instances_per_h", 0),
    ("ks", "commutator_samples", 0),
    ("weil", "conjugations", 0),
    ("corr", "b3", 2),
    ("corr", "n", 2),
)

#: [h, k] pair-list keys, the least h and k, and whether k must be odd
_PAIR_KEYS = (
    ("sympow", "decompose", 1, 0, False),
    ("sympow", "level", 2, 1, True),
    ("sympow", "isotropic", 1, 0, False),
    ("sympow", "block_level", 2, 0, False),
)


def _at_least(path: str, value: int, least: int, what: str = "value") -> None:
    if value < least:
        raise UsageError("suite config %s: %s must be at least %d, got %d" % (path, what, least, value))


def _validate_ranges(cfg: dict) -> None:
    """UsageError unless every range, size, count and [h, k] key is in its family's domain.

    lo > hi is allowed: it is the empty range, and the family reports vacuous.
    """
    for family, key, least in _RANGE_KEYS:
        value = cfg[family][key]
        path = "%s.%s" % (family, key)
        if len(value) != 2:
            raise UsageError("suite config %s: expected [lo, hi], got %s" % (path, json.dumps(value)))
        _at_least(path, value[0], least, "lo")
    for family, key, least in _LEAST:
        value = cfg[family][key]
        path = "%s.%s" % (family, key)
        if isinstance(value, list):
            for i, x in enumerate(value):
                _at_least("%s[%d]" % (path, i), x, least)
        else:
            _at_least(path, value, least)
    for family, key, least_h, least_k, odd in _PAIR_KEYS:
        for i, pair in enumerate(cfg[family][key]):
            path = "%s.%s[%d]" % (family, key, i)
            if len(pair) != 2:
                raise UsageError("suite config %s: expected [h, k], got %s" % (path, json.dumps(pair)))
            _at_least(path, pair[0], least_h, "h")
            _at_least(path, pair[1], least_k, "k")
            if odd and not pair[1] % 2:
                raise UsageError("suite config %s: k must be odd, got %d" % (path, pair[1]))
    if cfg["corr"]["sign_rule"] not in (formal_corr.SIGN_KOSZUL, formal_corr.SIGN_BROKEN):
        raise UsageError("suite config corr.sign_rule: unknown sign rule %s" % json.dumps(cfg["corr"]["sign_rule"]))
    if cfg["betti"]["catalog"] != "default":
        raise UsageError("suite config betti.catalog: only \"default\" ships, got %s" % json.dumps(cfg["betti"]["catalog"]))


def load_config(overrides: dict | None = None) -> dict:
    cfg = default_config()
    if overrides:
        _validate_config(overrides, cfg, "")
        for key, value in overrides.items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
        _validate_ranges(cfg)
    return cfg


# -- individual check families -----------------------------------------------------


def _linalg_checks(cfg, rng) -> list[dict]:
    sub = cfg["linalg"]
    bad = []
    count = 0
    for t in range(sub["trials"]):
        n = rng.randint(1, sub["max_size"])
        m = random_rational_matrix(rng, n, n)
        try:
            inv = m.inverse()
        except WorkbenchError:
            continue
        count += 1
        if m * inv != Matrix.identity(n):
            bad.append(t)
    detail = "m * inverse(m) == identity on %d random square matrices" % sub["trials"]
    return _family({"linalg.inverse_roundtrip": (not bad, detail)}, count)


def _qspace_checks(cfg, rng) -> list[dict]:
    sub = cfg["qspace"]
    lo, hi = sub["h_range"]
    sig_ok = True
    disc_ok = True
    count = 0
    for h in range(lo, hi + 1):
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        base = QuadraticSpace(Matrix.diagonal(entries))
        disc = _ONE
        for x in base.diag_values:
            disc *= x
        for _ in range(sub["scrambles"]):
            scrambled = QuadraticSpace(random_congruence_scramble(rng, base.gram))
            count += 1
            if scrambled.signature != base.signature:
                sig_ok = False
            sdisc = _ONE
            for x in scrambled.diag_values:
                sdisc *= x
            if not same_square_class(disc, sdisc):
                disc_ok = False
    return _family(
        {
            "qspace.signature_congruence": (sig_ok, "Sylvester invariance under P^t G P"),
            "qspace.discriminant_square_class": (disc_ok, "det mod squares invariant under congruence"),
        },
        count,
    )


def _clifford_checks(cfg, rng) -> list[dict]:
    sub = cfg["clifford"]
    cap = cfg.get("cap_h")
    checks = []
    lo, hi = sub["h_range"]
    for h in range(lo, hi + 1):
        name = "clifford.dimension_counts[h=%d]" % h
        alg, outcome = _attempt(CliffordAlgebra, QuadraticSpace(Matrix.identity(h)), cap=cap)
        if outcome:
            checks.append(_result(name, *outcome))
            continue
        ok = (
            alg.dim == 2 ** h
            and len(alg.even_masks) == 2 ** (h - 1)
            and len(alg.odd_masks) == 2 ** (h - 1)
        )
        checks.append(_check(name, ok, "dim Cliff = 2^h, dim C+ = 2^(h-1)"))

    h = sub["element_h"]
    diag = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(h))
    names = ("clifford.anticommutation", "clifford.associativity", "clifford.parity_additivity")
    alg, outcome = _attempt(CliffordAlgebra, QuadraticSpace(Matrix.diagonal(diag)), cap=cap)
    if outcome:
        return checks + [_result(name, *outcome) for name in names]
    pair_ok = True
    for _ in range(sub["pair_trials"]):
        vc = random_vector(rng, h)
        wc = random_vector(rng, h)
        v = alg.vector_diag(vc)
        w = alg.vector_diag(wc)
        pairing = sum((a * b * d for a, b, d in zip(vc, wc, diag)), Fraction(0))
        if v * w + w * v != alg.scalar(2 * pairing):
            pair_ok = False
    detail = "v.w + w.v == 2(v,w).unit on %d random grade-1 pairs" % sub["pair_trials"]
    checks += _family({names[0]: (pair_ok, detail)}, sub["pair_trials"])

    assoc_ok = True
    parity_ok = True
    for _ in range(sub["triple_trials"]):
        x = kuga_satake._random_element(alg, rng)
        y = kuga_satake._random_element(alg, rng)
        z = kuga_satake._random_element(alg, rng)
        if (x * y) * z != x * (y * z):
            assoc_ok = False
        xe, ye = (alg.element({m: c for m, c in u.terms.items() if not m.bit_count() & 1}) for u in (x, y))
        if (xe * ye).parity != "even":
            parity_ok = False
    return checks + _family(
        {
            names[1]: (assoc_ok, "(xy)z == x(yz) on random triples"),
            names[2]: (parity_ok, "even.even stays even"),
        },
        sub["triple_trials"],
    )


def _ks_instances(cfg, rng):
    sub = cfg["ks"]
    cap = cfg.get("cap_h")
    lo, hi = sub["h_range"]
    for h in range(lo, hi + 1):
        for i in range(sub["instances_per_h"]):
            hk = random_hk(rng, h)
            yield h, i, hk, cap


#: ks check name -> detail; {count} is the number of instances built
_KS_CHECKS = {
    "ks.e_square": "e.e == -unit on {count} instances",
    "ks.j_square": "J^2 == -I on C+ (column-wise)",
    "ks.commutators": "all four identity families",
    "ks.torus_dimension": "complex dim = 2^(h-2)",
    "ks.basis_independence": "Pythagorean rotation fixes e",
    "ks.orientation_reversal": "swapping the pair negates e",
    "ks.endo_rank": "rank of v -> E_v equals h",
    "ks.endo_sign_laws": "J (anti)commutes with E_v by plane membership",
    "ks.odd_even_iso": "R_v0 invertible and J-intertwining",
}


def _ks_checks(cfg, rng) -> list[dict]:
    sub = cfg["ks"]
    ok = dict.fromkeys(_KS_CHECKS, True)
    count = 0
    unbuilt = None
    for h, i, hk, cap in _ks_instances(cfg, rng):
        ks, outcome = _attempt(kuga_satake.build, hk, cap=cap)
        if outcome:
            unbuilt = outcome
            continue
        count += 1
        ok["ks.e_square"] &= kuga_satake.verify_e_square(ks)
        ok["ks.j_square"] &= kuga_satake.verify_j_square(ks)
        report = kuga_satake.structure_commutators(
            ks, samples=sub["commutator_samples"], rng=rng, raise_on_failure=False
        )
        ok["ks.commutators"] &= report.ok
        ok["ks.torus_dimension"] &= ks.torus_complex_dim == 2 ** (h - 2)

        # basis independence under a rational rotation of the plane
        a, b = Fraction(3, 5), Fraction(4, 5)
        alpha, beta = hk.period.alpha, hk.period.beta
        alpha2 = tuple(a * x + b * y for x, y in zip(alpha, beta))
        beta2 = tuple(-b * x + a * y for x, y in zip(alpha, beta))
        hk2 = HKStructure.build(hk.space, alpha2, beta2)
        ok["ks.basis_independence"] &= kuga_satake.complex_structure_element(hk2, ks.algebra) == ks.e
        hk3 = HKStructure.build(hk.space, beta, alpha)
        ok["ks.orientation_reversal"] &= kuga_satake.complex_structure_element(hk3, ks.algebra) == -ks.e

        v0 = kuga_satake.default_v0(ks)
        rank_ok, sign_ok, inverse_ok, riso = _embedding_laws(ks, v0)
        ok["ks.endo_rank"] &= rank_ok
        ok["ks.endo_sign_laws"] &= sign_ok
        ok["ks.odd_even_iso"] &= inverse_ok
        if h <= 6:
            j_odd = _mul_block(ks.e, "left", "odd")
            ok["ks.odd_even_iso"] &= products_equal(j_odd, riso, riso, ks.j_even)
    if unbuilt and not count:
        return [_result(name, *unbuilt) for name in _KS_CHECKS]
    checks = _family({name: (ok[name], d.format(count=count)) for name, d in _KS_CHECKS.items()}, count)
    if unbuilt:
        checks.append(_result("ks.build", *unbuilt))
    return checks


def _hodge_checks(cfg, rng) -> list[dict]:
    iso_ok, skew_ok, spec_ok = True, True, True
    count = 0
    for h, i, hk, cap in _ks_instances(cfg, rng):
        count += 1
        d_aa, cross, half = hk.sigma_isotropy()
        iso_ok &= d_aa == 0 and cross == 0 and half == hk.period.norm > 0
        a = rotation_generator(hk)
        g = hk.space.gram
        skew_ok &= (a.transpose() * g + g * a).is_zero()
        spec = h2_spectrum(hk)
        spec_ok &= (
            spec.dim(2, 0) == 1 and spec.dim(0, 2) == 1 and spec.dim(1, 1) == h - 2
        )
    return _family(
        {
            "hodge.period_isotropy": (iso_ok, "q(sigma,sigma)=0, q(sigma,sigma-bar)=2N>0"),
            "hodge.rotation_skew": (skew_ok, "A^t G + G A == 0"),
            "hodge.h2_spectrum": (spec_ok, "type (1, h-2, 1) on H^2"),
        },
        count,
    )


def _decompose_laws(space: QuadraticSpace, k: int) -> tuple[bool, str]:
    """Sym^k: contraction surjective, block dims and total right; the certificate.

    Block l = 0 is ker(contraction), so its dimension is harmonic_dim(h, k)
    exactly when the contraction is onto Sym^(k-2).
    """
    h = space.h
    dec = sympow.decompose(space, k)
    dims_ok = all(d == sympow.harmonic_dim(h, k - 2 * l) for l, d in dec.block_dims)
    return (
        dims_ok and dec.total == sympow.sym_dim(h, k),
        "contraction surjective; block dims as computed; certificate %s" % dec.certificate,
    )


def _sympow_checks(cfg, rng) -> list[dict]:
    sub = cfg["sympow"]
    checks = []
    for h, k in sub["decompose"]:
        name = "sympow.decompose[h=%d,k=%d]" % (h, k)
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        space = QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal(entries)))
        result, outcome = _attempt(_decompose_laws, space, k)
        checks.append(_result(name, *outcome) if outcome else _check(name, *result))
    # harmonic symmetry under a norm-preserving basis permutation
    sym2 = sympow.build_sym(QuadraticSpace(Matrix.diagonal([1, 1, -2])), 2)
    harm = sympow._harmonic_basis(sym2)
    swap = induced_operator(sym2.basis, sym2.index, lambda mu: (((mu[1], mu[0], mu[2]), 1),), 1)
    checks.append(
        _check(
            "sympow.harmonic_symmetry",
            reduced_echelon_basis(swap * harm) == reduced_echelon_basis(harm),
            "swap of equal-norm diagonal vectors preserves Harm^2",
        )
    )
    for h, k in sub["level"]:
        name = "sympow.level_filtration[h=%d,k=%d]" % (h, k)
        part, outcome = _attempt(sympow.level_two_part, random_hk(rng, h), k)
        checks.append(
            _result(name, *outcome)
            if outcome
            else _check(name, len(part) == h, "level <= 2 part is Q^((k-1)/2).H^2")
        )
    for h, k in sub["block_level"]:
        name = "sympow.block_level[h=%d,k=%d]" % (h, k)
        levels, outcome = _attempt(sympow.block_max_level, random_hk(rng, h), k)
        checks.append(
            _result(name, *outcome)
            if outcome
            else _check(name, all(lvl == 2 * (k - 2 * l) for l, lvl in levels), str(levels))
        )
    for h, k in sub["isotropic"]:
        name = "sympow.isotropic_span[h=%d,k=%d]" % (h, k)
        if h == 3:
            gram = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
        else:
            gram = Matrix.diagonal([1] * (h // 2) + [-1] * (h - h // 2))
        ok, outcome = _attempt(sympow.isotropic_span_check, QuadraticSpace(gram), k)
        checks.append(
            _result(name, *outcome) if outcome else _check(name, ok, "isotropic powers span harmonics")
        )
    # definite control: must report NotApplicable
    try:
        sympow.isotropic_span_check(QuadraticSpace(Matrix.identity(3)), 2)
        checks.append(_check("sympow.isotropic_definite_control", False, "expected NotApplicable"))
    except NotApplicable:
        checks.append(
            _check("sympow.isotropic_definite_control", True, "definite form raises NotApplicable")
        )
    return checks


def _weil_block_instance() -> tuple[Matrix, Matrix]:
    """8-dim J (four 2x2 rotation blocks) and phi = J on two blocks, -J on two."""
    j = Matrix([[(-1 if k == i + 1 else 1 if k == i - 1 else 0) if i // 2 == k // 2 else 0
                 for k in range(8)] for i in range(8)])
    phi = Matrix([[j[i, k] if i < 4 else -j[i, k] for k in range(8)] for i in range(8)])
    return j, phi


def _weil_checks(cfg, rng) -> list[dict]:
    checks = []
    j, phi = _weil_block_instance()
    for name, cand, want, detail in (
        ("weil.balanced_block", phi, (2, 2, True, 2, True),
         "block instance: (2,2) multiplicities, 2-dim class space, all (2,2)"),
        ("weil.unbalanced_control", j, (4, 0, False, 2, False),
         "phi = J: K-line survives but classes meet (4,0)+(0,4)"),
    ):
        report, outcome = _attempt(analyze, j, cand)
        if outcome:
            checks.append(_result(name, *outcome))
            continue
        got = (report.mult_plus, report.mult_minus, report.is_weil, report.weil_space_dim, report.all_weil_classes_22)
        checks.append(_check(name, got == want, detail))
    trace, conj = "weil.trace_criterion", "weil.conjugation_invariance"
    ok = {trace: True, conj: True}
    raised = {}
    count = cfg["weil"]["conjugations"]
    for _ in range(count):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        jc = ginv * j * g
        for cand, balanced in ((phi, True), (j, False)):
            endo, outcome = _attempt(check_quadratic_endo, jc, ginv * cand * g)
            if outcome:
                raised.setdefault(trace, outcome)
                raised.setdefault(conj, outcome)
                continue
            weil, outcome = _attempt(is_weil, endo)
            if outcome:
                raised.setdefault(trace, outcome)
            else:
                ok[trace] &= weil == ((endo.phi * endo.j).trace() == 0) == balanced
            space, outcome = _attempt(weil_class_space, endo)
            if outcome:
                raised.setdefault(conj, outcome)
            else:
                ok[conj] &= len(space) == 2
    family = _family(
        {
            trace: (ok[trace], "is_weil iff trace(phi.J) == 0"),
            conj: (ok[conj], "class space dim 2 under base change"),
        },
        count,
    )
    return checks + [_result(c["name"], *raised[c["name"]]) if c["name"] in raised else c for c in family]


def _betti_checks(cfg, rng) -> list[dict]:
    lo, hi = cfg["betti"]["b2_range"]
    mono_ok = True
    compared = 0
    prev = {}
    for b2 in range(lo, hi + 1):
        k = betti.bound_exponent(b2)
        parity = b2 % 2
        if parity in prev:
            compared += 1
            mono_ok &= k >= prev[parity]
        prev[parity] = k
    checks = _family(
        {"betti.bound_monotone": (mono_ok, "k nondecreasing within each parity class")}, compared
    )
    catalog = betti.default_catalog()
    tight_ok = all(betti.audit_b3(e).status == betti.STATUS_TIGHT for e in catalog)
    checks.append(_check("betti.catalog_tight", tight_ok, "shipped entries audit tight"))
    factor_ok = (
        betti.ks_factor_dims(7) == {4, 8}
        and betti.ks_factor_dims(6) == {2, 4, 8}
        and betti.ks_factor_dims(3) == {1, 2}
    )
    checks.append(_check("betti.factor_dims", factor_ok, "odd/even factor dimension sets"))
    return checks


def _corr_checks(cfg, rng) -> list[dict]:
    sub = cfg["corr"]
    checks = []
    b3 = sub["b3"]
    for n in sub["n"]:
        names = ["corr.%s[n=%d]" % (what, n) for what in ("uniform_coefficient", "kunneth_block", "pushforward_pairing")]
        gamma, outcome = _attempt(formal_corr.kunneth_square, b3, n, sub["sign_rule"])
        if outcome:
            checks.extend(_result(name, *outcome) for name in names)
            continue
        pairs, coef, ok = formal_corr.kunneth_coefficient(gamma, b3, n)
        push_ok = not gamma.is_zero()
        for i in range(1, b3 + 1):
            for jj in range(i + 1, b3 + 1):
                fwd = formal_corr.gamma_pushforward(gamma, i, jj)
                push_ok &= fwd == gamma.algebra.element({(0, (1 << (i - 1)) | (1 << (jj - 1)), n - 2): coef or 0})
                push_ok &= formal_corr.gamma_pushforward(gamma, jj, i) == -fwd
        checks += [
            _check(names[0], ok, "c = %s over %d pairs" % (coef, pairs) if ok else "no uniform nonzero c"),
            _check(names[1], formal_corr.is_kunneth_concentrated(gamma), "no cross terms outside the (f^2, e^2) block"),
            _check(names[2], push_ok, "contraction matches c times the formal pairing map, antisymmetrically"),
        ]
    if sub.get("negative_control"):
        gamma_bad, outcome = _attempt(formal_corr.kunneth_square, b3, 2, formal_corr.SIGN_BROKEN)
        if outcome:
            checks.append(_result("corr.negative_control", *outcome))
        else:
            uniform_bad = formal_corr.kunneth_coefficient(gamma_bad, b3, 2)[2]
            detail = "misgraded sign rule must not produce a nonzero uniform coefficient"
            checks.append(_check("corr.negative_control", not uniform_bad, detail))
    return checks


def run_full_suite(overrides: dict | None = None) -> RunReport:
    """Execute every module's invariant suite; deterministic for fixed config."""
    cfg = load_config(overrides)
    seed = cfg["seed"]
    checks: list[dict] = []
    for fn in (
        _linalg_checks,
        _qspace_checks,
        _clifford_checks,
        _ks_checks,
        _hodge_checks,
        _sympow_checks,
        _weil_checks,
        _betti_checks,
        _corr_checks,
    ):
        rng = random.Random(seed + sum(fn.__name__.encode()))
        checks.extend(fn(cfg, rng))
    return RunReport(
        command="suite",
        inputs={"config": content_hash(canonical_json(cfg))},
        checks=checks,
        seed=seed,
    )
