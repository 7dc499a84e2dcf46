"""Whole-workbench invariant suite with seeded, byte-stable reports.

Every check name maps one-to-one to a documented invariant of some module.
All checks are exact (floating-point oracles live in the test suite, not
here); reports carry no timestamps, so identical config + seed means
identical bytes.

The checks are one table (`_FAMILIES`): each family is an instance
generator plus rows (check name, detail, predicate over one instance),
and one driver (`_run_family`) folds every predicate over the instances.
Each family draws its random instances from its own stream, seeded by the
config seed and the family's key, so a family that draws more or less
moves no other family's instances.

Statuses: pass | fail | vacuous | skipped.  One rule (`_attempt`) maps an
exception to a status: CapExceeded is skipped, NotApplicable vacuous, any
other WorkbenchError a fail; a check with no instances is vacuous
(`_family`).  Exit code 0 means nothing failed.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import prod
from types import SimpleNamespace
from typing import NamedTuple

from . import betti, formal_corr, kuga_satake, sympow
from .clifford import CliffordAlgebra
from .errors import CapExceeded, NotApplicable, UsageError, WorkbenchError
from .hodge import HKStructure, h2_spectrum, rotation_generator
from .linalg import Matrix, induced_operator, reduced_echelon_basis
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


def _family(results: dict[str, tuple[bool, str, int]], raised: dict[str, tuple[str, str]]) -> list[dict]:
    """Checks from name -> (ok, detail, instances): a raised outcome is the check's; no instances is vacuous."""
    return [
        _result(name, *raised[name]) if name in raised
        else _check(name, ok, detail) if count else _vacuous(name, NO_INSTANCES)
        for name, (ok, detail, count) in results.items()
    ]


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


# -- the check table ----------------------------------------------------------------


class _Instance(SimpleNamespace):
    """One subject of a family's rows; ``outcome`` is (status, detail) when its shared work raised."""

    outcome = None


class _Family(NamedTuple):
    """A random stream key, an instance generator (cfg, rng) -> instances, and rows (name, detail, predicate).

    The key seeds the stream; renaming it would move every draw of its
    families.  The generator makes every draw and builds once what several
    predicates read; both look their callees up when they run.  ``instances``
    returns None when the config turns the family off.  With ``unbuilt`` set,
    an instance that raised is reported once under that name, or by every
    check if none was built.
    """

    key: str
    instances: Callable
    rows: tuple
    unbuilt: str = ""


def _one(cfg, rng):
    yield _Instance()


def _linalg_instances(cfg, rng):
    sub = cfg["linalg"]
    for _ in range(sub["trials"]):
        n = rng.randint(1, sub["max_size"])
        m = random_rational_matrix(rng, n, n)
        inv, singular = _attempt(m.inverse)
        if not singular:  # a singular draw is no instance
            yield _Instance(m=m, inv=inv)


def _qspace_instances(cfg, rng):
    sub = cfg["qspace"]
    lo, hi = sub["h_range"]
    for h in range(lo, hi + 1):
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        base = QuadraticSpace(Matrix.diagonal(entries))
        disc = prod(base.diag_values, start=_ONE)
        for _ in range(sub["scrambles"]):
            yield _Instance(base=base, disc=disc, scrambled=QuadraticSpace(random_congruence_scramble(rng, base.gram)))


def _clifford_dimensions(cfg, rng):
    lo, hi = cfg["clifford"]["h_range"]
    for h in range(lo, hi + 1):
        yield _Instance(h=h, cap=cfg.get("cap_h"))


def _dimension_counts(t) -> bool:
    alg = CliffordAlgebra(QuadraticSpace(Matrix.identity(t.h)), cap=t.cap)
    return alg.dim == 2 ** t.h and len(alg.even_masks) == 2 ** (t.h - 1) and len(alg.odd_masks) == 2 ** (t.h - 1)


def _clifford_elements(cfg, rng):
    """Random grade-1 pairs, then random triples, in one algebra on a random diagonal form."""
    sub = cfg["clifford"]
    h = sub["element_h"]
    diag = tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(h))
    alg, outcome = _attempt(CliffordAlgebra, QuadraticSpace(Matrix.diagonal(diag)), cap=cfg.get("cap_h"))
    if outcome:
        yield _Instance(outcome=outcome)
        return
    for _ in range(sub["pair_trials"]):
        vc, wc = random_vector(rng, h), random_vector(rng, h)
        pairing = sum((a * b * d for a, b, d in zip(vc, wc, diag)), Fraction(0))
        yield _Instance(pair=True, v=alg.vector_diag(vc), w=alg.vector_diag(wc), two_vw=alg.scalar(2 * pairing))
    for _ in range(sub["triple_trials"]):
        x, y, z = (_random_element(alg, rng) for _ in range(3))
        yield _Instance(pair=False, x=x, y=y, z=z)


def _random_element(alg, rng):
    """Up to three blades with coefficients in [-5, 5] / [1, 4] (a repeated blade keeps its last); the unit if all are 0."""
    terms = {}
    for _ in range(3):
        mask = rng.randrange(alg.dim)
        terms[mask] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return alg.element(terms if any(terms.values()) else {0: _ONE})


def _even_part(u):
    return u.algebra.element({m: c for m, c in u.terms.items() if not m.bit_count() & 1})


def _periods(cfg, rng):
    sub = cfg["ks"]
    lo, hi = sub["h_range"]
    for h in range(lo, hi + 1):
        for _ in range(sub["instances_per_h"]):
            yield _Instance(h=h, hk=random_hk(rng, h))


def _ks_built(cfg, rng):
    """The periods with their KS structure; over the cap, the build outcome."""
    for t in _periods(cfg, rng):
        t.ks, t.outcome = _attempt(kuga_satake.build, t.hk, cap=cfg.get("cap_h"))
        t.samples = cfg["ks"]["commutator_samples"]
        yield t


def _sequence(t, check: str) -> bool:
    """``check`` and its ``check.*`` rows of the instance's `kuga_satake.verify_sequence`, run at its first read."""
    if not hasattr(t, "sequence"):  # a step that raised stored nothing: each check that reads it takes the outcome
        t.sequence = kuga_satake.verify_sequence(t.ks, kuga_satake.default_v0(t.ks), t.samples)
    return all(ok for name, ok, _ in t.sequence if name == check or name.startswith(check + "."))


def _e_of(t, alpha, beta):
    return kuga_satake.complex_structure_element(HKStructure.build(t.hk.space, alpha, beta), t.ks.algebra)


def _rotation_fixes_e(t) -> bool:
    """e of the period basis turned by the Pythagorean rotation (3/5, 4/5)."""
    a, b = Fraction(3, 5), Fraction(4, 5)
    pairs = list(zip(t.hk.period.alpha, t.hk.period.beta))
    return _e_of(t, tuple(a * x + b * y for x, y in pairs), tuple(-b * x + a * y for x, y in pairs)) == t.ks.e


def _period_isotropy(t) -> bool:
    d_aa, cross, half = t.hk.sigma_isotropy()
    return d_aa == 0 and cross == 0 and half == t.hk.period.norm > 0


def _rotation_skew(t) -> bool:
    a, g = rotation_generator(t.hk), t.hk.space.gram
    return (a.transpose() * g + g * a).is_zero()


def _h2_type(t) -> bool:
    spec = h2_spectrum(t.hk)
    return spec.dim(2, 0) == 1 and spec.dim(0, 2) == 1 and spec.dim(1, 1) == t.h - 2


def _scrambled_forms(cfg, rng):
    for h, k in cfg["sympow"]["decompose"]:
        entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
        yield _Instance(h=h, k=k, space=QuadraticSpace(random_congruence_scramble(rng, Matrix.diagonal(entries))))


def _decompose_laws(t) -> tuple[bool, str]:
    """Sym^k: contraction surjective, block dims and total right; the certificate.

    Block l = 0 is ker(contraction), so its dimension is harmonic_dim(h, k)
    exactly when the contraction is onto Sym^(k-2).
    """
    dec = sympow.decompose(t.space, t.k)
    dims_ok = all(d == sympow.harmonic_dim(t.h, t.k - 2 * l) for l, d in dec.block_dims)
    return (
        dims_ok and dec.total == sympow.sym_dim(t.h, t.k),
        "contraction surjective; block dims as computed; certificate %s" % dec.certificate,
    )


def _harmonic_symmetry(t) -> bool:
    sym2 = sympow.build_sym(QuadraticSpace(Matrix.diagonal([1, 1, -2])), 2)
    harm = sympow._harmonic_basis(sym2)
    swap = induced_operator(sym2.basis, sym2.index, lambda mu: (((mu[1], mu[0], mu[2]), 1),), 1)
    return reduced_echelon_basis(swap * harm) == reduced_echelon_basis(harm)


def _with_periods(pairs, rng):
    """Each [h, k] pair with a random period at h."""
    for h, k in pairs:
        yield _Instance(h=h, k=k, hk=random_hk(rng, h))


def _block_levels(t) -> tuple[bool, str]:
    levels = sympow.block_max_level(t.hk, t.k)
    return all(lvl == 2 * (t.k - 2 * l) for l, lvl in levels), str(levels)


def _split_forms(cfg, rng):
    """2xy - z^2 at h = 3, else diag(1, ..., 1, -1, ..., -1) split h // 2 and h - h // 2."""
    for h, k in cfg["sympow"]["isotropic"]:
        gram = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]) if h == 3 else Matrix.diagonal([1] * (h // 2) + [-1] * (h - h // 2))
        yield _Instance(h=h, k=k, space=QuadraticSpace(gram))


def _definite_control(t) -> tuple[bool, str]:
    try:
        sympow.isotropic_span_check(QuadraticSpace(Matrix.identity(3)), 2)
    except NotApplicable:
        return True, "definite form raises NotApplicable"
    return False, "expected NotApplicable"


def _weil_block_instance() -> tuple[Matrix, Matrix]:
    """8-dim J (four 2x2 rotation blocks) and phi = J on two blocks, -J on two."""
    rows = [[(-1 if k == i + 1 else 1 if k == i - 1 else 0) if i // 2 == k // 2 else 0 for k in range(8)] for i in range(8)]
    return Matrix(rows), Matrix([row if i < 4 else [-x for x in row] for i, row in enumerate(rows)])


#: one fixed signed permutation, (row i, column order[i]) = sign[i]: inside the
#: 2x2 blocks every move of `weil._wedge4_moves` has sign +1, across them not
_WEIL_ORDER = (0, 2, 4, 6, 1, 3, 5, 7)
_WEIL_SIGNS = (1, -1, 1, 1, -1, 1, 1, -1)


def _weil_block(cfg, rng):
    """The block instance conjugated by `_WEIL_ORDER` and `_WEIL_SIGNS`, so a dropped move sign shows."""
    j, phi = _weil_block_instance()
    p = Matrix([[s if k == o else 0 for k in range(8)] for o, s in zip(_WEIL_ORDER, _WEIL_SIGNS)])
    p_inv = p.transpose()
    yield _Instance(j=p_inv * j * p, phi=p_inv * phi * p)


def _analysis(j: Matrix, cand: Matrix) -> tuple:
    """(mult_plus, mult_minus, is_weil, class space dim, all classes (2,2)) of `analyze`."""
    report = analyze(j, cand)
    return report.mult_plus, report.mult_minus, report.is_weil, report.weil_space_dim, report.all_weil_classes_22


def _weil_conjugates(cfg, rng):
    """phi and J under random unimodular base changes; check_quadratic_endo raising is the instance's outcome."""
    j, phi = _weil_block_instance()
    for _ in range(cfg["weil"]["conjugations"]):
        g = random_unimodular(rng, 8)
        ginv = g.inverse()
        jc = ginv * j * g
        for cand, balanced in ((phi, True), (j, False)):
            endo, outcome = _attempt(check_quadratic_endo, jc, ginv * cand * g)
            yield _Instance(endo=endo, balanced=balanced, outcome=outcome)


def _b2_pairs(cfg, rng):
    """Each b2 of the range after the first of its parity, with its bound exponent and the previous one."""
    lo, hi = cfg["betti"]["b2_range"]
    prev = {}
    for b2 in range(lo, hi + 1):
        k = betti.bound_exponent(b2)
        if b2 % 2 in prev:
            yield _Instance(k=k, prev=prev[b2 % 2])
        prev[b2 % 2] = k


def _kunneth_squares(cfg, rng):
    sub = cfg["corr"]
    for n in sub["n"]:
        t = _Instance(n=n, b3=sub["b3"])
        t.gamma, t.outcome = _attempt(formal_corr.kunneth_square, t.b3, n, sub["sign_rule"])
        if not t.outcome:
            t.pairs, t.coef, t.uniform = formal_corr.kunneth_coefficient(t.gamma, t.b3, n)
        yield t


def _pushforward_pairing(t) -> bool:
    """Contracting Gamma at (i, j) is c times the pairing map, and negates when i and j swap."""
    gamma, n = t.gamma, t.n
    ok = not gamma.is_zero()
    for i in range(1, t.b3 + 1):
        for jj in range(i + 1, t.b3 + 1):
            fwd = formal_corr.gamma_pushforward(gamma, i, jj)
            ok &= fwd == gamma.algebra.element({(0, (1 << (i - 1)) | (1 << (jj - 1)), n - 2): t.coef or 0})
            ok &= formal_corr.gamma_pushforward(gamma, jj, i) == -fwd
    return ok


def _broken_square(cfg, rng):
    """The Kunneth square under the misgraded sign rule; None when the config leaves the control out."""
    sub = cfg["corr"]
    if sub.get("negative_control"):
        gamma, outcome = _attempt(formal_corr.kunneth_square, sub["b3"], 2, formal_corr.SIGN_BROKEN)
        return [_Instance(gamma=gamma, b3=sub["b3"], outcome=outcome)]


_FAMILIES = (
    _Family("_linalg_checks", _linalg_instances, (
        ("linalg.inverse_roundtrip", "m * inverse(m) == identity on {cfg[linalg][trials]} random square matrices",
         lambda t: t.m * t.inv == Matrix.identity(t.m.rows)),
    )),
    _Family("_qspace_checks", _qspace_instances, (
        ("qspace.signature_congruence", "Sylvester invariance under P^t G P",
         lambda t: t.scrambled.signature == t.base.signature),
        ("qspace.discriminant_square_class", "det mod squares invariant under congruence",
         lambda t: same_square_class(t.disc, prod(t.scrambled.diag_values, start=_ONE))),
    )),
    _Family("_clifford_checks", _clifford_dimensions, (
        ("clifford.dimension_counts[h={h}]", "dim Cliff = 2^h, dim C+ = 2^(h-1)", _dimension_counts),
    )),
    _Family("_clifford_checks", _clifford_elements, (
        ("clifford.anticommutation", "v.w + w.v == 2(v,w).unit on {cfg[clifford][pair_trials]} random grade-1 pairs",
         lambda t: t.v * t.w + t.w * t.v == t.two_vw if t.pair else None),
        ("clifford.associativity", "(xy)z == x(yz) on random triples",
         lambda t: None if t.pair else (t.x * t.y) * t.z == t.x * (t.y * t.z)),
        ("clifford.parity_additivity", "even.even stays even",
         lambda t: None if t.pair else (_even_part(t.x) * _even_part(t.y)).parity == "even"),
    )),
    _Family("_ks_checks", _ks_built, (
        ("ks.e_square", "e.e == -unit on {count} instances", lambda t: _sequence(t, "ks.e_square")),
        ("ks.j_square", "J^2 == -I on C+ (column-wise)", lambda t: _sequence(t, "ks.j_square")),
        ("ks.commutators", "all four identity families", lambda t: _sequence(t, "ks.commutators")),
        ("ks.torus_dimension", "complex dim = 2^(h-2)", lambda t: t.ks.torus_complex_dim == 2 ** (t.h - 2)),
        ("ks.basis_independence", "Pythagorean rotation fixes e", _rotation_fixes_e),
        ("ks.orientation_reversal", "swapping the pair negates e",
         lambda t: _e_of(t, t.hk.period.beta, t.hk.period.alpha) == -t.ks.e),
        ("ks.endo_rank", "rank of v -> E_v equals h", lambda t: _sequence(t, "ks.endo_rank")),
        ("ks.endo_sign_laws", "J (anti)commutes with E_v by plane membership", lambda t: _sequence(t, "ks.endo_sign_laws")),
        ("ks.odd_even_iso", "R_v0 invertible and J-intertwining", lambda t: _sequence(t, "ks.odd_even_iso")),
    ), unbuilt="ks.build"),
    _Family("_hodge_checks", _periods, (
        ("hodge.period_isotropy", "q(sigma,sigma)=0, q(sigma,sigma-bar)=2N>0", _period_isotropy),
        ("hodge.rotation_skew", "A^t G + G A == 0", _rotation_skew),
        ("hodge.h2_spectrum", "type (1, h-2, 1) on H^2", _h2_type),
    )),
    _Family("_sympow_checks", _scrambled_forms, (("sympow.decompose[h={h},k={k}]", "", _decompose_laws),)),
    _Family("_sympow_checks", _one, (
        ("sympow.harmonic_symmetry", "swap of equal-norm diagonal vectors preserves Harm^2", _harmonic_symmetry),
    )),
    _Family("_sympow_checks", lambda cfg, rng: _with_periods(cfg["sympow"]["level"], rng), (
        ("sympow.level_filtration[h={h},k={k}]", "level <= 2 part is Q^((k-1)/2).H^2",
         lambda t: len(sympow.level_two_part(t.hk, t.k)) == t.h),
    )),
    _Family("_sympow_checks", lambda cfg, rng: _with_periods(cfg["sympow"]["block_level"], rng), (
        ("sympow.block_level[h={h},k={k}]", "", _block_levels),
    )),
    _Family("_sympow_checks", _split_forms, (
        ("sympow.isotropic_span[h={h},k={k}]", "isotropic powers span harmonics",
         lambda t: sympow.isotropic_span_check(t.space, t.k)),
    )),
    _Family("_sympow_checks", _one, (("sympow.isotropic_definite_control", "", _definite_control),)),
    _Family("_weil_checks", _weil_block, (
        ("weil.balanced_block", "block instance: (2,2) multiplicities, 2-dim class space, all (2,2)",
         lambda t: _analysis(t.j, t.phi) == (2, 2, True, 2, True)),
        ("weil.unbalanced_control", "phi = J: K-line survives but classes meet (4,0)+(0,4)",
         lambda t: _analysis(t.j, t.j) == (4, 0, False, 2, False)),
    )),
    _Family("_weil_checks", _weil_conjugates, (
        ("weil.trace_criterion", "is_weil iff trace(phi.J) == 0",
         lambda t: is_weil(t.endo) == ((t.endo.phi * t.endo.j).trace() == 0) == t.balanced),
        ("weil.conjugation_invariance", "class space dim 2 under base change", lambda t: len(weil_class_space(t.endo)) == 2),
    )),
    _Family("_betti_checks", _b2_pairs, (
        ("betti.bound_monotone", "k nondecreasing within each parity class", lambda t: t.k >= t.prev),
    )),
    _Family("_betti_checks", _one, (
        ("betti.catalog_tight", "shipped entries audit tight",
         lambda t: all(betti.audit_b3(e).status == betti.STATUS_TIGHT for e in betti.default_catalog())),
        ("betti.factor_dims", "odd/even factor dimension sets",
         lambda t: [betti.ks_factor_dims(h) for h in (7, 6, 3)] == [{4, 8}, {2, 4, 8}, {1, 2}]),
    )),
    _Family("_corr_checks", _kunneth_squares, (
        ("corr.uniform_coefficient[n={n}]", "",
         lambda t: (t.uniform, "c = %s over %d pairs" % (t.coef, t.pairs) if t.uniform else "no uniform nonzero c")),
        ("corr.kunneth_block[n={n}]", "no cross terms outside the (f^2, e^2) block",
         lambda t: formal_corr.is_kunneth_concentrated(t.gamma)),
        ("corr.pushforward_pairing[n={n}]", "contraction matches c times the formal pairing map, antisymmetrically",
         _pushforward_pairing),
    )),
    _Family("_corr_checks", _broken_square, (
        ("corr.negative_control", "misgraded sign rule must not produce a nonzero uniform coefficient",
         lambda t: not formal_corr.kunneth_coefficient(t.gamma, t.b3, 2)[2]),
    )),
)


def _run_family(family: _Family, cfg: dict, rng: random.Random) -> list[dict]:
    """Fold every row of ``family`` over its instances: one check per name.

    Names are formatted with the instance's fields, detail templates with
    ``cfg`` and the check's instance ``count``.  A predicate returns ok,
    (ok, detail), or None when the instance holds nothing for it.  Every
    predicate runs on every instance through `_attempt`; rows of one name
    fold with ``and``, and the first outcome raised is the check's.  An
    instance's ``outcome`` goes to each of its checks (see `_Family`).
    """
    instances = family.instances(cfg, rng)
    if instances is None:
        return []
    rows = [(name, detail, predicate, "{" in name) for name, detail, predicate in family.rows]
    templates = {name: detail for name, detail, _, fields in rows if not fields}
    ok, count, details, raised = {}, {}, {}, {}
    unbuilt = None
    for t in instances:
        if t.outcome and family.unbuilt:
            unbuilt = t.outcome
            continue
        for name, detail, predicate, fields in rows:
            if fields:
                name = name.format_map(vars(t))
                templates.setdefault(name, detail)
            result, outcome = (None, t.outcome) if t.outcome else _attempt(predicate, t)
            if outcome:
                raised.setdefault(name, outcome)
            elif result is not None:
                if isinstance(result, tuple):
                    result, details[name] = result
                ok[name] = ok.get(name, True) and result
                count[name] = count.get(name, 0) + 1
    if unbuilt and not count:
        return [_result(name, *unbuilt) for name in templates]
    results = {}
    for name, detail in templates.items():
        n = count.get(name, 0)
        results[name] = (ok.get(name), details.get(name) or detail.format(cfg=cfg, count=n), n)
    checks = _family(results, raised)
    if unbuilt:
        checks.append(_result(family.unbuilt, *unbuilt))
    return checks


def _stream_checks(key: str, cfg: dict, rng: random.Random) -> list[dict]:
    """The checks of every family of stream ``key``, drawing from ``rng`` in table order."""
    return [check for family in _FAMILIES if family.key == key for check in _run_family(family, cfg, rng)]


def run_full_suite(overrides: dict | None = None) -> RunReport:
    """Execute every module's invariant suite; deterministic for fixed config."""
    cfg = load_config(overrides)
    seed = cfg["seed"]
    checks: list[dict] = []
    for key in dict.fromkeys(family.key for family in _FAMILIES):
        checks.extend(_stream_checks(key, cfg, random.Random(seed + sum(key.encode()))))
    return RunReport(
        command="suite",
        inputs={"config": content_hash(canonical_json(cfg))},
        checks=checks,
        seed=seed,
    )
