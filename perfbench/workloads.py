"""Seeded case grids for the three benchmark workloads, with their checks.

Set-up (``make_cases``) turns the seed into raw inputs -- Gram matrices,
period vectors and, for the CLI workload, JSON fixture files -- and the
cases build every ksw object from those inputs on each pass, so no pass
reuses state a previous pass computed.

Every case checks its output against facts the call under test does not
produce: closed-form dimensions, the e^2 / J^2 booleans, the Weil rule
"(2,2) iff trace(phi J) = 0", Betti exponents from b2, and byte-identical
reports across repeats.  A case raises ``CheckFailed`` when a fact does
not hold.  ``negative`` adds one to a single expected value of the first
case, so a run with it must report a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from ksw import cli, kuga_satake, linalg, sympow
from ksw.hodge import HKStructure
from ksw.linalg import Matrix
from ksw.qspace import QuadraticSpace
from ksw.randgen import (
    random_congruence_scramble,
    random_hk,
    random_space_with_period,
    random_unimodular,
)
from ksw.serialize import matrix_to_json, vector_to_json

#: passes a measured run makes at least (cli_suite compares reports across two)
MIN_PASSES = {"ks_battery": 1, "sym_kernels": 1, "cli_suite": 2}

#: ks_battery: h -> (random_hk periods, dense-e periods).  Dense periods have
#: a seed-independent e-term count, so on every seed the median case latency
#: falls inside the h = 5 group and the tail inside the h = 6 group.  The
#: twenty h <= 4 cases balance the h >= 6 ones, so the median sits in the
#: middle of the h = 5 group; the tail is an inner sample of fifteen h = 6
#: cases, which moves less between seeds than one of fewer.
KS_GRID = {
    "full": {3: (6, 4), 4: (6, 4), 5: (0, 10), 6: (0, 15), 7: (0, 3), 8: (0, 1), 9: (0, 1)},
    "tiny": {3: (2, 1), 4: (1, 1)},
}

#: sym_kernels: (h, k) decompositions, level_two_part and block_max_level cases
SYM_GRID = {
    "full": {
        "decompose": [(h, k) for h in range(3, 8) for k in range(2, 6)],
        "level": [(5, 3), (7, 3), (4, 5)],
        "block": [(4, 3)],
    },
    "tiny": {"decompose": [(3, 2), (3, 3), (4, 2)], "level": [(3, 3)], "block": [(3, 3)]},
}

#: seeded forms per decomposition: about FORM_BUDGET / dim Sym^k, between 1
#: and MAX_FORMS, so small (h, k) weigh as much as large ones in the case
#: latencies and the median and tail rest on groups of similar cases
FORM_BUDGET = 350
MAX_FORMS = 5

#: cli_suite: seeded suite runs per pass, dense `ks build` sizes, Weil conjugates.
#: The sixteen suite samples of the two latency passes hold the tail, near
#: their lower third, where it moves less between seeds than at their edge.
SUITE_RUNS = {"full": 8, "tiny": 1}
KS_BUILD_H = {"full": (5, 6, 7), "tiny": (4,)}
WEIL_CONJUGATES = {"full": 16, "tiny": 1}

#: fixed unimodular conjugator of the Weil block fixture.  The seed only
#: permutes and re-signs the basis after it: the cost of `weil analyze` on a
#: freshly drawn unimodular conjugate varies about 2x with its entries, which
#: moved case_p50_s between seeds, while on signed permutations of one
#: conjugate it stays within about 10%.
WEIL_CONJUGATOR = random_unimodular(random.Random("weil-conjugate-a"), 8, steps=8)

#: suite config fixtures.  The full one is the default suite with the ks
#: family stopped at h = 5 and one random Weil conjugation.  The random
#: periods at h = 6..8 and the random unimodular conjugates make one suite's
#: time vary with its seed (about 15% standard deviation at h <= 7, up to 2x
#: with h = 8).  One of these smaller suites varies about 9%, and eight per
#: pass average that out of wall_s.  ks_battery covers h = 6..9.  The tiny
#: config is for the smoke check.
SUITE_CONFIG = {
    "full": {"ks": {"h_range": [3, 5]}, "weil": {"conjugations": 1}},
    "tiny": {
        "ks": {"h_range": [3, 4], "instances_per_h": 1},
        "clifford": {"h_range": [2, 5]},
        "sympow": {"decompose": [[3, 2]], "level": [[3, 3]], "isotropic": [[3, 2]], "block_level": [[3, 3]]},
        "weil": {"conjugations": 1},
        "betti": {"catalog": "default", "b2_range": [3, 6]},
    },
}

OK_STATUSES = ("pass", "vacuous", "skipped")


class CheckFailed(Exception):
    """A case's output disagrees with an independently known fact."""


@dataclass
class Case:
    id: str
    run: Callable[["Case", object], None]
    data: dict
    bias: int = 0
    state: dict = field(default_factory=dict)


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed("%s: got %r, want %r" % (what, got, want))


# -- independent facts -------------------------------------------------------------


def sym_dim(h: int, k: int) -> int:
    return comb(h + k - 1, k) if k >= 0 else 0


def harmonic_dim(h: int, k: int) -> int:
    return sym_dim(h, k) - sym_dim(h, k - 2)


def bound_exponent(b2: int, div4: bool) -> int:
    if div4 and b2 % 4 == 0:
        return b2 // 2
    return (b2 - 1) // 2 if b2 % 2 else (b2 - 2) // 2


def quadratic(gram: Matrix, v) -> Fraction:
    return sum((gram[i, j] * v[i] * v[j] for i in range(gram.rows) for j in range(gram.rows)), Fraction(0))


def trace_of_product(a: Matrix, b: Matrix) -> Fraction:
    n = a.rows
    return sum((a[i, j] * b[j, i] for i in range(n) for j in range(n)), Fraction(0))


def scrambled_diagonal(rng: random.Random, h: int) -> tuple[Matrix, tuple[int, int]]:
    """Congruence-scrambled diagonal form and its signature (by Sylvester)."""
    entries = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(h)]
    gram = random_congruence_scramble(rng, Matrix.diagonal(entries))
    return gram, (sum(x > 0 for x in entries), sum(x < 0 for x in entries))


def dense_period(rng: random.Random, h: int):
    """A valid period whose e carries (almost) all C(h,2) bivector terms.

    Two reflections in random non-null integer vectors are rational
    isometries: they keep the period valid and make alpha, beta generic
    in the diagonal basis.
    """
    space, alpha, beta = random_space_with_period(rng, h)
    for _ in range(2):
        while True:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(h))
            norm = quadratic(space.gram, v)
            if norm:
                break
        alpha, beta = (_reflect(space.gram, x, v, norm) for x in (alpha, beta))
    return space.gram, alpha, beta


def _reflect(gram: Matrix, x, v, norm: Fraction):
    n = gram.rows
    pairing = sum((x[i] * gram[i, j] * v[j] for i in range(n) for j in range(n)), Fraction(0))
    c = 2 * pairing / norm
    return tuple(a - c * b for a, b in zip(x, v))


def _hk(data: dict) -> HKStructure:
    return HKStructure.build(QuadraticSpace(data["gram"]), data["alpha"], data["beta"])


def _period_inputs(hk: HKStructure) -> dict:
    return {"gram": hk.space.gram, "alpha": hk.period.alpha, "beta": hk.period.beta}


# -- ks_battery --------------------------------------------------------------------


def ks_case(case: Case, tracer) -> None:
    """The `ksw ks verify` call sequence on one period."""
    data = case.data
    h = data["gram"].rows
    hk = _hk(data)
    ks = kuga_satake.build(hk)
    expect("dim Cliff", ks.algebra.dim, 2 ** h)
    expect("dim C+", len(ks.algebra.even_masks), 2 ** (h - 1))
    expect("torus dim", ks.torus_complex_dim, 2 ** (h - 2) + case.bias)
    expect("e^2 == -1", kuga_satake.verify_e_square(ks), True)
    expect("J^2 == -I", kuga_satake.verify_j_square(ks), True)
    report = kuga_satake.structure_commutators(ks, rng=random.Random(0), raise_on_failure=False)
    expect("commutator identities", len(report.checks), (h - 2) + 2 + 4 + 2)
    expect("failed commutators", report.failed_names(), [])
    v0 = kuga_satake.default_v0(ks)
    expect("(v0, v0) != 0", quadratic(data["gram"], v0) != 0, True)
    expect("rank of v -> E_v is h", kuga_satake.embedding_has_full_rank(ks, v0), True)
    expect("J sign laws", kuga_satake.embedding_sign_laws(ks, v0, matrix_level=h <= 5), True)
    riso = kuga_satake.odd_even_isomorphism(ks, v0)
    rinv = kuga_satake.odd_even_inverse(ks, v0)
    expect("R_v0 shape", (riso.rows, riso.cols), (2 ** (h - 1), 2 ** (h - 1)))
    expect("R^-1 R == I", rinv * riso == Matrix.identity(2 ** (h - 1)), True)


def make_ks_battery(rng: random.Random, grid: str, fixture_dir: str) -> list[Case]:
    cases = []
    for h, (randoms, denses) in KS_GRID[grid].items():
        for i in range(randoms):
            cases.append(Case("ks.h%d.random%d" % (h, i), ks_case, _period_inputs(random_hk(rng, h))))
        for i in range(denses):
            gram, alpha, beta = dense_period(rng, h)
            cases.append(Case("ks.h%d.dense%d" % (h, i), ks_case, {"gram": gram, "alpha": alpha, "beta": beta}))
    return cases


# -- sym_kernels -------------------------------------------------------------------


def sym_case(case: Case, tracer) -> None:
    """build_sym, surjectivity of the contraction, then decompose."""
    gram, k = case.data["gram"], case.data["k"]
    h = gram.rows
    space = QuadraticSpace(gram)
    sym = sympow.build_sym(space, k)
    ambient, lower = sym_dim(h, k), sym_dim(h, k - 2)
    expect("dim Sym^k", sym.dim, ambient)
    expect("contraction shape", (sym.contraction.rows, sym.contraction.cols), (lower, ambient))
    expect("rank of contraction", sym.contraction.rank(), lower + case.bias)
    dec = sympow.decompose(space, k)
    expect("block dims", dec.block_dims, [(l, harmonic_dim(h, k - 2 * l)) for l in range(k // 2 + 1)])
    expect("block total", dec.total, ambient)


def level_case(case: Case, tracer) -> None:
    """The level <= 2 piece equals Q^((k-1)/2).H^2 (kernel side vs image side)."""
    k = case.data["k"]
    hk = _hk(case.data)
    h = hk.space.h
    part = sympow.level_two_part(hk, k)
    expect("level <= 2 dim", len(part), h)
    lift = sympow.q_power_lift(hk.space, 1, (k - 1) // 2)
    expect("lift shape", (lift.rows, lift.cols), (sym_dim(h, k), h))
    image = [lift.column(j) for j in range(h)]
    expect("kernel and image span", linalg.same_span(part, image), True)


def block_case(case: Case, tracer) -> None:
    k = case.data["k"]
    levels = sympow.block_max_level(_hk(case.data), k)
    expect("block levels", levels, [(l, 2 * (k - 2 * l)) for l in range(k // 2 + 1)])


def make_sym_kernels(rng: random.Random, grid: str, fixture_dir: str) -> list[Case]:
    spec = SYM_GRID[grid]
    cases = []
    for h, k in spec["decompose"]:
        for i in range(max(1, min(MAX_FORMS, FORM_BUDGET // sym_dim(h, k)))):
            gram, _ = scrambled_diagonal(rng, h)
            cases.append(Case("sym.h%d.k%d.%d" % (h, k, i), sym_case, {"gram": gram, "k": k}))
    for h, k in spec["level"]:
        cases.append(Case("level.h%d.k%d" % (h, k), level_case, dict(_period_inputs(random_hk(rng, h)), k=k)))
    for h, k in spec["block"]:
        cases.append(Case("block.h%d.k%d" % (h, k), block_case, dict(_period_inputs(random_hk(rng, h)), k=k)))
    return cases


# -- cli_suite ---------------------------------------------------------------------


def run_cli(case: Case, tracer) -> dict:
    """Run `ksw <argv>` in-process; exit 0 and a byte-stable JSON report required."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span(case.data["span"]) as attrs:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.data["argv"])
        attrs["stdout_bytes"] = len(out.getvalue().encode("utf-8"))
    text = out.getvalue()
    expect("exit code (stderr %r)" % err.getvalue()[-200:], code, 0)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    expect("report bytes equal to the first run", case.state.setdefault("digest", digest), digest)
    report = json.loads(text)
    bad = [c["name"] for c in report["checks"] if c["status"] not in OK_STATUSES]
    expect("checks outside pass/vacuous/skipped", bad, [])
    return report


def suite_case(case: Case, tracer) -> None:
    report = run_cli(case, tracer)
    expect("suite seed", report.get("seed"), case.data["seed"] + case.bias)
    expect("suite exit code", report["exit_code"], 0)


def qform_case(case: Case, tracer) -> None:
    data = run_cli(case, tracer)["data"]
    expect("dim", data["dim"], case.data["h"])
    expect("signature", tuple(data["signature"]), case.data["signature"])


def ks_build_case(case: Case, tracer) -> None:
    h = case.data["h"]
    dims = run_cli(case, tracer)["data"]["dims"]
    expect("dims", dims, {"h": h, "cliff": 2 ** h, "c_plus": 2 ** (h - 1), "torus_complex_dim": 2 ** (h - 2)})


def weil_case(case: Case, tracer) -> None:
    data = run_cli(case, tracer)["data"]
    balanced = case.data["balanced"]
    expect("multiplicities", (data["mult_plus"], data["mult_minus"]), (2, 2) if balanced else (4, 0))
    expect("is_weil", data["is_weil"], balanced)
    expect("class space dim", data["weil_space_dim"], 2)
    expect("all classes (2,2)", data["all_weil_classes_22"], balanced)


def sym_decompose_case(case: Case, tracer) -> None:
    h, k = case.data["h"], 3
    data = run_cli(case, tracer)["data"]
    expect("dim Sym^3", data["dim"], sym_dim(h, k))
    blocks = [(b["l"], b["dim"]) for b in data["blocks"]]
    expect("blocks", blocks, [(l, harmonic_dim(h, k - 2 * l)) for l in range(k // 2 + 1)])
    if case.data["with_period"]:
        expect("levels", [b["level"] for b in data["blocks"]], [2 * (k - 2 * l) for l in range(k // 2 + 1)])


def corr_case(case: Case, tracer) -> None:
    data = run_cli(case, tracer)["data"]
    expect("pairs", data["pairs"], comb(8, 2))
    expect("uniform", data["uniform"], True)
    expect("coefficient nonzero", data["coefficient"] not in (None, "0"), True)


def betti_audit_case(case: Case, tracer) -> None:
    rows = run_cli(case, tracer)["data"]["entries"]
    expected = case.data["entries"]
    expect("entries", [r["name"] for r in rows], [e["name"] for e in expected])
    for row, entry in zip(rows, expected):
        k = bound_exponent(entry["b2"], div4=True)
        status = "tight" if entry["b3"] == 2 ** k else "pass"
        expect("b3 audit of %s" % entry["name"], row["b3"], {"k": k, "bound": 2 ** k, "status": status})


def betti_bound_case(case: Case, tracer) -> None:
    b2, div4 = case.data["b2"], case.data["div4"]
    data = run_cli(case, tracer)["data"]
    k = bound_exponent(b2, div4)
    expect("bound", (data["k"], data["bound"]), (k, 2 ** k))


def _write(fixture_dir: str, name: str, payload) -> str:
    path = os.path.join(fixture_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _cli(case_id: str, run, span: str, argv: list[str], **data) -> Case:
    return Case(case_id, run, dict(data, argv=argv, span=span))


def _weil_block() -> tuple[Matrix, Matrix]:
    """8-dim J (four 2x2 rotation blocks) and phi = J on two blocks, -J on two."""
    j = Matrix([[(-1 if k == i + 1 else 1 if k == i - 1 else 0) if i // 2 == k // 2 else 0
                 for k in range(8)] for i in range(8)])
    phi = Matrix([[j[i, k] if i < 4 else -j[i, k] for k in range(8)] for i in range(8)])
    return j, phi


def signed_permutation(rng: random.Random, n: int) -> Matrix:
    order = list(range(n))
    rng.shuffle(order)
    return Matrix([[rng.choice((-1, 1)) if order[i] == c else 0 for c in range(n)] for i in range(n)])


def make_cli_suite(rng: random.Random, grid: str, fixture_dir: str) -> list[Case]:
    """One call per subcommand, plus seeded suites and a group of Weil conjugates.

    The sixteen `weil analyze` calls on conjugates of the block fixture
    (``WEIL_CONJUGATOR`` then a seeded signed permutation) have nearly
    seed-independent cost and sit at the middle of the case latencies, so
    case_p50_s neither jumps between command types nor follows the entry
    sizes of one seed's conjugates.
    """
    cases = []
    config = _write(fixture_dir, "suite.json", SUITE_CONFIG[grid])
    for i in range(SUITE_RUNS[grid]):
        seed = rng.randrange(1 << 31)
        argv = ["suite", "--json", "--seed", str(seed), "--config", config]
        cases.append(_cli("cli.suite%d" % i, suite_case, "cli.suite", argv, seed=seed))

    gram, signature = scrambled_diagonal(rng, 8)
    form = _write(fixture_dir, "form8.json", {"dim": 8, "gram": matrix_to_json(gram)})
    cases.append(_cli("cli.qform.h8", qform_case, "cli.qform_inspect",
                      ["qform", "inspect", "-f", form, "--json"], h=8, signature=signature))

    gram, _ = scrambled_diagonal(rng, 5)
    form = _write(fixture_dir, "form5.json", {"dim": 5, "gram": matrix_to_json(gram)})
    cases.append(_cli("cli.sym.h5", sym_decompose_case, "cli.sym_decompose",
                      ["sym", "decompose", "-f", form, "--k", "3", "--json"], h=5, with_period=False))
    form, period = _write_period(fixture_dir, "h4", _period_inputs(random_hk(rng, 4)))
    cases.append(_cli("cli.sym.h4.period", sym_decompose_case, "cli.sym_decompose",
                      ["sym", "decompose", "-f", form, "--k", "3", "-p", period, "--json"], h=4, with_period=True))

    for i, h in enumerate(KS_BUILD_H[grid]):
        gram, alpha, beta = dense_period(rng, h)
        form, period = _write_period(fixture_dir, "dense%d" % i, {"gram": gram, "alpha": alpha, "beta": beta})
        cases.append(_cli("cli.ks_build%d.h%d" % (i, h), ks_build_case, "cli.ks_build",
                          ["ks", "build", "-f", form, "-p", period, "--json"], h=h))

    j, phi = _weil_block()
    fixtures = [("block", j, phi), ("phi_is_j", j, j)]
    for i in range(WEIL_CONJUGATES[grid]):
        g = WEIL_CONJUGATOR * signed_permutation(rng, 8)
        g_inv = g.inverse()
        fixtures.append(("conjugate%d" % i, g_inv * j * g, g_inv * phi * g))
    for name, jm, pm in fixtures:
        wpath = _write(fixture_dir, "weight1_%s.json" % name, {"dim": 8, "J": matrix_to_json(jm)})
        ppath = _write(fixture_dir, "phi_%s.json" % name, {"phi": matrix_to_json(pm)})
        cases.append(_cli("cli.weil.%s" % name, weil_case, "cli.weil_analyze",
                          ["weil", "analyze", "-f", wpath, "--phi", ppath, "--json"],
                          balanced=trace_of_product(pm, jm) == 0))

    cases.append(_cli("cli.corr.n3", corr_case, "cli.corr_verify", ["corr", "verify", "--b3", "8", "--n", "3", "--json"]))

    entries = []
    for i in range(6):
        b2 = rng.randint(3, 24)
        k = bound_exponent(b2, div4=True)
        entries.append({"name": "entry-%d" % i, "dim2n": 4, "b2": b2, "b3": 2 ** k + rng.choice((0, 0, 1, 5))})
    catalog = _write(fixture_dir, "catalog.json", entries)
    cases.append(_cli("cli.betti_audit", betti_audit_case, "cli.betti_audit",
                      ["betti", "audit", "--catalog", catalog, "--json"], entries=entries))
    b2 = rng.randint(3, 60)
    div4 = rng.random() < 0.5
    argv = ["betti", "bound", "--b2", str(b2), "--json"] + (["--div4-improve"] if div4 else [])
    cases.append(_cli("cli.betti_bound", betti_bound_case, "cli.betti_bound", argv, b2=b2, div4=div4))
    return cases


def _write_period(fixture_dir: str, tag: str, data: dict) -> tuple[str, str]:
    form = _write(fixture_dir, "form_%s.json" % tag, {"dim": data["gram"].rows, "gram": matrix_to_json(data["gram"])})
    period = _write(fixture_dir, "period_%s.json" % tag,
                    {"alpha": vector_to_json(data["alpha"]), "beta": vector_to_json(data["beta"])})
    return form, period


_MAKERS = {"ks_battery": make_ks_battery, "sym_kernels": make_sym_kernels, "cli_suite": make_cli_suite}


def make_cases(workload: str, seed: int, grid: str, fixture_dir: str, negative: bool) -> list[Case]:
    rng = random.Random("%s:%d" % (workload, seed))
    cases = _MAKERS[workload](rng, grid, fixture_dir)
    if negative:
        cases[0].bias = 1
    return cases
