"""Command-line front end: input parsing, verification runs, JSON reports.

Subcommands: qform inspect | ks build | ks verify | weil analyze |
sym decompose | betti audit | betti bound | corr verify | suite.

All structured output is a single report object; --json prints it as
deterministic pretty JSON, otherwise a human-readable rendering of the
same object.  Exit codes: 0 all checks passed or vacuous, 1 a check
failed, 2 malformed input or usage, or a computation over the cap.

KSW_CAP_H in the environment overrides the Clifford dimension cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import betti, formal_corr, kuga_satake, sympow
from .errors import (
    CapExceeded,
    MissingHypothesisData,
    NonScalarSquare,
    NotCommutingWithJ,
    NotQuadratic,
    TooSmall,
    UsageError,
    WorkbenchError,
)
from .hodge import HKStructure
from .linalg import Matrix
from .qspace import QuadraticSpace
from .serialize import (
    catalog_from_json,
    clifford_element_to_json,
    load_json_file,
    matrix_content_hash,
    period_from_json,
    phi_from_json,
    pretty_json,
    rational_str,
    space_from_json,
    weight1_from_json,
)
from .suite import (
    NO_INSTANCES,
    RunReport,
    _check,
    _result,
    _vacuous,
    run_full_suite,
)
from .weil import analyze as weil_analyze


def resolve_cap() -> int | None:
    env = os.environ.get("KSW_CAP_H")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError("KSW_CAP_H must be an integer, got %r" % env) from exc
    return None


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(pretty_json(report.to_dict()))
    else:
        print("# %s" % report.command)
        for key, value in report.data.items():
            if not isinstance(value, (dict, list)):
                print("%s: %s" % (key, value))
        for check in report.checks:
            line = "[%s] %s" % (check["status"].upper(), check["name"])
            if check.get("detail"):
                line += " -- " + check["detail"]
            print(line)
        counts = report.counts()
        if counts:
            print(
                "summary: "
                + ", ".join("%d %s" % (counts[k], k) for k in sorted(counts))
            )
        print("exit: %d" % report.exit_code)


def _load_space(path: str) -> tuple[QuadraticSpace, str]:
    data, digest = load_json_file(path)
    try:
        return space_from_json(data), digest
    except UsageError:
        raise
    except WorkbenchError as exc:  # Degenerate / NotSymmetric are input errors here
        raise UsageError("bad quadratic space in %s: %s" % (path, exc)) from exc


def _load_period(space: QuadraticSpace, path: str) -> tuple[HKStructure, str]:
    data, digest = load_json_file(path)
    alpha, beta = period_from_json(data)
    try:
        return HKStructure.build(space, alpha, beta), digest
    except WorkbenchError as exc:
        raise UsageError("invalid period: %s" % exc) from exc


def _load_hk(form_path: str, period_path: str) -> tuple[HKStructure, dict]:
    space, form_hash = _load_space(form_path)
    hk, period_hash = _load_period(space, period_path)
    return hk, {"form": form_hash, "period": period_hash}


# -- subcommand implementations ----------------------------------------------------


def cmd_qform_inspect(args) -> RunReport:
    space, digest = _load_space(args.form)
    checks = [_check("qform.diagonalization", True, "T^t G T diagonal with nonzero entries")]
    return RunReport(
        command="qform inspect",
        inputs={"form": digest},
        checks=checks,
        data={
            "dim": space.h,
            "signature": list(space.signature),
            "diag_values": [rational_str(x) for x in space.diag_values],
            "discriminant_square_class": space.discriminant_square_class,
        },
    )


def _ks_identity_checks(ks, verbose_families: bool) -> list[dict]:
    checks = [
        _check("ks.e_square", kuga_satake.verify_e_square(ks), "e.e == -unit"),
        _check("ks.j_square", kuga_satake.verify_j_square(ks), "J^2 == -I on C+"),
    ]
    report = kuga_satake.structure_commutators(ks, raise_on_failure=False)
    if verbose_families:
        for name, ok, detail in report.checks:
            checks.append(_check("ks.commutators.%s" % name, ok, detail))
    else:
        checks.append(
            _check(
                "ks.commutators",
                report.ok,
                "four identity families"
                if report.ok
                else "failed: %s" % ", ".join(report.failed_names()),
            )
        )
    return checks


def cmd_ks_build(args) -> RunReport:
    hk, inputs = _load_hk(args.form, args.period)
    ks = kuga_satake.build(hk, cap=resolve_cap())
    if args.v0 is not None:
        h = hk.space.h
        if not 0 <= args.v0 < h:
            raise UsageError("--v0 index %d outside 0..%d" % (args.v0, h - 1))
        coords = tuple(1 if i == args.v0 else 0 for i in range(h))
        v0 = hk.space.from_diag_coords(coords)
        if not hk.space.quadratic(v0):
            raise UsageError("--v0 names a null vector")
    else:
        v0 = kuga_satake.default_v0(ks)
    checks = _ks_identity_checks(ks, verbose_families=False)
    return RunReport(
        command="ks build",
        inputs=inputs,
        checks=checks,
        data={
            "dims": {
                "h": hk.space.h,
                "cliff": ks.algebra.dim,
                "c_plus": len(ks.algebra.even_masks),
                "torus_complex_dim": ks.torus_complex_dim,
            },
            "e": clifford_element_to_json(ks.e),
            "j_checksum": matrix_content_hash(ks.j_even),
            "v0": [rational_str(x) for x in v0],
        },
    )


def cmd_ks_verify(args) -> RunReport:
    hk, inputs = _load_hk(args.form, args.period)
    ks = kuga_satake.build(hk, cap=resolve_cap())
    checks = _ks_identity_checks(ks, verbose_families=True)
    h = hk.space.h
    v0 = kuga_satake.default_v0(ks)
    rank_ok = kuga_satake.embedding_has_full_rank(ks, v0)
    sign_ok = kuga_satake.embedding_sign_laws(ks, v0, matrix_level=h <= 5)
    riso = kuga_satake.odd_even_isomorphism(ks, v0)
    inverse_ok = kuga_satake.odd_even_inverse(ks, v0) * riso == Matrix.identity(1 << (h - 1))
    checks += [
        _check("ks.endo_rank", rank_ok, "rank of v -> E_v equals h"),
        _check("ks.endo_sign_laws", sign_ok, "J (anti)commutes with E_v by plane membership"),
        _check("ks.odd_even_iso", inverse_ok, "R_v0 has exact two-sided inverse R_v0/(v0,v0)"),
    ]
    return RunReport(
        command="ks verify",
        inputs=inputs,
        checks=checks,
        seed=args.seed,
        data={"dims": {"h": h, "c_plus": 1 << (h - 1)}},
    )


def cmd_weil_analyze(args) -> RunReport:
    data, w_hash = load_json_file(args.form)
    weight1 = weight1_from_json(data)
    pdata, p_hash = load_json_file(args.phi)
    phi = phi_from_json(pdata)
    try:
        result = weil_analyze(weight1.j, phi)
    except (NonScalarSquare, NotQuadratic, NotCommutingWithJ) as exc:
        raise UsageError("weil analysis rejected the input: %s" % exc) from exc
    checks = [_check("weil.quadratic_endo", True, "phi^2 scalar negative, commutes with J")]
    if result.weil_space_dim is not None:
        checks.append(
            _check(
                "weil.class_space_dim",
                result.weil_space_dim == 2,
                "K-line kernel is 2-dimensional",
            )
        )
    return RunReport(
        command="weil analyze",
        inputs={"weight1": w_hash, "phi": p_hash},
        checks=checks,
        data={
            "mult_plus": result.mult_plus,
            "mult_minus": result.mult_minus,
            "is_weil": result.is_weil,
            "weil_space_dim": result.weil_space_dim,
            "all_weil_classes_22": result.all_weil_classes_22,
        },
    )


def cmd_sym_decompose(args) -> RunReport:
    if args.k < 0:
        raise UsageError("--k must be nonnegative")
    space, digest = _load_space(args.form)
    inputs = {"form": digest}
    dec = sympow.decompose(space, args.k)
    blocks = [{"l": l, "dim": d} for l, d in dec.block_dims]
    checks = [
        _check("sympow.decompose_certificate", True, dec.certificate),
        _check(
            "sympow.block_totals",
            dec.total == sympow.sym_dim(space.h, args.k),
            "dims sum to dim Sym^k",
        ),
    ]
    data = {
        "k": args.k,
        "dim": sympow.sym_dim(space.h, args.k),
        "blocks": blocks,
    }
    if args.period:
        hk, inputs["period"] = _load_period(space, args.period)
        levels = sympow.block_max_level(hk, args.k)
        for entry, (l, lvl) in zip(blocks, levels):
            entry["level"] = lvl
        checks.append(
            _check(
                "sympow.block_level",
                all(lvl == 2 * (args.k - 2 * l) for l, lvl in levels),
                "max |p-q| on block l is 2(k-2l)",
            )
        )
        if args.k % 2 == 1:
            part = sympow.level_two_part(hk, args.k)
            checks.append(
                _check(
                    "sympow.level_filtration",
                    len(part) == space.h,
                    "level <= 2 part is Q^((k-1)/2).H^2, dim h",
                )
            )
    return RunReport(
        command="sym decompose",
        inputs=inputs,
        checks=checks,
        data=data,
    )


def _audit_check(name: str, status: str, detail: str) -> dict:
    """A check carrying an audit status; a tight bound passes."""
    return _result(name, "pass" if status == betti.STATUS_TIGHT else status, detail)


def cmd_betti_audit(args) -> RunReport:
    if args.catalog:
        data, digest = load_json_file(args.catalog)
        entries = catalog_from_json(data)
        inputs = {"catalog": digest}
    else:
        entries = betti.default_catalog()
        inputs = {"catalog": "default"}
    checks = []
    rows = []
    for entry in entries:
        try:
            b3_result = betti.audit_b3(entry)
        except TooSmall as exc:  # audit_b2n_minus_1 needs the same b2
            raise UsageError("catalog entry %s: %s" % (json.dumps(entry.name), exc)) from exc
        bound = betti.power_of_two(b3_result.k)
        checks.append(
            _audit_check(
                "betti.audit_b3[%s]" % entry.name,
                b3_result.status,
                "bound 2^%d = %s: %s (%s)" % (b3_result.k, bound, b3_result.status, b3_result.detail),
            )
        )
        row = {
            "name": entry.name,
            "b3": {
                "k": b3_result.k,
                "bound": bound,
                "status": b3_result.status,
            },
        }
        try:
            odd_result = betti.audit_b2n_minus_1(entry)
            row["b2n_minus_1"] = {
                "k": odd_result.k,
                "bound": betti.power_of_two(odd_result.k),
                "status": odd_result.status,
            }
            checks.append(
                _audit_check(
                    "betti.audit_b2n_minus_1[%s]" % entry.name,
                    odd_result.status,
                    odd_result.detail,
                )
            )
        except MissingHypothesisData as exc:
            row["b2n_minus_1"] = {"status": "missing-data"}
            checks.append(_vacuous("betti.audit_b2n_minus_1[%s]" % entry.name, str(exc)))
        rows.append(row)
    if not entries:
        checks.append(_vacuous("betti.audit", NO_INSTANCES))
    return RunReport(
        command="betti audit",
        inputs=inputs,
        checks=checks,
        data={"entries": rows},
    )


def cmd_betti_bound(args) -> RunReport:
    try:
        k = betti.bound_exponent(args.b2, div4_improve=args.div4_improve)
    except WorkbenchError as exc:
        raise UsageError(str(exc)) from exc
    bound = betti.power_of_two(k)
    checks = [_check("betti.bound", True, "b2 = %d gives k = %d, bound %s" % (args.b2, k, bound))]
    return RunReport(
        command="betti bound",
        inputs={},
        checks=checks,
        data={"b2": args.b2, "k": k, "bound": bound},
    )


def cmd_corr_verify(args) -> RunReport:
    sign_rule = formal_corr.SIGN_BROKEN if args.broken_sign else formal_corr.SIGN_KOSZUL
    gamma = formal_corr.kunneth_square(args.b3, args.n, sign_rule)
    pairs, coef, uniform = formal_corr.kunneth_coefficient(gamma, args.b3, args.n)
    checks = [
        _check(
            "corr.uniform_coefficient",
            uniform,
            "single nonzero c over all pairs" if uniform else "no uniform nonzero coefficient",
        ),
        _check(
            "corr.kunneth_block",
            formal_corr.is_kunneth_concentrated(gamma),
            "no terms outside the (f^2, e^2) block",
        ),
    ]
    return RunReport(
        command="corr verify",
        inputs={},
        checks=checks,
        data={
            "b3": args.b3,
            "n": args.n,
            "pairs": pairs,
            "coefficient": rational_str(coef) if coef is not None else None,
            "uniform": uniform,
            "sign_rule": sign_rule,
        },
    )


def cmd_suite(args) -> RunReport:
    overrides = {}
    if args.config:
        data, _digest = load_json_file(args.config)
        if not isinstance(data, dict):
            raise UsageError("suite config must be a JSON object")
        overrides.update(data)
    if args.seed is not None:
        overrides["seed"] = args.seed
    cap = resolve_cap()
    if cap is not None:
        overrides["cap_h"] = cap
    return run_full_suite(overrides)


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, for `main` to print as one line."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ksw",
        description="Exact rational workbench for Clifford / Kuga-Satake / "
        "Weil / symmetric-power verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="print the report as JSON")

    qform = sub.add_parser("qform", help="quadratic form utilities")
    qform_sub = qform.add_subparsers(dest="subcommand", required=True)
    inspect = qform_sub.add_parser("inspect", help="diagonalize and report invariants", parents=[json_flag])
    inspect.add_argument("-f", "--form", required=True, help="quadratic_space JSON file")
    inspect.set_defaults(func=cmd_qform_inspect)

    ks = sub.add_parser("ks", help="Kuga-Satake construction")
    ks_sub = ks.add_subparsers(dest="subcommand", required=True)
    build_p = ks_sub.add_parser("build", help="build e, J and report identities", parents=[json_flag])
    build_p.add_argument("-f", "--form", required=True)
    build_p.add_argument("-p", "--period", required=True)
    build_p.add_argument("--v0", type=int, default=None, help="diagonal basis index for v0")
    build_p.set_defaults(func=cmd_ks_build)
    verify_p = ks_sub.add_parser("verify", help="full identity-family verification", parents=[json_flag])
    verify_p.add_argument("-f", "--form", required=True)
    verify_p.add_argument("-p", "--period", required=True)
    verify_p.add_argument(
        "--seed", type=int, default=0, help="only echoed into the report: no ks verify check draws from it"
    )
    verify_p.set_defaults(func=cmd_ks_verify)

    weil_p = sub.add_parser("weil", help="quadratic endomorphism analysis")
    weil_sub = weil_p.add_subparsers(dest="subcommand", required=True)
    analyze_p = weil_sub.add_parser("analyze", help="multiplicities and class space", parents=[json_flag])
    analyze_p.add_argument("-f", "--form", required=True, help="weight1 JSON file")
    analyze_p.add_argument("--phi", required=True, help="phi JSON file")
    analyze_p.set_defaults(func=cmd_weil_analyze)

    sym = sub.add_parser("sym", help="symmetric power decomposition")
    sym_sub = sym.add_subparsers(dest="subcommand", required=True)
    dec = sym_sub.add_parser("decompose", help="harmonic block decomposition", parents=[json_flag])
    dec.add_argument("-f", "--form", "--gram", dest="form", required=True)
    dec.add_argument("--k", type=int, required=True)
    dec.add_argument("-p", "--period", default=None)
    dec.set_defaults(func=cmd_sym_decompose)

    betti_p = sub.add_parser("betti", help="Betti bound calculus")
    betti_sub = betti_p.add_subparsers(dest="subcommand", required=True)
    audit = betti_sub.add_parser("audit", help="audit a catalog", parents=[json_flag])
    audit.add_argument("--catalog", default=None, help="catalog JSON file (default: shipped)")
    audit.set_defaults(func=cmd_betti_audit)
    bound = betti_sub.add_parser("bound", help="bound exponent for a b2", parents=[json_flag])
    bound.add_argument("--b2", type=int, required=True)
    bound.add_argument("--div4-improve", action="store_true")
    bound.set_defaults(func=cmd_betti_bound)

    corr = sub.add_parser("corr", help="formal correspondence check")
    corr_sub = corr.add_subparsers(dest="subcommand", required=True)
    verify_c = corr_sub.add_parser("verify", help="Kunneth square uniformity", parents=[json_flag])
    verify_c.add_argument("--b3", type=int, required=True)
    verify_c.add_argument("--n", type=int, required=True)
    verify_c.add_argument("--broken-sign", action="store_true")
    verify_c.set_defaults(func=cmd_corr_verify)

    suite_p = sub.add_parser("suite", help="run the full invariant suite", parents=[json_flag])
    suite_p.add_argument("--config", default=None, help="config JSON overriding defaults")
    suite_p.add_argument("--seed", type=int, default=None)
    suite_p.set_defaults(func=cmd_suite)

    return parser


#: the parser of every `main` call, built on the first one; parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        report = args.func(args)
        _emit(report, args.json)
    except SystemExit as exc:  # --help; a usage error raises UsageError instead
        return int(exc.code or 0)
    except (UsageError, CapExceeded, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print("violation: %s" % exc, file=sys.stderr)
        return 1
    return report.exit_code


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
