import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ksw
from ksw import clifford as clifford_mod, kuga_satake, suite as suite_mod, sympow as sympow_mod, weil as weil_mod
from ksw.betti import power_of_two
from ksw.cli import main
from ksw.errors import UsageError
from ksw.formal_corr import CAP_B3, CAP_N
from ksw.linalg import Matrix
from ksw.randgen import random_hk
from ksw.serialize import content_hash, matrix_content_hash, matrix_from_json, matrix_to_json, parse_rational
from ksw.suite import NO_INSTANCES, RunReport, exit_code_from_checks, load_config
from oracles import signed_permutation_conjugate


SPACE_JSON = {"dim": 3, "gram": [["2", "0", "0"], ["0", "8", "0"], ["0", "0", "-1"]]}
PERIOD_JSON = {"alpha": ["2", "0", "0"], "beta": ["0", "1", "0"]}

SMALL_SUITE = {
    "linalg": {"trials": 3, "max_size": 4},
    "qspace": {"h_range": [2, 3], "scrambles": 2},
    "clifford": {"h_range": [2, 4], "pair_trials": 10, "triple_trials": 5, "element_h": 3},
    "ks": {"h_range": [3, 4], "instances_per_h": 1, "commutator_samples": 1},
    "sympow": {
        "decompose": [[3, 2]],
        "level": [[3, 3]],
        "isotropic": [[3, 2]],
        "block_level": [[3, 3]],
    },
    "weil": {"conjugations": 1},
    "corr": {"b3": 4, "n": [2], "sign_rule": "koszul", "negative_control": True},
}


@pytest.fixture
def fixture_dir(tmp_path):
    (tmp_path / "space.json").write_text(json.dumps(SPACE_JSON))
    (tmp_path / "period.json").write_text(json.dumps(PERIOD_JSON))
    return tmp_path


def _json_output(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_betti_bound_kummer(capsys):
    assert main(["betti", "bound", "--b2", "7", "--json"]) == 0
    report = _json_output(capsys)
    assert report["data"]["k"] == 3
    assert report["data"]["bound"] == 8
    assert report["exit_code"] == 0


def test_betti_bound_div4(capsys):
    assert main(["betti", "bound", "--b2", "8", "--div4-improve", "--json"]) == 0
    assert _json_output(capsys)["data"]["bound"] == 16


def test_betti_bound_too_small(capsys):
    assert main(["betti", "bound", "--b2", "2"]) == 2


@pytest.fixture
def int_str_limit_640():
    """Python's int-to-str digit limit lowered to 640 for one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)


def test_betti_bound_beyond_int_str_limit(int_str_limit_640, capsys):
    first_too_long = (10 ** 640).bit_length()  # least k with more than 640 digits in 2^k
    assert main(["betti", "bound", "--b2", str(2 * first_too_long + 1), "--json"]) == 0
    report = _json_output(capsys)
    assert report["data"]["bound"] == "2^%d" % first_too_long
    assert report["checks"][0]["detail"].endswith("bound 2^%d" % first_too_long)
    assert main(["betti", "bound", "--b2", str(2 * first_too_long - 1), "--json"]) == 0
    assert _json_output(capsys)["data"]["bound"] == 2 ** (first_too_long - 1)
    sys.set_int_max_str_digits(0)  # 0 lifts the limit
    assert power_of_two(first_too_long) == 2 ** first_too_long


def test_betti_audit_beyond_int_str_limit(int_str_limit_640, tmp_path, capsys):
    # a failing entry exits 1 like any other, whatever the size of its bound
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"name": "big", "dim2n": 4, "b2": 100000, "b3": 8}]))
    assert main(["betti", "audit", "--catalog", str(path), "--json"]) == 1
    report = _json_output(capsys)
    row = report["data"]["entries"][0]
    assert row["b3"] == {"k": 50000, "bound": "2^50000", "status": "fail"}
    assert row["b2n_minus_1"] == {"k": 50000, "bound": "2^50000", "status": "fail"}
    assert [c["detail"] for c in report["checks"]] == [
        "bound 2^50000 = 2^50000: fail (b = 8 < 2^50000)",
        "b = 8 < 2^50000",
    ]
    assert main(["betti", "audit", "--catalog", str(path)]) == 1


def test_betti_audit_huge_b2_finishes(tmp_path):
    # 2^k, 6 GB for k = b2/2 = 5*10^10, is never built; in a subprocess with 1 GiB of address
    # space and a timeout, so a regression fails instead of hanging
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"name": "x", "dim2n": 4, "b2": 10**11, "b3": 8}]))
    env = dict(os.environ, PYTHONPATH=str(Path(ksw.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ksw", "betti", "audit", "--catalog", str(path), "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert [c["status"] for c in report["checks"]] == ["fail", "fail"]
    row = report["data"]["entries"][0]
    assert row["b3"] == row["b2n_minus_1"] == {"k": 5 * 10**10, "bound": "2^50000000000", "status": "fail"}


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ksw.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "ksw", "betti", "bound", "--b2", "7", "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["bound"] == 8


def test_importing_the_cli_leaves_sympy_out():
    # importing sympy costs start-up time; only qspace's square-class helper needs it, lazily
    env = dict(os.environ, PYTHONPATH=str(Path(ksw.__file__).resolve().parents[1]))
    code = "import sys, ksw, ksw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_betti_audit_default_catalog(capsys):
    assert main(["betti", "audit", "--json"]) == 0
    report = _json_output(capsys)
    assert all(
        row["b3"]["status"] == "tight" for row in report["data"]["entries"]
    )


def test_betti_audit_custom_catalog(tmp_path, capsys):
    catalog = [
        {"name": "violator", "dim2n": 4, "b2": 7, "b3": 4},
    ]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog))
    assert main(["betti", "audit", "--catalog", str(path), "--json"]) == 1
    report = _json_output(capsys)
    assert report["data"]["entries"][0]["b3"]["status"] == "fail"


def test_betti_audit_empty_catalog_is_vacuous(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("[]")
    assert main(["betti", "audit", "--catalog", str(path), "--json"]) == 0
    report = _json_output(capsys)
    assert report["checks"] == [{"name": "betti.audit", "status": "vacuous", "detail": NO_INSTANCES}]
    assert report["data"]["entries"] == []
    assert main(["betti", "audit", "--catalog", str(path)]) == 0
    assert "[VACUOUS] betti.audit -- %s" % NO_INSTANCES in capsys.readouterr().out


def test_corr_verify_pass_and_broken(capsys):
    assert main(["corr", "verify", "--b3", "8", "--n", "2", "--json"]) == 0
    report = _json_output(capsys)
    assert report["data"]["pairs"] == 28
    assert report["data"]["uniform"] is True
    assert report["data"]["coefficient"] not in (None, "0")

    assert main(["corr", "verify", "--b3", "8", "--n", "2", "--broken-sign"]) == 1


def test_corr_verify_over_the_cap_exits_2(capsys):
    for b3, n in [(CAP_B3 + 1, 2), (8, CAP_N + 1), (100000, 2)]:
        assert main(["corr", "verify", "--b3", str(b3), "--n", str(n), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Kunneth square on b3=%d, n=%d exceeds the caps (b3 <= %d, n <= %d)\n" % (
            b3, n, CAP_B3, CAP_N,
        )
    assert main(["corr", "verify", "--b3", str(CAP_B3), "--n", "2", "--json"]) == 0
    assert _json_output(capsys)["data"]["pairs"] == CAP_B3 * (CAP_B3 - 1) // 2


def test_suite_corr_over_the_cap_is_skipped(tmp_path, capsys):
    capped = dict(SMALL_SUITE, corr=dict(SMALL_SUITE["corr"], b3=CAP_B3 + 1, n=[2, 3]))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(capped))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    corr = [c for c in json.loads(captured.out)["checks"] if c["name"].startswith("corr.")]
    assert [c["name"] for c in corr] == [
        "corr.uniform_coefficient[n=2]", "corr.kunneth_block[n=2]", "corr.pushforward_pairing[n=2]",
        "corr.uniform_coefficient[n=3]", "corr.kunneth_block[n=3]", "corr.pushforward_pairing[n=3]",
        "corr.negative_control",
    ]
    assert {c["status"] for c in corr} == {"skipped"}
    assert all("exceeds the caps" in c["detail"] for c in corr)


def test_parse_rational_grammar(tmp_path, capsys):
    # Python 3.10's Fraction(str) grammar, parsed exactly and never through
    # a float, the same on every supported version
    exact = {"1.5": Fraction(3, 2), "1e5": 100000, " 1 ": 1, "0.1": Fraction(1, 10), "-2e-3": Fraction(-1, 500)}
    exact[" -3/4 "] = Fraction(-3, 4)
    for text, value in exact.items():
        assert parse_rational(text) == value
    for text in ["1/0", "nan", "inf", "1.5.2"]:
        with pytest.raises(UsageError):
            parse_rational(text)
    # underscores (Fraction syntax from 3.11) and whitespace at the slash
    # (from 3.12) are refused with 3.10's message
    for text in ["1_000", "1_0/3", "1e1_0", "0.1_5", "1 / 2", "1/ 2", "1 /2", "1\t/2"]:
        with pytest.raises(UsageError, match="^bad rational %s: Invalid literal for Fraction" % re.escape(repr(text))):
            parse_rational(text)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"dim": 2, "gram": [["1_000", "0"], ["0", "-1"]]}))
    assert main(["qform", "inspect", "-f", str(path)]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def _raised(fn, arg) -> str:
    try:
        fn(arg)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError("%r did not raise" % (arg,))


def test_matrix_entries_parse_as_before():
    # digit strings are read with int(), everything else by parse_rational:
    # the same matrix or the same message either way, also past the int
    # digit limit (the message names the rational, not the matrix payload)
    long_digits = "9" * 5000
    table = {
        "0": 0, "-0": 0, "007": 7, "-12": -12, "+5": 5, " 3": 3, "3 ": 3,
        "-3/4": Fraction(-3, 4), "1.5": Fraction(3, 2), "1e3": 1000, "\u0663": 3, 3: 3,
        "1_000": "bad rational '1_000': Invalid literal for Fraction: '1_000'",
        "1/0": "bad rational '1/0': Fraction(1, 0)",
        long_digits: "bad rational %r: %s" % (long_digits, _raised(int, long_digits)),
        True: "bad rational true: booleans are not numbers",
        2.5: "bad rational 2.5: refusing to coerce float 2.5 to an exact rational",
        None: "bad rational None: %s" % _raised(Fraction, None),
    }
    for entry, want in table.items():
        if isinstance(want, str):
            with pytest.raises(UsageError) as info:
                matrix_from_json([[entry]])
            assert str(info.value) == want
        else:
            assert matrix_from_json([[entry]]) == Matrix([[want]])


def test_qform_inspect(fixture_dir, capsys):
    path = str(fixture_dir / "space.json")
    assert main(["qform", "inspect", "-f", path, "--json"]) == 0
    report = _json_output(capsys)
    assert report["data"]["dim"] == 3
    assert report["data"]["signature"] == [2, 1]
    assert report["data"]["discriminant_square_class"] == -1


def test_ks_build_report(fixture_dir, capsys):
    args = [
        "ks",
        "build",
        "-f",
        str(fixture_dir / "space.json"),
        "-p",
        str(fixture_dir / "period.json"),
        "--json",
    ]
    assert main(args) == 0
    report = _json_output(capsys)
    assert report["data"]["dims"] == {
        "h": 3,
        "cliff": 8,
        "c_plus": 4,
        "torus_complex_dim": 2,
    }
    assert report["data"]["e"] == {"terms": [{"mask": [1, 2], "coef": "1/4"}]}
    assert len(report["data"]["j_checksum"]) == 64
    assert {c["name"] for c in report["checks"]} == {
        "ks.e_square",
        "ks.j_square",
        "ks.commutators",
    }


@pytest.mark.parametrize("index, v0", [(0, ["1", "0", "0"]), (2, ["0", "0", "1"])])
def test_ks_build_v0_edges(fixture_dir, capsys, index, v0):
    # the first and the last diagonal basis vector are valid choices
    args = ["ks", "build", "-f", str(fixture_dir / "space.json"), "-p", str(fixture_dir / "period.json")]
    assert main(args + ["--v0", str(index), "--json"]) == 0
    assert _json_output(capsys)["data"]["v0"] == v0


def test_ks_build_v0_out_of_range(fixture_dir, capsys):
    # one past the last diagonal index of the h = 3 fixture
    args = ["ks", "build", "-f", str(fixture_dir / "space.json"), "-p", str(fixture_dir / "period.json")]
    assert main(args + ["--v0", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --v0 index 3 outside 0..2\n"


def test_matrix_content_hash_is_the_hash_of_the_dense_json():
    # the j_checksum of `ks build`, streamed row by row
    for h in range(3, 10):
        j = kuga_satake.build(random_hk(random.Random(100 * h), h)).j_even
        assert matrix_content_hash(j) == content_hash(matrix_to_json(j)), h
    f = Fraction
    rational = Matrix([[0, 0, 0], [f(-3, 4), 0, 5], [0, 0, 0], [7, f(1, 3), f(-22, 6)]])
    for m in (rational, Matrix.zeros(2, 0), Matrix.zeros(0, 3)):
        assert matrix_content_hash(m) == content_hash(matrix_to_json(m))


def test_ks_build_byte_stable(fixture_dir, capsys):
    args = [
        "ks",
        "build",
        "-f",
        str(fixture_dir / "space.json"),
        "-p",
        str(fixture_dir / "period.json"),
        "--json",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_ks_verify(fixture_dir, capsys):
    args = [
        "ks",
        "verify",
        "-f",
        str(fixture_dir / "space.json"),
        "-p",
        str(fixture_dir / "period.json"),
        "--json",
    ]
    assert main(args) == 0
    report = _json_output(capsys)
    names = {c["name"] for c in report["checks"]}
    assert "ks.endo_rank" in names
    assert "ks.endo_sign_laws" in names
    assert "ks.odd_even_iso" in names
    assert any(name.startswith("ks.commutators.rotation") for name in names)


def test_ks_verify_seed_is_only_echoed(fixture_dir, capsys):
    args = ["ks", "verify", "-f", str(fixture_dir / "space.json"), "-p", str(fixture_dir / "period.json"), "--json"]
    reports = []
    for seed in ([], ["--seed", "5"]):
        assert main(args + seed) == 0
        reports.append(_json_output(capsys))
    assert (reports[0]["seed"], reports[1]["seed"]) == (0, 5)
    assert {**reports[1], "seed": 0} == reports[0]
    assert main(["ks", "verify", "--help"]) == 0
    assert "only echoed into the report" in " ".join(capsys.readouterr().out.split())


def test_ks_build_invalid_period(fixture_dir, capsys):
    bad = fixture_dir / "bad_period.json"
    bad.write_text(json.dumps({"alpha": ["1", "0", "0"], "beta": ["1", "1", "0"]}))
    args = [
        "ks",
        "build",
        "-f",
        str(fixture_dir / "space.json"),
        "-p",
        str(bad),
    ]
    assert main(args) == 2


def test_weil_analyze(tmp_path, capsys):
    j_rows = []
    phi_rows = []
    j0 = [[0, -1], [1, 0]]
    for i in range(8):
        j_rows.append(
            [str(j0[i % 2][k % 2]) if i // 2 == k // 2 else "0" for k in range(8)]
        )
        phi_rows.append(
            [
                str((1 if i < 4 else -1) * j0[i % 2][k % 2]) if i // 2 == k // 2 else "0"
                for k in range(8)
            ]
        )
    (tmp_path / "weight1.json").write_text(json.dumps({"dim": 8, "J": j_rows}))
    (tmp_path / "phi.json").write_text(json.dumps({"phi": phi_rows}))
    args = [
        "weil",
        "analyze",
        "-f",
        str(tmp_path / "weight1.json"),
        "--phi",
        str(tmp_path / "phi.json"),
        "--json",
    ]
    assert main(args) == 0
    report = _json_output(capsys)
    assert report["data"]["mult_plus"] == 2
    assert report["data"]["mult_minus"] == 2
    assert report["data"]["is_weil"] is True
    assert report["data"]["weil_space_dim"] == 2
    assert report["data"]["all_weil_classes_22"] is True


def test_weil_analyze_non_fourfold_omits_class_space(tmp_path, capsys):
    # dim-4 input: multiplicities are reported, the class-space fields stay null
    phi = [["0", "-2", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-2"], ["0", "0", "1", "0"]]
    j = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    (tmp_path / "weight1.json").write_text(json.dumps({"dim": 4, "J": j}))
    (tmp_path / "phi.json").write_text(json.dumps({"phi": phi}))
    args = [
        "weil",
        "analyze",
        "-f",
        str(tmp_path / "weight1.json"),
        "--phi",
        str(tmp_path / "phi.json"),
        "--json",
    ]
    assert main(args) == 0
    report = _json_output(capsys)
    assert report["data"]["mult_plus"] == report["data"]["mult_minus"] == 1
    assert report["data"]["is_weil"] is True
    assert report["data"]["weil_space_dim"] is None
    assert report["data"]["all_weil_classes_22"] is None


def test_weil_analyze_rejects_a_non_square_j(tmp_path, capsys):
    # J of shape 8 x 7 is refused by its shape, before any product is tried
    (tmp_path / "weight1.json").write_text(json.dumps({"J": [["0"] * 7 for _ in range(8)]}))
    (tmp_path / "phi.json").write_text(json.dumps({"phi": [["0"] * 8 for _ in range(8)]}))
    assert main(["weil", "analyze", "-f", str(tmp_path / "weight1.json"), "--phi", str(tmp_path / "phi.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: J must be 8x8\n"


def test_weil_analyze_rejects_phi_of_another_dimension(tmp_path, capsys):
    # a 6x6 phi against the 8x8 J: refused by the shape test of
    # check_quadratic_endo with its one line, before any product is tried
    j, _ = _weil_block()
    weight1, phi = _weil_files(tmp_path, j, [row[:6] for row in j[:6]])
    assert main(["weil", "analyze", "-f", weight1, "--phi", phi]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: phi and J must be square of equal dimension\n"


def test_qform_inspect_holds_the_declared_dim_to_the_gram(tmp_path, capsys):
    # a declared dim equal to the Gram size is taken; any other exits 2 with one line
    gram = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"dim": 3, "gram": gram}))
    assert main(["qform", "inspect", "-f", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps({"dim": 4, "gram": gram}))
    assert main(["qform", "inspect", "-f", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: declared dim 4 != gram size 3\n"


def test_weil_analyze_rejects_non_endo(tmp_path):
    j0 = [[0, -1], [1, 0]]
    j_rows = [
        [str(j0[i % 2][k % 2]) if i // 2 == k // 2 else "0" for k in range(8)]
        for i in range(8)
    ]
    (tmp_path / "weight1.json").write_text(json.dumps({"dim": 8, "J": j_rows}))
    (tmp_path / "phi.json").write_text(
        json.dumps({"phi": [["1" if i == k else "0" for k in range(8)] for i in range(8)]})
    )
    assert (
        main(
            [
                "weil",
                "analyze",
                "-f",
                str(tmp_path / "weight1.json"),
                "--phi",
                str(tmp_path / "phi.json"),
            ]
        )
        == 2
    )


def test_sym_decompose(fixture_dir, capsys):
    args = [
        "sym",
        "decompose",
        "--gram",
        str(fixture_dir / "space.json"),
        "--k",
        "3",
        "-p",
        str(fixture_dir / "period.json"),
        "--json",
    ]
    assert main(args) == 0
    report = _json_output(capsys)
    assert report["data"]["dim"] == 10
    assert [b["dim"] for b in report["data"]["blocks"]] == [7, 3]
    assert [b["level"] for b in report["data"]["blocks"]] == [6, 2]
    names = {c["name"] for c in report["checks"]}
    assert "sympow.level_filtration" in names


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["qform", "inspect", "-f", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "command, payload, message",
    [
        (["qform", "inspect", "-f"], {"dim": 2, "gram": [[True, 0], [0, 1]]}, "booleans are not numbers"),
        (["qform", "inspect", "-f"], {"dim": True, "gram": [[1]]}, "dim must be an integer, got true"),
        (["qform", "inspect", "-f"], {"dim": 1.0, "gram": [[1]]}, "dim must be an integer, got 1.0"),
        (["betti", "audit", "--catalog"], [{"name": "x", "dim2n": 4, "b2": 7, "b3": True}], "b3 must be an integer"),
        (["betti", "audit", "--catalog"], [{"name": "x", "dim2n": 4, "b2": 23.0, "b3": 8}], "b2 must be an integer"),
        (["betti", "audit", "--catalog"], [5], "catalog entry 5 is not an object"),
        (
            ["betti", "audit", "--catalog"],
            [{"name": "x", "dim2n": 6, "b2": 7, "b_odd_first_nonzero": [5, 8.0], "h_2n_minus_3_vanishes": True}],
            "b_odd_first_nonzero must be an integer",
        ),
        (
            ["betti", "audit", "--catalog"],
            [{"name": "x", "dim2n": 6, "b2": 7, "b_odd_first_nonzero": [5], "h_2n_minus_3_vanishes": True}],
            "b_odd_first_nonzero must be [degree, b]",
        ),
        (
            ["betti", "audit", "--catalog"],
            [{"name": "x", "dim2n": 6, "b2": 7, "b_odd_first_nonzero": [5, 8], "h_2n_minus_3_vanishes": 1}],
            "h_2n_minus_3_vanishes must be true, false or null",
        ),
    ],
    ids=["gram-bool", "dim-bool", "dim-float", "b3-bool", "b2-float", "entry-int", "first-float", "first-short", "flag-int"],
)
def test_json_booleans_and_floats_exit_2(tmp_path, capsys, command, payload, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_missing_file_exits_2(tmp_path):
    assert main(["qform", "inspect", "-f", str(tmp_path / "nope.json")]) == 2


def test_usage_error_exits_2(capsys):
    assert main(["betti"]) == 2
    assert main(["nonsense"]) == 2


def test_suite_small_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_SUITE))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    report = _json_output(capsys)
    assert report["exit_code"] == 0
    assert report["counts"]["pass"] > 10
    assert report["seed"] == load_config()["seed"]


def test_suite_negative_control_config(tmp_path, capsys):
    broken = dict(SMALL_SUITE)
    broken["corr"] = {
        "b3": 4,
        "n": [2],
        "sign_rule": "broken",
        "negative_control": False,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(broken))
    assert main(["suite", "--config", str(cfg), "--json"]) == 1
    report = _json_output(capsys)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert any(c["name"].startswith("corr.uniform_coefficient") for c in failed)


@pytest.mark.parametrize(
    "override",
    [{"seed": "x"}, {"ks": {"h_range": "3"}}, {"ks": {"h_range": [3, True]}}, {"bogus": 1}],
)
def test_suite_bad_config_exits_2(tmp_path, capsys, override):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(override))
    assert main(["suite", "--config", str(cfg), "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "override, key",
    [
        ({"ks": {"h_range": []}}, "ks.h_range"),
        ({"qspace": {"h_range": [2, 3, 4]}}, "qspace.h_range"),
        ({"clifford": {"h_range": [0, 3]}}, "clifford.h_range"),
        ({"ks": {"h_range": [1, 4]}}, "ks.h_range"),
        ({"betti": {"b2_range": [0, 5]}}, "betti.b2_range"),
        ({"betti": {"b2_range": [2]}}, "betti.b2_range"),
    ],
)
def test_suite_bad_range_exits_2(tmp_path, capsys, override, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(override))
    assert main(["suite", "--config", str(cfg), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: suite config %s: " % key)
    assert captured.err.count("\n") == 1


def test_suite_empty_families_are_vacuous(tmp_path, capsys):
    empty = dict(
        SMALL_SUITE,
        linalg={"trials": 0},
        qspace={"h_range": [3, 2]},
        ks={"h_range": [5, 4]},
        betti={"b2_range": [4, 3]},
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(empty))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    checks = {c["name"]: c for c in _json_output(capsys)["checks"]}
    for name in (
        "linalg.inverse_roundtrip",
        "qspace.signature_congruence",
        "qspace.discriminant_square_class",
        "ks.e_square",
        "ks.odd_even_iso",
        "hodge.period_isotropy",
        "hodge.rotation_skew",
        "hodge.h2_spectrum",
        "betti.bound_monotone",
    ):
        assert checks[name]["status"] == "vacuous"
        assert checks[name]["detail"] == "no instances"


def test_suite_ks_with_no_instances_per_h_is_vacuous(tmp_path, capsys):
    # instances_per_h: 0 is the least valid count: the suite runs, and every ks check says it saw nothing
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SMALL_SUITE, ks=dict(SMALL_SUITE["ks"], instances_per_h=0))))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    ks_checks = [c for c in _json_output(capsys)["checks"] if c["name"].startswith("ks.")]
    assert len(ks_checks) == 9
    assert all(c["status"] == "vacuous" and c["detail"] == NO_INSTANCES for c in ks_checks)


@pytest.mark.parametrize(
    "family, key, name",
    [
        ("weil", "conjugations", "weil.trace_criterion"),
        ("weil", "conjugations", "weil.conjugation_invariance"),
        ("clifford", "pair_trials", "clifford.anticommutation"),
        ("clifford", "triple_trials", "clifford.associativity"),
        ("clifford", "triple_trials", "clifford.parity_additivity"),
    ],
)
def test_suite_check_with_zero_trials_is_vacuous(tmp_path, capsys, family, key, name):
    # a pass needs at least one real instance
    config = dict(SMALL_SUITE, **{family: dict(SMALL_SUITE[family], **{key: 0})})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    checks = {c["name"]: c for c in _json_output(capsys)["checks"]}
    assert checks[name] == {"name": name, "status": "vacuous", "detail": NO_INSTANCES}


def test_suite_weil_certificate_failure_fails_its_checks_and_reports_the_rest(tmp_path, capsys, monkeypatch):
    # a dependent eigenvector wedge makes every class space raise: the
    # checks that compute one fail with its message, the report is still
    # written, and no other status moves
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_SUITE))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    before = {c["name"]: c for c in _json_output(capsys)["checks"]}
    e1 = {weil_mod._wedge4_masks(8)[1]: 1}
    monkeypatch.setattr(weil_mod, "_eigenvector_wedge", lambda endo: (e1, e1))
    assert main(["suite", "--config", str(cfg), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    after = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    moved = {"weil.balanced_block", "weil.unbalanced_control", "weil.conjugation_invariance"}
    assert after.keys() == before.keys()
    for name in moved:
        assert before[name]["status"] == "pass"
        assert after[name] == {"name": name, "status": "fail", "detail": "eigenvector wedge: A and B are dependent"}
    assert all(after[name] == before[name] for name in before.keys() - moved)


def test_suite_cap_exceeded_is_skipped(tmp_path, capsys):
    capped = dict(SMALL_SUITE)
    capped["cap_h"] = 3
    capped["clifford"] = dict(SMALL_SUITE["clifford"], h_range=[2, 5], element_h=3)
    capped["ks"] = dict(SMALL_SUITE["ks"], h_range=[3, 3])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(capped))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    report = _json_output(capsys)
    skipped = [c for c in report["checks"] if c["status"] == "skipped"]
    assert skipped
    assert report["exit_code"] == 0


def test_suite_capped_clifford_elements_are_skipped(tmp_path, capsys):
    capped = dict(SMALL_SUITE, clifford=dict(SMALL_SUITE["clifford"], element_h=12))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(capped))
    assert main(["suite", "--config", str(cfg), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    for name in ("clifford.anticommutation", "clifford.associativity", "clifford.parity_additivity"):
        assert checks[name] == {
            "name": name,
            "status": "skipped",
            "detail": "Clifford algebra on h=12 exceeds the cap 10",
        }


def test_parity_additivity_sees_grade_six_blades(monkeypatch):
    # a product that adds an odd blade whenever an operand has a grade-6
    # blade: only an even part taken by mask parity (not grades 0, 2, 4)
    # lets the check see it
    real = clifford_mod.CliffordElement.__mul__

    def broken(x, y):
        out = real(x, y)
        if isinstance(y, clifford_mod.CliffordElement) and any(m.bit_count() == 6 for m in (*x.nums, *y.nums)):
            return out + x.algebra.blade(1)
        return out

    cfg = {"clifford": dict(SMALL_SUITE["clifford"], h_range=[2, 1], triple_trials=25, element_h=7)}

    def statuses():
        return {c["name"]: c["status"] for c in suite_mod._stream_checks("_clifford_checks", cfg, random.Random(0))}

    assert statuses()["clifford.parity_additivity"] == "pass"
    monkeypatch.setattr(clifford_mod.CliffordElement, "__mul__", broken)
    assert statuses()["clifford.parity_additivity"] == "fail"


def test_suite_sympow_checks_fail_on_a_wrong_block_eigenvalue(monkeypatch):
    # c_1 off by one breaks the one block certificate: every check whose
    # subject runs it fails with its message, and no other status moves
    def checks():
        return {c["name"]: (c["status"], c["detail"]) for c in suite_mod.run_full_suite(SMALL_SUITE).checks}

    before = checks()
    real = sympow_mod.casimir_block_eigenvalue
    monkeypatch.setattr(sympow_mod, "casimir_block_eigenvalue", lambda h, k, l: real(h, k, l) + (l == 1))
    after = checks()
    moved = {"sympow.decompose[h=3,k=2]", "sympow.level_filtration[h=3,k=3]", "sympow.block_level[h=3,k=3]"}
    assert after.keys() == before.keys() >= moved | {"sympow.harmonic_symmetry", "sympow.isotropic_span[h=3,k=2]"}
    assert {name: after[name] for name in moved} == dict.fromkeys(moved, ("fail", "stacked block basis is rank deficient"))
    assert all(before[name][0] == "pass" for name in moved)
    assert all(after[name][0] == before[name][0] for name in before.keys() - moved)


def test_suite_byte_stable(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL_SUITE))
    main(["suite", "--config", str(cfg), "--json"])
    first = capsys.readouterr().out
    main(["suite", "--config", str(cfg), "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_env_cap_override(fixture_dir, monkeypatch):
    monkeypatch.setenv("KSW_CAP_H", "2")
    args = [
        "ks",
        "build",
        "-f",
        str(fixture_dir / "space.json"),
        "-p",
        str(fixture_dir / "period.json"),
    ]
    assert main(args) == 2  # cap below h = 3 surfaces as an input error
    monkeypatch.setenv("KSW_CAP_H", "junk")
    assert main(args) == 2


def test_exit_code_semantics():
    checks = [
        {"name": "a", "status": "pass", "detail": ""},
        {"name": "b", "status": "vacuous", "detail": ""},
        {"name": "c", "status": "skipped", "detail": ""},
    ]
    assert exit_code_from_checks(checks) == 0
    checks.append({"name": "d", "status": "fail", "detail": ""})
    assert exit_code_from_checks(checks) == 1


def test_run_report_counts():
    report = RunReport(
        command="x",
        inputs={},
        checks=[{"name": "a", "status": "pass", "detail": ""}],
    )
    payload = report.to_dict()
    assert payload["counts"] == {"pass": 1}
    assert payload["exit_code"] == 0
    assert "seed" not in payload
    report.checks.append({"name": "b", "status": "fail", "detail": ""})
    assert report.exit_code == 1


def _weil_block():
    """J (four 2x2 rotation blocks) and phi = J on the first two blocks, -J on the last two, as int rows."""
    j0 = [[0, -1], [1, 0]]
    j = [[j0[i % 2][k % 2] if i // 2 == k // 2 else 0 for k in range(8)] for i in range(8)]
    return j, [[(1 if i < 4 else -1) * x for x in row] for i, row in enumerate(j)]


def _weil_files(tmp_path, j, phi):
    """J and phi (int rows) written as the weight1 and phi files of `weil analyze`."""
    (tmp_path / "weight1.json").write_text(json.dumps({"dim": len(j), "J": [[str(x) for x in r] for r in j]}))
    (tmp_path / "phi.json").write_text(json.dumps({"phi": [[str(x) for x in r] for r in phi]}))
    return str(tmp_path / "weight1.json"), str(tmp_path / "phi.json")


def _weil_block_files(tmp_path):
    """The 8-dim block fixture of test_weil_analyze as weight1 and phi files."""
    return _weil_files(tmp_path, *_weil_block())


def test_weil_analyze_class_space_fault_is_a_violation(tmp_path, capsys, monkeypatch):
    # checked input, then a failed class-space step: a program fault, exit 1
    pair = tuple({mask: 1} for mask in weil_mod._wedge4_masks(8)[:2])
    monkeypatch.setattr(weil_mod, "_eigenvector_wedge", lambda endo: pair)
    weight1, phi = _weil_block_files(tmp_path)
    assert main(["weil", "analyze", "-f", weight1, "--phi", phi]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("violation: ") and captured.err.count("\n") == 1


#: sha256 of the --json stdout of each command on the fixtures above
PINNED_REPORT_DIGESTS = {
    "suite": "c897b6b9682dd5d18ae229e4c1f07deb17085af89e975b00f53e1c406a4cdb65",
    "qform inspect": "27b45e9955bb4b97c96a1f2c8a7b1b691a77cbab286a7434804260642c09e0a8",
    "ks build": "ae42a5df7c19fa2559135ee2b7d2c59c0eaa9471a44a2c9cbf902cf5beb7dad3",
    "ks verify": "d2a711d1cd22b87f86185cb939a1d0fc53ed8dea2ced9f2e301f164731ccd6aa",
    "sym decompose": "848f64d94e4d0648b9e35ab2737d0a4a5d90f59716aa761c335eb1e3b76e053b",
    "weil analyze": "e18620d1ef9ddc8616a941dbf30fa5e591d9c0c4cc756454eb7fc1984400b011",
    "betti audit": "16af0b1cf1e770dfb7986873b0b9d2099087ee25e89e9c4e13d6084b89371a4f",
    "corr verify": "a70f17f8739f9ebf192134fd22ced38d0458ad20856f75522a55d55fd2b03fb1",
}


def test_report_bytes_pinned(fixture_dir, capsys):
    space, period = str(fixture_dir / "space.json"), str(fixture_dir / "period.json")
    config = fixture_dir / "config.json"
    config.write_text(json.dumps(SMALL_SUITE))
    weight1, phi = _weil_block_files(fixture_dir)
    argvs = {
        "suite": ["suite", "--config", str(config)],
        "qform inspect": ["qform", "inspect", "-f", space],
        "ks build": ["ks", "build", "-f", space, "-p", period],
        "ks verify": ["ks", "verify", "-f", space, "-p", period],
        "sym decompose": ["sym", "decompose", "-f", space, "--k", "3", "-p", period],
        "weil analyze": ["weil", "analyze", "-f", weight1, "--phi", phi],
        "betti audit": ["betti", "audit"],
        "corr verify": ["corr", "verify", "--b3", "8", "--n", "2"],
    }
    digests = {}
    for name, argv in argvs.items():
        assert main(argv + ["--json"]) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == PINNED_REPORT_DIGESTS


#: sha256 of `ksw weil analyze --json` on the block fixture, on phi = J and on
#: four seeded signed-permutation conjugates of the block fixture
PINNED_WEIL_DIGESTS = {
    "block": "e18620d1ef9ddc8616a941dbf30fa5e591d9c0c4cc756454eb7fc1984400b011",
    "phi = J": "d82f5429c02de70f9d235a9ab4b1aef1b4ebdb2e28bfbc635173f63d9f93ed48",
    "conjugate 0": "8f040cefd59471098f2fe1292dc4721a8affb4d4c5ddedb45b182989d056dea6",
    "conjugate 1": "a4bcf5090983e9ee127893c6c5ed738f6808b3c08fbdaba0a58be75a37b3caef",
    "conjugate 2": "fdd4f78e65eb191f62358a0cac400a66caacc10f4e6eb5007c23adf6a972ffd8",
    "conjugate 3": "fb4a4d05de1b2cce02d79914cb926c82f5874fdc33ea21b7849cb654146c5726",
}


def test_weil_analyze_bytes_pinned(tmp_path, capsys):
    j, phi = _weil_block()
    pairs = {"block": (j, phi), "phi = J": (j, j)}
    rng = random.Random(3303)
    for i in range(4):
        pairs["conjugate %d" % i] = signed_permutation_conjugate(rng, j, phi)
    assert pairs["conjugate 0"] != [j, phi]
    digests = {}
    for name, (jj, pp) in pairs.items():
        weight1, phi_file = _weil_files(tmp_path, jj, pp)
        assert main(["weil", "analyze", "-f", weight1, "--phi", phi_file, "--json"]) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == PINNED_WEIL_DIGESTS


#: sha256 of `ksw suite --json` at the default config, and at --seed 7
PINNED_SUITE_DIGESTS = {
    (): "6bc1a8f99a5e649b7f0a8290be60c2ea74a21e58d77ab826d4f0b4a4a32c17de",
    ("--seed", "7"): "4da4e14f0e1ea397299af332edd5292c394a972f4ccc2245e640181af57692d3",
}


@pytest.mark.parametrize("extra", list(PINNED_SUITE_DIGESTS), ids=["default", "seed-7"])
def test_default_suite_bytes_pinned(capsys, extra):
    assert main(["suite", "--json", *extra]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == PINNED_SUITE_DIGESTS[extra]
