"""The CLI exit-code contract, by property, on every subcommand in-process.

Malformed input (a payload of a README JSON format broken in one place, or
an out-of-range argument) exits 2 with exactly one stderr line and no
traceback; small valid input never exits 2.
"""

import contextlib
import copy
import io
import json
import os
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ksw.cli import main

SPACE = {"dim": 3, "gram": [["2", "0", "0"], ["0", "8", "0"], ["0", "0", "-1"]]}
PERIOD = {"alpha": ["2", "0", "0"], "beta": ["0", "1", "0"]}
WEIGHT1 = {"dim": 2, "J": [["0", "-1"], ["1", "0"]]}
PHI = {"phi": [["0", "-3"], ["3", "0"]]}
ENTRY = {"name": "k", "dim2n": 6, "b2": 7, "b3": 8, "b_odd_first_nonzero": [5, 8], "h_2n_minus_3_vanishes": True}
#: a suite config whose families are empty or one tiny instance each
TINY_SUITE = {
    "linalg": {"trials": 1, "max_size": 2},
    "qspace": {"h_range": [2, 1]},
    "clifford": {"h_range": [2, 1], "element_h": 2, "pair_trials": 1, "triple_trials": 1},
    "ks": {"h_range": [3, 2]},
    "sympow": {"decompose": [], "level": [], "isotropic": [], "block_level": []},
    "weil": {"conjugations": 0},
    "betti": {"b2_range": [3, 4]},
    "corr": {"b3": 2, "n": [2], "negative_control": False},
}
RANGE_KEYS = [("qspace", "h_range", 1), ("clifford", "h_range", 1), ("ks", "h_range", 2), ("betti", "b2_range", 3)]
#: size and count keys (each entry of corr.n) and the least value the suite runs
LEAST_KEYS = [
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
]
#: sympow [h, k] pair-list keys: the least h, the least k, and whether k must be odd
PAIR_KEYS = [("decompose", 1, 0, False), ("level", 2, 1, True), ("isotropic", 1, 0, False), ("block_level", 2, 0, False)]
#: string keys and the values the suite accepts
CHOICE_KEYS = [("corr", "sign_rule", ("koszul", "broken")), ("betti", "catalog", ("default",))]

#: format -> (valid payload, the commands reading it from "@", with every other file valid)
FORMATS = {
    "space": (
        SPACE,
        [
            ["qform", "inspect", "-f", "@"],
            ["ks", "build", "-f", "@", "-p", "period"],
            ["ks", "verify", "-f", "@", "-p", "period"],
            ["sym", "decompose", "-f", "@", "--k", "2"],
        ],
    ),
    "period": (
        PERIOD,
        [
            ["ks", "build", "-f", "space", "-p", "@"],
            ["ks", "verify", "-f", "space", "-p", "@"],
            ["sym", "decompose", "-f", "space", "--k", "3", "-p", "@"],
        ],
    ),
    "weight1": (WEIGHT1, [["weil", "analyze", "-f", "@", "--phi", "phi"]]),
    "phi": (PHI, [["weil", "analyze", "-f", "weight1", "--phi", "@"]]),
    "catalog": ([ENTRY], [["betti", "audit", "--catalog", "@"]]),
    "config": (TINY_SUITE, [["suite", "--config", "@"]]),
}


class Deep:
    """A value inside `depth` nested lists; written as text, so depth may pass the decoder's limit."""

    def __init__(self, depth, inner):
        self.depth, self.inner = depth, inner


#: an integer literal one digit longer than the int-to-str limit
HUGE = object()


def _dump(value) -> str:
    if isinstance(value, Deep):
        return "[" * value.depth + _dump(value.inner) + "]" * value.depth
    if value is HUGE:
        return "9" * (sys.get_int_max_str_digits() + 1)
    if isinstance(value, dict):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), _dump(v)) for k, v in value.items())
    if isinstance(value, list):
        return "[%s]" % ", ".join(_dump(v) for v in value)
    return json.dumps(value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    for name, (payload, _) in FORMATS.items():
        (path / name).write_text(json.dumps(payload))
    return path


def _run(workdir, argv, payload=None, env=None):
    """(exit code, stderr) of main on argv; "@" names a file holding payload."""
    if payload is not None:
        (workdir / "input.json").write_text(_dump(payload))
    files = set(FORMATS) | {"@"}
    argv = [str(workdir / ("input.json" if a == "@" else a)) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# -- malformed payloads -----------------------------------------------------------

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
json_objects = st.dictionaries(st.text(max_size=3), json_values, max_size=2)
containers = st.lists(json_values, min_size=1, max_size=2) | json_objects
deep = st.builds(Deep, st.integers(1, 3000), json_scalars)
#: values no rational slot accepts
bad_rational = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.sampled_from(["", "x", "1/0", "1.5.2", "nan", "inf", "1_000", "1 / 2", "--1", "0x10", "3/"])
    | containers
    | deep
    | (st.just(HUGE) if hasattr(sys, "get_int_max_str_digits") else st.nothing())
)
#: values no JSON-integer slot accepts
bad_int = st.booleans() | st.floats() | st.text(max_size=4) | containers | deep


def _leaves(payload, path=()):
    """The paths of every leaf of a payload."""
    if isinstance(payload, (dict, list)):
        for key, value in payload.items() if isinstance(payload, dict) else enumerate(payload):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _replace(payload, path, value=None, delete=False):
    out = copy.deepcopy(payload)
    target = out
    for key in path[:-1]:
        target = target[key]
    if delete:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


@st.composite
def broken_payloads(draw):
    """(argv, payload) with one README-format payload broken in exactly one place."""
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    payload, argvs = FORMATS[fmt]
    argv = draw(st.sampled_from(argvs)) + draw(st.sampled_from([[], ["--json"]]))
    kind = draw(
        st.sampled_from(
            ["top_type", "deep_wrap"]
            + {
                "space": ["rational", "missing", "ragged", "dim"],
                "period": ["rational", "missing"],
                "weight1": ["rational", "missing", "ragged", "dim"],
                "phi": ["rational", "ragged"],
                "catalog": ["entry", "missing"],
                "config": ["wrong_type", "unknown_key", "range", "shape"],
            }[fmt]
        )
    )
    if kind == "top_type":  # phi may be a bare matrix and the catalog is a list
        wrong = {"phi": st.nothing(), "catalog": json_objects}
        return argv, draw(json_scalars | wrong.get(fmt, st.lists(json_values, max_size=2)))
    if kind == "deep_wrap":
        return argv, Deep(draw(st.integers(1, 3000)), payload)
    if kind == "rational":
        path = draw(st.sampled_from([p for p in _leaves(payload) if p[0] != "dim"]))
        return argv, _replace(payload, path, draw(bad_rational))
    if kind == "dim":
        return argv, _replace(payload, ("dim",), draw(bad_int | st.none() | st.integers(4, 10**30)))
    if kind == "missing":
        required = {"space": "gram", "period": "alpha beta", "weight1": "J", "catalog": "name dim2n b2"}
        key = draw(st.sampled_from(required[fmt].split()))
        return argv, _replace(payload, (0, key) if fmt == "catalog" else (key,), delete=True)
    if kind == "ragged":
        key = {"space": "gram", "weight1": "J", "phi": "phi"}[fmt]
        i = draw(st.integers(0, len(payload[key]) - 1))
        row = payload[key][i][:-1] if draw(st.booleans()) else payload[key][i] + ["1"]
        return argv, _replace(payload, (key, i), row)
    if kind == "entry":
        bad = {
            "name": st.none() | st.booleans() | st.integers() | st.floats() | containers,
            "dim2n": bad_int | st.none() | st.integers(-50, 3) | st.integers(2, 20).map(lambda n: 2 * n + 1),
            "b2": bad_int | st.none() | st.integers(-50, 2),
            "b3": bad_int | st.integers(-(10**6), -1),
            "b_odd_first_nonzero": st.booleans()
            | st.integers()
            | st.text(max_size=3)
            | st.lists(st.integers(0, 9), max_size=4).filter(lambda x: len(x) != 2)
            | st.tuples(st.integers(0, 9), bad_int).map(list),
            "h_2n_minus_3_vanishes": st.integers() | st.floats() | st.text(max_size=3) | containers,
        }
        field = draw(st.sampled_from(sorted(bad)))
        return argv, _replace(payload, (0, field), draw(bad[field]))
    if kind == "unknown_key":
        section = draw(st.sampled_from([None] + sorted(TINY_SUITE)))
        known = set(TINY_SUITE) | {"seed", "cap_h"} if section is None else set(TINY_SUITE[section])
        key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in known))
        return argv, _replace(payload, (key,) if section is None else (section, key), draw(json_values))
    if kind == "shape":
        return argv, draw(misshapen_configs())[1]
    if kind == "range":
        family, key, least = draw(st.sampled_from(RANGE_KEYS))
        bad = st.tuples(st.integers(-(10**6), least - 1), st.integers(-5, 20)).map(list) | st.lists(
            st.integers(1, 5), max_size=4
        ).filter(lambda r: len(r) != 2)
        return argv, _replace(payload, (family, key), draw(bad))
    # a value whose JSON type differs from the default's
    path = draw(st.sampled_from([("seed",), ("cap_h",)] + [(s, k) for s in TINY_SUITE for k in TINY_SUITE[s]]))
    default = 0 if len(path) == 1 else TINY_SUITE[path[0]][path[1]]
    return argv, _replace(payload, path, draw((json_values | deep).filter(lambda v: type(v) is not type(default))))


@st.composite
def misshapen_configs(draw):
    """(the key, a TINY_SUITE copy) with one well-typed value outside its key's domain."""
    if draw(st.booleans()):
        section, key, least = draw(st.sampled_from(LEAST_KEYS))
        bad = st.integers(-(10**6), least - 1)
        value = draw(st.lists(bad, min_size=1, max_size=2) if key == "n" else bad)
        return "%s.%s" % (section, key), _replace(TINY_SUITE, (section, key), value)
    if draw(st.booleans()):
        section, key, allowed = draw(st.sampled_from(CHOICE_KEYS))
        value = draw(st.text(max_size=6).filter(lambda v: v not in allowed))
        return "%s.%s" % (section, key), _replace(TINY_SUITE, (section, key), value)
    key, least_h, least_k, odd = draw(st.sampled_from(PAIR_KEYS))
    h, k = st.integers(least_h, least_h + 2), st.integers(least_k, least_k + 2)
    bad = (
        st.lists(st.integers(0, 5), max_size=4).filter(lambda p: len(p) != 2)
        | st.tuples(st.integers(-(10**6), least_h - 1), k).map(list)
        | st.tuples(h, st.integers(-(10**6), least_k - 1)).map(list)
    )
    if odd:
        bad |= st.tuples(h, k.map(lambda x: 2 * x)).map(list)
    return "sympow.%s" % key, _replace(TINY_SUITE, ("sympow", key), [draw(bad)])


def _assert_usage_error(code, err) -> None:
    assert code == 2, err
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


AUDIT = ["betti", "audit", "--catalog", "@"]


@settings(max_examples=80)
@given(case=broken_payloads())
@example(case=(["qform", "inspect", "-f", "@"], Deep(3000, SPACE)))
@example(case=(AUDIT, [dict(ENTRY, b2=2)]))
@example(case=(AUDIT, [dict(ENTRY, name=None)]))
@example(case=(AUDIT, [dict(ENTRY, b_odd_first_nonzero=False)]))
@example(case=(AUDIT, [dict(ENTRY, b_odd_first_nonzero=[])]))
def test_malformed_payloads_exit_2_with_one_line(workdir, case):
    argv, payload = case
    _assert_usage_error(*_run(workdir, argv, payload))


@settings(max_examples=40)
@given(case=misshapen_configs())
@example(case=("sympow.decompose", {"sympow": {"decompose": [[3]]}}))
@example(case=("linalg.max_size", {"linalg": {"max_size": 0}}))
@example(case=("betti.catalog", {"betti": {"catalog": "x"}}))
def test_misshapen_suite_configs_name_the_key(workdir, case):
    key, payload = case
    code, err = _run(workdir, ["suite", "--config", "@"], payload)
    _assert_usage_error(code, err)
    assert key in err, err


# -- out-of-range arguments -------------------------------------------------------

#: an int whose decimal form is within the int-to-str limit
big = st.integers(10**3, 10**40) | st.just(10**4000)


def _below(lo):
    return st.integers(max_value=lo - 1) | big.map(lambda x: lo - x)


def _outside(lo, hi):
    return _below(lo) | st.integers(min_value=hi + 1) | big.map(lambda x: hi + x)


out_of_range = st.one_of(
    # --k below 0 or above sympow.CAP_K = 5
    _outside(0, 5).map(lambda k: (["sym", "decompose", "-f", "space", "--k", str(k)], {})),
    # --v0 outside the diagonal basis indices of the h = 3 space
    _outside(0, 2).map(lambda v0: (["ks", "build", "-f", "space", "-p", "period", "--v0", str(v0)], {})),
    _below(3).map(lambda b2: (["betti", "bound", "--b2", str(b2)], {})),
    # --b3 outside 2..formal_corr.CAP_B3 = 128 or --n outside 2..CAP_N = 16
    (st.tuples(_outside(2, 128), st.integers(2, 16)) | st.tuples(st.integers(2, 128), _outside(2, 16))).map(
        lambda a: (["corr", "verify", "--b3", str(a[0]), "--n", str(a[1])], {})
    ),
    # KSW_CAP_H below h = 3, or not an integer
    st.tuples(
        st.sampled_from(["build", "verify"]),
        st.integers(max_value=2).map(str)
        | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=5).filter(lambda s: not _is_int(s)),
    ).map(lambda a: (["ks", a[0], "-f", "space", "-p", "period"], {"KSW_CAP_H": a[1]})),
)


def _is_int(text) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@settings(max_examples=40)
@given(case=out_of_range, as_json=st.booleans())
def test_out_of_range_arguments_exit_2_with_one_line(workdir, case, as_json):
    argv, env = case
    _assert_usage_error(*_run(workdir, argv + ["--json"] * as_json, env=env))


# -- usage errors -------------------------------------------------------------------

#: a valid call of each subcommand: (argv, its int-valued options, its required options)
CALLS = [
    (["qform", "inspect", "-f", "space"], [], ["-f"]),
    (["ks", "build", "-f", "space", "-p", "period", "--v0", "0"], ["--v0"], ["-f", "-p"]),
    (["ks", "verify", "-f", "space", "-p", "period", "--seed", "1"], ["--seed"], ["-f", "-p"]),
    (["weil", "analyze", "-f", "weight1", "--phi", "phi"], [], ["-f", "--phi"]),
    (["sym", "decompose", "-f", "space", "--k", "2"], ["--k"], ["-f", "--k"]),
    (["betti", "bound", "--b2", "7"], ["--b2"], ["--b2"]),
    (["corr", "verify", "--b3", "4", "--n", "2"], ["--b3", "--n"], ["--b3", "--n"]),
    (["suite", "--config", "config", "--seed", "1"], ["--seed"], []),
]
GROUPS = ["qform", "ks", "weil", "sym", "betti", "corr"]

#: values argparse's int() refuses, a decimal past the int-to-str limit included
not_an_int = st.text(max_size=6).filter(lambda s: not _is_int(s)) | (
    st.just("9" * (sys.get_int_max_str_digits() + 1)) if hasattr(sys, "get_int_max_str_digits") else st.nothing()
)
unknown_word = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6).filter(
    lambda w: w not in GROUPS + ["suite", "audit", "bound", "build", "verify", "inspect", "analyze", "decompose"]
)


@st.composite
def usage_errors(draw):
    """argv of a call argparse itself refuses."""
    argv, int_options, required = draw(st.sampled_from(CALLS))
    kind = draw(st.sampled_from(["ill-typed", "missing", "no value", "unknown option", "unknown command"]))
    if kind == "ill-typed" and int_options:
        at = argv.index(draw(st.sampled_from(int_options))) + 1
        return argv[:at] + [draw(not_an_int)] + argv[at + 1:]
    if kind == "missing" and required:
        at = argv.index(draw(st.sampled_from(required)))
        return argv[:at] + argv[at + 2:]
    if kind == "no value":
        return argv[:-1]
    if kind == "unknown option":
        # no option starts with --z, so argparse cannot read it as an abbreviation (--h is --help)
        return argv + ["--z" + draw(unknown_word)]
    # an unknown command or subcommand, or a group without its subcommand; an
    # ill-typed or missing kind drawn for a call with no such option lands here too
    if argv[0] == "suite" or draw(st.booleans()):
        return [draw(unknown_word)] + argv[1:]
    return argv[:1] + [draw(unknown_word)] + argv[2:] if draw(st.booleans()) else argv[:1]


@settings(max_examples=60)
@given(argv=usage_errors(), as_json=st.booleans())
@example(argv=["betti", "bound", "--b2", "x"], as_json=False)
@example(argv=[], as_json=False)
def test_usage_errors_exit_2_with_one_line(workdir, argv, as_json):
    code, err = _run(workdir, argv + ["--json"] * as_json)
    _assert_usage_error(code, err)
    assert "usage:" not in err


def test_help_exits_0(workdir):
    for argv in (["--help"], ["betti", "--help"], ["betti", "bound", "-h"]):
        assert _run(workdir, argv) == (0, "")


# -- small valid inputs -----------------------------------------------------------

nonzero = st.integers(-9, 9).filter(bool)


@st.composite
def valid_spaces(draw, h):
    """L D L^t with L unit lower triangular: symmetric and nondegenerate."""
    d = draw(st.lists(nonzero, min_size=h, max_size=h))
    low = [[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(h)] for i in range(h)]
    gram = [[sum(low[i][k] * d[k] * low[j][k] for k in range(h)) for j in range(h)] for i in range(h)]
    return {"dim": h, "gram": [[str(x) for x in row] for row in gram]}


@st.composite
def valid_periods(draw, h):
    """diag(m a^2, m b^2, ...) with alpha = b e_1, beta = a e_2: orthogonal, both of norm m a^2 b^2."""
    m, a, b = draw(st.integers(1, 5)), draw(nonzero), draw(nonzero)
    diag = [m * a * a, m * b * b] + draw(st.lists(nonzero, min_size=h - 2, max_size=h - 2))
    space = {"gram": [[str(x if i == j else 0) for j, x in enumerate(diag)] for i in range(h)]}
    alpha, beta = ([str(c if j == i else 0) for j in range(h)] for i, c in ((0, b), (1, a)))
    return space, {"alpha": alpha, "beta": beta}


@st.composite
def valid_weil(draw):
    """J of blocks +-J0 and phi = c * (blocks +-J0 aligned with J's): phi^2 = -c^2, phi J = J phi."""
    n = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    flips = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    c = draw(st.integers(1, 5))

    def blocks(scale):
        rows = [[0] * (2 * n) for _ in range(2 * n)]
        for i, s in enumerate(scale):
            rows[2 * i][2 * i + 1], rows[2 * i + 1][2 * i] = -s, s
        return [[str(x) for x in row] for row in rows]

    return {"dim": 2 * n, "J": blocks(signs)}, {"phi": blocks([c * s * f for s, f in zip(signs, flips)])}


catalog_entries = st.fixed_dictionaries(
    {
        "name": st.text(max_size=5),
        "dim2n": st.integers(2, 8).map(lambda n: 2 * n),
        "b2": st.integers(3, 60),
        "b3": st.none() | st.integers(0, 10**4),
        "b_odd_first_nonzero": st.none() | st.tuples(st.integers(1, 15), st.integers(0, 10**4)).map(list),
        "h_2n_minus_3_vanishes": st.none() | st.booleans(),
    }
)


@st.composite
def valid_suite_configs(draw):
    """TINY_SUITE with one size, count or [h, k] key drawn at or just above its domain's least value."""
    if draw(st.booleans()):
        section, key, least = draw(st.sampled_from(LEAST_KEYS))
        value = draw(st.integers(least, least + 1))
        return _replace(TINY_SUITE, (section, key), [value] if key == "n" else value)
    key, least_h, least_k, odd = draw(st.sampled_from(PAIR_KEYS))
    k = draw(st.integers(least_k, least_k + 2))
    return _replace(TINY_SUITE, ("sympow", key), [[draw(st.integers(least_h, least_h + 1)), k | 1 if odd else k]])


@st.composite
def valid_invocations(draw):
    """(argv, {file name: payload}) of one small valid call of some subcommand."""
    commands = ["qform", "ks build", "ks verify", "sym", "weil", "audit", "bound", "corr", "suite"]
    command = draw(st.sampled_from(commands))
    if command == "qform":
        return ["qform", "inspect", "-f", "a"], {"a": draw(valid_spaces(draw(st.integers(1, 4))))}
    if command in ("ks build", "ks verify"):
        h = draw(st.integers(3, 4))
        space, period = draw(valid_periods(h))
        option = ("--v0", draw(st.integers(0, h - 1))) if command == "ks build" else ("--seed", draw(st.integers()))
        argv = command.split() + ["-f", "a", "-p", "b"] + draw(st.sampled_from([[], [option[0], str(option[1])]]))
        return argv, {"a": space, "b": period}
    if command == "sym":
        space, period = draw(valid_periods(3))
        k = draw(st.integers(0, 3))
        if draw(st.booleans()):
            return ["sym", "decompose", "-f", "a", "--k", str(k), "-p", "b"], {"a": space, "b": period}
        return ["sym", "decompose", "-f", "a", "--k", str(k)], {"a": draw(valid_spaces(draw(st.integers(1, 3))))}
    if command == "weil":
        weight1, phi = draw(valid_weil())
        return ["weil", "analyze", "-f", "a", "--phi", "b"], {"a": weight1, "b": phi}
    if command == "audit":
        return ["betti", "audit", "--catalog", "a"], {"a": draw(st.lists(catalog_entries, max_size=2))}
    if command == "bound":
        argv = ["betti", "bound", "--b2", str(draw(st.integers(3, 10**6)))]
        return argv + draw(st.sampled_from([[], ["--div4-improve"]])), {}
    if command == "corr":
        args = ["--b3", str(draw(st.integers(2, 8))), "--n", str(draw(st.integers(2, 3)))]
        return ["corr", "verify"] + args + draw(st.sampled_from([[], ["--broken-sign"]])), {}
    return ["suite", "--config", "a", "--seed", str(draw(st.integers(0, 10**6)))], {"a": draw(valid_suite_configs())}


@settings(max_examples=40)
@given(case=valid_invocations(), as_json=st.booleans())
def test_small_valid_inputs_never_exit_2(workdir, case, as_json):
    argv, files = case
    for name, payload in files.items():
        (workdir / name).write_text(json.dumps(payload))
    argv = [str(workdir / a) if a in files else a for a in argv]
    code, err = _run(workdir, argv + ["--json"] * as_json)
    assert code in (0, 1) and not err, err
