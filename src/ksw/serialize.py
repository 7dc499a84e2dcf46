"""JSON wire formats and content hashing.

Rationals serialize as strings "p/q" (or "p" when q = 1) in every payload;
JSON integers are read as rationals too, but booleans and floats are
refused wherever a number is read.
Canonical JSON (sorted keys, fixed separators) backs the content hashes in
run reports, so identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .betti import CatalogEntry, entry_from_dict
from .clifford import CliffordElement
from .errors import UsageError
from .hodge import Weight1Structure
from .linalg import Matrix, frac
from .qspace import QuadraticSpace


def rational_str(x: Fraction) -> str:
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise UsageError("bad rational %s: booleans are not numbers" % json.dumps(s))
    try:
        # Fraction(str) takes "1_000" from Python 3.11 and "1 / 2" from 3.12;
        # refusing both keeps the 3.10 grammar (and message) on every version
        if isinstance(s, str) and ("_" in s or re.search(r"\s/|/\s", s)):
            raise ValueError("Invalid literal for Fraction: %r" % s)
        return frac(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError("bad rational %r: %s" % (s, exc)) from exc


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[rational_str(x) for x in row] for row in m]


def matrix_content_hash(m: Matrix) -> str:
    """`content_hash(matrix_to_json(m))`, with sha256 fed the same bytes one row at a time.

    Each row's canonical JSON is one '"0"' template patched at the row's
    nonzeros, so no dense matrix of strings is held.
    """
    rows, den = m.cleared()
    zeros = ['"0"'] * m.cols
    digest = hashlib.sha256(b"[")
    for i, nums in enumerate(rows):
        row = zeros.copy()
        for j, x in nums.items():
            row[j] = '"%s"' % rational_str(Fraction(x, den))
        digest.update(("%s[%s]" % ("," if i else "", ",".join(row))).encode("ascii"))
    digest.update(b"]")
    return digest.hexdigest()


def _matrix_entry(x):
    """An ASCII digit string, optionally after one "-", as an int; else `parse_rational`."""
    if x.__class__ is str and x.isascii() and x.removeprefix("-").isdigit():
        try:
            return int(x)
        except ValueError:  # over the int digit limit: parse_rational words the message
            pass
    return parse_rational(x)


def matrix_from_json(rows) -> Matrix:
    try:
        return Matrix([[_matrix_entry(x) for x in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise UsageError("bad matrix payload: %s" % exc) from exc


def vector_to_json(v) -> list[str]:
    return [rational_str(x) for x in v]


def vector_from_json(entries) -> tuple[Fraction, ...]:
    if not isinstance(entries, (list, tuple)):
        raise UsageError("vector payload must be a list")
    return tuple(parse_rational(x) for x in entries)


def space_from_json(data) -> QuadraticSpace:
    if not isinstance(data, dict) or "gram" not in data:
        raise UsageError('quadratic_space payload needs a "gram" key')
    gram = matrix_from_json(data["gram"])
    if "dim" in data and _json_int(data["dim"], "dim") != gram.rows:
        raise UsageError("declared dim %r != gram size %d" % (data["dim"], gram.rows))
    return QuadraticSpace(gram)


def period_from_json(data) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    if not isinstance(data, dict) or "alpha" not in data or "beta" not in data:
        raise UsageError('period payload needs "alpha" and "beta"')
    return vector_from_json(data["alpha"]), vector_from_json(data["beta"])


def clifford_element_to_json(x: CliffordElement) -> dict:
    terms = []
    for mask, coef in sorted(x.terms.items()):
        indices = [i + 1 for i in range(x.algebra.h) if mask >> i & 1]
        terms.append({"mask": indices, "coef": rational_str(coef)})
    return {"terms": terms}


def weight1_from_json(data) -> Weight1Structure:
    if not isinstance(data, dict) or "J" not in data:
        raise UsageError('weight1 payload needs "J" (and optionally "dim")')
    j = matrix_from_json(data["J"])
    dim = _json_int(data.get("dim", j.rows), "dim")
    if dim != j.rows:
        raise UsageError("declared dim %r != J size %d" % (dim, j.rows))
    try:
        return Weight1Structure(dim, j)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def phi_from_json(data) -> Matrix:
    if isinstance(data, dict) and "phi" in data:
        return matrix_from_json(data["phi"])
    if isinstance(data, list):
        return matrix_from_json(data)
    raise UsageError('phi payload needs a "phi" matrix')


def catalog_from_json(data) -> list[CatalogEntry]:
    if not isinstance(data, list):
        raise UsageError("catalog payload must be a list of entries")
    for item in data:
        if not isinstance(item, dict):
            raise UsageError("catalog entry %s is not an object" % json.dumps(item))
        if not isinstance(item.get("name", ""), str):
            raise UsageError("catalog name must be a string, got %s" % json.dumps(item["name"]))
        for key in ("dim2n", "b2", "b3"):
            if item.get(key) is not None:
                _json_int(item[key], "catalog %s" % key)
        first = item.get("b_odd_first_nonzero")
        if first is not None and not (isinstance(first, list) and len(first) == 2):
            raise UsageError("catalog b_odd_first_nonzero must be [degree, b], got %s" % json.dumps(first))
        for x in first or ():
            _json_int(x, "catalog b_odd_first_nonzero")
        if not isinstance(item.get("h_2n_minus_3_vanishes", False), (bool, type(None))):
            raise UsageError("catalog h_2n_minus_3_vanishes must be true, false or null")
    try:
        return [entry_from_dict(item) for item in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("bad catalog entry: %s" % exc) from exc


def _json_int(value, what: str) -> int:
    """A JSON integer as it is; booleans and floats raise UsageError."""
    if value.__class__ is not int:
        raise UsageError("%s must be an integer, got %s" % (what, json.dumps(value)))
    return value


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def content_hash(payload) -> str:
    if isinstance(payload, bytes):
        data = payload
    elif isinstance(payload, str):
        data = payload.encode("utf-8")
    else:
        data = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise UsageError("%s is not valid JSON: %s" % (path, exc)) from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise UsageError("%s nests too deeply to read" % path) from exc
