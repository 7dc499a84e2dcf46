"""In-memory spans around the public ksw calls a benchmark case makes.

A span records its name, start, end, parent span, case id and a few
attributes (h, k, e_terms, and matrix sizes at linalg/sympow boundaries).
Spans stay in memory and are written out once, when the run ends.

Tracing is switched on by ``Tracer.install``, which replaces the traced
public functions in every loaded ``ksw`` module with recording wrappers;
``uninstall`` puts the originals back.  Untraced passes therefore run the
program's own functions with nothing in between.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
from time import perf_counter

#: module -> public functions wrapped in a traced run
TRACED_FUNCTIONS = {
    "kuga_satake": (
        "build",
        "verify_e_square",
        "verify_j_square",
        "structure_commutators",
        "default_v0",
        "embedding_has_full_rank",
        "embedding_sign_laws",
        "odd_even_isomorphism",
        "odd_even_inverse",
    ),
    "sympow": ("build_sym", "decompose", "level_two_part", "q_power_lift", "block_max_level"),
    "linalg": ("same_span",),
}


def matrix_stats(rows) -> tuple[int, int, int]:
    """(cells, nonzeros, largest numerator/denominator bit length) of a row iterable."""
    cells = nnz = bits = 0
    for row in rows:
        cells += len(row)
        for x in row:
            if x:
                nnz += 1
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return cells, nnz, bits


def _add_matrices(attrs: dict, *matrices) -> None:
    for m in matrices:
        cells, nnz, bits = matrix_stats(m)
        attrs["cells"] = attrs.get("cells", 0) + cells
        attrs["nnz"] = attrs.get("nnz", 0) + nnz
        attrs["max_bits"] = max(attrs.get("max_bits", 0), bits)


def _h(p) -> int:
    obj = p.get("ks") or p.get("hk") or p["space"]
    return getattr(obj, "space", obj).h


def _ks_attrs(p, result) -> dict:
    ks = p.get("ks") or result
    return {"h": ks.space.h, "e_terms": len(ks.e.terms)}


def _build_attrs(p, result) -> dict:
    attrs = _ks_attrs(p, result)
    attrs["clifford_dim"] = result.algebra.dim
    return attrs


def _sym_attrs(p, result) -> dict:
    return {"h": _h(p), "k": p["k"]}


def _build_sym_attrs(p, result) -> dict:
    attrs = _sym_attrs(p, result)
    attrs["ambient_dim"] = result.dim
    _add_matrices(attrs, result.contraction, result.q_mult)
    return attrs


def _lift_attrs(p, result) -> dict:
    attrs = {"h": _h(p), "k": p["from_k"] + 2 * p["l"]}
    _add_matrices(attrs, result)
    return attrs


def _operand_attrs(p, result) -> dict:
    attrs: dict = {}
    _add_matrices(attrs, *p.values())
    return attrs


_ATTRS = {
    "kuga_satake.build": _build_attrs,
    "sympow.build_sym": _build_sym_attrs,
    "sympow.q_power_lift": _lift_attrs,
    "linalg.same_span": _operand_attrs,
    "linalg.rank": _operand_attrs,
    "linalg.matmul": _operand_attrs,
}


def _attrs_for(name: str):
    if name in _ATTRS:
        return _ATTRS[name]
    if name.startswith("kuga_satake."):
        return _ks_attrs
    return _sym_attrs


class Tracer:
    """Span recorder for one worker process; inert until ``install``."""

    def __init__(self):
        self.enabled = False
        self.case = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields its (mutable) attrs."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "case": self.case,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        attrs_for = _attrs_for(name)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                end = perf_counter()
                params = signature.bind(*args, **kwargs).arguments
                attrs.update(attrs_for(params, result))
                # attribute collection is tracing cost, not time of the call
                attrs["collect_s"] = perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a ksw module refers to it."""
        from ksw import linalg

        modules = [m for n, m in sys.modules.items() if n == "ksw" or n.startswith("ksw.")]
        for short, names in TRACED_FUNCTIONS.items():
            owner = sys.modules["ksw." + short]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap("%s.%s" % (short, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

        matrix = linalg.Matrix
        self._patch(matrix, "rank", self._wrap("linalg.rank", matrix.rank))
        plain_mul = matrix.__mul__
        traced_mul = self._wrap("linalg.matmul", plain_mul)

        def mul(a, b):
            return traced_mul(a, b) if isinstance(b, matrix) else plain_mul(a, b)

        self._patch(matrix, "__mul__", mul)
        self.enabled = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- summaries ------------------------------------------------------------

    def top_level_seconds(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def layer_metrics(self) -> dict[str, float]:
        """Summed span seconds as ``<module>.<function>.s``, plus boundary counts."""
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        cells = nnz = bits = 0
        for s in self.spans:
            a = s["attrs"]
            add(s["name"] + ".s", s["end"] - s["start"] - a.get("collect_s", 0.0))
            add("clifford.dim", a.get("clifford_dim", 0))
            if s["name"] == "kuga_satake.build":
                add("clifford.e_terms", a.get("e_terms", 0))
            add("sympow.ambient_dim", a.get("ambient_dim", 0))
            add("cli.stdout_bytes", a.get("stdout_bytes", 0))
            cells += a.get("cells", 0)
            nnz += a.get("nnz", 0)
            bits = max(bits, a.get("max_bits", 0))
        out["linalg.cells"] = cells
        out["linalg.nnz_share"] = nnz / cells if cells else 0.0
        out["linalg.max_bits"] = bits
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
