"""Inequality calculus for odd Betti numbers and Kuga-Satake factor dimensions.

The audited bound is b >= 2^k with k = (b2 - 1)/2 for odd b2 and
(b2 - 2)/2 for even b2, improvable to k = b2/2 when b2 is divisible by 4.
Audits always apply the strongest bound available; `bound_exponent` takes
the improvement as an explicit flag for CLI use.

The shipped catalog carries only self-attested numbers (generalized Kummer
deformation type, b2 = 7, b3 = 8, in dimensions 4 and 6); users extend it
via JSON.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import MissingHypothesisData, TooSmall

STATUS_PASS = "pass"
STATUS_TIGHT = "tight"
STATUS_VACUOUS = "vacuous"
STATUS_FAIL = "fail"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim2n: int
    b2: int
    b3: int | None = None
    b_odd_first_nonzero: tuple[int, int] | None = None
    h_2n_minus_3_vanishes: bool | None = None

    def __post_init__(self):
        if self.dim2n < 4 or self.dim2n % 2:
            raise ValueError("dim2n must be an even count >= 4")
        if self.b2 < 0 or (self.b3 is not None and self.b3 < 0):
            raise ValueError("Betti numbers are nonnegative")


@dataclass(frozen=True)
class BoundResult:
    k: int
    status: str
    detail: str = ""


def bound_exponent(b2: int, div4_improve: bool = False) -> int:
    """Exponent k of the bound 2^k for a given b2.

    k = (b2-1)/2 for odd b2, (b2-2)/2 for even b2; b2/2 when b2 is
    divisible by 4 and the improvement is requested.
    """
    if b2 < 3:
        raise TooSmall("bound formulas need b2 >= 3, got %d" % b2)
    if div4_improve and b2 % 4 == 0:
        return b2 // 2
    return (b2 - 1) // 2 if b2 % 2 else (b2 - 2) // 2


def power_of_two(k: int):
    """2**k, or the string "2^k" when 2**k has more decimal digits than int-to-str allows.

    2^k has more than L digits iff 2^k >= 10^L iff k >= bit_length(10^L),
    since 10^L is not a power of two.  Pythons before 3.10.7 have no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and k >= (10 ** limit).bit_length():
        return "2^%d" % k
    return 2 ** k


def _compare(b: int, k: int) -> BoundResult:
    """b against 2^k; 2^k is built only when b is at least that long, so a huge k costs nothing."""
    if b < 0 or b.bit_length() <= k:
        return BoundResult(k, STATUS_FAIL, "b = %d < %s" % (b, power_of_two(k)))
    if b == 1 << k:
        return BoundResult(k, STATUS_TIGHT, "b = %d = 2^%d" % (b, k))
    return BoundResult(k, STATUS_PASS, "b = %d > %s" % (b, power_of_two(k)))


def audit_b3(entry: CatalogEntry) -> BoundResult:
    """Audit b3 >= 2^k; vacuous when b3 vanishes or is unknown."""
    k = bound_exponent(entry.b2, div4_improve=True)
    if entry.b3 is None:
        return BoundResult(k, STATUS_VACUOUS, "b3 unknown")
    if entry.b3 == 0:
        return BoundResult(k, STATUS_VACUOUS, "b3 = 0")
    return _compare(entry.b3, k)


def audit_b2n_minus_1(entry: CatalogEntry) -> BoundResult:
    """Audit b_(2n-1) >= 2^k under the vanishing hypothesis on degree 2n-3.

    Dimension 4 reduces to the b3 audit (2n-1 = 3); an unknown vanishing
    flag raises MissingHypothesisData.
    """
    if entry.dim2n == 4:
        return audit_b3(entry)
    k = bound_exponent(entry.b2, div4_improve=True)
    if entry.h_2n_minus_3_vanishes is None:
        raise MissingHypothesisData(
            "entry %r has no vanishing flag for degree %d" % (entry.name, entry.dim2n - 3)
        )
    if not entry.h_2n_minus_3_vanishes:
        return BoundResult(k, STATUS_VACUOUS, "degree %d does not vanish" % (entry.dim2n - 3))
    deg = entry.dim2n - 1
    value = None
    if entry.b_odd_first_nonzero and entry.b_odd_first_nonzero[0] == deg:
        value = entry.b_odd_first_nonzero[1]
    if not value:
        return BoundResult(k, STATUS_VACUOUS, "no nonzero b_%d data" % deg)
    return _compare(value, k)


def ks_factor_dims(h: int) -> set[int]:
    """Possible complex dimensions of simple Kuga-Satake factors.

    Odd h: {2^((h-3)/2), 2^((h-1)/2)}; even h: {2^(h/2-2), 2^(h/2-1), 2^(h/2)}.
    """
    if h < 3:
        raise TooSmall("factor dimensions need h >= 3, got %d" % h)
    if h % 2:
        return {2 ** ((h - 3) // 2), 2 ** ((h - 1) // 2)}
    return {2 ** (h // 2 - 2), 2 ** (h // 2 - 1), 2 ** (h // 2)}


def default_catalog() -> list[CatalogEntry]:
    """Only entries whose numbers the workbench treats as attested inputs."""
    return [
        CatalogEntry(
            name="generalized-kummer-4fold",
            dim2n=4,
            b2=7,
            b3=8,
            b_odd_first_nonzero=(3, 8),
        ),
        CatalogEntry(
            name="generalized-kummer-6fold",
            dim2n=6,
            b2=7,
            b3=8,
            b_odd_first_nonzero=(3, 8),
            h_2n_minus_3_vanishes=False,
        ),
    ]


def entry_from_dict(data: dict) -> CatalogEntry:
    first = data.get("b_odd_first_nonzero")
    return CatalogEntry(
        name=data["name"],
        dim2n=data["dim2n"],
        b2=data["b2"],
        b3=data.get("b3"),
        b_odd_first_nonzero=tuple(first) if first else None,
        h_2n_minus_3_vanishes=data.get("h_2n_minus_3_vanishes"),
    )
