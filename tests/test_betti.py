import dataclasses

import pytest

from ksw.betti import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_TIGHT,
    STATUS_VACUOUS,
    CatalogEntry,
    _compare,
    audit_b2n_minus_1,
    audit_b3,
    bound_exponent,
    default_catalog,
    entry_from_dict,
    ks_factor_dims,
)
from ksw.errors import MissingHypothesisData, TooSmall


def test_bound_exponent_formulas():
    assert bound_exponent(7) == 3
    assert bound_exponent(6) == 2
    assert bound_exponent(8) == 3
    assert bound_exponent(8, div4_improve=True) == 4
    assert bound_exponent(7, div4_improve=True) == 3  # improvement needs 4 | b2
    assert bound_exponent(23) == 11


def test_bound_exponent_too_small():
    with pytest.raises(TooSmall):
        bound_exponent(2)


def test_bound_monotone_within_parity():
    odd = [bound_exponent(b2) for b2 in range(3, 30, 2)]
    even = [bound_exponent(b2) for b2 in range(4, 30, 2)]
    assert odd == sorted(odd)
    assert even == sorted(even)


def test_audit_b3_kummer_tight():
    entry = CatalogEntry(name="kummer", dim2n=4, b2=7, b3=8)
    result = audit_b3(entry)
    assert result.status == STATUS_TIGHT
    assert result.k == 3 and 1 << result.k == 8


def test_audit_b3_fail_and_vacuous():
    assert audit_b3(CatalogEntry("x", 4, 7, b3=4)).status == STATUS_FAIL
    assert audit_b3(CatalogEntry("x", 4, 7, b3=0)).status == STATUS_VACUOUS
    assert audit_b3(CatalogEntry("x", 4, 7, b3=None)).status == STATUS_VACUOUS
    assert audit_b3(CatalogEntry("x", 4, 7, b3=100)).status == STATUS_PASS


def test_compare_by_bit_length_matches_the_power():
    for k in range(1, 7):
        for b in range(-3, 2 ** k + 3):
            want = STATUS_TIGHT if b == 2 ** k else STATUS_PASS if b > 2 ** k else STATUS_FAIL
            result = _compare(b, k)
            assert (result.status, 1 << result.k) == (want, 2 ** k)


def test_audit_b3_uses_div4_improvement():
    # b2 = 8 gives the improved bound 2^4 = 16 automatically
    assert audit_b3(CatalogEntry("x", 4, 8, b3=16)).status == STATUS_TIGHT
    assert audit_b3(CatalogEntry("x", 4, 8, b3=8)).status == STATUS_FAIL


def test_audit_b2n_minus_1_six_fold():
    # dimension 6 with b3 = 0, b5 != 0, b2 = 8: improved bound 16 applies to b5
    entry = CatalogEntry(
        name="sixfold",
        dim2n=6,
        b2=8,
        b3=0,
        b_odd_first_nonzero=(5, 16),
        h_2n_minus_3_vanishes=True,
    )
    result = audit_b2n_minus_1(entry)
    assert 1 << result.k == 16
    assert result.status == STATUS_TIGHT


def test_audit_b2n_minus_1_missing_flag():
    entry = CatalogEntry("x", 6, 7, b3=0, b_odd_first_nonzero=(5, 32))
    with pytest.raises(MissingHypothesisData):
        audit_b2n_minus_1(entry)


def test_audit_b2n_minus_1_dim4_reduces_to_b3():
    entry = CatalogEntry("x", 4, 7, b3=8)
    assert audit_b2n_minus_1(entry) == audit_b3(entry)


def test_audit_b2n_minus_1_vacuous_cases():
    no_vanish = CatalogEntry("x", 6, 7, b3=8, h_2n_minus_3_vanishes=False)
    assert audit_b2n_minus_1(no_vanish).status == STATUS_VACUOUS
    no_data = CatalogEntry("x", 6, 7, b3=0, h_2n_minus_3_vanishes=True)
    assert audit_b2n_minus_1(no_data).status == STATUS_VACUOUS


def test_ks_factor_dims():
    assert ks_factor_dims(7) == {4, 8}
    assert ks_factor_dims(6) == {8, 4, 2}
    assert ks_factor_dims(3) == {1, 2}
    assert ks_factor_dims(4) == {1, 2, 4}
    with pytest.raises(TooSmall):
        ks_factor_dims(2)


def test_default_catalog_audits_tight():
    catalog = default_catalog()
    assert catalog
    for entry in catalog:
        assert audit_b3(entry).status == STATUS_TIGHT


def test_entry_dict_roundtrip():
    for entry in default_catalog():
        assert entry_from_dict(dataclasses.asdict(entry)) == entry


def test_entry_validation():
    with pytest.raises(ValueError):
        CatalogEntry("bad", 3, 7)
    with pytest.raises(ValueError):
        CatalogEntry("bad", 4, -1)
