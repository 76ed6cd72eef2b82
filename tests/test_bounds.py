from math import comb

import pytest

from cwlattice.bounds import (
    bound_report,
    johnson1,
    johnson1_refined,
    johnson1_refined_feasible,
    johnson2,
    singleton_bound,
    sphere_covering_lower,
    sphere_packing_bound,
    sphere_size,
)
from helpers import johnson2_recursive


def test_sphere_size_values():
    assert sphere_size(7, 4, 0) == 1
    assert sphere_size(7, 4, 1) == 1 + 4 * 3
    assert sphere_size(9, 4, 2) == 1 + 4 * 5 + comb(4, 2) * comb(5, 2)
    with pytest.raises(ValueError):
        sphere_size(7, 4, 4)


def test_sphere_size_symmetry_exhaustive():
    for n in range(1, 21):
        for k in range(0, n + 1):
            for r in range(0, min(k, n - k) + 1):
                assert sphere_size(n, k, r) == sphere_size(n, n - k, r)


def test_packing_and_covering():
    assert sphere_packing_bound(7, 4, 4) == 35
    assert sphere_packing_bound(9, 4, 2) == comb(9, 4)
    assert sphere_covering_lower(7, 4, 4) == -(-35 // 13)
    assert sphere_covering_lower(7, 4, 4) == 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        sphere_packing_bound(7, 4, 3)
    with pytest.raises(ValueError):
        sphere_packing_bound(7, 4, 10)
    with pytest.raises(ValueError):
        sphere_packing_bound(4, 5, 2)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        johnson1(7, 4, 0)
    with pytest.raises(ValueError, match="code size must be at least 1"):
        johnson1_refined_feasible(7, 4, 2, 0)
    with pytest.raises(KeyError):
        bound_report(7, 4, 4).entry("no_such_bound")


def test_singleton_values():
    assert singleton_bound(7, 4, 4) == comb(6, 4)
    assert singleton_bound(9, 6, 6) == comb(7, 6)
    assert singleton_bound(10, 5, 4) == comb(9, 5)
    with pytest.raises(ValueError):
        singleton_bound(7, 4, 2)


def test_johnson1_values():
    assert johnson1(7, 4, 2) == 7  # denominator 16 - 28 + 14 = 2
    assert johnson1(7, 5, 1) is None  # denominator 25 - 35 + 7 = -3
    assert johnson1(9, 7, 2) == 4
    assert johnson1(9, 6, 3) == 3
    assert johnson1(10, 6, 3) == 5
    assert johnson1(10, 7, 3) == 3


def test_johnson1_refined_feasibility():
    # kN = na + b with n=9, k=7: N=4 -> a=3, b=1; N=5 -> a=3, b=8
    assert johnson1_refined_feasible(9, 7, 2, 4)   # 54 + 6 <= 60
    assert not johnson1_refined_feasible(9, 7, 2, 5)  # 102 > 100
    assert johnson1_refined_feasible(12, 5, 2, 1)  # a=0: trivially feasible


def test_johnson1_refined_search():
    assert johnson1_refined(9, 7, 2) == 4
    # when feasibility never fails the trivial cap comes back
    assert johnson1_refined(7, 5, 1) == comb(7, 5)


def test_johnson1_refined_shortcut_matches_the_scan():
    # where Johnson bound 1 is inapplicable, the scan would find no failing size
    triples = [
        (n, k, delta)
        for n in range(1, 17)
        for k in range(1, n + 1)
        for delta in range(1, min(k, n - k) + 1)
        if johnson1(n, k, delta) is None
    ]
    assert len(triples) == 178
    for n, k, delta in triples:
        cap = comb(n, k)
        assert all(johnson1_refined_feasible(n, k, delta, N) for N in range(1, cap + 1)), (n, k)
        assert johnson1_refined(n, k, delta) == cap


def test_johnson1_refined_never_exceeds_johnson1():
    for n in range(2, 13):
        for k in range(1, n + 1):
            for delta in range(1, min(k, n - k) + 1):
                j1 = johnson1(n, k, delta)
                if j1 is not None:
                    assert johnson1_refined(n, k, delta) <= j1


def test_johnson2_values():
    assert johnson2(7, 5, 1) == 21
    assert johnson2(8, 4, 2) == 14
    assert johnson2(10, 3, 2) == 13
    assert johnson2(9, 4, 2) == 18
    assert johnson2(7, 4, 1) == comb(7, 4)


def test_johnson2_matches_recursive_oracle():
    for n in range(2, 14):
        for k in range(1, n + 1):
            for delta in range(1, k + 1):
                assert johnson2(n, k, delta) == johnson2_recursive(n, k, delta)


def test_johnson2_validation():
    with pytest.raises(ValueError):
        johnson2(7, 4, 5)
    with pytest.raises(ValueError):
        johnson2(7, 4, 0)


def test_bound_report_sample_parameters():
    report = bound_report(7, 4, 4)
    assert report.upper_bound == 7
    assert report.entry("johnson1").value == 7
    assert report.entry("singleton").value == 15
    assert report.lower_bound == 3


def test_bound_report_johnson1_inapplicable():
    report = bound_report(8, 4, 4)
    assert not report.entry("johnson1").applicable
    assert report.entry("johnson2").value == 14
    assert report.upper_bound == 14


def test_search_upper_bound_takes_the_complement():
    # (10,7,4) codes complement to (10,3,4) codes, whose bound is tighter
    report = bound_report(10, 7, 4)
    assert report.entry("johnson2").value == 22
    assert report.entry("complement").value == 13
    assert report.upper_bound == 13
    assert bound_report(10, 3, 4).upper_bound == 13


ROWS = [(n, k, d) for n in range(1, 25) for k in range(1, n + 1)
        for d in range(2, 2 * min(k, n - k) + 1, 2)]


def test_upper_bound_is_symmetric_under_complement():
    assert len(ROWS) == 1222
    for n, k, d in ROWS:
        report = bound_report(n, k, d)
        assert report.entry("complement").applicable, (n, k, d)
        assert report.upper_bound == bound_report(n, n - k, d).upper_bound, (n, k, d)


def test_complement_adds_only_johnson2():
    # every other cap takes the same value on (n, k, d) and (n, n-k, d), so
    # the report's minimum is the least cap over both rows
    for n, k, d in ROWS:
        report, dual = bound_report(n, k, d), bound_report(n, n - k, d)
        for e in report.entries:
            if e.name not in ("johnson2", "complement"):
                assert e.value == dual.entry(e.name).value, (n, k, d, e.name)
        assert report.entry("complement").value == dual.entry("johnson2").value, (n, k, d)
        caps = [e.value for e in report.entries + dual.entries if e.applicable]
        assert report.upper_bound == min(caps), (n, k, d)


def test_gilbert_bound_never_exceeds_the_upper_bound():
    for n, k, d in ROWS:
        report = bound_report(n, k, d)
        assert report.lower_bound <= report.upper_bound, (n, k, d)
    # distinct k-sets always lie at distance >= 2: every k-set is a code
    assert bound_report(7, 4, 2).lower_bound == 35
    assert bound_report(12, 5, 8).lower_bound == 2


def test_bound_report_trivial_distance():
    report = bound_report(6, 3, 2)
    assert report.upper_bound == comb(6, 3)
    assert not report.entry("singleton").applicable


def test_bound_report_json():
    obj = bound_report(9, 7, 4).to_json()
    assert obj["upper_bound"] == 4
    names = {e["name"] for e in obj["bounds"]}
    assert {"johnson1", "johnson2", "sphere_packing", "singleton", "complement"} <= names
    # the bounds list holds caps only; the existence bound is lower_bound
    assert "sphere_covering_lower" not in names
    assert obj["lower_bound"] == sphere_covering_lower(9, 7, 4)
