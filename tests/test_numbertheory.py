"""Regulator-discriminant bounds and the Hermite constant table."""

import math

import pytest

from pohst.numbertheory import (
    HERMITE_EXACT,
    BoundResult,
    compare_bounds,
    hermite_constant,
    improved_bound,
    remak_bound,
)


def _estimate(d):
    # Blichfeldt-style bound (2/pi) * Gamma(2 + d/2)^(2/d), restated here
    # so the table test does not reuse the implementation under test
    return (2.0 / math.pi) * math.gamma(2.0 + d / 2.0) ** (2.0 / d)


@pytest.mark.parametrize("d,expected", [
    (1, 1.0),
    (2, (4.0 / 3.0) ** 0.5),
    (3, 2.0 ** (1.0 / 3.0)),
    (4, 2.0 ** 0.5),
    (5, 8.0 ** 0.2),
    (6, (64.0 / 3.0) ** (1.0 / 6.0)),
    (7, 64.0 ** (1.0 / 7.0)),
    (8, 2.0),
    (24, 4.0),
])
def test_hermite_table_frozen(d, expected):
    value, source = hermite_constant(d)
    assert value == expected
    assert source == "exact-table"
    assert HERMITE_EXACT[d] == expected


def test_hermite_estimate_dimension_9():
    value, source = hermite_constant(9)
    assert source == "upper-estimate"
    assert value >= 2.0
    assert math.isclose(value, 2.240646452557609, rel_tol=1e-12)
    assert math.isclose(value, _estimate(9), rel_tol=1e-12)


def test_hermite_estimate_dominates_table():
    for d, exact in HERMITE_EXACT.items():
        assert _estimate(d) >= exact


def test_hermite_rejects_bad_dimension():
    with pytest.raises(ValueError):
        hermite_constant(0)


def test_remak_hand_value():
    # m=2, R=1, gamma_1=1: 2 log 2 + sqrt(2) * sqrt(2) = 2 log 2 + 2
    assert math.isclose(remak_bound(2, 1.0), 2.0 * math.log(2.0) + 2.0,
                        rel_tol=1e-12)


def test_remak_m3_hand_value():
    # 3 log 3 + sqrt(gamma_2 * 8) * sqrt(3)^(1/2)
    expected = 3 * math.log(3) + math.sqrt((4 / 3) ** 0.5 * 8) * math.sqrt(3) ** 0.5
    assert math.isclose(remak_bound(3, 1.0), expected, rel_tol=1e-12)


def test_bounds_coincide_at_m2():
    res = compare_bounds(2, 1.0)
    assert math.isclose(res.remak, res.improved, rel_tol=1e-15)
    assert res.improvement == 0.0


def test_improvement_m3_hand_value():
    res = compare_bounds(3, 1.0)
    assert math.isclose(res.improvement, 3 * math.log(3) - math.log(4),
                        rel_tol=1e-12)
    assert math.isclose(res.improvement, 1.9095425048844386, rel_tol=1e-12)


def test_small_regulator_limits():
    # second term vanishes as R -> 0+
    assert math.isclose(remak_bound(2, 1e-300), 2 * math.log(2), rel_tol=1e-9)
    assert math.isclose(improved_bound(2, 1e-300), math.log(4), rel_tol=1e-9)


def test_improved_never_exceeds_remak():
    for m in range(2, 201):
        for R in (0.25, 1.0, 7.5):
            r, i = remak_bound(m, R), improved_bound(m, R)
            assert i <= r + 1e-12
            if m > 2:
                assert i < r
            gap = m * math.log(m) - (m // 2) * math.log(4.0)
            assert math.isclose(r - i, gap, rel_tol=1e-12, abs_tol=1e-12)


def test_improvement_is_regulator_independent():
    for m in (2, 5, 10, 50):
        a = compare_bounds(m, 0.5).improvement
        b = compare_bounds(m, 123.0).improvement
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_bounds_increase_in_regulator_and_gamma():
    for m in (2, 3, 10, 100):
        assert remak_bound(m, 2.0) > remak_bound(m, 1.0)
        assert improved_bound(m, 2.0) > improved_bound(m, 1.0)
        assert remak_bound(m, 1.0, hermite=3.0) > remak_bound(m, 1.0, hermite=1.0)


def test_compare_bounds_reports_sources():
    res = compare_bounds(3, 1.0)
    assert isinstance(res, BoundResult)
    assert res.hermite_source == "exact-table"
    assert res.hermite_value == HERMITE_EXACT[2]
    res = compare_bounds(10, 1.0)
    assert res.hermite_source == "upper-estimate"
    res = compare_bounds(10, 1.0, hermite=1.5)
    assert res.hermite_source == "user" and res.hermite_value == 1.5


@pytest.mark.parametrize("m,R,gamma", [
    (1, 1.0, None),      # degree too small
    (2.0, 1.0, None),    # degree must be an integer
    (2, 0.0, None),      # regulator must be positive
    (2, -1.0, None),
    (2, 1.0, 0.0),       # supplied gamma must be positive
    (2, 1.0, -2.0),
    (2, math.nan, None),  # non-finite regulator or gamma
    (6, math.inf, None),
    (6, 1.0, math.inf),
    (6, 1.0, math.nan),
    (6, 1e308, None),     # the regulator term overflows
    (6, 1.0, 1e308),
    (10 ** 103, 1.0, 1.0),
    (10 ** 400, 1.0, None),  # so does gamma_{m-1}
])
def test_bounds_reject_bad_inputs(m, R, gamma):
    with pytest.raises(ValueError):
        compare_bounds(m, R, gamma)
