import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pericatalan import asymptotics
from pericatalan.asymptotics import (
    LogTable,
    cancelation_defect,
    defect_csv,
    defect_series,
    first_quotient_violation,
    format_float,
    linear_regression,
    log_peri_table,
    quotient,
    quotient_csv,
    quotient_rows,
    rational_fit,
    regression_points,
)
from pericatalan.enumeration import aux_bivariate, build_table, word_count_bound
from pericatalan.errors import DomainError, ResourceGuardError


def test_base_cases():
    for s in (1, 2, 5):
        t = log_peri_table(s, 4)
        assert t.log_value(1) == math.log(s)
        assert abs(t.log_value(2) - math.log(3 * s * s)) < 1e-14


def test_log_value_spot():
    t = log_peri_table(1, 8)
    assert abs(t.log_value(5) - math.log(666)) < 1e-12


def test_matches_exact_small():
    for s in (1, 2, 3):
        exact = build_table(s, 60)
        t = log_peri_table(s, 60)
        for n in range(1, 61):
            target = math.log(exact[n])
            assert abs(t.log_value(n) - target) <= 1e-10 * max(target, 1.0)


def test_log_bound_matches_exact_bound():
    t = log_peri_table(2, 30)
    for n in (1, 2, 7, 30):
        assert abs(t.log_bound(n) - math.log(word_count_bound(2, n))) < 1e-9


def test_table_is_immutable_and_range_checked():
    t = log_peri_table(2, 6)
    with pytest.raises(ValueError):
        t.values[3] = 0.0
    with pytest.raises(DomainError):
        t.log_value(0)
    with pytest.raises(DomainError):
        t.log_value(7)
    with pytest.raises(DomainError):
        log_peri_table(0, 5)
    with pytest.raises(DomainError):
        log_peri_table(2, 1)


def test_rho_properties():
    t, rho = log_peri_table(2, 12, with_rho=True)
    assert rho.value(3, 3) == 1.0
    assert rho.value(6, 6) == 1.0
    assert abs(rho.value(2, 1) - (1 - 1 / 6)) < 1e-14
    assert rho.value(2, 1) == rho.value(1, 2)
    entries = list(rho.items())
    assert len(entries) == sum(d // 2 for d in range(2, 13))
    assert all(0.0 < v <= 1.0 for _, v in entries)
    with pytest.raises(DomainError):
        rho.value(12, 1)
    with pytest.raises(DomainError):
        rho.value(1, 0)


@pytest.mark.parametrize("s", [1, 2, 7])
def test_rho_grid_matches_exact(s):
    t, rho = log_peri_table(s, 60, with_rho=True)
    exact = build_table(s, 60)
    memo = {}
    entries = list(rho.items())
    assert len(entries) == sum(d // 2 for d in range(2, 61))
    for (a, b), got in entries:
        want = aux_bivariate(s, a, b, memo) / (exact[a] * exact[b])
        assert abs(got - want) <= 1e-13 * want, (a, b, got, want)
    # the half-sum logsumexp over those ratios, against the exact log
    for n in range(2, 61):
        want = math.log(exact[n])
        assert abs(t.log_value(n) - want) <= 1e-14 * want, (n, t.log_value(n), want)


def test_log_ceiling_guard(monkeypatch):
    monkeypatch.setattr(asymptotics, "LOG_CEILING", 50)
    with pytest.raises(ResourceGuardError, match="n=51"):
        log_peri_table(1, 51)
    assert log_peri_table(1, 50).n_max == 50


def test_quotient_examples():
    t1 = log_peri_table(1, 4)
    assert quotient(1, 2, t1) == 1.0
    t2 = log_peri_table(2, 6)
    assert abs(quotient(2, 4, t2) - math.log(1752) / math.log(2160)) < 1e-12
    assert cancelation_defect(2, 4, t2) == 1.0 - quotient(2, 4, t2)


def test_quotient_domain():
    t = log_peri_table(2, 6)
    with pytest.raises(DomainError):
        quotient(2, 1, t)
    with pytest.raises(DomainError):
        quotient(3, 4, t)
    with pytest.raises(DomainError):
        quotient(2, 7, t)


def test_defect_series_shape():
    series = defect_series([1, 2], 50)
    assert [s for s, _ in series] == [1, 2]
    assert all(0 < d < 1 for _, d in series)
    # more generators, weaker cancelation
    assert series[0][1] > series[1][1]


def test_no_quotient_violation_small():
    for s in (1, 3):
        assert first_quotient_violation(log_peri_table(s, 60)) is None


def test_violation_detection_on_crafted_table():
    real = log_peri_table(2, 30)
    values = np.array(real.values)
    values[17] = values[16]  # flat spot forces a dip in the quotient
    crafted = LogTable(s=2, values=values, catalan_values=real.catalan_values)
    assert first_quotient_violation(crafted) == 17


def test_regression_exact_line():
    reg = linear_regression([(x, 2.0 * x + 1.0) for x in range(10)])
    assert abs(reg.slope - 2.0) < 1e-12
    assert abs(reg.intercept - 1.0) < 1e-12
    assert reg.residual_stderr < 1e-12


def test_regression_matches_polyfit():
    rng = np.random.default_rng(7)
    x = rng.normal(size=40)
    y = 3.2 * x - 0.7 + rng.normal(scale=0.3, size=40)
    reg = linear_regression(list(zip(x, y)))
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    assert abs(reg.slope - ref_slope) < 1e-10
    assert abs(reg.intercept - ref_intercept) < 1e-10


def test_regression_degenerate():
    with pytest.raises(DomainError):
        linear_regression([(1.0, 2.0)])
    with pytest.raises(DomainError):
        linear_regression([(1.0, 2.0), (1.0, 3.0)])


def test_regression_points_range_checks():
    t = log_peri_table(2, 20)
    pts = regression_points(t, 5, 20)
    assert pts[0][0] == 5 and pts[-1][0] == 20
    assert pts[3][1] == t.log_value(8) - t.log_catalan(8)
    with pytest.raises(DomainError):
        regression_points(t, 1, 10)
    with pytest.raises(DomainError):
        regression_points(t, 5, 21)


def test_rational_fit_exact_model():
    pts = [(s, 0.02 / (s - 0.5)) for s in range(1, 11)]
    fit = rational_fit(pts)
    assert abs(fit.a - 0.02) < 1e-14
    assert abs(fit.b - 0.5) < 1e-12
    assert fit.residual_stderr < 1e-9


def test_rational_fit_rejects_bad_input():
    with pytest.raises(DomainError):
        rational_fit([(1, 0.5)])
    with pytest.raises(DomainError):
        rational_fit([(1, 0.5), (2, -0.1)])
    with pytest.raises(DomainError):
        rational_fit([(2, 0.5), (2, 0.25)])


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_format_float_is_lossless(x):
    assert float(format_float(x)) == x


def test_quotient_csv_layout():
    t = log_peri_table(2, 5)
    text = quotient_csv(t)
    lines = text.splitlines()
    assert lines[0] == "n,logP,logBound,quotient"
    assert len(lines) == 5  # header + n = 2..5
    n, lv, lb, q = lines[1].split(",")
    assert n == "2"
    assert float(lv) == t.log_value(2)
    assert float(lb) == t.log_bound(2)
    assert float(q) == quotient(2, 2, t)
    assert float(q) == 1.0  # equality case: the bound is attained below n = 3
    assert text.endswith("\n")


def test_defect_csv_layout():
    series = [(1, 0.25), (2, 0.125)]
    lines = defect_csv(series).splitlines()
    assert lines[0] == "s,defect"
    assert lines[1] == "1,0.25"
    assert lines[2] == "2,0.125"


def test_quotient_rows_match_methods():
    t = log_peri_table(3, 10)
    for n, lv, lb, q in quotient_rows(t):
        assert lv == t.log_value(n)
        assert lb == t.log_bound(n)
        assert q == quotient(3, n, t)
