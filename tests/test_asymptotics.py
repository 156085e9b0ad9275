import math

import numpy as np
import pytest

from pericatalan import asymptotics
from pericatalan.asymptotics import (
    LogTable,
    cancelation_defect,
    defect_series,
    first_quotient_violation,
    linear_regression,
    log_peri_table,
    quotient,
    quotient_series,
    rational_fit,
    regression_points,
)
from pericatalan.enumeration import aux_bivariate, build_table, peri_catalan_recursive, word_count_bound
from pericatalan.errors import DomainError, ResourceGuardError, StabilityError
from pericatalan.freewords import count_reduced


def test_base_cases():
    for s in (1, 2, 5):
        t = log_peri_table(s, 4)
        assert float(t.values[1]) == math.log(s)
        assert abs(float(t.values[2]) - math.log(3 * s * s)) < 1e-14


def test_log_value_spot():
    t = log_peri_table(1, 8)
    assert abs(float(t.values[5]) - math.log(666)) < 1e-12


def test_matches_exact_small():
    for s in (1, 2, 3):
        exact = build_table(s, 60)
        t = log_peri_table(s, 60)
        for n in range(1, 61):
            target = math.log(exact[n])
            assert abs(float(t.values[n]) - target) <= 1e-10 * max(target, 1.0)


def test_log_bound_matches_exact_bound():
    t = log_peri_table(2, 30)
    n, _, log_bound, _ = quotient_series(t)
    assert n.tolist() == list(range(2, 31))
    for i in (0, 5, 28):
        assert abs(log_bound[i] - math.log(word_count_bound(2, int(n[i])))) < 1e-9


def test_table_is_immutable_and_range_checked():
    t = log_peri_table(2, 6)
    with pytest.raises(ValueError):
        t.values[3] = 0.0
    with pytest.raises(DomainError):
        log_peri_table(0, 5)
    with pytest.raises(DomainError):
        log_peri_table(2, 1)


def rho_at(rho, a, b):
    # rho(a, b) read from the band in RhoMemo's docstring: 1.0 past its columns
    lo = min(a, b)
    return float(rho.grid[a + b, lo]) if lo < rho.grid.shape[1] else 1.0


def rho_entries(rho):
    # every canonical ((a, b), rho(a, b)), a >= b, by pair sum then a
    n_max = rho.grid.shape[0] - 1
    return [((a, d - a), rho_at(rho, a, d - a)) for d in range(2, n_max + 1) for a in range((d + 1) // 2, d)]


def test_rho_properties():
    t, rho = log_peri_table(2, 12, with_rho=True)
    assert rho_at(rho, 3, 3) == 1.0
    assert rho_at(rho, 6, 6) == 1.0
    assert abs(rho_at(rho, 2, 1) - (1 - 1 / 6)) < 1e-14
    assert rho_at(rho, 2, 1) == rho_at(rho, 1, 2)
    entries = rho_entries(rho)
    assert len(entries) == sum(d // 2 for d in range(2, 13))
    assert all(0.0 < v <= 1.0 for _, v in entries)


@pytest.mark.parametrize("s", [1, 2, 7])
def test_rho_grid_matches_exact(s):
    t, rho = log_peri_table(s, 60, with_rho=True)
    exact = build_table(s, 60)
    memo = {}
    entries = rho_entries(rho)
    assert len(entries) == sum(d // 2 for d in range(2, 61))
    for (a, b), got in entries:
        want = aux_bivariate(s, a, b, memo) / (exact[a] * exact[b])
        assert abs(got - want) <= 1e-13 * want, (a, b, got, want)
    # the half-sum logsumexp over those ratios, against the exact log
    for n in range(2, 61):
        want = math.log(exact[n])
        assert abs(float(t.values[n]) - want) <= 1e-14 * want, (n, float(t.values[n]), want)


def band_shape(s, n_max):
    # W(s) = int(40 / ln 3s) + 1 computed columns, at most n_max // 2, plus column 0
    return n_max + 1, min(int(40 / math.log(3 * s)) + 1, n_max // 2) + 1


@pytest.mark.parametrize("n_max", [12, 13, 60])
def test_rho_store_is_a_band(n_max):
    for s in (1, 3, 12, 10**200):
        _, rho = log_peri_table(s, n_max, with_rho=True)
        assert rho.grid.dtype == np.float64
        assert rho.grid.shape == band_shape(s, n_max), s
        assert not hasattr(rho, "n_max")
        # column 0 and the non-canonical b > d / 2 are never written
        d, b = np.indices(rho.grid.shape)
        assert np.all(rho.grid[(b == 0) | (2 * b > d)] == 1.0)


def test_rho_band_stays_small_at_the_ceiling():
    # the packed triangle of n^2/4 doubles took 200 MB here; the band
    # holds W(1) = 37 computed columns
    _, rho = log_peri_table(1, 10_000, with_rho=True)
    assert rho.grid.shape == band_shape(1, 10_000) == (10_001, 38)
    assert rho.grid.nbytes == 3_040_304


def test_each_step_gains_at_least_3s():
    # the lemma that fixes the band's width: P(s, n + 1) >= 3s P(s, n),
    # with equality at n = 1, on exact columns and on brute-force counts
    for s in (1, 2, 3, 12, 64, 10**6):
        p = build_table(s, 300).values
        assert p[2] == 3 * s * p[1]
        assert all(p[n + 1] >= 3 * s * p[n] for n in range(1, 300)), s
    for s, n_top in ((1, 7), (2, 5), (3, 4)):
        p = [count_reduced(s, n) for n in range(1, n_top + 1)]
        assert p[1] == 3 * s * p[0]
        assert all(b >= 3 * s * a for a, b in zip(p, p[1:])), s


def test_rho_diagonal_is_one():
    # the even-n diagonal reads rho(n/2, 0) through a zero factor
    _, rho = log_peri_table(2, 60, with_rho=True)
    for h in range(1, 31):
        assert rho_at(rho, h, h) == 1.0, h


def test_log_matches_verifier_to_1000():
    # ln P against the exact verifier past a08's n = 300.  Measured worst
    # relative error: 1.77e-15 (n = 862, Python 3.11, numpy 2.4).
    memo = {}
    peri_catalan_recursive(1, 1000, memo)
    t = log_peri_table(1, 1000)
    for n, p in enumerate(memo["p"][2:], start=2):
        want = math.log(p)
        assert abs(float(t.values[n]) - want) <= 1e-14 * want, (n, float(t.values[n]), want)


def full_row_table(s, n_max):
    """(lp, full-width band) computing every ratio of every row: the
    engine's step before it skipped the provably-1.0 prefix of a row."""
    lp = np.empty(n_max + 1)
    lp[0] = -math.inf
    lp[1] = math.log(s)
    band = np.ones((n_max + 1, n_max // 2 + 1))
    idx = np.arange(n_max + 1)
    for n in range(2, n_max + 1):
        h0 = (n + 1) // 2
        m = n - h0
        lo = idx[m:0:-1]
        lp_hi = lp[h0:n]
        t = np.exp(lp[n % 2:n - 1:2] - lp_hi)
        t *= band[idx[h0:n], np.minimum(idx[n % 2:n - 1:2], lo)]
        vals = np.subtract(1.0, t, out=band[n, m:0:-1])
        if not vals.min() > 0.0:
            i = int(np.argmax(~(vals > 0.0)))
            raise StabilityError(
                f"cancelation ratio not in (0, 1] at s={s}, n={n}, k={int(lo[i])}: rho={vals[i]!r}"
            )
        terms = np.log(vals)
        terms += lp_hi
        terms += lp[m:0:-1]
        top = terms.max()
        terms -= top
        w = np.exp(terms, out=terms)
        if n % 2 == 0:
            w[0] *= 0.5
        lp[n] = asymptotics._LOG3 + top + math.log(2.0 * w.sum())
    return lp, band


def assert_band_matches(rho, full):
    # the engine's band is the reference's first columns; the rest is 1.0
    cols = rho.grid.shape[1]
    assert np.array_equal(rho.grid, full[:, :cols])
    assert np.all(full[:, cols:] == 1.0)


@pytest.mark.parametrize("s, n_maxes", [
    *[(s, (2, 3, 4, 5, 60, 301, 2000)) for s in (1, 2, 7, 12, 10**200)],
    (12, (2800,)),
])
def test_skipped_prefix_is_bit_identical(s, n_maxes):
    for n_max in n_maxes:
        t, rho = log_peri_table(s, n_max, with_rho=True)
        lp, full = full_row_table(s, n_max)
        assert np.array_equal(t.values, lp), (s, n_max)
        assert_band_matches(rho, full)


@pytest.mark.parametrize("log3", [-0.3, -0.5])
def test_step_below_ln3s_is_refused(monkeypatch, log3):
    # a wrong ln 3 at s = 2 keeps rho(2, 1) in (0, 1] but makes the step
    # l_3 - l_2 negative, below the proven ln 6 the band's width rests on
    monkeypatch.setattr(asymptotics, "_LOG3", log3)
    with pytest.raises(StabilityError, match=r"^log step below ln 3s at s=2, n=3: "):
        log_peri_table(2, 200)


def test_stability_error_names_n_and_k(monkeypatch):
    # a wrong ln 3 makes l_2 too small, so rho(2, 1) = 1 - exp(l_1 - l_2) < 0
    monkeypatch.setattr(asymptotics, "_LOG3", -5.0)
    with pytest.raises(StabilityError, match="n=3, k=1") as got:
        log_peri_table(1, 20)
    with pytest.raises(StabilityError) as want:
        full_row_table(1, 20)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("cancelation ratio not in (0, 1] at s=1, n=3, k=1: rho=")


def test_log_catalan_views_of_one_build():
    # tables share one read-only ln C_n build; each gets an n_max + 1 view
    for n_max in (2800, 50, 2000):
        lc = log_peri_table(1, n_max).catalan_values
        fresh = [math.nan]
        c = 1
        for m in range(1, n_max + 1):
            fresh.append(math.log(c))
            c = c * (2 * (2 * m - 1)) // (m + 1)
        assert len(lc) == n_max + 1
        assert np.array_equal(lc, np.array(fresh), equal_nan=True)
        with pytest.raises(ValueError):
            lc[1] = 0.0


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


def test_defect_series_price(monkeypatch):
    # the fit defaults (a10's series) and growth_experiments.py's defaults
    # are one request, admitted with room
    defaults = 100 * (asymptotics._ROW_TERMS * 2001 + 2000**2 // 4)
    assert defaults * 10 < asymptotics.DEFECT_CEILING
    # the limit is read at call time, and the whole request is priced
    monkeypatch.setattr(asymptotics, "DEFECT_CEILING", 2 * (asymptotics._ROW_TERMS * 51 + 50**2 // 4))
    assert len(defect_series([1, 2], 50)) == 2
    with pytest.raises(ResourceGuardError, match="^defect series of at least 3 log tables to n=50 costs at least "):
        defect_series([1, 2, 3], 50)
    # the rows are priced too: at n = 3 a table sums only 2 logsumexp terms
    monkeypatch.setattr(asymptotics, "DEFECT_CEILING", 10**6)
    with pytest.raises(ResourceGuardError):
        defect_series(range(1, 10**6), 3)
    with pytest.raises(DomainError):
        defect_series([1], -1)
    # the request is read once, so an iterator is refused, not priced empty
    with pytest.raises(TypeError):
        defect_series(iter([1, 2]), 50)
    # a range too long for len() is priced too, by its first tables
    with pytest.raises(ResourceGuardError, match="^defect series of at least 62 log tables to n=3 "):
        defect_series(range(1, 10**40), 3)


def test_no_quotient_violation_small():
    for s in (1, 3):
        assert first_quotient_violation(log_peri_table(s, 60)) is None


def test_violation_detection_on_crafted_table():
    real = log_peri_table(2, 30)
    values = np.array(real.values)
    values[17] = values[16]  # flat spot forces a dip in the quotient
    crafted = LogTable(s=2, values=values, catalan_values=real.catalan_values)
    assert first_quotient_violation(crafted) == 17


def _scalar_violation(table):
    # the scan of first_quotient_violation, one quotient at a time
    prev = quotient(table.s, 3, table)
    for n in range(4, table.n_max + 1):
        cur = quotient(table.s, n, table)
        if cur < prev - 1e-12:
            return n
        prev = cur
    return None


@pytest.mark.parametrize("s", [1, 2, 12, 100])
def test_violation_scan_matches_scalar_loop(s):
    real = log_peri_table(s, 300)
    values = np.array(real.values)
    values[200] = values[199]  # flat spot forces a dip in the quotient
    crafted = LogTable(s=s, values=values, catalan_values=real.catalan_values)
    for table in (real, crafted):
        assert first_quotient_violation(table) == _scalar_violation(table)
    assert first_quotient_violation(crafted) == 200


def test_violation_scan_short_tables():
    assert first_quotient_violation(log_peri_table(2, 3)) is None
    assert first_quotient_violation(log_peri_table(2, 2)) is None


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
    assert linear_regression(np.column_stack((x, y))) == reg
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    assert abs(reg.slope - ref_slope) < 1e-10
    assert abs(reg.intercept - ref_intercept) < 1e-10


def test_regression_degenerate():
    with pytest.raises(DomainError, match="got 0"):
        linear_regression([])
    with pytest.raises(DomainError):
        linear_regression([(1.0, 2.0)])
    with pytest.raises(DomainError):
        linear_regression([(1.0, 2.0), (1.0, 3.0)])


def test_regression_points_range_checks():
    t = log_peri_table(2, 20)
    pts = regression_points(t, 5, 20)
    assert pts.dtype == np.float64 and pts.shape == (16, 2)
    assert pts[0][0] == 5 and pts[-1][0] == 20
    assert pts[3][1] == float(t.values[8]) - float(t.catalan_values[8])
    # the per-point series, one n at a time
    assert np.array_equal(pts, [(n, float(t.values[n]) - float(t.catalan_values[n])) for n in range(5, 21)])
    with pytest.raises(DomainError):
        regression_points(t, 1, 10)
    with pytest.raises(DomainError):
        regression_points(t, 5, 21)


def test_rational_fit_exact_model():
    pts = [(s, 0.02 / (s - 0.5)) for s in range(1, 11)]
    fit = rational_fit(pts)
    assert rational_fit(np.array(pts)) == fit
    assert abs(fit.a - 0.02) < 1e-14
    assert abs(fit.b - 0.5) < 1e-12
    assert fit.residual_stderr < 1e-9


def test_rational_fit_rejects_bad_input():
    with pytest.raises(DomainError, match="got 0"):
        rational_fit([])
    with pytest.raises(DomainError):
        rational_fit([(1, 0.5)])
    with pytest.raises(DomainError):
        rational_fit([(1, 0.5), (2, -0.1)])
    with pytest.raises(DomainError):
        rational_fit([(2, 0.5), (2, 0.25)])


def test_quotient_rows_match_methods():
    t = log_peri_table(3, 10)
    series = quotient_series(t)
    assert all(a.shape == (9,) for a in series)
    for n, lv, lb, q in zip(*(a.tolist() for a in series)):
        assert lv == float(t.values[n])
        assert lb == float(t.catalan_values[n]) + n * math.log(9) - math.log(3)
        assert q == quotient(3, n, t)
    n, _, _, q = quotient_series(t, 7)
    assert n.tolist() == [7, 8, 9, 10] and q.tolist() == [quotient(3, k, t) for k in range(7, 11)]
    with pytest.raises(DomainError):
        quotient_series(t, 1)
