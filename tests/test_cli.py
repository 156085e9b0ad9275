import argparse
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pericatalan import asymptotics, cli, enumeration, freewords
from pericatalan.enumeration import build_table
from pericatalan.errors import ResourceGuardError


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_exact(capsys):
    rc, out, _ = run(capsys, "compute", "--s", "2", "--n", "10")
    assert rc == 0 and out == "61689134928\n"


def test_compute_single_letter_case(capsys):
    rc, out, _ = run(capsys, "compute", "--s", "1", "--n", "1")
    assert rc == 0 and out == "1\n"


def test_compute_logspace(capsys):
    rc, out, _ = run(capsys, "compute", "--s", "2", "--n", "4", "--mode", "logspace")
    assert rc == 0
    assert out.startswith("7.4685")
    assert abs(float(out) - math.log(1752)) < 1e-4


def test_compute_logspace_length_one(capsys):
    rc, out, _ = run(capsys, "compute", "--s", "5", "--n", "1", "--mode", "logspace")
    assert rc == 0
    assert abs(float(out) - math.log(5)) < 1e-4


def test_compute_degenerate(capsys):
    rc, out, err = run(capsys, "compute", "--s", "0", "--n", "5")
    assert rc == 0 and out == "0\n" and "degenerate" in err
    rc, out, err = run(capsys, "compute", "--s", "3", "--n", "0")
    assert rc == 0 and out == "0\n" and "degenerate" in err
    # ln 0, as log_peri_table holds it at n = 0; never 0, which is ln 1
    for s, n in (("3", "0"), ("0", "5")):
        rc, out, err = run(capsys, "compute", "--s", s, "--n", n, "--mode", "logspace")
        assert rc == 0 and out == "-inf\n" and "degenerate" in err


def test_compute_domain_error(capsys):
    rc, _, err = run(capsys, "compute", "--s", "-1", "--n", "2")
    assert rc == 2 and "error" in err


def test_compute_negative_input_is_not_degenerate(capsys):
    # a negative s or n is refused as table refuses it, never served as 0
    for s, n in (("-3", "0"), ("0", "-5")):
        rc, out, err = run(capsys, "compute", "--s", s, "--n", n)
        assert rc == 2 and out == "" and "error" in err and "degenerate" not in err


def test_exact_ceiling_guard(capsys):
    rc, _, err = run(capsys, "compute", "--s", "1", "--n", "3001")
    assert rc == 4 and "n=3001" in err and "enumeration.COLUMN_CEILING" in err
    rc, _, err = run(capsys, "table", "--s-list", "1", "--n-max", "4000")
    assert rc == 4
    with pytest.raises(SystemExit) as exc:  # the library constant is the only way past the guard
        run(capsys, "compute", "--s", "1", "--n", "3", "--force-exact")
    assert exc.value.code == 2


def test_exact_guard_prices_digits_before_any_bigint_work(capsys, monkeypatch, tmp_path):
    # The guard prices the digits of s as well as n, and refuses before
    # the closed form runs, so nothing is computed or written.
    def formula(*args):
        raise AssertionError("closed form called before the exact guard")

    monkeypatch.setattr(enumeration, "_closed_form_value", formula)
    out_file = tmp_path / "out.txt"
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "compute", "--s", str(10**200), "--n", "3000", "--cache-dir", str(tmp_path),
                       "--out", str(out_file))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 4 and out == "" and "refused:" in err
    assert not list(tmp_path.iterdir())
    rc, out, _ = run(capsys, "compute", "--s", "12", "--n", "3000")
    assert rc == 4 and out == ""
    # priciest column first: s = 1 alone would pass, but is never built
    rc, out, _ = run(capsys, "table", "--s-list", f"1,{10**200}", "--n-max", "3000", "--cache-dir", str(tmp_path))
    assert rc == 4 and out == "" and not list(tmp_path.iterdir())


def test_zero_column_keeps_the_s1_boundary(capsys):
    # An s = 0 column is all zeros, but its rows grow with n_max: it is
    # priced as the cold s = 1 column, so n_max = 10^12 allocates nothing.
    rc, out, err = run(capsys, "table", "--s-list", "0", "--n-max", str(10**12))
    assert rc == 4 and out == "" and "Traceback" not in err
    rc, out, _ = run(capsys, "table", "--s-list", "0", "--n-max", "3001")
    assert rc == 4 and out == ""
    rc, out, _ = run(capsys, "table", "--s-list", "0", "--n-max", "3000")
    assert rc == 0 and out.count("\n") == 3000


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--s-list", "4", "--n-max", "2", "--format", "csv")
    assert rc == 0
    assert out == "n,s,P\n1,4,4\n2,4,48\n"


def test_table_csv_round_trip(capsys):
    rc, out, _ = run(capsys, "table", "--s-list", "1,2,3", "--n-max", "10", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,s,P"
    tables = {s: build_table(s, 10) for s in (1, 2, 3)}
    assert len(lines) == 31
    for line in lines[1:]:
        n, s, p = (int(x) for x in line.split(","))
        assert tables[s][n] == p


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--s-list", "2", "--n-max", "4", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows == [
        {"n": 1, "s": 2, "P": 2},
        {"n": 2, "s": 2, "P": 12},
        {"n": 3, "s": 2, "P": 120},
        {"n": 4, "s": 2, "P": 1752},
    ]


def test_table_degenerate_s(capsys):
    rc, out, err = run(capsys, "table", "--s-list", "0", "--n-max", "3", "--format", "csv")
    assert rc == 0 and "degenerate" in err
    assert out == "n,s,P\n1,0,0\n2,0,0\n3,0,0\n"


def test_table_text_mode(capsys):
    rc, out, _ = run(capsys, "table", "--s-list", "2", "--n-max", "2")
    assert rc == 0
    assert "P=" in out and "12" in out


TABLE_ROWS = [(n, s, {2: [0, 2, 12, 120], 0: [0] * 4, 7: [0, 7, 147, 5880]}[s][n]) for n in (1, 2, 3) for s in (2, 0, 7)]


def test_table_bytes_every_format(capsys):
    argv = ("table", "--s-list", "2,0,7", "--n-max", "3")
    _, text, _ = run(capsys, *argv)
    assert text.startswith("n=1    s=2    P=   2\nn=1    s=0    P=   0\n")
    assert text == "".join(f"n={n:<4d} s={s:<4d} P={p:>4}\n" for n, s, p in TABLE_ROWS)
    _, csv, _ = run(capsys, *argv, "--format", "csv")
    assert csv == "n,s,P\n" + "".join(f"{n},{s},{p}\n" for n, s, p in TABLE_ROWS)
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps([{"n": n, "s": s, "P": p} for n, s, p in TABLE_ROWS], indent=2) + "\n"


def test_table_builds_a_repeated_s_once(capsys, monkeypatch):
    # a repeated s is one column, built once; each occurrence still prints
    calls = []
    build = enumeration.build_table

    def recording(s, n_max, cache_dir=None):
        calls.append(s)
        return build(s, n_max, cache_dir)

    monkeypatch.setattr(enumeration, "build_table", recording)
    argv = ("table", "--s-list", "2,7,2,0,2", "--n-max", "3")
    rows = [(n, s, {2: [0, 2, 12, 120], 0: [0] * 4, 7: [0, 7, 147, 5880]}[s][n]) for n in (1, 2, 3) for s in (2, 7, 2, 0, 2)]
    _, text, _ = run(capsys, *argv)
    assert text == "".join(f"n={n:<4d} s={s:<4d} P={p:>4}\n" for n, s, p in rows)
    _, csv, _ = run(capsys, *argv, "--format", "csv")
    assert csv == "n,s,P\n" + "".join(f"{n},{s},{p}\n" for n, s, p in rows)
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps([{"n": n, "s": s, "P": p} for n, s, p in rows], indent=2) + "\n"
    assert calls == [7, 2] * 3


def _quotient_reference(s, n_max):
    # ln P, ln(3^(n-1) s^n C_n) and quotient() for n = 2 .. n_max
    t = asymptotics.log_peri_table(s, n_max)
    return [
        (n, float(t.values[n]), float(t.catalan_values[n]) + n * math.log(3 * s) - math.log(3), asymptotics.quotient(s, n, t))
        for n in range(2, n_max + 1)
    ]


def test_quotient_bytes_every_format(capsys):
    rows = _quotient_reference(3, 40)
    _, csv, _ = run(capsys, "quotient", "--s", "3", "--n-max", "40")
    assert csv == "n,logP,logBound,quotient\n" + "".join(
        f"{n},{lv:.17g},{lb:.17g},{q:.17g}\n" for n, lv, lb, q in rows)
    _, out, _ = run(capsys, "quotient", "--s", "3", "--n-max", "40", "--format", "json")
    assert out == json.dumps({"s": 3, "rows": [
        {"n": n, "logP": lv, "logBound": lb, "quotient": q} for n, lv, lb, q in rows]}, indent=2) + "\n"
    _, text, _ = run(capsys, "quotient", "--s", "3", "--n-max", "40", "--format", "text")
    assert text.startswith("n=2     logP=3.29584 logBound=3.29584 quotient=1\n")
    assert text == "".join(
        f"n={n:<5d} logP={lv:.6g} logBound={lb:.6g} quotient={q:.6g}\n" for n, lv, lb, q in rows)


def test_fit_bytes_every_format(capsys):
    series = asymptotics.defect_series(range(1, 5), 60)
    fit = asymptotics.rational_fit(series)
    argv = ("fit", "--s-max", "4", "--proxy-n", "60")
    _, csv, _ = run(capsys, *argv, "--format", "csv")
    assert csv == "s,defect\n" + "".join(f"{s},{d:.17g}\n" for s, d in series)
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps({
        "proxy_n": 60,
        "series": [{"s": s, "defect": d} for s, d in series],
        "fit": {"a": fit.a, "b": fit.b, "residual_stderr": fit.residual_stderr},
        "ref_a": 0.01929, "ref_b": 0.4811, "golden_log": math.log((1 + math.sqrt(5)) / 2),
    }, indent=2) + "\n"
    _, text, _ = run(capsys, *argv)
    assert text == (
        "defect(s, n=60) fitted to a / (s - b) over s = 1..4\n"
        f"a               = {fit.a:.6g}\n"
        f"  vs 0.01929    : {fit.a - 0.01929:+.6g}\n"
        f"b               = {fit.b:.6g}\n"
        f"  vs 0.4811     : {fit.b - 0.4811:+.6g}\n"
        f"  vs ln((1+sqrt 5)/2) = 0.481212 : {fit.b - math.log((1 + math.sqrt(5)) / 2):+.6g}\n"
        f"residual stderr = {fit.residual_stderr:.6g}\n"
    )


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
def test_format_float_is_lossless(x):
    # a float cell of CSV output reads back as the same double
    assert float(cli._render("csv", ("x",), [(x,)]).splitlines()[1]) == x


def test_oracle_sweep(capsys):
    rc, out, _ = run(capsys, "oracle", "--s", "1", "--n-max", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(" ok") for line in lines)
    assert "oracle=87 formula=87" in lines[3]


def test_oracle_single_n(capsys):
    rc, out, _ = run(capsys, "oracle", "--s", "2", "--n", "4")
    assert rc == 0 and "oracle=1752 formula=1752 ok" in out


def test_oracle_rooted(capsys):
    rc, out, _ = run(capsys, "oracle", "--s", "2", "--rooted", "2,2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("oracle=144 formula=144 ok" in line for line in lines)
    names = [line.split()[3] for line in lines]
    assert names == [f"root={op.name}" for op in freewords.ALL_OPS]


def test_oracle_rooted_guard_before_formula(capsys, monkeypatch):
    # m(3000, 3000) takes minutes and gigabytes; the guard must refuse first.
    def formula(*args, **kwargs):
        raise AssertionError("aux_bivariate called before the oracle's guards")

    monkeypatch.setattr(enumeration, "aux_bivariate", formula)
    rc, out, err = run(capsys, "oracle", "--s", "1", "--rooted", "3000,3000")
    assert rc == 4 and out == "" and "refused:" in err


def test_oracle_rooted_fill_guard_exits_four(capsys, monkeypatch):
    # the split passes the oracle's guards; the verifier's fill is refused
    monkeypatch.setattr(enumeration, "FILL_CEILING", 100)
    rc, out, err = run(capsys, "oracle", "--s", "2", "--rooted", "3,2")
    assert rc == 4 and out == "" and "refused:" in err and "requested n=3" in err


def test_oracle_guard(capsys):
    rc, _, err = run(capsys, "oracle", "--s", "3", "--n", "9")
    assert rc == 4 and "refused" in err


def test_oracle_budget_flag(capsys, monkeypatch):
    # the budget is freewords.ENUM_BUDGET, read when the oracle runs
    monkeypatch.setattr(freewords, "ENUM_BUDGET", 10)
    rc, _, err = run(capsys, "oracle", "--s", "2", "--n", "4")
    assert rc == 4


def test_oracle_limits_are_read_at_call_time(capsys, monkeypatch):
    # the library and pcat follow a module constant changed after import
    fw = freewords
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 991787004 trees exceeds budget 100000000$"):
        fw.count_reduced(1, 11)
    # the stream plus the (n-1)-leaf pool it holds
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 1087485750 trees exceeds budget 100000000$"):
        fw.enumerate_basic_trees(1, 11)
    rc, out, err = run(capsys, "oracle", "--s", "1", "--n", "11")
    assert rc == 4 and out == "" and "oracle job of at least 991787004 trees exceeds budget 100000000" in err
    rc, out, _ = run(capsys, "oracle", "--s", "1", "--rooted", "5,4")
    assert rc == 0 and out.count(" ok\n") == 6
    monkeypatch.setattr(fw, "ENUM_BUDGET", 10)
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 18 trees exceeds budget 10$"):
        fw.count_reduced(1, 3)
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 21 trees exceeds budget 10$"):
        fw.enumerate_basic_trees(1, 3)
    # 18 pairs plus the 3-leaf pool of 18 trees
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 36 trees exceeds budget 10$"):
        fw.count_reduced_rooted(1, 3, 1, fw.MUL)
    assert fw.count_reduced(1, 2) == 3 and fw.count_reduced_rooted(1, 2, 1, fw.MUL) == enumeration.aux_bivariate(1, 2, 1)
    rc, out, err = run(capsys, "oracle", "--s", "1", "--n", "3")
    assert rc == 4 and out == "" and "oracle job of at least 18 trees exceeds budget 10" in err
    rc, out, err = run(capsys, "oracle", "--s", "1", "--rooted", "3,1")
    assert rc == 4 and out == "" and "oracle job of at least 36 trees exceeds budget 10" in err
    monkeypatch.setattr(fw, "ENUM_BUDGET", 36)
    rc, out, _ = run(capsys, "oracle", "--s", "1", "--rooted", "3,1")
    assert rc == 0 and out.count(" ok\n") == 6


def test_oracle_span_prices_largest_n_first(capsys, monkeypatch):
    seen = []
    count = freewords.count_reduced

    def recording(s, n):
        seen.append(n)
        return count(s, n)

    monkeypatch.setattr(freewords, "count_reduced", recording)
    rc, out, err = run(capsys, "oracle", "--s", "2", "--n-max", "8")
    assert rc == 4 and out == "" and "refused:" in err
    assert seen == [8]


def test_oracle_refused_span_allocates_nothing_per_n(capsys):
    # the price is walked up in small integers and cut off past the budget,
    # never built as a bigint of a million leaves
    for span in (("--n-max", "1000000"), ("--rooted", "1000000,1000000")):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rc, out, err = run(capsys, "oracle", "--s", "1", *span)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20 and elapsed < 1.0, span
        assert rc == 4 and out == "" and "exceeds budget 100000000" in err, span


def test_oracle_missing_n(capsys):
    rc, _, err = run(capsys, "oracle", "--s", "2")
    assert rc == 2
    rc, out, err = run(capsys, "oracle", "--s", "1", "--n-max", "0")
    assert rc == 2 and out == ""


def test_oracle_n_and_n_max_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--s", "1", "--n", "3", "--n-max", "2"])
    assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("span", [["--n", "4"], ["--n-max", "3"]])
def test_oracle_rooted_excludes_n_and_n_max(capsys, span):
    # --rooted checks one split; an --n or --n-max beside it was ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--s", "1", "--rooted", "1,1", *span])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and "not allowed with argument" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["table", "--s-list", "1", "--n-max", "0"], "table needs n_max >= 1, got 0"),
    (["table", "--s-list", "-1", "--n-max", "3"], "table needs s >= 0, got (-1,)"),
    (["oracle", "--s", "0", "--n", "3"], "enumeration needs s >= 1 and n >= 1, got s=0 n=3"),
    (["quotient", "--s", "0", "--n-max", "5"], "log_peri_table needs s >= 1, got 0"),
    (["quotient", "--s", "1", "--n-max", "1"], "log_peri_table needs n_max >= 2, got 1"),
    (["regress", "--s", "0"], "log_peri_table needs s >= 1, got 0"),
    (["fit", "--s-max", "1"], "fit needs s_max >= 2, got 1"),
    (["oracle", "--s", "1", "--rooted", "1,2,3"], "expected two comma-separated integers, got '1,2,3'"),
    (["oracle", "--s", "0", "--rooted", "1,2"], "count_reduced_rooted needs s, a, b >= 1, got s=0 a=1 b=2"),
])
def test_out_of_domain_arguments_exit_two(capsys, argv, message):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # a malformed value is refused by argparse itself
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and message in captured.err


def test_oracle_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(freewords, "count_reduced", lambda s, n, **kw: 0)
    rc, out, _ = run(capsys, "oracle", "--s", "1", "--n", "3")
    assert rc == 1 and "MISMATCH" in out


def test_quotient_first_row(capsys):
    rc, out, _ = run(capsys, "quotient", "--s", "1", "--n-max", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,logP,logBound,quotient"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "2"
    assert lines[1].split(",")[3] == "1"


def test_quotient_json(capsys):
    rc, out, _ = run(capsys, "quotient", "--s", "2", "--n-max", "4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["s"] == 2
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4]
    assert abs(payload["rows"][0]["quotient"] - 1.0) < 1e-15


def test_regress_text(capsys):
    rc, out, _ = run(capsys, "regress", "--s", "2", "--n-min", "10", "--n-max", "80")
    assert rc == 0
    assert "slope" in out and "intercept" in out and "residual" in out


def test_regress_json(capsys):
    rc, out, _ = run(capsys, "regress", "--s", "2", "--n-min", "10", "--n-max", "80", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["s"] == 2
    assert 0 < payload["slope"] < math.log(6)
    assert payload["ln_3s"] == math.log(6)


def test_regress_bytes_every_format(capsys):
    # the regression over a per-point series, read one n at a time
    t = asymptotics.log_peri_table(3, 60)
    reg = asymptotics.linear_regression([(n, float(t.values[n]) - float(t.catalan_values[n])) for n in range(2, 61)])
    argv = ("regress", "--s", "3", "--n-min", "2", "--n-max", "60")
    _, text, _ = run(capsys, *argv)
    assert text == (
        "series (n, ln P - ln C_n) for s=3, n in [2, 60]\n"
        f"slope            = {reg.slope:.6g}\n"
        f"  vs 3.576       : {reg.slope - 3.576:+.6g}\n"
        f"  vs ln(3s)      : {reg.slope - math.log(9):+.6g}  (ln 9 = {math.log(9):.6g})\n"
        f"intercept        = {reg.intercept:.6g}\n"
        f"  vs -1.102      : {reg.intercept + 1.102:+.6g}\n"
        f"  vs -ln 3       : {reg.intercept + math.log(3):+.6g}  (-ln 3 = {-math.log(3):.6g})\n"
        f"residual stderr  = {reg.residual_stderr:.6g}\n"
    )
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert out == json.dumps({
        "s": 3, "n_min": 2, "n_max": 60,
        "slope": reg.slope, "intercept": reg.intercept, "residual_stderr": reg.residual_stderr,
        "ref_slope": 3.576, "ln_3s": math.log(9), "ref_intercept": -1.102, "minus_ln_3": -math.log(3),
    }, indent=2) + "\n"


def test_fit_csv_series(capsys):
    rc, out, _ = run(capsys, "fit", "--s-max", "4", "--proxy-n", "60", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,defect"
    assert len(lines) == 5
    defects = [float(line.split(",")[1]) for line in lines[1:]]
    assert defects == sorted(defects, reverse=True)


def test_fit_text(capsys):
    rc, out, _ = run(capsys, "fit", "--s-max", "4", "--proxy-n", "60")
    assert rc == 0
    assert "a " in out and "b " in out


def test_fit_proxy_n_two_names_flag(capsys):
    # every defect at n = 2 is 0, so the rational fit has nothing to fit
    rc, _, err = run(capsys, "fit", "--s-max", "4", "--proxy-n", "2")
    assert rc == 2 and "proxy" in err


@pytest.mark.parametrize("proxy_n", ["2000", "3"])
def test_fit_request_refused_before_any_table(capsys, monkeypatch, proxy_n):
    # a billion tables, at the default depth or the shallowest, are priced
    # as one request: no table is built, nothing is printed
    class TableBuilt(Exception):
        pass

    def table(*args, **kwargs):
        raise TableBuilt

    monkeypatch.setattr(asymptotics, "log_peri_table", table)
    start = time.perf_counter()
    rc, out, err = run(capsys, "fit", "--s-max", "1000000000", "--proxy-n", proxy_n)
    assert time.perf_counter() - start < 1.0
    assert rc == 4 and out == ""
    assert re.match(rf"refused: defect series of at least \d+ log tables to n={proxy_n} costs at least \d+ ", err)


def test_log_ceiling_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(asymptotics, "LOG_CEILING", 50)
    rc, out, err = run(capsys, "quotient", "--s", "1", "--n-max", "51")
    assert rc == 4 and out == "" and "refused" in err


def test_log_ceiling_refusal_line(capsys):
    rc, out, err = run(capsys, "quotient", "--s", "1", "--n-max", "10001")
    assert (rc, out, err) == (4, "", "refused: log table past n=10000 (requested n=10001)\n")


def test_column_guard_refusal_line(capsys):
    rc, out, err = run(capsys, "compute", "--s", "1", "--n", "3001")
    assert (rc, out, err) == (4, "", "refused: exact column to n=3001: n = 2 .. 3001 at s=1 is priced at 1.001 "
                                     "times the cold s=1 column to n=3000, past enumeration.COLUMN_CEILING = 1\n")


def test_word_reduced_query(capsys):
    rc, out, _ = run(capsys, "word", "--word", "(a*(a\\b))")
    assert rc == 0
    assert "reduced: false" in out
    rc, out, _ = run(capsys, "word", "--word", "(a*b)")
    assert rc == 0
    assert "reduced: true" in out


def test_word_dump_class(capsys):
    rc, out, _ = run(capsys, "word", "--word", "((a*b)/c)", "--dump-class")
    assert rc == 0
    lines = out.strip().splitlines()[2:]
    assert lines == sorted(lines)
    assert set(lines) == {"((a*b)/c)", "((b@a)/c)", "(c//(a*b))", "(c//(b@a))"}


def test_word_json(capsys):
    rc, out, _ = run(capsys, "word", "--word", "(a*(a\\b))", "--format", "json", "--dump-class")
    assert rc == 0
    payload = json.loads(out)
    assert payload["reduced"] is False
    assert len(payload["nodal_class"]) == 4


def test_word_bytes_every_format(capsys):
    members = ["((a\\b)@a)", "((b\\\\a)@a)", "(a*(a\\b))", "(a*(b\\\\a))"]
    argv = ("word", "--word", "(a*(a\\b))")
    assert run(capsys, *argv) == (0, "word: (a*(a\\b))\nreduced: false\n", "")
    assert run(capsys, *argv, "--dump-class") == (0, "word: (a*(a\\b))\nreduced: false\n" + "".join(m + "\n" for m in members), "")
    assert run(capsys, *argv, "--format", "json") == (0, '{\n  "word": "(a*(a\\\\b))",\n  "reduced": false\n}\n', "")
    assert run(capsys, *argv, "--format", "json", "--dump-class") == (0, (
        '{\n  "word": "(a*(a\\\\b))",\n  "reduced": false,\n  "nodal_class": [\n'
        '    "((a\\\\b)@a)",\n    "((b\\\\\\\\a)@a)",\n    "(a*(a\\\\b))",\n    "(a*(b\\\\\\\\a))"\n  ]\n}\n'), "")


def test_word_syntax_error(capsys):
    rc, _, err = run(capsys, "word", "--word", "(a*b")
    assert rc == 2 and "position" in err


def test_word_too_deep_exits_four(capsys):
    rc, out, err = run(capsys, "word", "--word", "(" * 1000 + "a" + "*a)" * 1000)
    assert rc == 4 and out == "" and err.startswith("refused:") and "limit 200" in err
    assert "Traceback" not in err


def test_word_generator_bound(capsys):
    rc, _, err = run(capsys, "word", "--word", "(a*d)", "--s", "3")
    assert rc == 2


def test_out_file_atomic_and_deterministic(capsys, tmp_path):
    target = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "table", "--s-list", "2", "--n-max", "6", "--format", "csv", "--out", str(target))
    assert rc == 0 and out == ""
    first = target.read_bytes()
    rc, _, _ = run(capsys, "table", "--s-list", "2", "--n-max", "6", "--format", "csv", "--out", str(target))
    assert rc == 0
    assert target.read_bytes() == first
    assert not list(tmp_path.glob(".pcat-*"))  # no temp litter
    # and matches the stdout variant byte for byte
    rc, out, _ = run(capsys, "table", "--s-list", "2", "--n-max", "6", "--format", "csv")
    assert out.encode() == first


def test_written_files_honour_umask(capsys, tmp_path):
    # --out and cache files get 0o666 less the umask, as a plain open does
    old = os.umask(0o022)
    try:
        target = tmp_path / "o.txt"
        rc, _, _ = run(capsys, "compute", "--s", "2", "--n", "5", "--out", str(target), "--cache-dir", str(tmp_path))
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "pcat-s2.txt").stat().st_mode) == 0o644


@pytest.mark.parametrize("kind", ["missing_parent", "directory"])
def test_out_unwritable_exits_three(capsys, tmp_path, kind):
    target = tmp_path / "d"
    if kind == "directory":
        target.mkdir()
    else:
        target = target / "x"
    rc, out, err = run(capsys, "compute", "--s", "2", "--n", "4", "--out", str(target))
    assert rc == 3 and out == ""
    assert str(target) in err
    assert not list(tmp_path.rglob(".pcat-*"))  # no temp litter


def test_cache_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PCAT_CACHE_DIR", str(tmp_path))
    rc, out, _ = run(capsys, "compute", "--s", "2", "--n", "8")
    assert rc == 0 and out == "164734560\n"
    cache = tmp_path / "pcat-s2.txt"
    assert cache.exists()
    stamp = cache.read_text()
    rc, out, _ = run(capsys, "compute", "--s", "2", "--n", "8")
    assert rc == 0 and out == "164734560\n"
    assert cache.read_text() == stamp


def test_empty_cache_env_is_unset(capsys, tmp_path, monkeypatch):
    # an empty PCAT_CACHE_DIR is unset: no pcat-s3.txt lands in the working directory
    monkeypatch.setenv("PCAT_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "compute", "--s", "3", "--n", "5")
    assert rc == 0 and out == "233766\n"
    assert not list(tmp_path.iterdir())


def test_cache_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    env_dir.mkdir()
    flag_dir.mkdir()
    monkeypatch.setenv("PCAT_CACHE_DIR", str(env_dir))
    rc, _, _ = run(capsys, "compute", "--s", "2", "--n", "5", "--cache-dir", str(flag_dir))
    assert rc == 0
    assert (flag_dir / "pcat-s2.txt").exists()
    assert not (env_dir / "pcat-s2.txt").exists()


@pytest.mark.parametrize("s", [2, 20])
def test_warm_reads_print_the_bytes_of_a_cold_run(capsys, tmp_path, monkeypatch, s):
    # Every request below the top of the cache prints what the same
    # request prints with no cache, and leaves the file as it was.
    monkeypatch.delenv("PCAT_CACHE_DIR", raising=False)
    d = str(tmp_path)
    assert run(capsys, "table", "--s-list", str(s), "--n-max", "40", "--cache-dir", d)[0] == 0
    cache = tmp_path / f"pcat-s{s}.txt"
    stamp = cache.read_bytes()
    for n in range(1, 41):
        requests = [("compute", "--s", str(s), "--n", str(n))]
        requests += [("table", "--s-list", str(s), "--n-max", str(n), "--format", fmt) for fmt in ("text", "csv", "json")]
        for argv in requests:
            assert run(capsys, *argv, "--cache-dir", d) == run(capsys, *argv)
            assert cache.read_bytes() == stamp


def test_corrupt_cache_exit_code(capsys, tmp_path):
    (tmp_path / "pcat-s2.txt").write_text("garbage\n")
    rc, _, err = run(capsys, "compute", "--s", "2", "--n", "5", "--cache-dir", str(tmp_path))
    assert rc == 3 and "cache" in err


def test_cache_one_wrong_digit_exits_three(capsys, tmp_path):
    rc, out, _ = run(capsys, "compute", "--s", "2", "--n", "10", "--cache-dir", str(tmp_path))
    assert rc == 0 and out == "61689134928\n"
    cache = tmp_path / "pcat-s2.txt"
    cache.write_text(cache.read_text().replace("10 61689134928\n", "10 61689134927\n"))
    rc, out, err = run(capsys, "compute", "--s", "2", "--n", "10", "--cache-dir", str(tmp_path))
    assert rc == 3 and out == "" and "cache" in err


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--s-list", "1", "--n-max", "3", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--s", "1", "--n", "3", "--cache-dir", "d"],
    ["quotient", "--s", "2", "--n-max", "4", "--cache-dir", "d"],
    ["regress", "--s", "2", "--cache-dir", "d"],
    ["fit", "--s-max", "3", "--cache-dir", "d"],
    ["word", "--word", "a", "--cache-dir", "d"],
    ["compute", "--s", "2", "--n", "4", "--format", "json"],
    ["oracle", "--s", "1", "--n", "3", "--format", "csv"],
    ["regress", "--s", "2", "--format", "csv"],
    ["word", "--word", "a", "--format", "csv"],
])
def test_unread_flag_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_one_parser_serves_every_call(capsys, tmp_path):
    # The parser is built once per process; no flag of one call may reach
    # the next, and a call argparse rejects leaves it usable.
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "t.json"
    rc, stdout, _ = run(capsys, "table", "--s-list", "2,3", "--n-max", "4", "--format", "json", "--out", str(out))
    assert rc == 0 and stdout == "" and json.loads(out.read_text())[-1] == {"n": 4, "s": 3, "P": 9531}
    written = out.read_bytes()
    rc, stdout, _ = run(capsys, "compute", "--s", "2", "--n", "3")
    assert rc == 0 and stdout == "120\n" and out.read_bytes() == written
    args = cli.build_parser().parse_args(["compute", "--s", "2", "--n", "3"])
    assert args.out is None and "fmt" not in args and "s_list" not in args
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "--s", "two", "--n", "3"])
    assert exc.value.code == 2
    rc, stdout, _ = run(capsys, "compute", "--s", "2", "--n", "3")
    assert rc == 0 and stdout == "120\n"


def test_import_builds_no_parser():
    # every benchmark set-up imports the module: the parser is built by the first main() only
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = ("import argparse\n"
            "def refuse(*a, **k): raise AssertionError('parser built at import')\n"
            "argparse.ArgumentParser.__init__ = refuse\n"
            "import pericatalan.cli as cli\n"
            "print(cli.build_parser.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


BIG_S = 10**200  # P(BIG_S, 22) has over 4300 digits; its cache file name stays short


def test_big_integers_in_process(capsys, tmp_path, int_digit_limit):
    p = enumeration.peri_catalan(BIG_S, 22)
    argv = ("compute", "--s", str(BIG_S), "--n", "22", "--cache-dir", str(tmp_path))
    results = [run(capsys, *argv), run(capsys, *argv)]  # the second reads the cache
    table = ("table", "--s-list", str(BIG_S), "--n-max", "22")
    results += [run(capsys, *table, "--format", fmt) for fmt in ("text", "csv", "json")]
    assert [rc for rc, _, _ in results] == [0] * 5
    assert sys.get_int_max_str_digits() == int_digit_limit  # the caller's limit is back
    sys.set_int_max_str_digits(0)
    want = str(p)
    assert len(want) > int_digit_limit
    (_, first, _), (_, second, _), (_, text, _), (_, csv, _), (_, out, _) = results
    assert first == second == want + "\n"
    assert text.splitlines()[-1] == f"n=22   s={BIG_S} P={want}"
    assert csv.splitlines()[-1] == f"22,{BIG_S},{want}"
    assert json.loads(out)[-1] == {"n": 22, "s": BIG_S, "P": p}


def test_big_integers_in_a_fresh_process(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONINTMAXSTRDIGITS": "4300"}
    proc = subprocess.run(
        [sys.executable, "-m", "pericatalan.cli", "compute", "--s", str(BIG_S), "--n", "22", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert len(proc.stdout) > 4300 and proc.stdout.rstrip("\n").isdigit()


def test_readme_cli_section_names_exactly_the_parser_flags():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for p in subparsers.choices.values() for a in p._actions for opt in a.option_strings
             if opt.startswith("--")}
    assert documented == flags - {"--help"}


# Random argv over the seven subcommands: flags of the subcommand or of
# another one, good and bad values, huge ints, bad words and bad paths.
_ARGV_GOOD_INT = st.integers(1, 12).map(str)
_ARGV_INT = st.one_of(  # one_of draws each branch alike: good ints twice, so most ints are good
    _ARGV_GOOD_INT, _ARGV_GOOD_INT, st.integers(-2, 14).map(str),
    st.sampled_from(["10" * 20, "-" + "9" * 30, "1e3", "x", "", "1.5", " 7", "1_0", "\u0663"]),
)
_ARGV_VALUES = {
    "--s": _ARGV_INT, "--n": _ARGV_INT, "--n-max": _ARGV_INT, "--n-min": _ARGV_INT,
    "--s-max": _ARGV_INT, "--proxy-n": _ARGV_INT,
    "--s-list": st.one_of(st.lists(_ARGV_INT, min_size=1, max_size=4).map(",".join), st.just("1,,2")),
    "--rooted": st.one_of(st.lists(st.integers(-1, 7).map(str), min_size=1, max_size=3).map(",".join), st.just("a,b")),
    "--mode": st.sampled_from(["exact", "logspace", "log"]),
    "--format": st.sampled_from(["text", "csv", "json", "xml"]),
    "--word": st.sampled_from(["a", "(a*b)", "((a*b)\\a)", "(a/(b\\a))", "((a*b)*(c/d))", "(((a*b)*c)*((d*e)*(f*g)))",
                                "(a", "a)", "(a?b)", "a27", "a0", "(b*a9)", "(" * 201 + "a" + "*b)" * 201, ""]),
    "--cache-dir": st.sampled_from(["{tmp}/cache", "{tmp}/file", "{tmp}/file/sub", ""]),
    "--out": st.sampled_from(["{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}", "{tmp}/file/out.txt"]),
}
_ARGV_FLAGS = {
    "compute": (("--s", "--n"), ("--mode", "--out", "--cache-dir")),
    "table": (("--s-list", "--n-max"), ("--format", "--out", "--cache-dir")),
    "oracle": (("--s", ("--n", "--n-max", "--rooted")), ("--out",)),  # one span flag of the three
    "quotient": (("--s", "--n-max"), ("--format", "--out")),
    "regress": ((), ("--s", "--n-min", "--n-max", "--format", "--out")),
    "fit": ((), ("--s-max", "--proxy-n", "--format", "--out")),
    "word": (("--word",), ("--s", "--dump-class", "--format", "--out")),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    required, optional = _ARGV_FLAGS[command]
    flags = [f if type(f) is str else draw(st.sampled_from(f)) for f in required] if draw(st.integers(0, 7)) else []
    flags += draw(st.lists(st.sampled_from(optional), max_size=3))
    if not draw(st.integers(0, 7)):  # a flag the subcommand may not have
        flags.append(draw(st.sampled_from(sorted(_ARGV_VALUES))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag != "--dump-class":
            argv.append(draw(_ARGV_VALUES[flag]))
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_random_argv_exits_with_a_documented_code(argv, capsys, monkeypatch, tmp_path):
    # lowered ceilings keep every admitted job to milliseconds
    monkeypatch.setattr(freewords, "ENUM_BUDGET", 20_000)
    monkeypatch.setattr(freewords, "MAX_CLASS_LENGTH", 6)
    monkeypatch.setattr(enumeration, "COLUMN_CEILING", 1e-5)
    monkeypatch.setattr(enumeration, "FILL_CEILING", 2**20)
    monkeypatch.setattr(asymptotics, "LOG_CEILING", 400)
    monkeypatch.setattr(asymptotics, "DEFECT_CEILING", 10**7)
    monkeypatch.delenv("PCAT_CACHE_DIR", raising=False)
    (tmp_path / "file").write_text("not a directory\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse's usage errors
        rc = e.code
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3, 4), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
