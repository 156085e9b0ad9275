import json
import math

import pytest

from pericatalan import asymptotics, cli, freewords
from pericatalan.enumeration import build_table


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


def test_compute_domain_error(capsys):
    rc, _, err = run(capsys, "compute", "--s", "-1", "--n", "2")
    assert rc == 2 and "error" in err


def test_exact_ceiling_guard(capsys):
    rc, _, err = run(capsys, "compute", "--s", "1", "--n", "3001")
    assert rc == 4 and "--force-exact" in err
    rc, _, err = run(capsys, "table", "--s-list", "1", "--n-max", "4000")
    assert rc == 4


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
    rc, out, _ = run(capsys, "oracle", "--s", "2", "--n", "4", "--rooted", "2,2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("oracle=144 formula=144 ok" in line for line in lines)
    names = [line.split()[3] for line in lines]
    assert names == [f"root={op.name}" for op in freewords.ALL_OPS]


def test_oracle_guard(capsys):
    rc, _, err = run(capsys, "oracle", "--s", "3", "--n", "9")
    assert rc == 4 and "refused" in err


def test_oracle_budget_flag(capsys):
    rc, _, err = run(capsys, "oracle", "--s", "2", "--n", "4", "--budget", "10")
    assert rc == 4


def test_oracle_missing_n(capsys):
    rc, _, err = run(capsys, "oracle", "--s", "2")
    assert rc == 2
    rc, out, err = run(capsys, "oracle", "--s", "1", "--n-max", "0")
    assert rc == 2 and out == ""


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


def test_log_ceiling_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(asymptotics, "LOG_CEILING", 50)
    rc, out, err = run(capsys, "quotient", "--s", "1", "--n-max", "51")
    assert rc == 4 and out == "" and "refused" in err


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


def test_word_syntax_error(capsys):
    rc, _, err = run(capsys, "word", "--word", "(a*b")
    assert rc == 2 and "position" in err


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
