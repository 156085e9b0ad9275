import json
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_growth_experiments_quick(tmp_path):
    proc = run_script("growth_experiments.py", "--quick", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = [f"quotient-s{s}.csv" for s in (1, 3, 6, 12)]
    for name in names + ["regression.txt", "fit.json"]:
        assert (tmp_path / name).is_file(), name
    fit = json.loads((tmp_path / "fit.json").read_text())
    # s = 1..20
    assert [row["s"] for row in fit["series"]] == list(range(1, 21))


def test_first_ten_table():
    proc = run_script("first_ten_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "61689134928" in proc.stdout.splitlines()[-1]
