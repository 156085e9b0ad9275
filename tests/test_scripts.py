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
    for name in names + ["regression.txt", "defects.csv", "fit.txt"]:
        assert (tmp_path / name).is_file(), name
    # header + s = 1..20
    assert len((tmp_path / "defects.csv").read_text().splitlines()) == 21


def test_first_ten_table():
    proc = run_script("first_ten_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "61689134928" in proc.stdout.splitlines()[-1]
