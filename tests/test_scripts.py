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


def _load_bench_save():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_save", os.path.join(SCRIPTS, "bench_save.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_save_aggregates_stubbed_runs(tmp_path, monkeypatch):
    # The runner is stubbed: the benchmark itself never runs here.
    bench_save = _load_bench_save()
    monkeypatch.setattr(bench_save.spread, "machine", lambda: {"cpus": 2})
    calls = []

    def runner(spec, workload, seed, trace):
        calls.append((workload, seed, trace))
        metrics = {m["name"]: {"value": seed * (i + 1), "unit": m["unit"]} for i, m in enumerate(spec["end_to_end"])}
        failed = 1 if (workload, seed) == ("log_growth", 4) else 0
        return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}

    argv = ["--tag", "t", "--seeds", "1,2,4,8", "--out-dir", str(tmp_path)]
    assert bench_save.main(argv, runner=runner) == 0
    workloads = ["exact_table", "log_growth", "oracle_sweep", "cache_cli"]
    assert calls == [(w, s, 0) for w in workloads for s in (1, 2, 4, 8)]
    assert [f.name for f in tmp_path.iterdir()] == ["BENCH_t.json"]  # no .pcat-* temp litter
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["tag"] == "t" and report["seeds"] == [1, 2, 4, 8] and report["run_seconds"] == 25
    assert report["machine"] == {"cpus": 2} and "commit" in report and "dirty" in report
    assert list(report["workloads"]) == workloads
    exact = report["workloads"]["exact_table"]
    assert (exact["attempted"], exact["failed"], exact["correct"]) == (40, 0, True)
    # wall_s is the second metric: values 2, 4, 8, 16
    assert exact["metrics"]["wall_s"] == {"median": 6.0, "q1": 2.5, "q3": 14.0, "runs": 4, "unit": "s"}
    log = report["workloads"]["log_growth"]
    assert (log["failed"], log["correct"]) == (1, False)


def test_bench_save_single_run_quartiles():
    bench_save = _load_bench_save()
    assert bench_save.summarize([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7, "runs": 1}
