import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_growth_experiments_quick(tmp_path):
    proc = run_script("growth_experiments.py", "--n-max", "400", "--s-max", "20", "--proxy-n", "400",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = [f"quotient-s{s}.csv" for s in (1, 3, 6, 12)]
    for name in names + ["regression.txt", "fit.json"]:
        assert (tmp_path / name).is_file(), name
    fit = json.loads((tmp_path / "fit.json").read_text())
    # s = 1..20
    assert [row["s"] for row in fit["series"]] == list(range(1, 21))


def test_growth_experiments_bad_s_list(tmp_path):
    for s_list in (",", "x"):
        proc = run_script("growth_experiments.py", "--s-list", s_list, "--out-dir", str(tmp_path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        assert "comma-separated integers" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_growth_experiments_small_n_max(tmp_path):
    # the derived --n-min of regress was n_max // 4 = 1 here, below its floor of 2
    proc = run_script("growth_experiments.py", "--n-max", "7", "--s-max", "3", "--proxy-n", "50", "--s-list", "1",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == ["fit.json", "quotient-s1.csv", "regression.txt"]
    assert "n in [2, 7]" in (tmp_path / "regression.txt").read_text()


def test_growth_experiments_n_max_too_small(tmp_path):
    # a range that a pcat call refuses ends the run with pcat's message, and nothing is written
    for args, message in [
        (("--n-max", "2"), "error: regression needs >= 2 points, got 1"),
        (("--s-max", "1"), "error: fit needs s_max >= 2, got 1"),
        (("--proxy-n", "2"), "error: fit needs --proxy-n >= 3 (every defect at n = 2 is 0), got 2"),
        (("--s-list", "1,0"), "error: log_peri_table needs s >= 1, got 0"),
    ]:
        proc = run_script("growth_experiments.py", "--n-max", "50", "--s-max", "3", "--proxy-n", "50", *args,
                          "--out-dir", str(tmp_path))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, (args, proc.stderr)
        assert message in proc.stderr.splitlines(), (args, proc.stderr)
        assert list(tmp_path.iterdir()) == [], args


@pytest.mark.parametrize("flag", ["--n-max", "--proxy-n"])
def test_growth_experiments_past_the_log_ceiling(tmp_path, flag):
    # refused with pcat's guard code and message; with --proxy-n the
    # quotient and regress calls have run, in memory only
    from pericatalan.asymptotics import LOG_CEILING

    proc = run_script("growth_experiments.py", "--s-list", "1", "--n-max", "50", "--s-max", "3", "--proxy-n", "50",
                      flag, str(LOG_CEILING + 1), "--out-dir", str(tmp_path))
    assert proc.returncode == 4 and "Traceback" not in proc.stderr, proc.stderr
    assert f"refused: log table past n={LOG_CEILING} (requested n={LOG_CEILING + 1})" in proc.stderr.splitlines()
    assert list(tmp_path.iterdir()) == []


def test_growth_experiments_out_dir_not_writable(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_script("growth_experiments.py", "--s-list", "1", "--n-max", "50", "--s-max", "3", "--proxy-n", "50",
                      "--out-dir", str(blocker / "out"))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    assert f"cache error: cannot write output file {blocker / 'out' / 'quotient-s1.csv'}" in proc.stderr
    assert list(tmp_path.iterdir()) == [blocker]


def test_first_ten_table():
    proc = run_script("first_ten_table.py")
    assert proc.returncode == 0, proc.stderr
    assert "61689134928" in proc.stdout.splitlines()[-1]


def test_first_ten_table_takes_no_size_flags():
    # --n-max 1340 used to reach the verifier's memory guard and end in a traceback
    proc = run_script("first_ten_table.py", "--n-max", "1340")
    assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr and "Traceback" not in proc.stderr


def _load_bench_save():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_save", os.path.join(SCRIPTS, "bench_save.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_save_single_run_quartiles():
    bench_save = _load_bench_save()
    assert bench_save.summarize([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7, "runs": 1}


def _read_text(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read()


def _git(cwd, *args):
    config = ["-c", "user.name=t", "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", *config, *args], cwd=cwd, check=True, capture_output=True)


def _paired_repo(tmp_path, bench_change=False):
    # A two-commit repository whose commits differ in src/, and in
    # perfbench/ too when bench_change.
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "BENCHMARK.json").write_text(_read_text(os.path.dirname(__file__), "..", "BENCHMARK.json"))
    (repo / "perfbench" / "run.py").write_text("# stub\n")
    (repo / "src" / "code.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "src" / "code.py").write_text("x = 2\n")
    if bench_change:
        (repo / "perfbench" / "run.py").write_text("# stub, changed\n")
    _git(repo, "commit", "-q", "-am", "change")
    return repo


def _paired_setup(tmp_path, monkeypatch, bench_change=False):
    bench_save = _load_bench_save()
    repo = _paired_repo(tmp_path, bench_change)
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(bench_save, "ROOT", str(repo))
    monkeypatch.setattr(bench_save.tempfile, "tempdir", str(temp))
    monkeypatch.setattr(bench_save.spread, "machine", lambda: {"cpus": 2})
    return bench_save, repo, temp


def _worktrees(repo):
    out = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=repo, capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if line.startswith("worktree ")]


def test_bench_save_pairs_alternate_and_aggregate(tmp_path, monkeypatch):
    # The runner is stubbed: the benchmark itself never runs here.
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)
    calls, traced = [], []

    def runner(tree, spec, workload, seed, trace=0):
        # both sides run from checkouts outside the repository, told apart by their src/
        assert not os.path.realpath(tree).startswith(os.path.realpath(repo))
        side = {"x = 1\n": "parent", "x = 2\n": "change"}[_read_text(tree, "src", "code.py")]
        if trace:
            traced.append((side, workload, seed))
            return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"trace.overhead_s": {"value": 0.0, "unit": "s"}}}
        calls.append((side, workload, seed))
        i = sum(1 for c in calls if c[:2] == (side, workload)) - 1
        wall = [2.0, 2.2, 2.4][i] / (2 if side == "change" else 1)
        values = {"setup_s": [1.0, 2.0, 3.0][i], "wall_s": wall, "cpu_s": wall,
                  "peak_rss_mb": 41.0 if side == "change" else 40.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        failed = 1 if (side, workload, i) == ("parent", "log_growth", 1) else 0
        return {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": metrics}

    out = tmp_path / "out"
    out.mkdir()
    argv = ["--tag", "t", "--against", "HEAD~1", "--pairs", "3", "--workloads", "exact_table,log_growth",
            "--out-dir", str(out)]
    assert bench_save.main(argv, runner=runner) == 0
    seeds = bench_save.tag_seeds("t", 3)
    assert seeds == list(range(seeds[0], seeds[0] + 3)) and seeds[0] >= 10_000
    # round i runs every workload's pair on seed i before round i + 1
    order = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(side, w, seed) for seed, sides in zip(seeds, order)
                     for w in ("exact_table", "log_growth") for side in sides]
    # after the pairs, one traced run per side and workload, parent first, on the first seed
    assert traced == [(side, w, seeds[0]) for w in ("exact_table", "log_growth") for side in ("parent", "change")]
    assert [f.name for f in out.iterdir()] == ["BENCH_t.json"]  # no .pcat-* temp litter
    report = json.loads((out / "BENCH_t.json").read_text())
    parent = subprocess.run(["git", "rev-parse", "HEAD~1"], cwd=repo, capture_output=True, text=True).stdout.strip()
    assert report["against"] == {"rev": "HEAD~1", "commit": parent} and report["seeds"] == seeds
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True).stdout.strip()
    assert report["commit"] == head and "dirty" not in report
    assert report["tag"] == "t" and report["run_seconds"] == 25 and report["machine"] == {"cpus": 2}
    assert list(report["workloads"]) == ["exact_table", "log_growth"]
    exact = report["workloads"]["exact_table"]
    assert [p["first"] for p in exact["pairs"]] == ["parent", "change", "parent"]
    assert exact["pairs"][1]["parent"]["wall_s"] == 2.2 and exact["pairs"][1]["change"]["wall_s"] == 1.1
    assert exact["parent"]["metrics"]["wall_s"] == {"median": 2.2, "q1": 2.0, "q3": 2.4, "runs": 3, "unit": "s"}
    assert exact["change"]["metrics"]["wall_s"]["median"] == 1.1
    assert (exact["change"]["attempted"], exact["change"]["failed"], exact["change"]["correct"]) == (15, 0, True)
    log = report["workloads"]["log_growth"]
    assert (log["parent"]["attempted"], log["parent"]["failed"], log["parent"]["correct"]) == (15, 1, False)
    assert (log["change"]["failed"], log["change"]["correct"]) == (0, True)
    wall, setup, rss = (exact["compare"][m] for m in ("wall_s", "setup_s", "peak_rss_mb"))
    assert (wall["median_ratio"], wall["wins"], wall["pairs"], wall["unresolved"], wall["gain"]) == (0.5, 3, 3, False, True)
    assert abs(wall["parent_spread"] - 0.4 / 2.2) < 1e-12 and wall["bound"] == 0.25
    # setup_s spreads 1..3 around 2 on the parent: past its bound, and ties win nothing
    assert (setup["median_ratio"], setup["wins"], setup["unresolved"], setup["gain"]) == (1.0, 0, True, False)
    assert (rss["median_ratio"], rss["wins"], rss["unresolved"], rss["gain"]) == (41.0 / 40.0, 0, False, False)
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]
    assert not [p for p in repo.rglob(".pcat-*")]


def test_bench_save_trace_runs_once_per_side_after_the_pairs(tmp_path, monkeypatch):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)
    calls = []

    def runner(tree, spec, workload, seed, trace=0):
        side = {"x = 1\n": "parent", "x = 2\n": "change"}[_read_text(tree, "src", "code.py")]
        calls.append((side, workload, seed, trace))
        if trace:
            # the overhead compares drifting passes and may read negative
            values = {"cli.write_p50_ms": 2.0 if side == "parent" else 1.5,
                      "trace.overhead_s": -0.25 if side == "parent" else 0.5}
            metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    argv = ["--tag", "t", "--against", "HEAD~1", "--pairs", "2", "--workloads", "cache_cli,log_growth",
            "--out-dir", str(tmp_path)]
    assert bench_save.main(argv, runner=runner) == 0
    seeds = bench_save.tag_seeds("t", 2)
    assert [c for c in calls if c[3]] == calls[8:] == [
        ("parent", "cache_cli", seeds[0], 1), ("change", "cache_cli", seeds[0], 1),
        ("parent", "log_growth", seeds[0], 1), ("change", "log_growth", seeds[0], 1)]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    trace = report["workloads"]["cache_cli"]["trace"]
    assert trace["seed"] == seeds[0]
    assert (trace["parent"]["attempted"], trace["parent"]["failed"], trace["parent"]["correct"]) == (3, 0, True)
    assert trace["parent"]["metrics"]["trace.overhead_s"] == -0.25 and trace["change"]["metrics"]["trace.overhead_s"] == 0.5
    assert trace["parent"]["metrics"]["cli.write_p50_ms"] == 2.0 and trace["change"]["metrics"]["cli.write_p50_ms"] == 1.5
    assert report["workloads"]["cache_cli"]["parent"]["metrics"]["wall_s"]["runs"] == 2  # traced runs stay out of the pairs
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_pairs_ignore_uncommitted_edits(tmp_path, monkeypatch):
    # Only commits are measured: an edit left in the working tree, to src/
    # or to the benchmark's run length, reaches no run and no spec.
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)
    (repo / "src" / "code.py").write_text("x = 3\n")
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    (repo / "BENCHMARK.json").write_text(json.dumps({**spec, "run_seconds": 1}))
    seen = []

    def runner(tree, spec, workload, seed, trace=0):
        seen.append((_read_text(tree, "src", "code.py"), json.loads(_read_text(tree, "BENCHMARK.json"))["run_seconds"],
                     spec["run_seconds"]))
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["per_layer" if trace else "end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    argv = ["--tag", "t", "--against", "HEAD~1", "--pairs", "2", "--workloads", "log_growth", "--out-dir", str(tmp_path)]
    assert bench_save.main(argv, runner=runner) == 0
    # two pairs and the traced run, per side
    assert sorted(seen) == [("x = 1\n", 25, 25)] * 3 + [("x = 2\n", 25, 25)] * 3
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True).stdout.strip()
    assert report["commit"] == head and report["run_seconds"] == 25
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_pairs_refuse_a_changed_benchmark(tmp_path, monkeypatch, capsys):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch, bench_change=True)

    def runner(*args):
        raise AssertionError("no run may start when the benchmarks differ")

    argv = ["--tag", "t", "--against", "HEAD~1", "--pairs", "2", "--out-dir", str(tmp_path)]
    assert bench_save.main(argv, runner=runner) == 2
    assert "perfbench/ or BENCHMARK.json differ" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_pairs_remove_the_worktree_when_a_run_fails(tmp_path, monkeypatch):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)

    def runner(tree, spec, workload, seed):
        raise RuntimeError(f"{workload} seed {seed} exited 1")

    with pytest.raises(RuntimeError, match="exited 1"):
        bench_save.main(["--tag", "t", "--against", "HEAD~1", "--out-dir", str(tmp_path)], runner=runner)
    assert not (tmp_path / "BENCH_t.json").exists()
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_pairs_bad_rev_exits_two(tmp_path, monkeypatch, capsys):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)
    assert bench_save.main(["--tag", "t", "--against", "no-such-rev", "--out-dir", str(tmp_path)]) == 2
    assert "cannot check out no-such-rev" in capsys.readouterr().err
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_refuses_a_bad_out_dir_before_any_run(tmp_path, monkeypatch, capsys):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)

    def runner(*args):
        raise AssertionError("no run may start when the file cannot be written")

    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        bench_save.main(["--tag", "t", "--against", "HEAD~1", "--pairs", "2", "--out-dir", str(missing)], runner=runner)
    assert exc.value.code == 2 and "--out-dir" in capsys.readouterr().err
    assert not missing.exists() and not (tmp_path / "BENCH_t.json").exists()
    assert list(temp.iterdir()) == [] and _worktrees(repo) == [f"worktree {os.path.realpath(repo)}"]


def test_bench_save_needs_against(tmp_path, monkeypatch, capsys):
    bench_save, repo, temp = _paired_setup(tmp_path, monkeypatch)

    def runner(*args):
        raise AssertionError("no run may start without --against")

    with pytest.raises(SystemExit) as exc:
        bench_save.main(["--tag", "t", "--out-dir", str(tmp_path)], runner=runner)
    assert exc.value.code == 2 and "--against" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists() and list(temp.iterdir()) == []
