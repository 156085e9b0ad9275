#!/usr/bin/env python3
"""Save one point of the benchmark trajectory as BENCH_<tag>.json.

    python3 scripts/bench_save.py --tag mytag --against HEAD~1 [--pairs 10] [--workloads a,b]

Measures HEAD against REV in alternating pairs.  Both revisions are
resolved to commits before anything runs (a bad one exits 2), and if
perfbench/ or BENCHMARK.json differ between the two commits the script
exits 2 before any run, since both sides must run one benchmark.  Both
commits are checked out with `git worktree add --detach` into one
temporary directory outside the repository, which is removed however
the script ends, so uncommitted edits are never measured: commit first,
then run --against HEAD~1.  Each side runs the benchmark command of
BENCHMARK.json (perfbench/run.py) with its own checkout as the working
directory, so each imports its own src/, and with the run length read
from HEAD's BENCHMARK.json.  The pairs run in rounds: round i runs
the pair of every workload in turn, both sides on seed i, derived from
the tag, before round i + 1 starts, so a spell of machine load is
spread over the workloads instead of landing on one.  The parent runs
first in even rounds and the change first in odd ones.  After the
pairs, each workload runs once traced (perfbench/run.py --trace 1) per
side, parent first, on the first seed, for the per-layer numbers.

The file, written at the repository root or under --out-dir (not a
writable directory: exit 2 before any run), records the two commits
that ran (HEAD's as `commit`, REV's under `against`), the machine, the
seeds and the run length.  Per workload it holds every
pair; per side the ops attempted and failed and, per end-to-end metric,
the median and the quartiles (statistics.quantiles(values, n=4)); and
per metric the median paired ratio change/parent, the pairs the change
won (ties count for neither side), the parent's quartile spread as a
share of its median, "unresolved" when that spread exceeds the metric's
bound and "gain" when the change won at least nine tenths of the pairs
and its median beats the parent's by more than the parent's quartile
distance.  Per workload it also holds under "trace" the traced run of
each side: its ops and every per-layer metric as the run printed it,
trace.overhead_s among them even when negative (the passes it compares
drift on a shared machine).  A run that exits nonzero stops the
script before anything is written, and the file is replaced atomically,
so it is never left half written.

For the spread of a single tree over seeds, use perfbench/spread.py --out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from hashlib import sha256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import spread  # noqa: E402  (perfbench/spread.py: machine)
from pericatalan.enumeration import write_atomic  # noqa: E402


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def aggregate(runs: list, metrics: list) -> dict:
    """The ops of one side's runs and the summary of each metric over them."""
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "metrics": {m["name"]: {**summarize([r["metrics"][m["name"]]["value"] for r in runs]), "unit": m["unit"]}
                    for m in metrics},
    }


def run_in(tree: str, spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """One run of tree's own benchmark command, from tree, traced when trace is 1."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tag_seeds(tag: str, k: int) -> list[int]:
    # Past the small seeds of earlier hand-run pairs, and fixed by the tag.
    base = 10_000 + int.from_bytes(sha256(tag.encode()).digest()[:3], "big")
    return list(range(base, base + k))


def compare(parent: list, change: list, metrics: list) -> dict:
    """Per metric, the pair statistics of change against parent runs, in pair order."""
    rows = {}
    for m in metrics:
        old = [r["metrics"][m["name"]]["value"] for r in parent]
        new = [r["metrics"][m["name"]]["value"] for r in change]
        sign = 1 if m["better"] == "lower" else -1
        base, now = summarize(old), summarize(new)
        spread = (base["q3"] - base["q1"]) / base["median"] if base["median"] else 0.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        rows[m["name"]] = {
            "median_ratio": statistics.median(b / a for a, b in zip(old, new)),
            "wins": wins,
            "pairs": len(old),
            "parent_spread": spread,
            "bound": m["bound"],
            "unresolved": spread > m["bound"],
            "gain": 10 * wins >= 9 * len(old) and sign * (base["median"] - now["median"]) > base["q3"] - base["q1"],
        }
    return rows


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def paired(args, spec: dict, workloads: list, runner) -> int:
    commits = {}  # resolved once, before the runs, which may outlast a move of HEAD
    for side, rev in (("parent", args.against), ("change", "HEAD")):
        proc = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        if proc.returncode != 0:
            print(f"error: cannot check out {rev}: {proc.stderr.strip()}", file=sys.stderr)
            return 2
        commits[side] = proc.stdout.strip()
    if git("diff", "--quiet", commits["parent"], commits["change"], "--", "perfbench", "BENCHMARK.json").returncode:
        print(f"error: perfbench/ or BENCHMARK.json differ between {args.against} and HEAD", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="pcat-bench-")
    trees = {side: os.path.join(workdir, side) for side in commits}
    try:
        for side, sha in commits.items():
            git("worktree", "add", "--detach", trees[side], sha).check_returncode()
        seeds = tag_seeds(args.tag, args.pairs)
        runs = {workload: {"parent": [], "change": []} for workload in workloads}
        pairs = {workload: [] for workload in workloads}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(runner(trees[side], spec, workload, seed))
                pair = {side: {name: v["value"] for name, v in sides[-1]["metrics"].items()}
                        for side, sides in runs[workload].items()}
                pairs[workload].append({"seed": seed, "first": order[0], **pair})
                print(f"{workload} seed {seed} ({order[0]} first): wall_s "
                      f"{pair['parent']['wall_s']} -> {pair['change']['wall_s']}", flush=True)
        traces = {}
        for workload in workloads:
            traces[workload] = {"seed": seeds[0]}
            for side in ("parent", "change"):
                run = runner(trees[side], spec, workload, seeds[0], trace=1)
                traces[workload][side] = {**run, "metrics": {name: v["value"] for name, v in run["metrics"].items()}}
            print(f"{workload} traced seed {seeds[0]}: trace.overhead_s "
                  f"{traces[workload]['parent']['metrics']['trace.overhead_s']} -> "
                  f"{traces[workload]['change']['metrics']['trace.overhead_s']}", flush=True)
        report_workloads = {
            workload: {
                **{side: aggregate(sides, spec["end_to_end"]) for side, sides in runs[workload].items()},
                "compare": compare(runs[workload]["parent"], runs[workload]["change"], spec["end_to_end"]),
                "pairs": pairs[workload],
                "trace": traces[workload],
            }
            for workload in workloads
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        git("worktree", "prune")  # drops the entries of both worktrees
    report = {
        "tag": args.tag,
        "commit": commits["change"],
        "against": {"rev": args.against, "commit": commits["parent"]},
        "machine": spread.machine(),
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": report_workloads,
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.tag}.json")
    write_atomic(path, json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None, runner=run_in) -> int:
    spec = json.loads(subprocess.check_output(["git", "show", "HEAD:BENCHMARK.json"], cwd=ROOT, text=True))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not (os.path.isdir(args.out_dir) and os.access(args.out_dir, os.W_OK)):
        parser.error(f"--out-dir {args.out_dir} is not a writable directory")
    return paired(args, spec, workloads, runner)


if __name__ == "__main__":
    sys.exit(main())
