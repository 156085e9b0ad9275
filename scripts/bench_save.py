#!/usr/bin/env python3
"""Save one point of the benchmark trajectory as BENCH_<tag>.json.

    python3 scripts/bench_save.py --tag mytag --seeds 1-5

Runs the benchmark command of BENCHMARK.json (perfbench/run.py) once per
seed and workload listed there, one run at a time, with the run length
given there, and reads the final JSON line of each run.  The file,
written at the repository root or under --out-dir, holds per workload
and end-to-end metric the median and the quartiles over the seeds
(statistics.quantiles(values, n=4)), the ops attempted and failed, the
seeds, the run length, the machine and the commit measured (`git
rev-parse HEAD`, and whether tracked files had uncommitted changes).  A
run that exits nonzero stops the script before anything is written, and
the file is replaced atomically, so it is never left half written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import spread  # noqa: E402  (perfbench/spread.py: seeds, machine, run_once)
from pericatalan.enumeration import write_atomic  # noqa: E402


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def aggregate(results: dict, metrics: list) -> dict:
    """Per workload, the summary of each metric over its runs.

    results maps a workload to the final JSON objects of its runs."""
    out = {}
    for workload, runs in results.items():
        rows = {}
        for m in metrics:
            rows[m["name"]] = {**summarize([r["metrics"][m["name"]]["value"] for r in runs]), "unit": m["unit"]}
        out[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": rows,
        }
    return out


def commit() -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head, "dirty": bool(status) if status is not None else None}


def main(argv=None, runner=spread.run_once) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=spread.seeds, default=spread.seeds("1-5"))
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args(argv)

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = []
        for seed in args.seeds:
            result = runner(spec, workload, seed, 0)
            results[workload].append(result)
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}", flush=True)
    report = {
        "tag": args.tag,
        **commit(),
        "machine": spread.machine(),
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": aggregate(results, spec["end_to_end"]),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.tag}.json")
    write_atomic(path, json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
