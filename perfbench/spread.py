"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads exact_table,log_growth --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py once per workload and seed, one run at a time,
with the run length from BENCHMARK.json.  For each metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the
distance between them as a share of the median, next to the metric's
bound.  --out writes those figures as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def machine() -> dict:
    """What the figures were measured on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    probe = "import numpy; print(numpy.__version__)"
    numpy_version = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout.strip()
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


def run_once(spec: dict, workload: str, seed: int, trace: int, seconds: float | None = None) -> dict:
    """One run of the benchmark command; returns its final JSON line."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds or spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.trace)
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics[:6]), flush=True)
        rows = {}
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"], "runs": len(xs)}
            bound = m.get("bound")
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload} {m['name']}: median {med:.6g} {m['unit']}, quartiles {q1:.6g}..{q3:.6g}, "
                  f"spread {spread:.4f}" + (f" (bound {bound}, {spread / bound:.2f} of it)" if bound else ""), flush=True)
        report["workloads"][workload] = {"failed": failed, "metrics": rows}
    print(f"worst spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
