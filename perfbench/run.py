"""Benchmark of pericatalan: one seeded workload per process.

    python3 perfbench/run.py --workload exact_table --seed 1 --seconds 10 --trace 0

The package is imported from src/ beside this directory, never from an
installed copy; without it the run exits with code 2 and prints no
result.  The run sets up SETUP_ROUNDS times (a fresh interpreter
importing the package, then the workload's own set-up) and then runs
whole passes of the workload, one closed-loop client on one thread,
until --seconds have gone by.  Every output is checked.

--trace 0 prints the end-to-end metrics: medians over the set-up rounds
or the passes, and the peak RSS of the whole run.  --trace 1 alternates untraced and traced passes,
prints the per-layer metrics from the traced ones plus the tracing
overhead, and writes every span to .perfbench_out/.  Both modes list
the metrics by name and unit, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units
come from BENCHMARK.json at the repository root.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from spans import NullTracer, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_ROUNDS = 5
LAYERS = ("euclid", "enumeration", "asymptotics", "freewords", "cli", "bench")


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_workloads():
    """Put src/ first on the path and import the workloads, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "pericatalan", "__init__.py")):
        fail(f"no pericatalan package under {SRC}")
    sys.path.insert(0, SRC)
    import pericatalan

    if os.path.dirname(os.path.dirname(os.path.abspath(pericatalan.__file__))) != SRC:
        fail(f"pericatalan was imported from {pericatalan.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children count so a pool cannot hide memory.
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def import_in_fresh_interpreter() -> None:
    """What every user of the package pays first: starting Python and importing it."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import pericatalan"
    subprocess.run([sys.executable, "-c", code, SRC], check=True, cwd=ROOT, stdout=subprocess.DEVNULL)


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    counts: dict
    tracer: object
    latencies: list


def run_pass(wl, ledger, tracer) -> Pass:
    wl.reset()
    gc.collect()  # every pass starts with the same collector state
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    with tracer.span("bench.pass"):
        counts = wl.run_pass(tracer, ledger)
    wall = time.perf_counter() - t0
    return Pass(tracer.enabled, wall, cpu_seconds() - c0, counts, tracer, list(getattr(wl, "latencies", [])))


def counts_repeat(passes: list) -> list:
    """The exact counts must be the same in every pass of one seed."""
    if all(p.counts == passes[0].counts for p in passes):
        return []
    return [f"counts differ: {[p.counts for p in passes]}"]


def describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ledger = workloads.Ledger()

        setup_times = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            import_in_fresh_interpreter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(wl, ledger, Tracer(f"pass{len(passes)}") if traced else NullTracer()))
            enough = not args.trace or any(p.traced for p in passes)
            if enough and time.perf_counter() - start >= args.seconds:
                break

        ledger.op(NullTracer(), "counts repeat across passes", counts_repeat, passes)

        if args.trace:
            metrics, lines = layer_metrics(wl, ledger, passes, spec, args)
        else:
            metrics, lines = end_to_end_metrics(setup_times, passes, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    attempted, failed = ledger.attempted, ledger.failed
    for problem in ledger.problems[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} ops attempted, {failed} failed, fail_ratio = {failed / attempted:.6g}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(setup_times, passes, spec):
    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    values = {
        "setup_s": (statistics.median(setup_times), describe(setup_times)),
        "wall_s": (statistics.median(walls), describe(walls)),
        "cpu_s": (statistics.median(cpus), describe(cpus)),
        "peak_rss_mb": (peak_rss_mb(), "whole process and its children"),
    }
    metrics, lines = {}, ["  pass wall times (s): " + " ".join(f"{w:.4g}" for w in walls)]
    for m in spec["end_to_end"]:
        value, how = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"  {m['name']} = {value:.6g} {m['unit']} ({how})")
    return metrics, lines


def layer_metrics(wl, ledger, passes, spec, args):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = []
    for p in traced:
        got = wl.pass_metrics(p.tracer, p.counts)
        own = p.tracer.self_times()
        got.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
        per_pass.append(got)
    values = {name: statistics.median(d[name] for d in per_pass) for name in per_pass[0]}
    values.update(passes[-1].counts)
    if hasattr(wl, "latency_metrics"):
        values.update(wl.latency_metrics([x for p in untraced for x in p.latencies]))
    probe_tracer = Tracer("probe")
    values.update(wl.probe(probe_tracer, ledger))
    # Passes alternate untraced, traced; each traced pass is compared with
    # the untraced one just before it, so slow spells of the machine cancel.
    values["trace.overhead_s"] = statistics.median(
        t.wall - u.wall for u, t in zip(passes[::2], passes[1::2]))

    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r for p in traced for r in p.tracer.records()] + probe_tracer.records(), fh)

    metrics, lines = {}, [f"  spans written to {os.path.relpath(path, ROOT)}"]
    for m in spec["per_layer"]:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "" if m["name"] in values else "  (layer not exercised by this workload)"
        lines.append(f"  {m['name']} = {value:.6g} {m['unit']}{note}")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
