"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the benchmark's checks bite and that its seed does only what
it should:

* a corrupted reference value (a stored defect, a golden value, a cached
  integer) is counted as a failed op;
* the seed changes the generated inputs and nothing else: one seed
  always gives the same inputs, two seeds give different ones;
* a seed used nowhere else still passes every check on every workload;
* the exact counts and bytes of the traced run repeat exactly in two
  runs on the same seed.

Takes a few minutes; exits 1 if any check fails.
"""

import os
import shutil
import sys

import run
import spread

FRESH_SEED = 987_654_321
REPEAT_SEED = 11
EXACT_UNITS = ("count", "bytes")

workloads = run.import_workloads()
from spans import NullTracer  # noqa: E402

failures: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        failures.append(name)


def one_pass(wl) -> "workloads.Ledger":
    ledger = workloads.Ledger()
    wl.reset()
    wl.run_pass(NullTracer(), ledger)
    return ledger


def bench(workload: str, seed: int, trace: int) -> dict:
    return spread.run_once(run.load_spec(), workload, seed, trace, seconds=1)


def corrupted_reference_fails(workdir: str) -> None:
    wl = workloads.LogGrowth(1, workdir)
    wl.setup()
    s = next(s for s in wl.s_values if s not in workloads.PAPER_DEFECTS)
    wl.reference[s] *= 1 + 1e-6
    ledger = one_pass(wl)
    report("corrupted stored defect is a failure", ledger.failed == 1 and f"defect s={s}:" in ledger.problems[0],
           f"{ledger.failed} of {ledger.attempted} ops failed")

    wl = workloads.ExactTable(1, workdir)
    wl.s_values, wl.N = [2], 20
    clean = one_pass(wl)
    golden = workloads.GOLDEN_FIRST_TEN[2]
    saved = golden[6]
    golden[6] += 1
    try:
        ledger = one_pass(wl)
    finally:
        golden[6] = saved
    report("corrupted golden value is a failure", clean.failed == 0 and ledger.failed == 1,
           f"clean run {clean.failed} failed, corrupted run {ledger.failed} of {ledger.attempted}")

    wl = workloads.CacheCli(1, workdir)
    wl.setup()
    name = f"pcat-s{wl.s_pair[0]}.txt"
    lines = wl.snapshot[name].decode("ascii").splitlines()
    n, value = lines[10].split()
    lines[10] = f"{n} {int(value) - 1}"  # still within the count bound, so the cache loads it
    wl.snapshot[name] = ("\n".join(lines) + "\n").encode("ascii")
    ledger = one_pass(wl)
    report("corrupted cached integer is a failure", ledger.failed > 0,
           f"{ledger.failed} of {ledger.attempted} requests failed")


def seed_changes_only_inputs(workdir: str) -> None:
    for name, cls in workloads.WORKLOADS.items():
        a, a2, b = cls(1, workdir).inputs(), cls(1, workdir).inputs(), cls(2, workdir).inputs()
        report(f"{name}: one seed gives the same inputs, another seed different ones", a == a2 and a != b)


def fresh_seed_passes() -> None:
    for name in workloads.WORKLOADS:
        result = bench(name, FRESH_SEED, 0)
        report(f"{name}: seed {FRESH_SEED} passes every check", result["correct"] and result["failed"] == 0,
               f"{result['failed']} of {result['attempted']} ops failed")


def counts_repeat() -> None:
    spec = run.load_spec()
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    for name in workloads.WORKLOADS:
        first, second = bench(name, REPEAT_SEED, 1), bench(name, REPEAT_SEED, 1)
        diff = [m for m in exact if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        nonzero = sum(1 for m in exact if first["metrics"][m]["value"])
        report(f"{name}: exact counts repeat on seed {REPEAT_SEED}", not diff and first["correct"] and second["correct"],
               f"{nonzero} nonzero counts, differing: {diff or 'none'}")


def main() -> int:
    workdir = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        seed_changes_only_inputs(workdir)
        corrupted_reference_fails(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    fresh_seed_passes()
    counts_repeat()
    print(f"{len(failures)} self-test checks failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
