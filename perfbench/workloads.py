"""The four benchmark workloads.

Each workload makes its inputs from the seed alone, prepares what its
checks need in setup(), and runs passes.  A pass is the whole batch a
user waits for, with every output checked; it is made of ops, and an op
fails on a failed check, an exception or an unexpected exit code.
Calls into the library sit inside spans named "<layer>.<what>", where
<layer> is the pericatalan module called.  The spans are timed from
outside, around the public function; nothing inside the package is
instrumented.

Per-layer numbers come from three places: pass_metrics() reads one
traced pass, the counts a pass returns repeat exactly for a given seed,
and probe() makes extra calls after the timed passes (for example
euclid_trace over the pairs the closed form walks).
"""

import io
import json
import math
import os
import random
import shutil
import statistics
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from pericatalan import asymptotics, cli, enumeration, euclid, freewords

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "defects_n2000.json")

GOLDEN_FIRST_TEN = {
    1: [1, 3, 12, 87, 666, 5478, 47322, 422145, 3859026, 35967054],
    2: [2, 12, 120, 1752, 28224, 487464, 8814312, 164734560, 3156739080, 61689134928],
    3: [3, 27, 432, 9531, 233766, 6143094, 169029666, 4808015253, 140243036202, 4172008467726],
}
# Defects at n = 2000 quoted in the paper, checked to 2 %.
PAPER_DEFECTS = {1: 0.0370, 2: 0.0137, 3: 0.0080, 10: 0.00176, 25: 5.87e-4, 50: 2.61e-4, 100: 1.18e-4}
PAPER_FIT_B = 0.4811


class Ledger:
    """Attempted and failed ops, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, tr, label: str, fn, *args) -> None:
        """Run fn(*args) as one op; it returns the list of failed checks."""
        self.attempted += 1
        try:
            with tr.span("bench.op", tr.new_op(), label):
                problems = fn(*args)
        except Exception:  # one broken op must not stop the run
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(str(p) for p in problems[:3]))


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _rel_ok(got: float, want: float, tol: float) -> bool:
    # Written so that a NaN fails.
    return abs(got - want) <= tol * abs(want)


def _stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One value from each of k equal strata of lo..hi, so every seed
    spreads its picks over the whole range."""
    edges = [lo + (hi - lo + 1) * i // k for i in range(k + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(k)]


def _euclid_probe(tr, ledger: Ledger, n_values) -> dict:
    """euclid_trace over every (n, k) pair, 1 <= k < n, for each listed n."""
    got = {}

    def op():
        with tr.span("euclid.trace"):
            traces = [euclid.euclid_trace(n, k) for n in n_values for k in range(1, n)]
        got["euclid.pairs"] = len(traces)
        bad = sum(1 for t in traces if t.gcd != math.gcd(t.n, t.k))
        return [f"{bad} traces end on a wrong gcd"] if bad else []

    ledger.op(tr, "euclid probe", op)
    got["euclid.trace_s"] = sum(tr.durations("euclid.trace"))
    return got


class ExactTable:
    """Exact tables for several s, each column checked by the recursion."""

    name = "exact_table"
    N = 300
    COLUMNS = 6
    S_MAX = 64

    def __init__(self, seed: int, workdir: str):
        self.s_values = _stratified(random.Random(seed), 1, self.S_MAX, self.COLUMNS)

    def inputs(self) -> dict:
        return {"s": self.s_values, "n_max": self.N}

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def run_pass(self, tr, ledger: Ledger) -> dict:
        counts = {"enumeration.values": 0, "enumeration.recursion_memo_entries": 0}
        for s in self.s_values:
            ledger.op(tr, f"column s={s}", self._column, tr, s, counts)
        return counts

    def _column(self, tr, s: int, counts: dict) -> list:
        with tr.span("enumeration.closed_form"):
            table = enumeration.build_table(s, self.N)
        memo: dict = {}
        with tr.span("enumeration.recursion"):
            routed = [enumeration.peri_catalan_recursive(s, n, memo) for n in range(self.N + 1)]
        counts["enumeration.values"] += len(table.values)
        counts["enumeration.recursion_memo_entries"] += len(memo)
        problems = []
        if table.values != routed:
            bad = [n for n, (p, q) in enumerate(zip(table.values, routed)) if p != q]
            problems.append(f"closed form and recursion differ at n={bad[:5]} (lengths {len(table.values)}, {len(routed)})")
        for n in range(1, len(table.values)):
            p, bound = table.values[n], enumeration.word_count_bound(s, n)
            if p > bound:
                problems.append(f"P({s},{n}) exceeds the bound")
            if (p == bound) != (n < 3):
                problems.append(f"P({s},{n}) == bound is {p == bound}, expected {n < 3}")
        golden = GOLDEN_FIRST_TEN.get(s)
        if golden is not None and table.values[1:11] != golden:
            problems.append(f"first ten values for s={s} differ from the golden table")
        return problems

    def pass_metrics(self, tr, counts: dict) -> dict:
        return {
            "enumeration.closed_form_s": _median(tr.durations("enumeration.closed_form")),
            "enumeration.recursion_s": _median(tr.durations("enumeration.recursion")),
        }

    def probe(self, tr, ledger: Ledger) -> dict:
        return _euclid_probe(tr, ledger, range(2, self.N + 1))


class LogGrowth:
    """Log-space tables at n = 2000 for the paper's s and seeded s, the
    defect fit, and one deep table with its regression."""

    name = "log_growth"
    PROXY_N = 2000
    SEEDED = 3
    S_MAX = 100
    DEEP_S = 12
    DEEP_N = 2800
    REG_MIN = 100
    FIT_TOL = 1e-6
    DEFECT_TOL = 1e-9

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        rest = [s for s in range(1, self.S_MAX + 1) if s not in PAPER_DEFECTS]
        self.s_values = sorted(set(PAPER_DEFECTS) | set(rng.sample(rest, self.SEEDED)))
        self._deep_values = None

    def inputs(self) -> dict:
        return {"s": self.s_values, "proxy_n": self.PROXY_N, "deep": [self.DEEP_S, self.DEEP_N]}

    def setup(self) -> None:
        with open(REFERENCE_PATH, encoding="ascii") as fh:
            doc = json.load(fh)
        self.reference = {int(s): d for s, d in doc["defects"].items()}
        self.stored_fit = doc["fit"]
        self.reference_fit = asymptotics.rational_fit([(s, self.reference[s]) for s in self.s_values])
        self.full_fit = asymptotics.rational_fit(sorted(self.reference.items()))

    def reset(self) -> None:
        pass

    def run_pass(self, tr, ledger: Ledger) -> dict:
        counts = {"asymptotics.lse_terms": 0}
        series: dict = {}
        for s in self.s_values:
            ledger.op(tr, f"defect s={s}", self._defect, tr, s, series, counts)
        ledger.op(tr, "rational fit", self._fit, tr, series)
        ledger.op(tr, f"deep table s={self.DEEP_S} n={self.DEEP_N}", self._deep, tr, counts)
        return counts

    def _defect(self, tr, s: int, series: dict, counts: dict) -> list:
        with tr.span("asymptotics.log_table"):
            table = asymptotics.log_peri_table(s, self.PROXY_N)
        with tr.span("asymptotics.defect"):
            d = asymptotics.cancelation_defect(s, self.PROXY_N, table)
            violation = asymptotics.first_quotient_violation(table)
        counts["asymptotics.lse_terms"] += _lse_terms(table.n_max)
        series[s] = d
        problems = []
        if not _rel_ok(d, self.reference[s], self.DEFECT_TOL):
            problems.append(f"defect {d!r} differs from the reference {self.reference[s]!r}")
        paper = PAPER_DEFECTS.get(s)
        if paper is not None and not _rel_ok(d, paper, 0.02):
            problems.append(f"defect {d:.6g} more than 2% from the paper's {paper}")
        if violation is not None:
            problems.append(f"quotient decreases at n={violation}")
        return problems

    def _fit(self, tr, series: dict) -> list:
        if len(series) != len(self.s_values):
            return [f"only {len(series)} of {len(self.s_values)} defects computed"]
        points = sorted(series.items())
        with tr.span("asymptotics.fit"):
            fit = asymptotics.rational_fit(points)
        problems = []
        if not (_rel_ok(fit.a, self.reference_fit.a, self.FIT_TOL) and _rel_ok(fit.b, self.reference_fit.b, self.FIT_TOL)):
            problems.append(f"fit a={fit.a!r} b={fit.b!r}, reference subset gives a={self.reference_fit.a!r} b={self.reference_fit.b!r}")
        defects = [d for _, d in points]
        if not all(x > y for x, y in zip(defects, defects[1:])):
            problems.append("defects do not strictly decrease in s")
        # The paper's b only holds on the full series, so it is checked there.
        full = self.full_fit
        if not (_rel_ok(full.a, self.stored_fit["a"], self.FIT_TOL) and _rel_ok(full.b, self.stored_fit["b"], self.FIT_TOL)):
            problems.append("fit of the full reference series no longer matches the stored fit")
        if not _rel_ok(full.b, PAPER_FIT_B, 0.02):
            problems.append(f"full-series b={full.b:.6g} more than 2% from the paper's {PAPER_FIT_B}")
        return problems

    def _deep(self, tr, counts: dict) -> list:
        with tr.span("asymptotics.log_table_deep"):
            table = asymptotics.log_peri_table(self.DEEP_S, self.DEEP_N)
        with tr.span("asymptotics.regression"):
            reg = asymptotics.linear_regression(asymptotics.regression_points(table, self.REG_MIN, self.DEEP_N))
        with tr.span("asymptotics.defect"):
            violation = asymptotics.first_quotient_violation(table)
        counts["asymptotics.lse_terms"] += _lse_terms(table.n_max)
        self._deep_values = table.values
        problems = []
        # The tolerances of the acceptance criterion for this regression.
        if not (abs(reg.slope - 3.576) <= 0.01 and abs(reg.slope - math.log(36)) <= 0.01):
            problems.append(f"slope {reg.slope:.6f}")
        if not (abs(reg.intercept + 1.102) <= 0.05 and abs(reg.intercept + math.log(3)) <= 0.05):
            problems.append(f"intercept {reg.intercept:.6f}")
        if violation is not None:
            problems.append(f"quotient decreases at n={violation}")
        return problems

    def pass_metrics(self, tr, counts: dict) -> dict:
        return {
            "asymptotics.log_table_s": _median(tr.durations("asymptotics.log_table")),
            "asymptotics.log_table_deep_s": _median(tr.durations("asymptotics.log_table_deep")),
            "asymptotics.defect_s": sum(tr.durations("asymptotics.defect")),
            "asymptotics.fit_s": sum(tr.durations("asymptotics.fit")),
            "asymptotics.regression_s": sum(tr.durations("asymptotics.regression")),
        }

    def probe(self, tr, ledger: Ledger) -> dict:
        got = {}

        def op():
            with tr.span("asymptotics.log_table_rho"):
                table, rho = asymptotics.log_peri_table(self.DEEP_S, self.DEEP_N, with_rho=True)
            got["asymptotics.rho_grid_bytes"] = rho.grid.nbytes
            if self._deep_values is None or not np.array_equal(table.values, self._deep_values):
                return ["with_rho=True changed the deep table"]
            return []

        ledger.op(tr, "rho grid probe", op)
        return got


def _lse_terms(n_max: int) -> int:
    # Terms summed by the logsumexp: n - 1 for each n = 2 .. n_max.
    return n_max * (n_max - 1) // 2


class OracleSweep:
    """The formula-free oracle against the closed form and the recursion,
    and the two reducedness predicates against each other."""

    name = "oracle_sweep"
    CASES = ((1, 8), (2, 6), (3, 5), (1, 7), (2, 5))
    DEEP_SPLITS = ((1, 5), (2, 4), (3, 3))
    SMALL_SPLITS = 3
    TRIALITY = (2, 5)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # The splits with a + b = 6 at s = 2 cost the most, so each is
        # kept and only its orientation is seeded; the small ones vary.
        rooted = [(2, a, b) if rng.random() < 0.5 else (2, b, a) for a, b in self.DEEP_SPLITS]
        small = [(s, a, b) for s in (1, 2) for a in range(1, 5) for b in range(1, 6 - a)]
        self.rooted = rooted + rng.sample(small, self.SMALL_SPLITS)

    def inputs(self) -> dict:
        return {"cases": self.CASES, "rooted": self.rooted, "triality": self.TRIALITY}

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def run_pass(self, tr, ledger: Ledger) -> dict:
        counts = {"freewords.candidates": 0, "freewords.reduced": 0}
        for s, n in self.CASES:
            ledger.op(tr, f"count_reduced s={s} n={n}", self._count, tr, s, n, counts)
        memos: dict = {}
        for s, a, b in self.rooted:
            ledger.op(tr, f"rooted s={s} a={a} b={b}", self._rooted, tr, s, a, b, memos.setdefault(s, {}), counts)
        ledger.op(tr, "triality s={} n={}".format(*self.TRIALITY), self._triality, tr)
        return counts

    def _count(self, tr, s: int, n: int, counts: dict) -> list:
        with tr.span("freewords.count_reduced"):
            got = freewords.count_reduced(s, n)
        with tr.span("enumeration.closed_form"):
            want = enumeration.peri_catalan(s, n)
        counts["freewords.candidates"] += enumeration.word_count_bound(s, n)
        counts["freewords.reduced"] += got
        return [] if got == want else [f"oracle {got} != formula {want}"]

    def _rooted(self, tr, s: int, a: int, b: int, memo: dict, counts: dict) -> list:
        with tr.span("enumeration.recursion"):
            want = enumeration.aux_bivariate(s, a, b, memo)
        problems = []
        for root in freewords.ALL_OPS:
            with tr.span("freewords.rooted", label=root.name):
                got = freewords.count_reduced_rooted(s, a, b, root)
            counts["freewords.candidates"] += enumeration.word_count_bound(s, a) * enumeration.word_count_bound(s, b)
            counts["freewords.reduced"] += got
            if got != want:
                problems.append(f"root {root.name}: oracle {got} != bivariate {want}")
        return problems

    def _triality(self, tr) -> list:
        s, n = self.TRIALITY
        trees = disagree = 0
        with tr.span("freewords.triality"):
            for w in freewords.enumerate_basic_trees(s, n):
                trees += 1
                if freewords.is_reduced(w) != freewords.is_reduced_triality(w):
                    disagree += 1
        problems = []
        if disagree:
            problems.append(f"predicates disagree on {disagree} trees")
        if trees != enumeration.word_count_bound(s, n):
            problems.append(f"enumerated {trees} trees, expected {enumeration.word_count_bound(s, n)}")
        return problems

    def pass_metrics(self, tr, counts: dict) -> dict:
        count_s = sum(tr.durations("freewords.count_reduced"))
        rooted_s = sum(tr.durations("freewords.rooted"))
        candidates = counts.get("freewords.candidates", 0)
        return {
            "freewords.count_reduced_s": count_s,
            "freewords.rooted_s": rooted_s,
            "freewords.triality_s": sum(tr.durations("freewords.triality")),
            "freewords.trees_per_s": candidates / (count_s + rooted_s) if count_s + rooted_s > 0 else 0.0,
            "freewords.useful_ratio": counts.get("freewords.reduced", 0) / candidates if candidates else 0.0,
        }

    def probe(self, tr, ledger: Ledger) -> dict:
        return {}


@dataclass(frozen=True)
class Request:
    kind: str  # "read" or "write"
    sub: str  # "compute", "table" or "out" (a table written with --out)
    argv: tuple
    cells: tuple  # the (n, s) values the output must hold, in order
    fmt: str
    out: str | None


class CacheCli:
    """The pcat command against a warm on-disk cache: mostly reads, with
    writes that extend the cache beside them.  One closed-loop client."""

    name = "cache_cli"
    N0 = 300
    REQUESTS = 250
    WRITES = 38
    COMPUTE_READS = 125
    OUT_TABLES = 26
    PROBE_REPEATS = 3

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        # Narrow ranges keep the integers' size, and so the work, steady.
        self.s_pair = (rng.randint(17, 32), rng.randint(49, 64))
        self.cache_dir = os.path.join(workdir, "cache")
        self.out_dir = os.path.join(workdir, "out")
        self.probe_dir = os.path.join(workdir, "probe")
        self.requests, self.final_top = self._make_requests(rng)
        self.latencies: list = []

    def inputs(self) -> dict:
        return {"s": self.s_pair, "n0": self.N0, "requests": [r.argv for r in self.requests]}

    def _make_requests(self, rng: random.Random):
        """The mix of a pass is fixed: how many requests of each kind, how
        far the writes reach, and the table sizes as evenly spread shares
        of the cached top.  The seed picks the values and the order."""
        tables = self.REQUESTS - self.WRITES - self.COMPUTE_READS
        s1, s2 = self.s_pair
        kinds = ["write"] * self.WRITES + ["compute"] * self.COMPUTE_READS + ["table"] * tables
        rng.shuffle(kinds)
        write_s = _shuffled(rng, [self.s_pair[i % 2] for i in range(self.WRITES)])
        write_step = _shuffled(rng, [1 + i % 3 for i in range(self.WRITES)])
        share = _shuffled(rng, [(i + rng.random()) / tables for i in range(tables)])
        s_lists = _shuffled(rng, [((s1,), (s2,), (s1, s2), (s2, s1))[i % 4] for i in range(tables)])
        fmts = _shuffled(rng, [("csv", "json")[i % 2] for i in range(tables)])
        outs = _shuffled(rng, [i < self.OUT_TABLES for i in range(tables)])
        tops = {s: self.N0 for s in self.s_pair}
        requests = []
        for i, kind in enumerate(kinds):
            if kind == "write":
                s = write_s.pop()
                tops[s] += write_step.pop()
                requests.append(self._compute("write", s, tops[s]))
            elif kind == "compute":
                s = rng.choice(self.s_pair)
                requests.append(self._compute("read", s, rng.randint(1, tops[s])))
            else:
                s_list, fmt = s_lists.pop(), fmts.pop()
                n_max = max(1, math.ceil(share.pop() * min(tops[s] for s in s_list)))
                out = os.path.join(self.out_dir, f"req{i}.{fmt}") if outs.pop() else None
                argv = ["table", "--s-list", ",".join(map(str, s_list)), "--n-max", str(n_max),
                        "--format", fmt, "--cache-dir", self.cache_dir]
                if out is not None:
                    argv += ["--out", out]
                cells = tuple((n, s) for n in range(1, n_max + 1) for s in s_list)
                requests.append(Request("read", "out" if out else "table", tuple(argv), cells, fmt, out))
        return requests, tops

    def _compute(self, kind: str, s: int, n: int) -> Request:
        argv = ("compute", "--s", str(s), "--n", str(n), "--cache-dir", self.cache_dir)
        return Request(kind, "compute", argv, ((n, s),), "text", None)

    def setup(self) -> None:
        for d in (self.cache_dir, self.out_dir, self.probe_dir):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        for s in self.s_pair:
            enumeration.build_table(s, self.N0, self.cache_dir)
        # The checks' reference, from the recursion route and never from
        # the cache; one value past the final top serves the extend probe.
        self.reference = {}
        for s, top in self.final_top.items():
            memo: dict = {}
            self.reference[s] = [enumeration.peri_catalan_recursive(s, n, memo) for n in range(top + 2)]
        self.snapshot = {}
        for name in os.listdir(self.cache_dir):
            with open(os.path.join(self.cache_dir, name), "rb") as fh:
                self.snapshot[name] = fh.read()

    def reset(self) -> None:
        # Every pass starts from the cache as setup left it.
        for d in (self.cache_dir, self.out_dir):
            shutil.rmtree(d)
            os.makedirs(d)
        for name, data in self.snapshot.items():
            with open(os.path.join(self.cache_dir, name), "wb") as fh:
                fh.write(data)

    def run_pass(self, tr, ledger: Ledger) -> dict:
        self.latencies = []
        for req in self.requests:
            ledger.op(tr, " ".join(req.argv[:5]), self._request, tr, req)
        return {"enumeration.cache_bytes": sum(
            os.path.getsize(os.path.join(self.cache_dir, name)) for name in os.listdir(self.cache_dir))}

    def _request(self, tr, req: Request) -> list:
        out, err = io.StringIO(), io.StringIO()
        with tr.span(f"cli.{req.sub}"):
            t0 = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    rc = cli.main(list(req.argv))
                except SystemExit as e:  # argparse rejects a request this way
                    rc = e.code
            ms = (perf_counter() - t0) * 1e3
        self.latencies.append((req.kind, ms))
        if rc != 0:
            return [f"exit code {rc}: {err.getvalue().strip()}"]
        if req.out is not None:
            with open(req.out, encoding="utf-8") as fh:
                text = fh.read()
            os.unlink(req.out)
        else:
            text = out.getvalue()
        got = _parse_cells(text, req.fmt)
        want = [(n, s, self.reference[s][n]) for n, s in req.cells]
        if req.fmt == "text":
            want = [v for _, _, v in want]
        if got != want:
            return [f"output differs from the recursion route ({len(got)} values, {len(want)} expected)"]
        return []

    def pass_metrics(self, tr, counts: dict) -> dict:
        return {f"cli.{sub}_ms": _median(tr.durations(f"cli.{sub}")) * 1e3 for sub in ("compute", "table", "out")}

    def latency_metrics(self, latencies: list) -> dict:
        reads = [ms for kind, ms in latencies if kind == "read"]
        writes = [ms for kind, ms in latencies if kind == "write"]
        return {
            "cli.read_p50_ms": _median(reads),
            "cli.read_p90_ms": statistics.quantiles(reads, n=10)[-1] if len(reads) >= 2 else 0.0,
            "cli.write_p50_ms": _median(writes),
            "cli.read_samples": len(reads),
            "cli.write_samples": len(writes),
        }

    def probe(self, tr, ledger: Ledger) -> dict:
        tops = self.final_top
        got = _euclid_probe(tr, ledger, [n for s in self.s_pair for n in range(self.N0 + 1, tops[s] + 1)])

        def load(s):
            with tr.span("enumeration.cache_load"):
                table = enumeration.build_table(s, tops[s], self.cache_dir)
            return [] if table.values == self.reference[s][: tops[s] + 1] else ["warm load served a wrong value"]

        def extend(s):
            shutil.rmtree(self.probe_dir)
            shutil.copytree(self.cache_dir, self.probe_dir)
            with tr.span("enumeration.cache_extend"):
                table = enumeration.build_table(s, tops[s] + 1, self.probe_dir)
            return [] if table[tops[s] + 1] == self.reference[s][tops[s] + 1] else ["extension computed a wrong value"]

        for _ in range(self.PROBE_REPEATS):
            for s in self.s_pair:
                ledger.op(tr, f"cache load s={s}", load, s)
                ledger.op(tr, f"cache extend s={s}", extend, s)
        got["enumeration.cache_load_s"] = _median(tr.durations("enumeration.cache_load"))
        got["enumeration.cache_extend_s"] = _median(tr.durations("enumeration.cache_extend"))
        return got


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


def _parse_cells(text: str, fmt: str) -> list:
    if fmt == "text":
        return [int(text)]
    if fmt == "json":
        return [(row["n"], row["s"], row["P"]) for row in json.loads(text)]
    lines = text.splitlines()
    if not lines or lines[0] != "n,s,P":
        raise ValueError(f"unexpected csv header {lines[:1]}")
    return [tuple(int(x) for x in line.split(",")) for line in lines[1:]]


WORKLOADS = {w.name: w for w in (ExactTable, LogGrowth, OracleSweep, CacheCli)}
