"""Log-space evaluation of the reduced-word counts and growth diagnostics.

Exact values overflow usefulness long before n = 2800, so this module
carries ln P(s, n) as doubles.  The k-block of the recursion is scaled:
with rho(a, b) = m(a, b) / (P_a P_b) the subtractive step becomes

    rho(a, b) = 1 - rho(a - b, b) * exp(l_{a-b} - l_a)      (a >= b)

which subtracts a quantity no larger than exp(l_{a-b} - l_a) <= 1/3
from 1, so no catastrophic cancelation can occur; rho stays in (0, 1]
with rho(a, a) = 1.  Then

    l_n = ln 3 + logsumexp_k [ ln rho(n-k, k) + l_{n-k} + l_k ]

The terms are symmetric in (n-k, k), so each n sums the canonical half
n-k >= k of the ratios it has just computed in one max-shifted numpy
logsumexp, off-diagonal terms weighted 2 and the diagonal (even n) 1.
This is deterministic for a fixed numpy build, but not bit-identical to
earlier commits, which summed all n-1 terms in ascending k.  Tables
past n = LOG_CEILING are refused: the (n+1)^2 grid outgrows memory.

Also here: the normalized growth quotient l_n / ln(bound), its
complement the cancelation defect, ordinary least squares, and the
rational fit defect ~ a / (s - b).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceGuardError, StabilityError

_LOG3 = math.log(3.0)

LOG_CEILING = 10_000  # largest n_max of a log table: a 0.8 GB ratio grid


def _log_catalan_array(n_max: int) -> np.ndarray:
    # lc[n] = ln(number of n-leaf binary tree shapes); exact bigint
    # running value, so each entry is correct to the last ulp.
    lc = np.empty(n_max + 1)
    lc[0] = np.nan
    c = 1
    for m in range(1, n_max + 1):
        lc[m] = math.log(c)
        c = c * (2 * (2 * m - 1)) // (m + 1)
    return lc


@dataclass(frozen=True)
class LogTable:
    """ln P(s, n) for n = 1 .. n_max plus companion ln-Catalan values."""

    s: int
    values: np.ndarray
    catalan_values: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def log_value(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"n={n} outside table range 1..{self.n_max}")
        return float(self.values[n])

    def log_catalan(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"n={n} outside table range 1..{self.n_max}")
        return float(self.catalan_values[n])

    def log_bound(self, n: int) -> float:
        """ln of the total tree count 3^(n-1) s^n C_n."""
        return self.log_catalan(n) + n * math.log(3 * self.s) - _LOG3

    __getitem__ = log_value


@dataclass(frozen=True)
class RhoMemo:
    """Cancelation ratios rho(a, b) on canonical pairs a >= b >= 1 with
    a + b <= n_max."""

    n_max: int
    grid: np.ndarray

    def value(self, a: int, b: int) -> float:
        hi, lo = (a, b) if a >= b else (b, a)
        if lo < 1 or hi + lo > self.n_max:
            raise DomainError(f"rho({a}, {b}) outside computed range (pair sum <= {self.n_max})")
        return float(self.grid[hi, lo])

    def items(self):
        for d in range(2, self.n_max + 1):
            for hi in range((d + 1) // 2, d):
                yield (hi, d - hi), float(self.grid[hi, d - hi])


def log_peri_table(s: int, n_max: int, with_rho: bool = False):
    """Build the LogTable for s up to n_max (and the RhoMemo on request)."""
    if s < 1:
        raise DomainError(f"log_peri_table needs s >= 1, got {s}")
    if n_max < 2:
        raise DomainError(f"log_peri_table needs n_max >= 2, got {n_max}")
    if n_max > LOG_CEILING:
        raise ResourceGuardError(
            f"log table past n={LOG_CEILING} refused (requested n={n_max}: "
            f"a {(n_max + 1) ** 2 * 8 / 1e9:.1f} GB ratio grid)"
        )
    lc = _log_catalan_array(n_max)
    lp = np.empty(n_max + 1)
    lp[0] = -math.inf
    lp[1] = math.log(s)
    grid = np.full((n_max + 1, n_max + 1), np.nan)
    grid[0, :] = 1.0
    grid[:, 0] = 1.0
    for n in range(2, n_max + 1):
        hi = np.arange((n + 1) // 2, n)
        lo = n - hi
        d = hi - lo
        prev = grid[np.maximum(d, lo), np.minimum(d, lo)]
        vals = 1.0 - prev * np.exp(lp[d] - lp[hi])
        bad = ~(vals > 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            raise StabilityError(
                f"cancelation ratio not in (0, 1] at s={s}, n={n}, k={int(lo[i])}: rho={vals[i]!r}"
            )
        np.minimum(vals, 1.0, out=vals)
        grid[hi, lo] = vals
        terms = np.log(vals) + lp[hi] + lp[lo]
        top = terms.max()
        w = np.exp(terms - top)
        if n % 2 == 0:
            w[0] *= 0.5  # the diagonal hi == lo appears once, not twice
        lp[n] = _LOG3 + top + math.log(2.0 * w.sum())
    lp.setflags(write=False)
    lc.setflags(write=False)
    grid.setflags(write=False)
    table = LogTable(s=s, values=lp, catalan_values=lc)
    if with_rho:
        return table, RhoMemo(n_max=n_max, grid=grid)
    return table


def quotient(s: int, n: int, table: LogTable) -> float:
    """Normalized growth: ln P(s, n) over ln of the total tree count.

    Always in (0, 1]: the count never exceeds the bound, with equality
    exactly at n = 2, where plain float division can overshoot 1 by an
    ulp; that proven-impossible excess is clamped away.
    """
    if n < 2:
        raise DomainError(f"quotient needs n >= 2 (denominator vanishes at s=1, n=1), got {n}")
    if table.s != s:
        raise DomainError(f"table holds s={table.s}, not s={s}")
    return min(1.0, table.log_value(n) / table.log_bound(n))


def cancelation_defect(s: int, n: int, table: LogTable) -> float:
    """1 - quotient: the growth share destroyed by cancelation."""
    return 1.0 - quotient(s, n, table)


def defect_series(s_values, proxy_n: int = 2000):
    """(s, defect at proxy_n) for each s, one log table per s."""
    out = []
    for s in s_values:
        table = log_peri_table(s, proxy_n)
        out.append((s, cancelation_defect(s, proxy_n, table)))
    return out


def quotient_rows(table: LogTable):
    """(n, ln P, ln bound, quotient) for n = 2 .. n_max."""
    return [
        (n, table.log_value(n), table.log_bound(n), quotient(table.s, n, table))
        for n in range(2, table.n_max + 1)
    ]


def first_quotient_violation(table: LogTable, n_start: int = 3, slack: float = 1e-12):
    """Smallest n with quotient(n) < quotient(n-1) - slack, or None.

    The scan starts at n_start = 3 by default: the bound is exact for
    n < 3, so the quotient is exactly 1 at n = 2 and the step to n = 3
    always decreases; monotone growth is only expected from 3 on.
    """
    if table.n_max < n_start + 1:
        return None
    prev = quotient(table.s, n_start, table)
    for n in range(n_start + 1, table.n_max + 1):
        cur = quotient(table.s, n, table)
        if cur < prev - slack:
            return n
        prev = cur
    return None


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    residual_stderr: float


def linear_regression(points) -> RegressionResult:
    """Ordinary least squares on (x, y) pairs."""
    pts = list(points)
    if len(pts) < 2:
        raise DomainError(f"regression needs >= 2 points, got {len(pts)}")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    dx = x - x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DomainError("regression needs distinct x values")
    slope = float(dx @ (y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (slope * x + intercept)
    dof = len(pts) - 2 if len(pts) > 2 else 1
    stderr = math.sqrt(float(resid @ resid) / dof)
    return RegressionResult(slope=slope, intercept=intercept, residual_stderr=stderr)


def regression_points(table: LogTable, n_min: int, n_max: int):
    """(n, ln P - ln C_n) pairs, the series whose slope approaches ln 3s."""
    if not 2 <= n_min <= n_max <= table.n_max:
        raise DomainError(f"need 2 <= n_min <= n_max <= {table.n_max}, got [{n_min}, {n_max}]")
    return [(n, table.log_value(n) - table.log_catalan(n)) for n in range(n_min, n_max + 1)]


@dataclass(frozen=True)
class RationalFitResult:
    a: float
    b: float
    residual_stderr: float


def rational_fit(points) -> RationalFitResult:
    """Least-squares fit of f ~ a / (s - b), minimizing the residuals of
    f itself (Gauss-Newton), not of 1/f.

    An unweighted fit of the reciprocal would be dominated by the large-s
    tail, where 1/f is huge and visibly convex in s; weighting the
    linearized residuals by f**4 makes them agree with the direct ones to
    first order, and that weighted solution seeds the Gauss-Newton loop.
    """
    pts = list(points)
    if len(pts) < 2:
        raise DomainError(f"rational fit needs >= 2 points, got {len(pts)}")
    if any(f <= 0 for _, f in pts):
        raise DomainError("rational fit needs all f > 0")
    if len({p[0] for p in pts}) < 2:
        raise DomainError("rational fit needs distinct s values")
    s = np.array([p[0] for p in pts], dtype=float)
    f = np.array([p[1] for p in pts], dtype=float)
    w = f * f  # sqrt of the f**4 residual weights
    design = np.vstack([s * w, w]).T
    coef, *_ = np.linalg.lstsq(design, np.ones_like(f) * w / f, rcond=None)
    if coef[0] == 0.0:
        raise DomainError("rational fit degenerate: zero slope in linearized model")
    a = 1.0 / coef[0]
    b = -coef[1] * a
    for _ in range(60):
        denom = s - b
        if np.any(denom == 0.0):
            break
        model = a / denom
        jac = np.vstack([1.0 / denom, a / denom ** 2]).T
        step, *_ = np.linalg.lstsq(jac, f - model, rcond=None)
        a += float(step[0])
        b += float(step[1])
        if abs(step[0]) <= 1e-14 * abs(a) and abs(step[1]) <= 1e-14 * abs(b):
            break
    resid = f - a / (s - b)
    dof = len(pts) - 2 if len(pts) > 2 else 1
    stderr = math.sqrt(float(resid @ resid) / dof)
    return RationalFitResult(a=a, b=b, residual_stderr=stderr)


def format_float(x: float) -> str:
    """Lossless decimal form used in CSV output."""
    return f"{x:.17g}"


def quotient_csv(table: LogTable) -> str:
    lines = ["n,logP,logBound,quotient"]
    for n, lv, lb, q in quotient_rows(table):
        lines.append(f"{n},{format_float(lv)},{format_float(lb)},{format_float(q)}")
    return "\n".join(lines) + "\n"


def defect_csv(series) -> str:
    lines = ["s,defect"]
    for s, d in series:
        lines.append(f"{s},{format_float(d)}")
    return "\n".join(lines) + "\n"
