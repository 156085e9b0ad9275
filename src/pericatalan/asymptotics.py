r"""Log-space evaluation of the reduced-word counts and growth diagnostics.

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
This is deterministic for a fixed numpy build.

Most ratios of a row are exactly 1.0 and are neither computed nor
stored.  That rests on a lemma: P(s, n + 1) >= 3s P(s, n).  Take a
reduced word w with n leaves, a generator x and an op in {*, \, /}.
(w op x) is reduced unless w = B/x (for *), x/B (for \) or B*x (for
/), and then (x op w) is reduced: its root pattern would need w = x\B,
x*B or B\x, and w's root is another op.  For n >= 2 the map is
injective ((w op x) has a non-leaf left child, (x op w) a leaf); at
n = 1, P(s, 2) = 3s^2.  So every step l_{j+1} - l_j is at least
g = ln 3s, and every ratio with lo > W = int(40 / g) + 1 has
l_hi - l_d >= lo g > 40, so t = rho * exp(l_d - l_hi) < e^-40 < 2^-54
and 1 - t == 1.0 in double precision; the float error of l (relative
1.8e-15 to n = 1000) is far inside that margin.  Only the last W ratios
of a row (12 at s = 12, 37 at s = 1) are computed; the exp of the others
would underflow, which is slow on some CPUs.  Their logsumexp terms
start at log(1.0) = 0.0, so every l is bit-identical to computing the
row in full.  A step below g past n = 2 (whose step is ln 3s to an ulp)
raises StabilityError.  ln C_n is computed once for the longest table
so far; shorter tables get read-only views.

rho is kept in a band, band[d, b] = rho(d - b, b), of
min(W, n_max // 2) + 1 columns; everything off it is 1.0.  Row n's
tail is band[n, width:0:-1], every l operand of its step is a slice of
l, and the one gather reads band[hi, min(d, lo)] (d = 2 hi - n).  The
even-n diagonal reads column 0 through a factor exp(l_0 - l_hi) = 0.

Also here: the normalized growth quotient l_n / ln(bound) as one array
series, its complement the cancelation defect, ordinary least squares,
and the rational fit defect ~ a / (s - b).  A LogTable is read only as
its arrays: regression_points slices them into one (K, 2) array, and
both fits take such an array or a list of pairs.  This module returns
numbers; the command line owns every output layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceGuardError, StabilityError

_LOG3 = math.log(3.0)

# largest n_max of a log table.  It bounds time: a table sums about n^2/4
# logsumexp terms, 0.2-0.35 s at n = 10 000.  The band is (n + 1)(W + 1)
# doubles, 3.0 MB at s = 1.
LOG_CEILING = 10_000

# largest price of a defect_series request, in logsumexp terms.  A table's
# rows cost numpy calls whatever their length: each is counted as
# _ROW_TERMS terms, about its 15-25 us against 3.8 ns a term (2 vCPUs).
# The pcat fit defaults, 100 tables at n = 2000 (3-6 s), cost 9.2e8; the
# limit admits 1087 such tables, 151 at n = 10 000 or 610 277 at n = 3,
# which took 34, 33 and 26 s.
DEFECT_CEILING = 10**10
_ROW_TERMS = 4096


_CUT = 40.0  # exp(-40) < 2^-54: 1 - t rounds to exactly 1.0 below it

_lc = np.empty(0)  # the longest read-only ln C_n array built so far


def _log_catalan_array(n_max: int) -> np.ndarray:
    # lc[n] = ln(number of n-leaf binary tree shapes); exact bigint
    # running value, so each entry is correct to the last ulp and does
    # not depend on n_max: a read-only prefix view of a longer build is
    # the same array.
    global _lc
    if len(_lc) <= n_max:
        lc = np.empty(n_max + 1)
        lc[0] = np.nan
        c = 1
        for m in range(1, n_max + 1):
            lc[m] = math.log(c)
            c = c * (2 * (2 * m - 1)) // (m + 1)
        lc.setflags(write=False)
        _lc = lc
    return _lc[:n_max + 1]


@dataclass(frozen=True)
class LogTable:
    """ln P(s, n) for n = 1 .. n_max plus companion ln-Catalan values."""

    s: int
    values: np.ndarray
    catalan_values: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class RhoMemo:
    """Cancelation ratios on canonical pairs a >= b: rho(a, b) is
    grid[a + b, b], and exactly 1.0 for b past the band's columns."""

    grid: np.ndarray


def log_peri_table(s: int, n_max: int, with_rho: bool = False):
    """Build the LogTable for s up to n_max (and the RhoMemo on request)."""
    if s < 1:
        raise DomainError(f"log_peri_table needs s >= 1, got {s}")
    if n_max < 2:
        raise DomainError(f"log_peri_table needs n_max >= 2, got {n_max}")
    if n_max > LOG_CEILING:
        raise ResourceGuardError(f"log table past n={LOG_CEILING} (requested n={n_max})")
    lc = _log_catalan_array(n_max)
    lp = np.empty(n_max + 1)
    lp[0] = -math.inf
    lp[1] = math.log(s)
    g = math.log(3 * s)  # every step lp[j+1] - lp[j] is at least ln 3s (module docstring)
    cols = min(int(_CUT / g) + 1, n_max // 2)  # W: only lo <= W can give rho < 1
    band = np.ones((n_max + 1, cols + 1))  # band[d, b] = rho(d - b, b); 1.0 where not computed
    idx = np.arange(n_max + 1)
    for n in range(2, n_max + 1):
        # hi = h0 .. n-1 ascending, lo = n - hi descending, d = hi - lo = 2 hi - n
        h0 = (n + 1) // 2
        m = n - h0
        width = min(m, cols)  # the first m - width entries of the row are exactly 1.0
        c0 = n - width  # the first hi computed; d0 its d
        d0 = 2 * c0 - n
        lo = idx[width:0:-1]
        t = np.exp(lp[d0:n - 1:2] - lp[c0:n])
        t *= band[idx[c0:n], np.minimum(idx[d0:n - 1:2], lo)]  # rho(max(d, lo), min(d, lo))
        tail = np.subtract(1.0, t, out=band[n, width:0:-1])  # at most 1: t >= 0
        if not tail.min() > 0.0:
            i = int(np.argmax(~(tail > 0.0)))
            raise StabilityError(
                f"cancelation ratio not in (0, 1] at s={s}, n={n}, k={int(lo[i])}: rho={tail[i]!r}"
            )
        terms = np.zeros(m)
        np.log(tail, out=terms[m - width:])
        terms += lp[h0:n]
        terms += lp[m:0:-1]
        top = terms.max()
        terms -= top
        w = np.exp(terms, out=terms)
        if n % 2 == 0:
            w[0] *= 0.5  # the diagonal hi == lo appears once, not twice
        lp[n] = _LOG3 + top + math.log(2.0 * w.sum())
        if n >= 3 and not lp[n] - lp[n - 1] >= g:
            raise StabilityError(f"log step below ln 3s at s={s}, n={n}: {lp[n] - lp[n - 1]!r} < {g!r}")
    lp.setflags(write=False)
    band.setflags(write=False)
    table = LogTable(s=s, values=lp, catalan_values=lc)
    if with_rho:
        return table, RhoMemo(grid=band)
    return table


def quotient_series(table: LogTable, n_start: int = 2):
    """Arrays n, ln P, ln bound and quotient for n = n_start .. n_max.

    The bound is the total tree count 3^(n-1) s^n C_n, and the quotient
    ln P / ln bound is always in (0, 1]: the count never exceeds the
    bound, with equality exactly at n = 2, where plain float division can
    overshoot 1 by an ulp; that proven-impossible excess is clamped away.
    """
    if n_start < 2:
        raise DomainError(f"quotient needs n >= 2 (denominator vanishes at s=1, n=1), got {n_start}")
    n = np.arange(n_start, table.n_max + 1)
    log_p = table.values[n_start:]
    log_bound = table.catalan_values[n_start:] + n * math.log(3 * table.s) - _LOG3
    return n, log_p, log_bound, np.minimum(1.0, log_p / log_bound)


def quotient(s: int, n: int, table: LogTable) -> float:
    """Normalized growth at one n: the quotient of quotient_series."""
    if table.s != s:
        raise DomainError(f"table holds s={table.s}, not s={s}")
    if n > table.n_max:
        raise DomainError(f"n={n} outside table range 1..{table.n_max}")
    return float(quotient_series(table, n)[3][0])


def cancelation_defect(s: int, n: int, table: LogTable) -> float:
    """1 - quotient: the growth share destroyed by cancelation."""
    return 1.0 - quotient(s, n, table)


def defect_series(s_values, proxy_n: int = 2000):
    """(s, defect at proxy_n) for each s, one log table per s.

    s_values is a list, tuple or range; an iterator or a set raises
    TypeError.  The whole request is priced before its first table: each
    table at its proxy_n**2 // 4 logsumexp terms plus its proxy_n + 1
    rows at _ROW_TERMS terms each, against DEFECT_CEILING, read at call
    time.  The tables are counted only up to the first one past the
    limit, so a huge range is priced in small integers."""
    if proxy_n < 2:
        raise DomainError(f"defect_series needs proxy_n >= 2, got {proxy_n}")
    per_table = _ROW_TERMS * (proxy_n + 1) + proxy_n * proxy_n // 4
    tables = len(s_values[:DEFECT_CEILING // per_table + 1])
    if tables * per_table > DEFECT_CEILING:
        raise ResourceGuardError(
            f"defect series of at least {tables} log tables to n={proxy_n} costs at least"
            f" {tables * per_table} logsumexp terms, over the {DEFECT_CEILING} limit"
        )
    out = []
    for s in s_values:
        table = log_peri_table(s, proxy_n)
        out.append((s, cancelation_defect(s, proxy_n, table)))
    return out


def first_quotient_violation(table: LogTable):
    """Smallest n >= 4 with quotient(n) < quotient(n-1) - 1e-12, or None.

    The scan starts at n = 3: the bound is exact for n < 3, so the
    quotient is exactly 1 at n = 2 and the step to n = 3 always
    decreases; monotone growth is only expected from 3 on.
    """
    n, _, _, q = quotient_series(table, 3)
    hits = np.flatnonzero(q[1:] < q[:-1] - 1e-12)
    return int(n[hits[0] + 1]) if hits.size else None


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    residual_stderr: float


def linear_regression(points) -> RegressionResult:
    """Ordinary least squares on (x, y) pairs: a list or a (K, 2) array."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise DomainError(f"regression needs >= 2 points, got {len(pts)}")
    x, y = pts[:, 0], pts[:, 1]
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


def regression_points(table: LogTable, n_min: int, n_max: int) -> np.ndarray:
    """(K, 2) array of rows (n, ln P - ln C_n), the series whose slope
    approaches ln 3s."""
    if not 2 <= n_min <= n_max <= table.n_max:
        raise DomainError(f"need 2 <= n_min <= n_max <= {table.n_max}, got [{n_min}, {n_max}]")
    span = slice(n_min, n_max + 1)
    return np.column_stack((np.arange(n_min, n_max + 1), table.values[span] - table.catalan_values[span]))


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
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise DomainError(f"rational fit needs >= 2 points, got {len(pts)}")
    s, f = pts[:, 0], pts[:, 1]
    if np.any(f <= 0):
        raise DomainError("rational fit needs all f > 0")
    if np.all(s == s[0]):
        raise DomainError("rational fit needs distinct s values")
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
