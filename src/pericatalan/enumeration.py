"""Exact counting of reduced words on s free generators.

P(s, 0) = 0, P(s, 1) = s, and for n >= 2 the count decomposes over the
length k of the right factor at the root.  Two independent evaluators
are kept side by side:

* peri_catalan: the closed form.  Each (n, k) block is a signed sum of
  products P(s, i) * P(s, j) whose indices and signs come straight from
  the division-algorithm trace of (n, k).
* peri_catalan_recursive: bootstraps the same numbers through the
  auxiliary bivariate count m(a, b) = P_a P_b - m(a - b, b), m(a, b) = 0
  whenever a <= 0 or b <= 0, which subtracts the words lost to root
  cancelation.  P(s, n) = 3 * sum_k m(n - k, k).

The two routes share no code below the P_0/P_1 base cases, so agreement
between them is a real consistency check, exercised in the test suite.

All arithmetic is exact (Python integers).  build_table adds an opt-in
plain-text cache, one file per s, so repeated runs extend rather than
recompute.  Its header carries a sha256 digest of the body, so a changed
digit is refused, not served.
"""

import os
import tempfile
from dataclasses import dataclass, field
from math import comb

from .errors import CacheError, CacheIntegrityError, DomainError
from .euclid import euclid_trace

# CPython's own sha256 where it has one: hashlib loads OpenSSL at import,
# which adds about 3.6 MB to the resident size of every process.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

CACHE_MAGIC = "pcat-cache v2"
_CACHE_V1 = "pcat-cache v1"  # no digest: such a file is recomputed, never read


def catalan(n: int) -> int:
    """Number of parsing shapes of a word with n leaves (1, 1, 2, 5, 14, ...)."""
    if n < 1:
        raise DomainError(f"catalan needs n >= 1, got {n}")
    return comb(2 * n - 2, n - 1) // n


def word_count_bound(s: int, n: int) -> int:
    """Total count of basic parsing trees: 3^(n-1) * s^n * catalan(n).

    An upper bound for the reduced count, exact only for n < 3.
    """
    if s < 1 or n < 1:
        raise DomainError(f"word_count_bound needs s >= 1 and n >= 1, got s={s} n={n}")
    return 3 ** (n - 1) * s**n * catalan(n)


def _closed_form_value(s: int, n: int, p: list) -> int:
    # p[j] must hold P(s, j) for 1 <= j < n.
    if n == 1:
        return s
    total = 0
    for k in range(1, n):
        tr = euclid_trace(n, k)
        r, q, eps = tr.remainders, tr.quotients, tr.epsilons
        block = 0
        # r[i + 1] is r_i; q[i] is q_{i+1}; eps[i] is eps_i.
        for j in range(1, q[0]):
            term = p[r[0] - j * r[1]] * p[r[1]]
            block += -term if (eps[0] + j) & 1 else term
        for i in range(1, tr.steps + 1):
            r_prev, r_cur, q_next, e = r[i], r[i + 1], q[i], eps[i]
            for j in range(q_next):
                term = p[r_prev - j * r_cur] * p[r_cur]
                block += -term if (e + j) & 1 else term
        if block < 0:
            raise AssertionError(f"negative block at s={s} n={n} k={k}: {block}")
        total += block
    return 3 * total


def peri_catalan(s: int, n: int) -> int:
    """Reduced-word count via the closed form."""
    if s < 1 or n < 0:
        raise DomainError(f"peri_catalan needs s >= 1 and n >= 0, got s={s} n={n}")
    if n == 0:
        return 0
    values = [0, s]
    _extend_values(s, values, n)
    return values[n]


def _aux(s: int, a: int, b: int, memo: dict) -> int:
    # memo keys: ("p", j) -> P(s, j); ("m", hi, lo) with hi >= lo -> m(a, b).
    if a <= 0 or b <= 0:
        return 0
    hi, lo = (a, b) if a >= b else (b, a)
    _need_p(s, hi, memo)
    stack = []
    while True:
        key = ("m", hi, lo)
        if key in memo:
            val = memo[key]
            break
        if hi == lo:
            val = memo[("p", hi)] ** 2
            memo[key] = val
            break
        stack.append((hi, lo))
        d = hi - lo
        hi, lo = (d, lo) if d >= lo else (lo, d)
    while stack:
        hi, lo = stack.pop()
        val = memo[("p", hi)] * memo[("p", lo)] - val
        memo[("m", hi, lo)] = val
    return val


def _need_p(s: int, n: int, memo: dict) -> None:
    # Fill memo with P(s, j) for j <= n through the subtractive recursion.
    top = memo.get("p_top")
    if top is None:
        memo[("p", 0)] = 0
        memo[("p", 1)] = s
        top = 1
    if top >= n:
        return
    for j in range(top + 1, n + 1):
        memo["p_top"] = j - 1
        memo[("p", j)] = 3 * sum(_aux(s, j - k, k, memo) for k in range(1, j))
    memo["p_top"] = n


def _claim_memo(s: int, memo: dict) -> None:
    # A memo dict is bound to one s for its whole life.
    owner = memo.setdefault("s", s)
    if owner != s:
        raise DomainError(f"memo already holds values for s={owner}, not s={s}")


def aux_bivariate(s: int, a: int, b: int, memo: dict | None = None) -> int:
    """m(a, b): reduced pairs (U, V) with |U| = a, |V| = b whose product
    at a fixed basic root stays reduced.  Symmetric; zero off the domain.

    Pass the same dict as memo across calls (same s only) to share work.
    """
    if s < 1:
        raise DomainError(f"aux_bivariate needs s >= 1, got {s}")
    if memo is None:
        memo = {}
    _claim_memo(s, memo)
    return _aux(s, a, b, memo)


def peri_catalan_recursive(s: int, n: int, memo: dict | None = None) -> int:
    """Reduced-word count via the subtractive recursion, bypassing the
    closed form entirely."""
    if s < 1 or n < 0:
        raise DomainError(f"peri_catalan_recursive needs s >= 1 and n >= 0, got s={s} n={n}")
    if n == 0:
        return 0
    if memo is None:
        memo = {}
    _claim_memo(s, memo)
    _need_p(s, n, memo)
    return memo[("p", n)]


@dataclass
class PeriTable:
    """Exact counts P(s, n) for n = 0 .. n_max, plus an optional memo of
    auxiliary m values keyed by canonical (max, min) pairs."""

    s: int
    values: list
    m_values: dict = field(default_factory=dict)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise DomainError(f"n={n} outside table range 0..{self.n_max}")
        return self.values[n]

    def aux(self, a: int, b: int) -> int:
        """m(a, b) computed from this table's P values; memoized."""
        if a <= 0 or b <= 0:
            return 0
        hi, lo = (a, b) if a >= b else (b, a)
        if hi > self.n_max:
            raise DomainError(f"aux({a}, {b}) needs P values up to {hi}, table stops at {self.n_max}")
        # Descend to a memoized pair or to lo = 0 (m vanishes), then
        # unwind.  Iterative: the walk from (n, 1) takes n steps.
        p, memo = self.values, self.m_values
        stack = []
        val = 0
        while lo > 0:
            got = memo.get((hi, lo))
            if got is not None:
                val = got
                break
            stack.append((hi, lo))
            d = hi - lo
            hi, lo = (d, lo) if d >= lo else (lo, d)
        while stack:
            hi, lo = stack.pop()
            val = p[hi] * p[lo] - val
            memo[(hi, lo)] = val
        return val


def _extend_values(s: int, values: list, n_max: int) -> None:
    while len(values) <= n_max:
        values.append(_closed_form_value(s, len(values), values))


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory and
    os.replace, so a reader sees the old file or the new one, never a
    partial write.  The temp file is removed on any failure; OSError
    propagates for the caller to report."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".pcat-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_path(cache_dir: str, s: int) -> str:
    return os.path.join(cache_dir, f"pcat-s{s}.txt")


def _load_cache(path: str, s: int) -> list | None:
    # The values of a valid v2 file; None when there is no file or only
    # an untrusted v1 one.
    try:
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
    except FileNotFoundError:
        return None
    except OSError as e:
        raise CacheError(f"cannot read cache {path}: {e}") from e
    if header == f"{_CACHE_V1} s={s}".encode():
        return None
    prefix = f"{CACHE_MAGIC} s={s} sha256=".encode()
    if not header.startswith(prefix):
        raise CacheIntegrityError(f"bad cache header in {path}")
    if header[len(prefix):] != sha256(body).hexdigest().encode():
        raise CacheIntegrityError(f"{path}: body does not match the sha256 digest in its header")
    try:
        lines = body.decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        raise CacheIntegrityError(f"{path}: non-ASCII body") from e
    values = [0]
    bound = s  # word_count_bound(s, n), carried from n to n + 1
    for lineno, line in enumerate(lines, start=2):
        parts = line.split()
        if len(parts) != 2:
            raise CacheIntegrityError(f"{path}:{lineno}: expected '<n> <value>'")
        try:
            n, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise CacheIntegrityError(f"{path}:{lineno}: non-integer field") from e
        if n != len(values):
            raise CacheIntegrityError(f"{path}:{lineno}: expected n={len(values)}, got {n}")
        if v < 0 or v > bound:
            raise CacheIntegrityError(f"{path}:{lineno}: value out of range for s={s} n={n}")
        values.append(v)
        bound = bound * 3 * s * 2 * (2 * n - 1) // (n + 1)
    if len(values) < 2:
        raise CacheIntegrityError(f"{path}: no entries")
    if values[1] != s:
        raise CacheIntegrityError(f"{path}: P(s,1)={values[1]} != s={s}")
    if len(values) > 2 and values[2] != 3 * s * s:
        raise CacheIntegrityError(f"{path}: P(s,2)={values[2]} != 3*s^2")
    return values


def _save_cache(path: str, s: int, values: list) -> None:
    body = "".join(f"{n} {values[n]}\n" for n in range(1, len(values)))
    digest = sha256(body.encode("ascii")).hexdigest()
    try:
        write_atomic(path, f"{CACHE_MAGIC} s={s} sha256={digest}\n{body}")
    except OSError as e:
        raise CacheError(f"cannot write cache {path}: {e}") from e


def build_table(s: int, n_max: int, cache_dir: str | None = None) -> PeriTable:
    """Compute (or load, extend and re-save) P(s, n) for n = 0 .. n_max.

    A v1 cache file (no digest) is not trusted: the column is recomputed
    to n_max and the file rewritten as v2."""
    if s < 1 or n_max < 1:
        raise DomainError(f"build_table needs s >= 1 and n_max >= 1, got s={s} n_max={n_max}")
    if cache_dir is None:
        values = [0, s]
        _extend_values(s, values, n_max)
        return PeriTable(s=s, values=values)
    path = _cache_path(cache_dir, s)
    values = _load_cache(path, s)
    if values is None:
        values = [0, s]
    elif len(values) - 1 >= n_max:
        return PeriTable(s=s, values=values[: n_max + 1])
    _extend_values(s, values, n_max)
    _save_cache(path, s, values)
    return PeriTable(s=s, values=values)
