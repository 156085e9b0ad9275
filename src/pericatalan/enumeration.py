"""Exact counting of reduced words on s free generators.

P(s, 0) = 0, P(s, 1) = s, and for n >= 2 the count decomposes over the
length k of the right factor at the root.  Two independent evaluators
are kept side by side:

* peri_catalan: the closed form.  Each (n, k) block is a signed sum of
  products P(s, i) * P(s, j) whose indices and signs come straight from
  the division-algorithm trace of (n, k).  The trace is walked inline
  with divmod from the canonical pair (n - k, k), and block n - k is the
  same walk, so only k <= n/2 is walked: P(s, n) = 3 * (2 * off + diag),
  with diag the block k = n/2 of an even n, the halved sum of the
  recursion below.  Each step's common factor P(s, r_cur) is taken out
  of its alternating sum, so a step costs one bigint product.  Each
  walked block is asserted nonnegative.
* peri_catalan_recursive: bootstraps the same numbers through the
  auxiliary bivariate count m(a, b) = P_a P_b - m(a - b, b), m(a, b) = 0
  whenever a <= 0 or b <= 0, which subtracts the words lost to root
  cancelation.  P(s, n) = 3 * sum_k m(n - k, k).  It fills bottom-up by
  pair sum n = a + b over the canonical half a >= b, in the order and
  with the halved sum that asymptotics.log_peri_table uses for its
  float ratios rho = m / (P_a P_b).

The two routes share no code below the P_0/P_1 base cases, so agreement
between them is a real consistency check, exercised in the test suite.

Two guards price work before it starts and raise ResourceGuardError
past a module constant read at call time: check_column the closed-form
time of the values build_table adds (COLUMN_CEILING), _fill the bytes
of its m triangle (FILL_CEILING).

All arithmetic is exact (Python integers).  build_table is the one
place a column grows, and peri_catalan reads it.  It adds an opt-in
plain-text cache, one file per s, so repeated runs extend rather than
recompute.  Its header carries a sha256 digest of the body, so a changed
digit is refused, not served.  A load hashes the whole body but parses
only the lines it serves.  An extension renders only the new lines:
it appends them to the body it loaded and continues that body's sha256.
For a file the library wrote, the result has the bytes of a full
rewrite; a hand-edited body that still passes every load check (CRLF
line ends, say) is kept as it is and the new lines follow it.  A body
must end with a newline, or the first appended line would be glued to
its last.
"""

import os
from dataclasses import dataclass
from math import comb, inf, log2

from .errors import CacheError, CacheIntegrityError, DomainError, ResourceGuardError

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

# Largest priced m triangle the verifier fills, in bytes.  Measured peak
# RSS of a fill from scratch (Python 3.11): s=1 N=500 46 MB, N=1000 143 MB,
# N=1500 371 MB; s=64 N=1000 274 MB.  _triangle_bytes tracks those less
# the interpreter's 28 MB to within 10%: N=1100 at s=1 passes, 1500 does not.
FILL_CEILING = 256 * 2**20

# Largest closed-form extension build_table computes, as a multiple of the
# cold s = 1 column to n = 3000 (see _column_price).  A cold column passes
# to n = 3000 at s = 1, 2266 at s = 12, 2014 at s = 64, 361 at s = 10^200.
COLUMN_CEILING = 1.0


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
    # n >= 2, and p[j] must hold P(s, j) for 1 <= j < n.  Block k walks
    # the division algorithm inline from its canonical pair (n - k, k)
    # (see euclid): a step (a, b) with quotient q adds +-p[a - j b] p[b],
    # j < q, signed by (-1)^(eps + j), first sign plus, so p[b] is
    # factored out and the step costs one product with an alternating
    # sum.  Block n - k is the same walk, so only k <= n/2 is walked and
    # each off-diagonal block weighs 2, as in _fill.
    off = diag = 0
    for k in range(1, n // 2 + 1):
        a, b = n - k, k
        block, plus = 0, True
        while b:
            q, r = divmod(a, b)
            if q == 1:
                t = p[a] * p[b]
            else:
                terms = p[a:r:-b]  # p[a - j b] for j = 0 .. q - 1
                t = (sum(terms[::2]) - sum(terms[1::2])) * p[b]
            if plus:
                block += t
            else:
                block -= t
            if q & 1:
                plus = not plus
            a, b = b, r
        if block < 0:
            raise AssertionError(f"negative block at s={s} n={n} k={k}: {block}")
        if 2 * k == n:
            diag = block
        else:
            off += block
    return 3 * (2 * off + diag)


def peri_catalan(s: int, n: int) -> int:
    """Reduced-word count via the closed form."""
    if s < 1 or n < 0:
        raise DomainError(f"peri_catalan needs s >= 1 and n >= 0, got s={s} n={n}")
    if n == 0:
        return 0
    return build_table(s, n).values[n]


def _triangle_bytes(s: int, n: int) -> int:
    # The m triangle to pair sum n: about n^2/4 dict entries of 172 bytes
    # (slot, tuple key, int header) plus the digits, 30 bits per 4 bytes,
    # of m(hi, lo) < (12 s)^(hi + lo), whose exponents sum to about n^3/6.
    return n * n // 4 * 172 + int(n**3 / 6 * log2(12 * s) / 7.5)


def _fill(s: int, n_max: int, memo: dict) -> list:
    # Grow memo["p"] = [P(s, 0), P(s, 1), ...] to n_max by pair sum n: for
    # hi = ceil(n/2) .. n-1, lo = n - hi, store m(hi, lo) under (hi, lo).
    # m(hi - lo, lo) has pair sum hi < n, so it is already stored.  The
    # order and the canonical-half sum are those of log_peri_table's rho.
    owner = memo.setdefault("s", s)
    if owner != s:
        raise DomainError(f"memo already holds values for s={owner}, not s={s}")
    p = memo.setdefault("p", [0, s])
    price = _triangle_bytes(s, n_max) if n_max >= len(p) else 0
    if price > FILL_CEILING:
        raise ResourceGuardError(
            f"verifier fill past {FILL_CEILING / 2**20:.0f} MB "
            f"(requested n={n_max}: a {price / 2**20:.0f} MB m triangle)"
        )
    for n in range(len(p), n_max + 1):
        off = 0
        for hi in range(n // 2 + 1, n):
            lo = n - hi
            d = hi - lo
            m = p[hi] * p[lo] - memo[(d, lo) if d >= lo else (lo, d)]
            memo[hi, lo] = m
            off += m
        diag = 0
        if n % 2 == 0:
            h = n // 2
            diag = memo[h, h] = p[h] * p[h]
        p.append(3 * (2 * off + diag))
    return p


def aux_bivariate(s: int, a: int, b: int, memo: dict | None = None) -> int:
    """m(a, b): reduced pairs (U, V) with |U| = a, |V| = b whose product
    at a fixed basic root stays reduced.  Symmetric; zero off the domain.

    Pass the same dict as memo across calls (same s only) to share work.
    """
    if s < 1:
        raise DomainError(f"aux_bivariate needs s >= 1, got {s}")
    if memo is None:
        memo = {}
    hi, lo = (a, b) if a >= b else (b, a)
    p = _fill(s, hi if lo > 0 else 0, memo)  # off the domain: the owner check only
    if lo <= 0:
        return 0
    d = hi - lo
    if d == 0:
        return p[hi] * p[hi]
    # Every pair with sum <= hi is stored, m(d, lo) among them.
    return p[hi] * p[lo] - memo[(d, lo) if d >= lo else (lo, d)]


def peri_catalan_recursive(s: int, n: int, memo: dict | None = None) -> int:
    """Reduced-word count via the subtractive recursion, bypassing the
    closed form entirely."""
    if s < 1 or n < 0:
        raise DomainError(f"peri_catalan_recursive needs s >= 1 and n >= 0, got s={s} n={n}")
    if n == 0:
        return 0
    return _fill(s, n, {} if memo is None else memo)[n]


@dataclass
class PeriTable:
    """Exact counts P(s, n) for n = 0 .. n_max."""

    s: int
    values: list

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.n_max:
            raise DomainError(f"n={n} outside table range 0..{self.n_max}")
        return self.values[n]


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory and
    os.replace, so a reader sees the old file or the new one, never a
    partial write.  The temp file is created with mode 0o666, which the
    kernel reduces by the umask as for a plain open.  It is removed on
    any failure; OSError propagates for the caller to report."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".pcat-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_path(cache_dir: str, s: int) -> str:
    return os.path.join(cache_dir, f"pcat-s{s}.txt")


def _load_cache(path: str, s: int, n_max: int) -> tuple | None:
    # (values, body, digest) of a valid file: its values to n_max at most,
    # the text after its header and the sha256 object of that text, ready
    # to be continued by the lines an extension appends.  None when there
    # is no file.  The digest, newline and ASCII checks cover the whole
    # body, the per-line checks the first n_max lines: all of them when
    # the request extends, so appended lines follow a fully checked body.
    try:
        with open(path, "rb") as fh:
            header, _, body = fh.read().partition(b"\n")
    except FileNotFoundError:
        return None
    except OSError as e:
        raise CacheError(f"cannot read cache {path}: {e}") from e
    prefix = f"{CACHE_MAGIC} s={s} sha256=".encode()
    if not header.startswith(prefix):
        raise CacheIntegrityError(f"bad cache header in {path}")
    digest = sha256(body)
    if header[len(prefix):] != digest.hexdigest().encode():
        raise CacheIntegrityError(f"{path}: body does not match the sha256 digest in its header")
    # An extension appends after the last byte, so a last line without
    # its newline would be glued to the first new one.
    if body and not body.endswith(b"\n"):
        raise CacheIntegrityError(f"{path}: body does not end with a newline")
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError as e:
        raise CacheIntegrityError(f"{path}: non-ASCII body") from e
    values = [0]
    # P(s, n) lies in [low, bound] = [3s P(s, n - 1), word_count_bound(s, n)]
    # (the lemma in asymptotics); both ends are s at n = 1 and 3s^2 at n = 2.
    low = bound = s
    for lineno, line in enumerate(text.splitlines()[:n_max], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise CacheIntegrityError(f"{path}:{lineno}: expected '<n> <value>'")
        try:
            n, v = int(parts[0]), int(parts[1])
        except ValueError as e:
            if parts[0].isdigit() and parts[1].isdigit():  # intact, but past sys.get_int_max_str_digits()
                raise CacheError(f"{path}:{lineno}: value past Python's int digit limit: {e}") from e
            raise CacheIntegrityError(f"{path}:{lineno}: non-integer field: {e}") from e
        if n != len(values):
            raise CacheIntegrityError(f"{path}:{lineno}: expected n={len(values)}, got {n}")
        if not low <= v <= bound:
            raise CacheIntegrityError(f"{path}:{lineno}: value out of range for s={s} n={n}")
        values.append(v)
        low, bound = 3 * s * v, bound * (6 * s * (2 * n - 1)) // (n + 1)
    if len(values) < 2:
        raise CacheIntegrityError(f"{path}: no entries")
    return values, text, digest


def _save_cache(path: str, s: int, values: list, start: int, body: str, digest) -> None:
    # body holds the lines n < start and digest is its sha256 object.  Only
    # the lines n >= start are rendered and hashed.  If body is as this
    # function wrote it, the file has the bytes of a full rewrite; a
    # hand-edited valid body is kept byte for byte.
    # ValueError: a value past sys.get_int_max_str_digits(), which the
    # library leaves as the caller set it
    try:
        new = "".join(f"{n} {values[n]}\n" for n in range(start, len(values)))
        digest.update(new.encode("ascii"))
        write_atomic(path, f"{CACHE_MAGIC} s={s} sha256={digest.hexdigest()}\n{body}{new}")
    except (OSError, ValueError) as e:
        raise CacheError(f"cannot write cache {path}: {e}") from e


def _column_price(s: int, m: int, n: int) -> float:
    # Closed-form time of the values m + 1 .. n, in units of the cold s = 1
    # column to n = 3000: cold columns took C n^3.36 log2(12 s)^1.36 to within
    # a factor 1.5 for s = 1 .. 10^200, n = 100 .. 3000 (Python 3.11).
    # n**3.36 overflows past about 10^91.
    return inf if n > 10**90 else (n**3.36 - m**3.36) * log2(12 * s) ** 1.36 / ((3000**3.36 - 1) * log2(12) ** 1.36)


def check_column(s: int, m: int, n_max: int) -> None:
    """Raise ResourceGuardError if the values n = m + 1 .. n_max of the
    s column are priced past COLUMN_CEILING, read at call time.  An s = 0
    column is all zeros, but its n_max rows still cost: it is priced as
    s = 1."""
    price = _column_price(max(s, 1), m, n_max)
    if price > COLUMN_CEILING:
        raise ResourceGuardError(
            f"exact column to n={n_max}: n = {m + 1} .. {n_max} at s={s} is priced at {price:.4g} "
            f"times the cold s=1 column to n=3000, past enumeration.COLUMN_CEILING = {COLUMN_CEILING:g}")


def build_table(s: int, n_max: int, cache_dir: str | None = None) -> PeriTable:
    """Compute (or load, extend and re-save) P(s, n) for n = 0 .. n_max."""
    if s < 1 or n_max < 1:
        raise DomainError(f"build_table needs s >= 1 and n_max >= 1, got s={s} n_max={n_max}")
    path = None if cache_dir is None else _cache_path(cache_dir, s)
    loaded = None if path is None else _load_cache(path, s, n_max)
    if loaded is None:
        values, start, body, digest = [0, s], 1, "", sha256()
    else:
        values, body, digest = loaded
        if len(values) > n_max:
            return PeriTable(s=s, values=values)
        start = len(values)
    check_column(s, len(values) - 1, n_max)
    while len(values) <= n_max:
        values.append(_closed_form_value(s, len(values), values))
    if path is not None:
        _save_cache(path, s, values, start, body, digest)
    return PeriTable(s=s, values=values)
