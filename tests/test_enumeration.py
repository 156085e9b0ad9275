import hashlib
import os
import stat
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pericatalan import enumeration
from pericatalan.enumeration import (
    CACHE_MAGIC,
    _closed_form_value,
    aux_bivariate,
    build_table,
    catalan,
    peri_catalan,
    peri_catalan_recursive,
    word_count_bound,
)
from pericatalan.errors import CacheError, CacheIntegrityError, DomainError, ResourceGuardError
from pericatalan.euclid import euclid_trace

# golden first-ten columns, checked exactly in the acceptance suite as well
GOLDEN_FIRST_TEN = {
    1: [1, 3, 12, 87, 666, 5478, 47322, 422145, 3859026, 35967054],
    2: [2, 12, 120, 1752, 28224, 487464, 8814312, 164734560, 3156739080, 61689134928],
    3: [3, 27, 432, 9531, 233766, 6143094, 169029666, 4808015253, 140243036202, 4172008467726],
}


def segner(n_max):
    # independent shape count: convolution recurrence on leaf counts
    c = [0, 1]
    for m in range(2, n_max + 1):
        c.append(sum(c[a] * c[m - a] for a in range(1, m)))
    return c


def test_catalan_small():
    assert [catalan(n) for n in range(1, 8)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_matches_convolution():
    conv = segner(25)
    for n in range(1, 26):
        assert catalan(n) == conv[n]


def test_catalan_binomial_form():
    assert catalan(7) == comb(12, 6) // 7 == 132


def test_catalan_domain():
    with pytest.raises(DomainError):
        catalan(0)


def test_bound_examples():
    assert word_count_bound(1, 3) == 18
    assert word_count_bound(2, 4) == 2160
    for s in range(1, 6):
        assert word_count_bound(s, 1) == s


def test_bound_domain():
    with pytest.raises(DomainError):
        word_count_bound(0, 3)
    with pytest.raises(DomainError):
        word_count_bound(2, 0)


def test_base_cases_both_paths():
    for s in (1, 2, 7):
        for fn in (peri_catalan, peri_catalan_recursive):
            assert fn(s, 0) == 0
            assert fn(s, 1) == s
            assert fn(s, 2) == 3 * s * s


def test_golden_spot_values():
    assert peri_catalan(1, 5) == 666
    assert peri_catalan(2, 4) == 1752
    assert peri_catalan(3, 10) == 4172008467726
    assert peri_catalan(7, 1) == 7


def test_recursive_spot_values():
    assert peri_catalan_recursive(1, 2) == 3
    assert peri_catalan_recursive(2, 3) == 120
    assert peri_catalan_recursive(3, 2) == 27


def test_first_ten_columns():
    for s, col in GOLDEN_FIRST_TEN.items():
        t = build_table(s, 10)
        assert t.values[1:] == col


def test_domain_errors():
    with pytest.raises(DomainError):
        peri_catalan(0, 3)
    with pytest.raises(DomainError):
        peri_catalan(1, -1)
    with pytest.raises(DomainError):
        peri_catalan_recursive(-2, 3)
    with pytest.raises(DomainError):
        aux_bivariate(0, 1, 1)
    with pytest.raises(DomainError):
        build_table(1, 0)


def test_aux_examples():
    assert aux_bivariate(2, 1, 1) == 4
    assert aux_bivariate(1, 2, 1) == 2
    assert aux_bivariate(5, 0, 7) == 0
    assert aux_bivariate(5, 3, -1) == 0
    # the k-split sum reassembles the count
    assert 3 * (aux_bivariate(1, 2, 1) + aux_bivariate(1, 1, 2)) == 12 == peri_catalan(1, 3)


@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12))
def test_aux_symmetry(s, a, b):
    memo = {}
    assert aux_bivariate(s, a, b, memo) == aux_bivariate(s, b, a, memo)


def test_aux_memo_bound_to_one_s():
    memo = {}
    aux_bivariate(2, 3, 2, memo)
    with pytest.raises(DomainError):
        aux_bivariate(3, 3, 2, memo)
    with pytest.raises(DomainError):
        peri_catalan_recursive(3, 4, memo)


def test_memo_reuse_is_consistent():
    memo = {}
    fresh = [peri_catalan_recursive(2, n) for n in range(11)]
    shared = [peri_catalan_recursive(2, n, memo) for n in range(11)]
    assert fresh == shared == [0] + GOLDEN_FIRST_TEN[2]


def test_peritable_access():
    t = build_table(2, 6)
    assert t.n_max == 6
    assert t[4] == 1752
    with pytest.raises(DomainError):
        t[7]


def _m_walk(p, a, b):
    # m(a, b) from P values alone: walk m(a, b) = P_a P_b - m(a - b, b)
    # down to a zero side, then unwind.
    products = []
    while a > 0 and b > 0:
        hi, lo = (a, b) if a >= b else (b, a)
        products.append(p[hi] * p[lo])
        a, b = hi - lo, lo
    val = 0
    for prod in reversed(products):
        val = prod - val
    return val


def test_aux_deep_walk():
    # m(1100, 1) unwinds through 1100 subtractions.
    memo = {}
    peri_catalan_recursive(1, 1100, memo)
    p = memo["p"]
    assert aux_bivariate(1, 1100, 1, memo) == _m_walk(p, 1100, 1)
    assert aux_bivariate(1, 1099, 1100, memo) == _m_walk(p, 1099, 1100)
    assert aux_bivariate(1, 1100, 1, memo) == p[1100] * p[1] - aux_bivariate(1, 1099, 1, memo)


@pytest.mark.parametrize("s", [1, 2, 12])
def test_verifier_blocks_nonnegative(s):
    # Each stored m(hi, lo) is a per-k block of the closed form.
    memo = {}
    peri_catalan_recursive(s, 200, memo)
    assert all(v >= 0 for k, v in memo.items() if k not in ("s", "p"))


def _trace_block(p, n, k):
    # Block k of P_n term by term from the Euclid trace of (n, k): one
    # product p[r_prev - j r_cur] * p[r_cur] per term, signed (-1)^(eps + j).
    tr = euclid_trace(n, k)
    r, q, eps = tr.remainders, tr.quotients, tr.epsilons
    block = 0
    for j in range(1, q[0]):
        term = p[r[0] - j * r[1]] * p[r[1]]
        block += -term if (eps[0] + j) & 1 else term
    for i in range(1, tr.steps + 1):
        for j in range(q[i]):
            term = p[r[i] - j * r[i + 1]] * p[r[i + 1]]
            block += -term if (eps[i] + j) & 1 else term
    return block


def _recursion_column(s, n_max, memo):
    # P(s, 0 .. n_max) from the verifier route
    peri_catalan_recursive(s, n_max, memo)
    return memo["p"]


@pytest.mark.parametrize("s", [1, 2, 7])
def test_trace_blocks_are_aux_values(s):
    # Each per-k block of the trace is m(n - k, k), and 3 * their sum is
    # what the inline walk of _closed_form_value returns.
    memo = {}
    p = _recursion_column(s, 60, memo)
    for n in range(2, 61):
        blocks = [_trace_block(p, n, k) for k in range(1, n)]
        assert blocks == [aux_bivariate(s, n - k, k, memo) for k in range(1, n)]
        assert _closed_form_value(s, n, p) == 3 * sum(blocks) == p[n]


def test_trace_blocks_are_symmetric_in_k():
    # block(n, k) = block(n, n - k) term by term, so it holds for any p:
    # the closed form walks both from the same canonical pair.
    p = [0] + [7**j + j for j in range(1, 60)]
    for n in range(2, 61):
        blocks = [_trace_block(p, n, k) for k in range(1, n)]
        assert blocks == blocks[::-1], n


@pytest.mark.parametrize("p", [[0] + [7**j + j for j in range(1, 60)], [0] + [3**j for j in range(1, 60)]])
def test_half_walk_equals_full_trace_sum(p):
    # The closed form walks k <= n/2 and weighs off-diagonal blocks 2;
    # that is 3 times the sum of every trace block, for any p and apart
    # from the recursion: n = 2 is the diagonal alone, n = 3 has none.
    for n in range(2, 61):
        assert _closed_form_value(1, n, p) == 3 * sum(_trace_block(p, n, k) for k in range(1, n)), n


def test_negative_block_names_its_k():
    # block(n, k) = block(n, n - k), so a doctored block can first show
    # at k <= n/2.  With P_2 huge, k = 1 .. 3 of n = 9 stay nonnegative
    # and k = 4 carries -P_2 P_1 unmatched.
    p = list(_recursion_column(1, 9, {}))
    p[2] = 10**40
    assert [_trace_block(p, 9, k) >= 0 for k in range(1, 5)] == [True, True, True, False]
    with pytest.raises(AssertionError, match=r"negative block at s=1 n=9 k=4: -"):
        _closed_form_value(1, 9, p)


def test_closed_form_column_s64_matches_recursion():
    # the benchmark's largest s, past the s <= 12 of the acceptance suite
    assert build_table(64, 300).values == _recursion_column(64, 300, {})


def test_fill_guard_prices_the_triangle(monkeypatch):
    # The default ceiling refuses m(1500, 1500) before any entry is stored.
    memo = {}
    with pytest.raises(ResourceGuardError, match=r"requested n=1500"):
        aux_bivariate(1, 1500, 1500, memo)
    assert memo == {"s": 1, "p": [0, 1]}
    peri_catalan_recursive(1, 40, memo)
    monkeypatch.setattr(enumeration, "FILL_CEILING", 1000)
    # reads below the filled top need no growth and pass
    assert aux_bivariate(1, 30, 10, memo) == _m_walk(memo["p"], 30, 10)
    with pytest.raises(ResourceGuardError, match=r"^verifier fill past 0 MB \(requested n=41: "):
        peri_catalan_recursive(1, 41, memo)
    with pytest.raises(ResourceGuardError, match=r"requested n=12"):
        aux_bivariate(2, 12, 5)


class _Sentinel(Exception):
    pass


def _closed_form_sentinel(*args):
    raise _Sentinel


def test_column_guard_refuses_before_any_bigint_work(tmp_path, monkeypatch):
    # s = 10^200 to n = 3000 would take about a day; the price comes first.
    monkeypatch.setattr(enumeration, "_closed_form_value", _closed_form_sentinel)
    with pytest.raises(ResourceGuardError, match=r"^exact column to n=3000: .*enumeration\.COLUMN_CEILING"):
        build_table(10**200, 3000, str(tmp_path))
    assert not list(tmp_path.iterdir())
    with pytest.raises(ResourceGuardError):
        build_table(12, 3000)


def test_column_guard_keeps_the_s1_boundary(monkeypatch):
    # the cold s = 1 column to n = 3000 is the unit of the price: it passes
    monkeypatch.setattr(enumeration, "_closed_form_value", _closed_form_sentinel)
    with pytest.raises(_Sentinel):
        build_table(1, 3000)
    with pytest.raises(ResourceGuardError, match=r"^exact column to n=3001: "):
        build_table(1, 3001)
    with pytest.raises(ResourceGuardError, match=r"priced at inf times"):
        build_table(1, 10**100)  # n**3.36 would overflow a float


def test_column_guard_prices_only_the_new_values(tmp_path, monkeypatch):
    # The ceiling is read at call time; a cached prefix is not priced again.
    # 20 -> 24 costs less than 1 -> 20 (1.2^3.36 < 2), 20 -> 25 does not.
    d = str(tmp_path)
    monkeypatch.setattr(enumeration, "COLUMN_CEILING", enumeration._column_price(2, 1, 20))
    with pytest.raises(ResourceGuardError, match=r"n = 2 \.\. 24 at s=2"):
        build_table(2, 24)
    build_table(2, 20, d)
    assert build_table(2, 24, d).values == [peri_catalan_recursive(2, n) for n in range(25)]
    monkeypatch.setattr(enumeration, "COLUMN_CEILING", 0)
    assert build_table(2, 10, d).values == [peri_catalan_recursive(2, n) for n in range(11)]
    with pytest.raises(ResourceGuardError, match=r"n = 25 \.\. 25 at s=2"):
        build_table(2, 25, d)


def _pairs(n_max):
    # the canonical pairs hi >= lo >= 1 with hi + lo <= n_max
    return {(hi, n - hi) for n in range(2, n_max + 1) for hi in range((n + 1) // 2, n)}


def test_verifier_memo_keys():
    memo = {}
    assert peri_catalan_recursive(3, 40, memo) == peri_catalan(3, 40)
    assert set(memo) == {"s", "p"} | _pairs(40)
    assert memo["s"] == 3 and len(memo["p"]) == 41
    # fills to max(a, b) = 45; the pair (45, 30) itself is read, not stored
    assert aux_bivariate(3, 45, 30, memo) == _m_walk(memo["p"], 45, 30)
    assert set(memo) == {"s", "p"} | _pairs(45)


@given(st.integers(1, 5), st.integers(0, 25))
@settings(max_examples=60, deadline=None)
def test_paths_agree_small(s, n):
    assert peri_catalan(s, n) == peri_catalan_recursive(s, n)


@given(st.integers(1, 5), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_bound_holds_with_equality_iff_short(s, n):
    p = peri_catalan(s, n)
    bound = word_count_bound(s, n)
    assert 0 <= p <= bound
    assert (p == bound) == (n < 3)


def _cache_file(tmp_path, s):
    return tmp_path / f"pcat-s{s}.txt"


def _write_signed(path, s, lines):
    # a cache file with the given entry lines under a correct v2 header
    body = "".join(line + "\n" for line in lines)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    path.write_text(f"{CACHE_MAGIC} s={s} sha256={digest}\n{body}")


def test_cache_roundtrip(tmp_path):
    d = str(tmp_path)
    t1 = build_table(2, 8, d)
    path = _cache_file(tmp_path, 2)
    assert path.exists()
    text = path.read_text()
    lines = text.splitlines()
    body = text.split("\n", 1)[1]
    assert lines[0] == f"pcat-cache v2 s=2 sha256={hashlib.sha256(body.encode()).hexdigest()}"
    assert lines[0].startswith(CACHE_MAGIC)
    assert lines[1] == "1 2"
    assert len(lines) == 9
    before = path.read_text()
    t2 = build_table(2, 8, d)
    assert t2.values == t1.values
    assert path.read_text() == before


def test_cache_one_wrong_digit_refused(tmp_path):
    build_table(2, 10, str(tmp_path))
    path = _cache_file(tmp_path, 2)
    lines = path.read_text().splitlines()
    assert lines[10] == "10 61689134928"
    lines[10] = "10 61689134927"  # passes every per-line check
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheIntegrityError, match="sha256"):
        build_table(2, 10, str(tmp_path))


def test_cache_v1_is_refused(tmp_path):
    # v1 carried no digest; it is an unknown header like any other
    path = _cache_file(tmp_path, 2)
    path.write_text("pcat-cache v1 s=2\n1 2\n2 12\n3 121\n4 1752\n")  # P(2, 3) is 120
    before = path.read_bytes()
    with pytest.raises(CacheIntegrityError, match="bad cache header"):
        build_table(2, 3, str(tmp_path))
    assert path.read_bytes() == before


def test_cache_bound_check_is_exact(tmp_path):
    # A file holding word_count_bound at every n passes every per-line
    # check (below n = 3 the bound is P itself), so the running bound
    # must equal word_count_bound at each n up to 250.
    path = _cache_file(tmp_path, 2)
    lines = [f"{n} {word_count_bound(2, n)}" for n in range(1, 251)]
    _write_signed(path, 2, lines)
    assert build_table(2, 250, str(tmp_path)).values[250] == word_count_bound(2, 250)
    lines[-1] = f"250 {word_count_bound(2, 250) + 1}"
    _write_signed(path, 2, lines)
    with pytest.raises(CacheIntegrityError, match="out of range"):
        build_table(2, 250, str(tmp_path))


def test_cache_low_end_is_exact(tmp_path):
    # Each value at exactly 3s times the one before passes the low end,
    # so the running low end must equal 3s P(s, n - 1) at each n up to 250.
    path = _cache_file(tmp_path, 2)
    lines = [f"{n} {2 * 6 ** (n - 1)}" for n in range(1, 251)]
    _write_signed(path, 2, lines)
    assert build_table(2, 250, str(tmp_path)).values[250] == 2 * 6**249
    lines[-1] = f"250 {2 * 6**249 - 1}"
    _write_signed(path, 2, lines)
    with pytest.raises(CacheIntegrityError, match=":251: value out of range for s=2 n=250"):
        build_table(2, 250, str(tmp_path))


def test_cache_read_checks_the_lines_it_serves(tmp_path):
    # A signed line past the request is neither read nor served; any
    # request that reaches it, and any extension, refuses it.
    path = _cache_file(tmp_path, 2)
    _write_signed(path, 2, ["1 2", "2 12", "3 120", "4 1752", "5 1"])
    before = path.read_bytes()
    assert build_table(2, 4, str(tmp_path)).values == [0, 2, 12, 120, 1752]
    for n_max in (5, 6):
        with pytest.raises(CacheIntegrityError, match=":6: value out of range for s=2 n=5"):
            build_table(2, n_max, str(tmp_path))
    assert path.read_bytes() == before


def test_cache_digest_and_decode_cover_the_whole_body(tmp_path):
    # A request short of the changed line still refuses the file.
    build_table(2, 10, str(tmp_path))
    path = _cache_file(tmp_path, 2)
    path.write_text(path.read_text().replace("10 61689134928\n", "10 61689134927\n"))
    with pytest.raises(CacheIntegrityError, match="sha256"):
        build_table(2, 3, str(tmp_path))
    body = "1 2\n2 12\n3 120\n4 17\u00e952\n".encode("utf-8")
    path.write_bytes(f"{CACHE_MAGIC} s=2 sha256={hashlib.sha256(body).hexdigest()}\n".encode() + body)
    with pytest.raises(CacheIntegrityError, match="non-ASCII"):
        build_table(2, 3, str(tmp_path))


def test_cache_extends_and_truncates(tmp_path):
    d = str(tmp_path)
    build_table(2, 5, d)
    t9 = build_table(2, 9, d)
    assert t9.values[1:] == GOLDEN_FIRST_TEN[2][:9]
    assert len(_cache_file(tmp_path, 2).read_text().splitlines()) == 10
    # shorter request reads the long cache without rewriting it
    t4 = build_table(2, 4, d)
    assert t4.n_max == 4
    assert t4.values[1:] == GOLDEN_FIRST_TEN[2][:4]
    assert len(_cache_file(tmp_path, 2).read_text().splitlines()) == 10


@pytest.mark.parametrize("s", [2, 64, 10**200], ids=["s2", "s64", "s1e200"])
def test_cache_extension_has_the_bytes_of_a_cold_build(tmp_path, s):
    # An extension appends its lines and continues the digest; the file
    # must equal the one a single cold build writes.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)  # P(10^200, n) passes 4300 digits from n = 22
    try:
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        warm.mkdir()
        cold.mkdir()
        for top in (5, 9, 12, *range(13, 41)):
            table = build_table(s, top, str(warm))
            assert table.n_max == top
        assert table.values == build_table(s, 40, str(cold)).values
        assert _cache_file(warm, s).read_bytes() == _cache_file(cold, s).read_bytes()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_cache_crlf_body_extends_after_its_last_line(tmp_path):
    # The new lines start at the loaded length and follow the body's bytes.
    path = _cache_file(tmp_path, 2)
    body = "".join(f"{n} {v}\r\n" for n, v in enumerate(GOLDEN_FIRST_TEN[2][:5], start=1)).encode()
    path.write_bytes(f"{CACHE_MAGIC} s=2 sha256={hashlib.sha256(body).hexdigest()}\n".encode() + body)
    assert build_table(2, 9, str(tmp_path)).values[1:] == GOLDEN_FIRST_TEN[2][:9]
    header, _, extended = path.read_bytes().partition(b"\n")
    assert extended.startswith(body) and extended[len(body):].startswith(b"6 487464\n")
    assert header.endswith(hashlib.sha256(extended).hexdigest().encode())
    assert build_table(2, 10, str(tmp_path)).values[1:] == GOLDEN_FIRST_TEN[2]


@pytest.mark.parametrize("body", [b"1 2\n2 12", b"1 2\r\n2 12\r"], ids=["no-newline", "carriage-return"])
def test_cache_body_without_final_newline_refused(tmp_path, body):
    # An appended line would be glued to the last one: refused, file untouched.
    path = _cache_file(tmp_path, 2)
    path.write_bytes(f"{CACHE_MAGIC} s=2 sha256={hashlib.sha256(body).hexdigest()}\n".encode() + body)
    before = path.read_bytes()
    with pytest.raises(CacheIntegrityError, match="newline"):
        build_table(2, 4, str(tmp_path))
    assert path.read_bytes() == before


def test_cache_per_s_files(tmp_path):
    d = str(tmp_path)
    build_table(1, 4, d)
    build_table(2, 4, d)
    assert _cache_file(tmp_path, 1).exists()
    assert _cache_file(tmp_path, 2).exists()


def test_cache_bad_header(tmp_path):
    _cache_file(tmp_path, 2).write_text("some other file\n1 2\n")
    with pytest.raises(CacheIntegrityError):
        build_table(2, 4, str(tmp_path))


def test_cache_wrong_s_header(tmp_path):
    build_table(3, 4, str(tmp_path))
    os.rename(_cache_file(tmp_path, 3), _cache_file(tmp_path, 2))
    with pytest.raises(CacheIntegrityError):
        build_table(2, 4, str(tmp_path))


def test_cache_gap_detected(tmp_path):
    build_table(2, 6, str(tmp_path))
    path = _cache_file(tmp_path, 2)
    lines = path.read_text().splitlines()
    del lines[3]
    _write_signed(path, 2, lines[1:])
    with pytest.raises(CacheIntegrityError, match="expected n="):
        build_table(2, 6, str(tmp_path))


def test_cache_corrupt_value_detected(tmp_path):
    build_table(2, 6, str(tmp_path))
    path = _cache_file(tmp_path, 2)
    lines = path.read_text().splitlines()
    lines[2] = "2 11"  # under the bound, but not the forced value 3*s^2
    _write_signed(path, 2, lines[1:])
    with pytest.raises(CacheIntegrityError, match=r":3: value out of range for s=2 n=2"):
        build_table(2, 6, str(tmp_path))


def test_cache_value_above_bound_detected(tmp_path):
    build_table(2, 6, str(tmp_path))
    path = _cache_file(tmp_path, 2)
    lines = path.read_text().splitlines()
    lines[4] = f"4 {word_count_bound(2, 4) + 1}"
    _write_signed(path, 2, lines[1:])
    with pytest.raises(CacheIntegrityError, match="out of range"):
        build_table(2, 6, str(tmp_path))


def test_cache_unreadable_is_cache_error(tmp_path):
    d = tmp_path / "sub"
    d.mkdir()
    path = _cache_file(d, 2)
    path.mkdir()  # a directory where the file should be
    with pytest.raises(CacheError):
        build_table(2, 4, str(d))


@pytest.mark.parametrize("body, match", [
    ("1 2\n2 12\n3 12\u00e9\n".encode("utf-8"), "non-ASCII"),
    (b"1 2\n2 12 0\n", "expected '<n> <value>'"),
    (b"1 2\n2 0x0c\n", "non-integer field"),
    (b"", "no entries"),
    (b"1 1\n2 12\n", r":2: value out of range for s=2 n=1"),
    (b"1 2\n2 12\n3 120\n4 120\n", r":5: value out of range for s=2 n=4"),  # stale: P(2, 3) again
    (b"1 2\n2 12\n3 120\n4 175\n", r":5: value out of range for s=2 n=4"),  # 1752 without its last digit
], ids=["non-ascii", "malformed-line", "non-integer", "no-entries", "first-value", "stale", "cut-short"])
def test_cache_signed_body_refused(tmp_path, body, match):
    # each body carries a correct digest, so only the per-line checks stand
    digest = hashlib.sha256(body).hexdigest()
    _cache_file(tmp_path, 2).write_bytes(f"{CACHE_MAGIC} s=2 sha256={digest}\n".encode() + body)
    with pytest.raises(CacheIntegrityError, match=match):
        build_table(2, 4, str(tmp_path))


def test_cache_save_failure_is_cache_error(tmp_path):
    with pytest.raises(CacheError, match="cannot write cache"):
        build_table(2, 4, str(tmp_path / "missing"))


def test_cache_past_int_digit_limit_is_cache_error(tmp_path, int_digit_limit):
    # P(10^200, 22) has over 4300 digits: the library leaves the limit as
    # it finds it and reports the cache it cannot write or read.  A request
    # to n = 21 reads only the lines it serves, all under the limit.
    s = 10**200
    with pytest.raises(CacheError, match="limit"):
        build_table(s, 22, str(tmp_path))
    assert not list(tmp_path.iterdir())
    sys.set_int_max_str_digits(0)
    build_table(s, 22, str(tmp_path))
    sys.set_int_max_str_digits(int_digit_limit)
    assert build_table(s, 21, str(tmp_path)).values == build_table(s, 21).values
    with pytest.raises(CacheError, match="limit") as read:
        build_table(s, 22, str(tmp_path))
    assert not isinstance(read.value, CacheIntegrityError)  # the file is intact


def test_write_atomic_never_sets_the_umask(tmp_path, monkeypatch):
    # the kernel applies the umask when the temp file is created; setting
    # it, even for a moment, would change it for every thread
    def umask(mask):
        raise AssertionError("write_atomic set the process umask")

    old = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", umask)
            enumeration.write_atomic(str(tmp_path / "f.txt"), "x\n")
    finally:
        os.umask(old)
    assert (tmp_path / "f.txt").read_text() == "x\n"
    assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == 0o640
    assert not list(tmp_path.glob(".pcat-*"))
