import hashlib
import os
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pericatalan.enumeration import (
    CACHE_MAGIC,
    PeriTable,
    aux_bivariate,
    build_table,
    catalan,
    peri_catalan,
    peri_catalan_recursive,
    word_count_bound,
)
from pericatalan.errors import CacheError, CacheIntegrityError, DomainError

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


def test_peritable_access_and_aux():
    t = build_table(2, 6)
    assert t.n_max == 6
    assert t[4] == 1752
    with pytest.raises(DomainError):
        t[7]
    assert t.aux(2, 2) == 144
    assert t.aux(2, 2) == aux_bivariate(2, 2, 2)
    assert t.aux(0, 3) == 0
    with pytest.raises(DomainError):
        t.aux(7, 1)
    # memo keys are canonical (max, min) pairs
    t.aux(1, 5)
    assert all(hi >= lo for hi, lo in t.m_values)


def test_peritable_aux_deep_walk():
    # aux(n, 1) takes n subtraction steps: past the default recursion limit.
    memo = {}
    values = [peri_catalan_recursive(1, n, memo) for n in range(1101)]
    assert PeriTable(s=1, values=values).aux(1100, 1) == aux_bivariate(1, 1100, 1, memo)
    assert PeriTable(s=1, values=values).aux(1099, 1100) == aux_bivariate(1, 1100, 1099, memo)


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


def test_cache_v1_is_recomputed_as_v2(tmp_path):
    path = _cache_file(tmp_path, 2)
    path.write_text("pcat-cache v1 s=2\n1 2\n2 12\n3 121\n4 1752\n")  # P(2, 3) is 120
    t = build_table(2, 3, str(tmp_path))
    assert t.values == [0, 2, 12, 120]
    lines = path.read_text().splitlines()
    assert lines[0].startswith("pcat-cache v2 s=2 sha256=")
    assert lines[1:] == ["1 2", "2 12", "3 120"]
    assert build_table(2, 3, str(tmp_path)).values == [0, 2, 12, 120]


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
    with pytest.raises(CacheIntegrityError, match=r"P\(s,2\)"):
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
