import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pericatalan import freewords as fw
from pericatalan.enumeration import aux_bivariate, peri_catalan, word_count_bound
from pericatalan.errors import DomainError, ResourceGuardError, WordSyntaxError

A, B, C = 1, 2, 3


def is_basic_tree(w):
    # every node carries a basic op
    if type(w) is int:
        return True
    return w[0].is_basic and is_basic_tree(w[1]) and is_basic_tree(w[2])


def test_six_distinct_symbols():
    assert len(set(id(op) for op in fw.ALL_OPS)) == 6
    assert fw.BASIC_OPS == (fw.MUL, fw.LDIV, fw.RDIV)
    assert all(op.is_basic for op in fw.BASIC_OPS)
    assert not any(op.is_basic for op in (fw.OMUL, fw.OLDIV, fw.ORDIV))


def test_opposite_pairs():
    assert fw.MUL.opposite is fw.OMUL
    assert fw.OMUL.opposite is fw.MUL
    assert fw.LDIV.opposite is fw.OLDIV
    assert fw.RDIV.opposite is fw.ORDIV
    for op in fw.ALL_OPS:
        assert op.opposite.opposite is op
        assert op.opposite is not op


def test_cancel_partners():
    assert fw.MUL.cancel is fw.LDIV
    assert fw.LDIV.cancel is fw.MUL
    assert fw.RDIV.cancel is fw.OLDIV
    assert fw.ORDIV.cancel is fw.OMUL
    for op in fw.ALL_OPS:
        assert op.cancel.cancel is op


def test_symbol_group_axioms():
    # composing two symbols composes their S3 tags
    by_perm = {op.perm: op for op in fw.ALL_OPS}

    def mul(x, y):
        return by_perm[fw._compose(x.perm, y.perm)]

    e, s_, t = fw.MUL, fw.OMUL, fw.LDIV
    assert mul(s_, s_) is e
    assert mul(t, t) is e
    st3 = fw.OLDIV
    assert mul(mul(st3, st3), st3) is e
    for x, y, z in itertools.product(fw.ALL_OPS, repeat=3):
        assert mul(mul(x, y), z) is mul(x, mul(y, z))
    for x in fw.ALL_OPS:
        assert mul(e, x) is x and mul(x, e) is x


def test_enumeration_counts_and_uniqueness():
    assert list(fw.enumerate_basic_trees(1, 1)) == [1]
    assert len(list(fw.enumerate_basic_trees(1, 3))) == 18
    assert len(list(fw.enumerate_basic_trees(2, 2))) == 12
    trees = list(fw.enumerate_basic_trees(2, 4))
    assert len(trees) == len(set(trees)) == word_count_bound(2, 4) == 2160
    assert all(fw.leaf_count(t) == 4 and is_basic_tree(t) for t in trees)


def test_enumeration_is_deterministic():
    assert list(fw.enumerate_basic_trees(2, 3)) == list(fw.enumerate_basic_trees(2, 3))


def test_enumeration_stream_order():
    # Split point, then root op, then left subtree, then right subtree.
    trees = list(fw.enumerate_basic_trees(2, 3))
    assert len(trees) == 144
    assert trees[:3] == [
        (fw.MUL, 1, (fw.MUL, 1, 1)),
        (fw.MUL, 1, (fw.MUL, 1, 2)),
        (fw.MUL, 1, (fw.MUL, 2, 1)),
    ]
    assert trees[11] == (fw.MUL, 1, (fw.RDIV, 2, 2))
    assert trees[12] == (fw.MUL, 2, (fw.MUL, 1, 1))
    assert trees[24] == (fw.LDIV, 1, (fw.MUL, 1, 1))
    assert trees[72] == (fw.MUL, (fw.MUL, 1, 1), 1)
    assert trees[-3:] == [
        (fw.RDIV, (fw.RDIV, 2, 1), 2),
        (fw.RDIV, (fw.RDIV, 2, 2), 1),
        (fw.RDIV, (fw.RDIV, 2, 2), 2),
    ]


def test_enumeration_guards(monkeypatch):
    with pytest.raises(DomainError):
        fw.enumerate_basic_trees(0, 2)
    with pytest.raises(DomainError):
        fw.enumerate_basic_trees(2, 0)
    with pytest.raises(ResourceGuardError):
        fw.enumerate_basic_trees(1, 11)
    with pytest.raises(ResourceGuardError):
        with monkeypatch.context() as m:
            m.setattr(fw, "ENUM_BUDGET", 100)
            fw.enumerate_basic_trees(2, 4)
    # the guard fires at call time, before the first tree is drawn
    gen = None
    with pytest.raises(ResourceGuardError):
        gen = fw.enumerate_basic_trees(3, 7)
    assert gen is None
    # a budget of exactly the streamed trees plus the 3-leaf pool admits the job
    with monkeypatch.context() as m:
        m.setattr(fw, "ENUM_BUDGET", word_count_bound(2, 4) + word_count_bound(2, 3))
        assert sum(1 for _ in fw.enumerate_basic_trees(2, 4)) == 2160
        m.setattr(fw, "ENUM_BUDGET", word_count_bound(2, 4) + word_count_bound(2, 3) - 1)
        with pytest.raises(ResourceGuardError, match="^oracle job of at least 2304 trees exceeds budget 2303$"):
            fw.enumerate_basic_trees(2, 4)
    # the budget alone limits length; counted as a stream, never held as a list
    assert sum(1 for _ in fw.enumerate_basic_trees(1, 9)) == word_count_bound(1, 9)


def test_six_minimal_patterns_not_reduced():
    patterns = [
        (fw.MUL, A, (fw.LDIV, A, B)),  # A*(A\B)
        (fw.LDIV, A, (fw.MUL, A, B)),  # A\(A*B)
        (fw.MUL, (fw.RDIV, B, A), A),  # (B/A)*A
        (fw.RDIV, (fw.MUL, B, A), A),  # (B*A)/A
        (fw.RDIV, A, (fw.LDIV, B, A)),  # A/(B\A)
        (fw.LDIV, (fw.RDIV, A, B), A),  # (A/B)\A
    ]
    for w in patterns:
        assert not fw.is_reduced(w), fw.format_word(w)
        assert not fw.is_reduced_triality(w), fw.format_word(w)


def test_near_miss_patterns_reduced():
    for w in [
        (fw.MUL, A, A),
        (fw.MUL, A, (fw.LDIV, B, A)),  # repeated subterm on the wrong side
        (fw.LDIV, B, (fw.MUL, A, B)),
        (fw.MUL, A, (fw.MUL, A, B)),  # wrong operation
        (fw.RDIV, A, (fw.LDIV, B, B)),
    ]:
        assert fw.is_reduced(w), fw.format_word(w)
        assert fw.is_reduced_triality(w), fw.format_word(w)


def test_pattern_found_below_root():
    w = (fw.MUL, (fw.MUL, A, (fw.LDIV, A, B)), C)
    assert not fw.is_reduced(w)
    assert not fw.is_reduced_triality(w)


def test_repeated_subterm_must_match_whole_tree():
    big = (fw.MUL, A, B)
    assert not fw.is_reduced((fw.MUL, big, (fw.LDIV, big, C)))
    assert fw.is_reduced((fw.MUL, big, (fw.LDIV, (fw.MUL, A, C), C)))


def test_count_reduced_golden():
    assert fw.count_reduced(1, 3) == 12
    assert fw.count_reduced(1, 4) == 87
    assert fw.count_reduced(2, 4) == 1752


@pytest.mark.parametrize("s,n", [(3, 6), (2, 7)])
def test_count_reduced_deep(s, n):
    assert fw.count_reduced(s, n) == peri_catalan(s, n)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_reduced_pools_are_the_full_walk_filter(s):
    full = fw._pools(s, 5)
    reduced = fw._pools(s, 5, reduced=True)
    for m in range(1, 6):
        assert reduced[m] == [t for t in full[m] if fw.is_reduced(t)]


@pytest.mark.parametrize("s", [1, 2, 3])
def test_count_reduced_rooted_matches_full_walk(s):
    # (a, b) and (b, a) both run, so the scan meets each pool on either side
    full = fw._pools(s, 4)
    for a in range(1, 5):
        for b in range(1, 6 - a):
            for root in fw.ALL_OPS:
                if root.is_basic:
                    want = sum(fw.is_reduced((root, x, y)) for x in full[a] for y in full[b])
                else:
                    want = sum(fw.is_reduced((root.opposite, y, x)) for x in full[a] for y in full[b])
                assert fw.count_reduced_rooted(s, a, b, root) == want, (a, b, root)


def test_no_candidate_matches_both_root_patterns():
    # The scan adds the hits of its u-side and v-side halves; that is exact
    # only if no candidate matches both.  Each half is hit somewhere, and
    # their sum is what the scan and the full root test count.
    pools = fw._pools(2, 4, reduced=True)
    index = {m: fw._op_index(pools[m]) for m in range(1, 5)}  # pools may hold kept levels past 4
    for op in fw.BASIC_OPS:
        vop, vi, uop, ui = fw._ROOT_PATTERNS[op]
        u_total = v_total = 0
        for a in range(1, 5):
            for b in range(1, min(4, 6 - a) + 1):  # both pools, at most 6 leaves in all
                v_hits = u_hits = matched = 0
                for u in pools[a]:
                    for v in pools[b]:
                        v_side = type(v) is tuple and v[0] is vop and v[vi] == u
                        u_side = type(u) is tuple and u[0] is uop and u[ui] == v
                        assert not (v_side and u_side), fw.format_word((op, u, v))
                        v_hits += v_side
                        u_hits += u_side
                        matched += not fw.is_reduced((op, u, v))
                assert v_hits + u_hits == matched == fw._cancelled(op, pools[a], index[a], pools[b], index[b])
                u_total += u_hits
                v_total += v_hits
        assert u_total and v_total, op


def test_totality_reduced_plus_unreduced():
    for s, n in [(2, 4), (1, 5)]:
        trees = list(fw.enumerate_basic_trees(s, n))
        reduced = sum(1 for t in trees if fw.is_reduced(t))
        assert reduced + sum(1 for t in trees if not fw.is_reduced(t)) == word_count_bound(s, n)
        assert reduced == fw.count_reduced(s, n) == peri_catalan(s, n)


def test_count_reduced_rooted_examples():
    assert fw.count_reduced_rooted(2, 1, 1, fw.MUL) == 4 == aux_bivariate(2, 1, 1)
    for op in fw.ALL_OPS:
        assert fw.count_reduced_rooted(1, 2, 1, op) == 2
    assert fw.count_reduced_rooted(1, 1, 2, fw.MUL) == 2
    assert fw.count_reduced_rooted(2, 2, 2, fw.OLDIV) == 144


def test_count_reduced_rooted_guards(monkeypatch):
    with pytest.raises(DomainError):
        fw.count_reduced_rooted(1, 1, 1, "mul")
    with pytest.raises(DomainError):
        fw.count_reduced_rooted(1, 0, 2, fw.MUL)
    # 95 698 746 pairs pass the budget; the 10-leaf pool kept beside them does not
    assert word_count_bound(1, 1) * word_count_bound(1, 10) <= fw.ENUM_BUDGET
    with pytest.raises(ResourceGuardError, match="^oracle job of at least 191397492 trees exceeds budget 100000000$"):
        fw.count_reduced_rooted(1, 1, 10, fw.MUL)
    with pytest.raises(ResourceGuardError):
        with monkeypatch.context() as m:
            m.setattr(fw, "ENUM_BUDGET", 1000)
            fw.count_reduced_rooted(2, 3, 3, fw.MUL)


def test_refusal_comes_before_any_pool(monkeypatch):
    # A refused job builds no subtree pool.  The admitted ones, seconds to
    # minutes of work if run, stop at their first pool here.  enumerate (1, 10)
    # streams 95 698 746 trees but holds the 9-leaf pool of 9 382 230 beside them.
    class PoolBuilt(Exception):
        pass

    def pools(*args, **kwargs):
        raise PoolBuilt

    monkeypatch.setattr(fw, "_pools", pools)
    for call in (lambda: fw.count_reduced(1, 11), lambda: fw.enumerate_basic_trees(1, 10),
                 lambda: fw.count_reduced_rooted(1, 1, 10, fw.MUL), lambda: fw.count_reduced_rooted(10_000, 1, 1, fw.MUL)):
        with pytest.raises(ResourceGuardError):
            call()
    for call in (lambda: fw.count_reduced(1, 10), lambda: fw.enumerate_basic_trees(1, 9),
                 lambda: fw.count_reduced_rooted(1, 1, 9, fw.MUL), lambda: fw.count_reduced_rooted(9_999, 1, 1, fw.MUL)):
        with pytest.raises(PoolBuilt):
            call()


@pytest.fixture
def fresh_pools(monkeypatch):
    # no reduced pool kept from an earlier test; the kept state is put back after
    monkeypatch.setattr(fw, "_kept", (None, {}, {}))


def test_kept_pools_are_built_once_per_level(fresh_pools, monkeypatch):
    built = {}
    products = fw._products

    def counted(pools, m):
        built[m] = built.get(m, 0) + 1
        return products(pools, m)

    monkeypatch.setattr(fw, "_products", counted)
    for root in fw.ALL_OPS:
        assert fw.count_reduced_rooted(2, 1, 5, root) == aux_bivariate(2, 1, 5)
    assert built == {2: 1, 3: 1, 4: 1, 5: 1}
    fw.count_reduced(2, 6)
    assert built == {2: 1, 3: 1, 4: 1, 5: 1}
    monkeypatch.setattr(fw, "_kept", (None, {}, {}))
    built.clear()
    assert fw.count_reduced(2, 4) == 1752
    assert built == {2: 1, 3: 1}
    built.clear()
    assert fw.count_reduced(2, 6) == peri_catalan(2, 6)
    assert built == {4: 1, 5: 1}


def test_kept_pools_serve_only_their_s(fresh_pools):
    # each s meets pools of another s kept with more levels than it reads
    for s, n in ((1, 7), (2, 5), (1, 4), (3, 4), (2, 3)):
        assert fw.count_reduced(s, n) == peri_catalan(s, n), (s, n)
        for a in range(1, n):
            for root in fw.ALL_OPS:
                assert fw.count_reduced_rooted(s, a, n - a, root) == aux_bivariate(s, a, n - a), (s, a, root)
        assert fw._kept[0] == s


def test_interrupted_build_keeps_whole_levels(fresh_pools, monkeypatch):
    class Interrupted(Exception):
        pass

    match = fw._basic_root_match
    seen = 0

    def failing(op, u, v):
        nonlocal seen
        if fw.leaf_count(u) + fw.leaf_count(v) == 5:
            seen += 1
            if seen == 1000:
                raise Interrupted
        return match(op, u, v)

    fw.count_reduced(2, 4)
    with monkeypatch.context() as m:
        m.setattr(fw, "_basic_root_match", failing)
        with pytest.raises(Interrupted):
            fw.count_reduced(2, 6)
    assert seen == 1000 and sorted(fw._kept[1]) == [1, 2, 3, 4]
    assert fw.count_reduced(2, 6) == peri_catalan(2, 6)
    for root in fw.ALL_OPS:
        assert fw.count_reduced_rooted(2, 2, 3, root) == aux_bivariate(2, 2, 3)
    kept = fw._kept[1]
    monkeypatch.setattr(fw, "_kept", (None, {}, {}))
    assert kept == fw._pools(2, 5, reduced=True)


def test_refused_job_leaves_kept_pools_alone(fresh_pools, monkeypatch):
    fw.count_reduced(2, 5)
    kept = fw._kept
    levels = {m: list(pool) for m, pool in kept[1].items()}
    indexes = sorted(kept[2])
    monkeypatch.setattr(fw, "ENUM_BUDGET", 10**5)
    for call in (lambda: fw.count_reduced(2, 6), lambda: fw.count_reduced(3, 6),
                 lambda: fw.count_reduced_rooted(2, 4, 3, fw.MUL), lambda: fw.count_reduced_rooted(1, 1, 9, fw.OMUL),
                 lambda: fw.enumerate_basic_trees(1, 8)):
        with pytest.raises(ResourceGuardError):
            call()
        assert fw._kept is kept and kept[0] == 2
        assert kept[1] == levels and sorted(kept[2]) == indexes


def test_nodal_class_of_leaf():
    assert fw.nodal_class(7) == {7}


def test_nodal_class_worked_example():
    w = (fw.RDIV, (fw.MUL, A, B), C)
    assert fw.nodal_class(w) == {
        (fw.RDIV, (fw.MUL, A, B), C),
        (fw.RDIV, (fw.OMUL, B, A), C),
        (fw.ORDIV, C, (fw.MUL, A, B)),
        (fw.ORDIV, C, (fw.OMUL, B, A)),
    }


def test_nodal_class_size_length_four():
    w = (fw.LDIV, (fw.MUL, A, B), (fw.RDIV, C, A))
    assert len(fw.nodal_class(w)) == 8


def test_nodal_class_guard(monkeypatch):
    w = 1
    for i in range(17):
        w = (fw.MUL, w, 1)
    assert fw.leaf_count(w) == 18
    with pytest.raises(ResourceGuardError):
        fw.nodal_class(w)
    monkeypatch.setattr(fw, "MAX_CLASS_LENGTH", 18)
    assert len(fw.nodal_class(w)) == 2**17


def test_normalize_single_swap():
    assert fw.normalize_full((fw.OMUL, B, A)) == (fw.MUL, A, B)
    assert fw.normalize_full((fw.OLDIV, (fw.OMUL, B, A), C)) == (fw.LDIV, C, (fw.MUL, A, B))


def test_normalize_identity_on_basic():
    w = (fw.LDIV, (fw.MUL, A, B), C)
    assert fw.normalize_full(w) is w


def test_format_word_glyphs():
    assert fw.format_word((fw.MUL, A, B)) == "(a*b)"
    assert fw.format_word((fw.OMUL, B, A)) == "(b@a)"
    assert fw.format_word((fw.OLDIV, A, B)) == "(a\\\\b)"
    assert fw.format_word((fw.ORDIV, A, B)) == "(a//b)"
    assert fw.format_word(26) == "z"
    assert fw.format_word(27) == "a27"


def test_parse_examples():
    w = fw.parse_word("(a*(a\\b))")
    assert w == (fw.MUL, A, (fw.LDIV, A, B))
    assert not fw.is_reduced(w)
    assert fw.format_word(fw.parse_word("((a*b)/c)")) == "((a*b)/c)"
    assert fw.parse_word("a30") == 30
    assert fw.parse_word(" ( a * b ) ") == (fw.MUL, A, B)


def test_parse_depth_guard():
    deep = "(" * 1000 + "a" + "*a)" * 1000
    with pytest.raises(ResourceGuardError, match="depth 201 .* limit 200"):
        fw.parse_word(deep)


def test_parse_at_depth_limit():
    text = "(" * fw.MAX_WORD_DEPTH + "a" + "*a)" * fw.MAX_WORD_DEPTH
    w = fw.parse_word(text)
    assert fw.leaf_count(w) == fw.MAX_WORD_DEPTH + 1
    assert fw.is_reduced(w)
    assert fw.format_word(w) == text


def test_parse_generator_bound():
    assert fw.parse_word("c", s=3) == 3
    with pytest.raises(WordSyntaxError):
        fw.parse_word("d", s=3)
    with pytest.raises(WordSyntaxError):
        fw.parse_word("a4", s=3)


@pytest.mark.parametrize(
    "text,where",
    [
        ("(a*b", "position 5"),
        ("a0", "position 1"),
        ("(a?b)", "position 3"),
        ("", "position 1"),
        ("a b", "position 3"),
        ("(a*b))", "position 6"),
        ("((a*b)\\\\c)", "position 8"),
        ("(a@b)", "position 3"),
        ("(b*a\u00b2)", "position 4"),
        ("(b1*a)", "unknown generator 'b1' at position 2"),
    ],
)
def test_parse_errors_carry_position(text, where):
    with pytest.raises(WordSyntaxError, match=where):
        fw.parse_word(text)


def test_parse_index_past_int_digit_limit(int_digit_limit):
    with pytest.raises(WordSyntaxError, match="position 1"):
        fw.parse_word("a" + "1" * 5000)


def _basic_trees(max_s=3):
    leaf = st.integers(1, max_s)
    node = lambda kids: st.tuples(st.sampled_from(fw.BASIC_OPS), kids, kids)
    return st.recursive(leaf, node, max_leaves=12)


def _full_trees(max_s=3):
    leaf = st.integers(1, max_s)
    node = lambda kids: st.tuples(st.sampled_from(fw.ALL_OPS), kids, kids)
    return st.recursive(leaf, node, max_leaves=12)


@given(_basic_trees())
@settings(max_examples=300, deadline=None)
def test_predicates_agree_on_random_trees(w):
    assert fw.is_reduced(w) == fw.is_reduced_triality(w)


@given(_basic_trees())
@settings(max_examples=120, deadline=None)
def test_orbit_properties_random(w):
    n = fw.leaf_count(w)
    cls = fw.nodal_class(w)
    assert len(cls) == 2 ** (n - 1)
    assert all(fw.normalize_full(f) == w for f in cls)
    r = fw.is_reduced(w)
    assert all(fw.is_reduced_triality(f) == r for f in cls)


@given(_full_trees())
@settings(max_examples=200, deadline=None)
def test_triality_on_full_trees_matches_basic_form(f):
    w = fw.normalize_full(f)
    assert is_basic_tree(w)
    assert fw.leaf_count(w) == fw.leaf_count(f)
    assert fw.is_reduced_triality(f) == fw.is_reduced(w)
    assert fw.normalize_full(fw.normalize_full(f)) == w


@given(_basic_trees())
@settings(max_examples=200, deadline=None)
def test_parse_format_round_trip(w):
    assert fw.parse_word(fw.format_word(w)) == w
