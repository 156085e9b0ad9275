"""Term-level model of free quasigroup words.

Words are binary trees: a leaf is a generator index (int, 1-based), a
node is a tuple (op, left, right) with op one of six operation symbols.
Basic trees use only {*, \\, /}; full trees admit the three opposites
{@, \\\\, //} as well.

The six symbols carry the right regular S3 structure: each op is tagged
with a permutation g, the denoted operation being the g-conjugate of
multiplication.  Left multiplication by sigma (swap of the first two
points) turns an operation into its opposite; left multiplication by
tau (swap of the last two) gives the partner operation whose
composition cancels:  x op2 (x op1 y) = y  whenever op2 is the cancel
partner of op1, up to nodal swaps of either node.

A word is reduced when no subtree matches one of the six cancelation
patterns

    A*(A\\B)   A\\(A*B)   (B/A)*A   (B*A)/A   A/(B\\A)   (A/B)\\A

with the repeated subterm A matched by structural equality.  is_reduced
checks these patterns directly (basic trees only); is_reduced_triality
derives the same answer from the cancel-partner relation plus nodal
swaps, and also accepts full trees.

The brute-force oracle (count_reduced, count_reduced_rooted) builds its
subtree pools from reduced trees only.  Every subterm of a reduced word
is reduced, so these pools lose no reduced word, and a candidate
(op, u, v) drawn from them is reduced iff its root matches no pattern.
Both counts read one join counter, _joins.  The reduced pools of the
last s counted stay in memory with their op indexes, a later call on
that s builds only the levels past their top, and another s drops them
before it builds any.  _joins counts each split (a, b, op) of a list as
|pool_a|·|pool_b| less the candidates that match the op's v-side
pattern (v's root op is the pattern's and one of v's children equals u)
or its u-side one (the same with u and v swapped).  These are found by
scanning the pools, not by building each candidate.  No candidate
matches both, since that needs u a child of v and v a child of u.  The
oracle still counts without any formula and stays an independent check
on the closed form and the recursion.

Nodal equivalence: swapping the children of any node while replacing
its operation with the opposite leaves the denoted element fixed.  The
orbit of an n-leaf word has exactly 2^(n-1) members and contains one
basic word, recovered by normalize_full.
"""

from itertools import product

from .errors import DomainError, ResourceGuardError, WordSyntaxError

ENUM_BUDGET = 10**8
MAX_CLASS_LENGTH = 16
# parse_word refuses deeper '(' nesting, which keeps it and the recursive
# walks (is_reduced, format_word, leaf_count) far from Python's recursion
# limit on any parsed word.
MAX_WORD_DEPTH = 200
# (s, reduced pools, op indexes) of the last s counted; see _pools and _joins
_kept = (None, {}, {})

_IDENTITY = (0, 1, 2)
_SIGMA = (1, 0, 2)
_TAU = (0, 2, 1)


def _compose(a, b):
    # apply b first, then a
    return (a[b[0]], a[b[1]], a[b[2]])


class OpSymbol:
    """One of the six operation symbols; module-level singletons.

    perm is the S3 tag, composed with _compose.  opposite and cancel hold
    the prewired sigma- and tau-translates.
    """

    __slots__ = ("perm", "name", "glyph", "is_basic", "opposite", "cancel")

    def __init__(self, perm, name, glyph):
        self.perm = perm
        self.name = name
        self.glyph = glyph
        self.is_basic = False
        self.opposite = None
        self.cancel = None

    def __repr__(self):
        return f"<op {self.name}>"


MUL = OpSymbol(_IDENTITY, "mul", "*")
LDIV = OpSymbol(_TAU, "ldiv", "\\")
RDIV = OpSymbol(_compose(_SIGMA, _compose(_TAU, _SIGMA)), "rdiv", "/")
OMUL = OpSymbol(_SIGMA, "omul", "@")
OLDIV = OpSymbol(_compose(_SIGMA, _TAU), "oldiv", "\\\\")
ORDIV = OpSymbol(_compose(_TAU, _SIGMA), "ordiv", "//")

BASIC_OPS = (MUL, LDIV, RDIV)
ALL_OPS = (MUL, LDIV, RDIV, OMUL, OLDIV, ORDIV)
_OP_BY_PERM = {op.perm: op for op in ALL_OPS}

for _op in ALL_OPS:
    _op.is_basic = _op in BASIC_OPS
    _op.opposite = _OP_BY_PERM[_compose(_SIGMA, _op.perm)]
    _op.cancel = _OP_BY_PERM[_compose(_TAU, _op.perm)]
del _op


def leaf_count(w) -> int:
    if type(w) is int:
        return 1
    return leaf_count(w[1]) + leaf_count(w[2])


def _guard_enum(s, a, b=0, kept=0):
    # The oracle's one limit, ENUM_BUDGET, read at call time.  A job is
    # priced at the trees it streams, word_count_bound(s, a) for b = 0 and
    # the pairs of a rooted split otherwise, plus the kept-leaf pool it
    # holds, if any.  Each bound is walked up as in enumeration._load_cache
    # and cut off past the budget, so a huge job prices only small integers.
    if s < 1 or a < 1:
        raise DomainError(f"enumeration needs s >= 1 and n >= 1, got s={s} n={a}")

    def trees(n):
        t = s
        for m in range(1, n):
            if t > ENUM_BUDGET:
                break
            t = t * 3 * s * 2 * (2 * m - 1) // (m + 1)
        return t

    price = (trees(a) * trees(b) if b else trees(a)) + (trees(kept) if kept else 0)
    if price > ENUM_BUDGET:
        raise ResourceGuardError(f"oracle job of at least {price} trees exceeds budget {ENUM_BUDGET}")


def _products(pools, m):
    # Every basic tree with m >= 2 leaves built from the smaller pools,
    # in the fixed stream order: split point, then root op, then left
    # subtree, then right.
    for a in range(1, m):
        yield from product(BASIC_OPS, pools[a], pools[m - a])


def _pools(s, up_to, reduced=False):
    # All basic trees of each leaf count 1..up_to, in stream order; with
    # reduced=True only the reduced ones, each kept on its root test
    # alone because its subtrees come from reduced pools.  Those are
    # _kept's: a new s drops the old ones first, a kept s builds only
    # the levels past its top, each stored once its list is complete.
    global _kept
    if reduced and _kept[0] != s:
        _kept = (s, {1: list(range(1, s + 1))}, {})
    pools = _kept[1] if reduced else {1: list(range(1, s + 1))}
    for m in range(len(pools) + 1, up_to + 1):
        trees = _products(pools, m)
        pools[m] = [t for t in trees if not _basic_root_match(*t)] if reduced else list(trees)
    return pools


def enumerate_basic_trees(s: int, n: int):
    """Stream of every basic tree with n leaves on s generators.

    Deterministic order; total count 3^(n-1) * s^n * catalan(n).  That
    count, plus the (n-1)-leaf pool held while streaming, is priced
    against ENUM_BUDGET, read at call time, before any tree or subtree
    pool is built.
    """
    _guard_enum(s, n, kept=n - 1)
    return iter(range(1, s + 1)) if n == 1 else _products(_pools(s, n - 1), n)


# The six patterns, two per basic root op, as (vop, vi, uop, ui): (op, u, v)
# cancels iff v[0] is vop and v[vi] == u, or u[0] is uop and u[ui] == v.
_ROOT_PATTERNS = {
    MUL: (LDIV, 1, RDIV, 2),  # A*(A\B), (B/A)*A
    LDIV: (MUL, 1, RDIV, 1),  # A\(A*B), (A/B)\A
    RDIV: (LDIV, 2, MUL, 2),  # A/(B\A), (B*A)/A
}


def _basic_root_match(op, u, v):
    # Does (op, u, v) match one of the six patterns at its root?
    vop, vi, uop, ui = _ROOT_PATTERNS[op]
    return (type(v) is tuple and v[0] is vop and v[vi] == u) or (type(u) is tuple and u[0] is uop and u[ui] == v)


def is_reduced(w) -> bool:
    """True iff no subtree of the basic tree w matches a cancelation
    pattern.  Assumes basic annotations; normalize full trees first."""
    if type(w) is int:
        return True
    op, u, v = w
    return is_reduced(u) and is_reduced(v) and not _basic_root_match(op, u, v)


def _nodally_equal(x, y):
    if x == y:
        return True
    return normalize_full(x) == normalize_full(y)


def _triality_root_match(op, u, v):
    # Cancelation at the root, found through the operation algebra: the
    # right child cancels when its op is the cancel partner of op and
    # its left child repeats u (or the nodally swapped reading of that),
    # and symmetrically for the left child under the opposite root.
    cancel = op.cancel
    if type(v) is tuple:
        h = v[0]
        if h is cancel and _nodally_equal(v[1], u):
            return True
        if h.opposite is cancel and _nodally_equal(v[2], u):
            return True
    cancel_opp = op.opposite.cancel
    if type(u) is tuple:
        h = u[0]
        if h is cancel_opp and _nodally_equal(u[1], v):
            return True
        if h.opposite is cancel_opp and _nodally_equal(u[2], v):
            return True
    return False


def is_reduced_triality(w) -> bool:
    """Reducedness derived from the S3 operation algebra; accepts both
    basic and full trees, with repeated subterms compared up to nodal
    equivalence.  Agrees with is_reduced on basic trees."""
    if type(w) is int:
        return True
    op, u, v = w
    if not (is_reduced_triality(u) and is_reduced_triality(v)):
        return False
    return not _triality_root_match(op, u, v)


def _op_index(pool):
    # The members of a pool by root op, one list slot per member; a leaf
    # has no root op and is in no list.
    index = {op: [] for op in BASIC_OPS}
    for t in pool:
        if type(t) is tuple:
            index[t[0]].append(t)
    return index


def _cancelled(op, us, u_index, vs, v_index):
    # How many candidates (op, u, v), u from us and v from vs, match a
    # pattern at the root: the v-side ones (v[0] is vop, v[vi] == u) plus
    # the u-side ones (u[0] is uop, u[ui] == v).  Only members with the
    # pattern's root op can hold the repeated child, so each side reads
    # one list of an op index.  The Python loop runs over the smaller
    # pool, and each list.count scans the other side in C.  No candidate
    # matches both sides: u a child of v and v a child of u would make u
    # a proper subtree of itself.  So the two sides' hits add.
    vop, vi, uop, ui = _ROOT_PATTERNS[op]
    if len(us) <= len(vs):
        kids = [v[vi] for v in v_index[vop]]
        return sum(map(kids.count, us)) + sum(vs.count(u[ui]) for u in u_index[uop])
    kids = [u[ui] for u in u_index[uop]]
    return sum(map(kids.count, vs)) + sum(us.count(v[vi]) for v in v_index[vop])


def _joins(s, up_to, splits):
    # The reduced joins of each split (a, b, op), op basic, from the kept
    # reduced pools 1..up_to; only the pools the splits read are indexed,
    # each once while it is kept.
    pools = _pools(s, up_to, reduced=True)
    index = _kept[2]
    for m in {x for a, b, _ in splits for x in (a, b)} - index.keys():
        index[m] = _op_index(pools[m])
    return [len(pools[a]) * len(pools[b]) - _cancelled(op, pools[a], index[a], pools[b], index[b])
            for a, b, op in splits]


def count_reduced(s: int, n: int) -> int:
    """Brute-force reduced-word count, independent of the counting
    formulas: the reduced joins summed over the 3(n-1) splits of n leaves
    into a root op and two subtree sizes.  The guard still prices the
    full 3^(n-1) s^n C_n basic trees against ENUM_BUDGET, read at call
    time: to lift the limit, set the module constant."""
    _guard_enum(s, n)
    if n == 1:
        return s
    return sum(_joins(s, n - 1, [(a, n - a, op) for a in range(1, n) for op in BASIC_OPS]))


def count_reduced_rooted(s: int, a: int, b: int, root: OpSymbol) -> int:
    """Reduced trees joining an a-leaf and a b-leaf basic subtree under
    a fixed root operation, any of the six: the reduced joins of the one
    split (a, b, root), an opposite root read through its basic nodal
    representative (op.opposite, y, x) as the split (b, a, op.opposite).
    The guard prices the pairs of the full basic a- and b-leaf pools plus
    the max(a, b)-leaf pool it keeps against ENUM_BUDGET, read at call
    time."""
    if not isinstance(root, OpSymbol):
        raise DomainError(f"root must be an OpSymbol, got {root!r}")
    if s < 1 or a < 1 or b < 1:
        raise DomainError(f"count_reduced_rooted needs s, a, b >= 1, got s={s} a={a} b={b}")
    _guard_enum(s, a, b, kept=max(a, b))
    if not root.is_basic:
        root, a, b = root.opposite, b, a
    return _joins(s, max(a, b), [(a, b, root)])[0]


def _orbit(w):
    if type(w) is int:
        return {w}
    op, u, v = w
    out = set()
    opp = op.opposite
    for x in _orbit(u):
        for y in _orbit(v):
            out.add((op, x, y))
            out.add((opp, y, x))
    return out


def nodal_class(w) -> set:
    """Orbit of w under all node swaps: exactly 2^(n-1) full trees.
    Words over MAX_CLASS_LENGTH leaves are refused."""
    n = leaf_count(w)
    if n > MAX_CLASS_LENGTH:
        raise ResourceGuardError(
            f"nodal class of a length-{n} word has 2^{n - 1} members, over the {MAX_CLASS_LENGTH}-leaf limit"
        )
    return _orbit(w)


def normalize_full(f):
    """The unique basic tree nodally equivalent to f.  Swaps every node
    carrying an opposite operation; returns basic input unchanged."""
    if type(f) is int:
        return f
    op, u, v = f
    nu = normalize_full(u)
    nv = normalize_full(v)
    if op.is_basic:
        if nu is u and nv is v:
            return f
        return (op, nu, nv)
    return (op.opposite, nv, nu)


_PARSE_OPS = {op.glyph: op for op in BASIC_OPS}


def format_word(w) -> str:
    """Canonical text: generators a..z (a<i> past 26), every compound
    fully parenthesized.  Full-tree glyphs @ \\\\ // are emitted but not
    part of the input grammar."""
    if type(w) is int:
        if w <= 26:
            return chr(96 + w)
        return f"a{w}"
    op, u, v = w
    return f"({format_word(u)}{op.glyph}{format_word(v)})"


def parse_word(text: str, s: int | None = None):
    """Parse canonical word text back into a basic tree.

    Grammar: word := generator | '(' word OP word ')' with OP one of
    * / \\; generators are letters a..z or a<index>.  If s is given,
    generator indices above s are rejected.  Nesting deeper than
    MAX_WORD_DEPTH raises ResourceGuardError.
    """
    pos = 0
    size = len(text)

    def skip():
        nonlocal pos
        while pos < size and text[pos] == " ":
            pos += 1

    def fail(msg, at):
        raise WordSyntaxError(f"{msg} at position {at + 1}")

    def word(depth):
        nonlocal pos
        skip()
        if pos >= size:
            fail("unexpected end of input", pos)
        c = text[pos]
        if c == "(":
            if depth == MAX_WORD_DEPTH:
                raise ResourceGuardError(
                    f"word nesting depth {depth + 1} at position {pos + 1} exceeds limit {MAX_WORD_DEPTH}"
                )
            start = pos
            pos += 1
            left = word(depth + 1)
            skip()
            if pos >= size or text[pos] not in _PARSE_OPS:
                fail("expected operator * / \\", pos)
            op = _PARSE_OPS[text[pos]]
            pos += 1
            right = word(depth + 1)
            skip()
            if pos >= size or text[pos] != ")":
                fail(f"missing ')' for '(' opened at position {start + 1}", pos)
            pos += 1
            return (op, left, right)
        if "a" <= c <= "z":
            start = pos
            pos += 1
            while pos < size and text[pos].isdigit():
                pos += 1
            tok = text[start:pos]
            if len(tok) == 1:
                idx = ord(tok) - 96
            elif tok[0] == "a":
                try:
                    idx = int(tok[1:])
                except ValueError as e:  # a non-ASCII digit, or past sys.get_int_max_str_digits()
                    fail(f"bad generator index ({e})", start)
            else:
                fail(f"unknown generator {tok!r}", start)
            if idx < 1 or (s is not None and idx > s):
                fail(f"unknown generator {tok!r}", start)
            return idx
        fail(f"unexpected character {c!r}", pos)

    w = word(0)
    skip()
    if pos != size:
        fail(f"trailing input {text[pos:]!r}", pos)
    return w
