import math

import pytest
from hypothesis import given, strategies as st

from pericatalan.errors import DomainError
from pericatalan.euclid import euclid_trace


def test_trace_4_3():
    t = euclid_trace(4, 3)
    assert t.remainders == (4, 3, 1, 0)
    assert t.quotients == (1, 3)
    assert t.steps == 1
    assert t.epsilons == (1, 2)
    assert t.gcd == 1


def test_trace_4_1():
    t = euclid_trace(4, 1)
    assert t.remainders == (4, 1, 0)
    assert t.quotients == (4,)
    assert t.steps == 0
    assert t.epsilons == (1,)
    assert t.gcd == 1


def test_trace_10_4():
    t = euclid_trace(10, 4)
    assert t.remainders == (10, 4, 2, 0)
    assert t.quotients == (2, 2)
    assert t.steps == 1
    assert t.epsilons == (1, 3)
    assert t.gcd == 2


@pytest.mark.parametrize("n,k", [(1, 1), (2, 0), (2, 2), (5, 7), (0, 1), (3, -1)])
def test_domain_errors(n, k):
    with pytest.raises(DomainError):
        euclid_trace(n, k)


@given(st.integers(2, 5000), st.data())
def test_trace_invariants(n, data):
    k = data.draw(st.integers(1, n - 1))
    t = euclid_trace(n, k)
    r, q, eps = t.remainders, t.quotients, t.epsilons
    assert r[0] == n and r[1] == k and r[-1] == 0
    assert len(r) == t.steps + 3
    assert len(q) == len(eps) == t.steps + 1
    assert r[-2] == math.gcd(n, k)
    # each division step reconstructs: r_{l-2} = q_l * r_{l-1} + r_l
    for l in range(1, t.steps + 2):
        assert r[l - 1] == q[l - 1] * r[l] + r[l + 1]
    # remainders strictly decrease from r_0 and quotients stay positive
    for i in range(1, len(r) - 1):
        assert r[i] > r[i + 1]
    assert all(qi >= 1 for qi in q)
    # offsets telescope the quotient prefix sums
    assert eps[0] == 1
    for i in range(len(eps)):
        assert eps[i] == 1 + sum(q[:i])


def test_fibonacci_pairs_are_worst_case():
    # consecutive Fibonacci inputs force quotient 1 at every step but the last
    fib = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    for lo, hi in zip(fib[1:], fib[2:]):
        t = euclid_trace(hi, lo)
        assert t.quotients[-1] == 2
        assert all(qi == 1 for qi in t.quotients[:-1])
        assert t.steps == len(t.quotients) - 1
        assert t.gcd == 1
