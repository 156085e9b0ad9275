"""Division-algorithm traces: quotients, remainders and sign offsets.

The closed-form word count is a signed sum over, for every pair (n, k)
with 1 <= k < n, the full run of the division algorithm on (n, k), with
the partial quotient sums driving the alternating signs.  The first
step, from j = 1 with eps_0 = 1, is the step on (n - k, k) from j = 0 and
is empty when 2k > n, so block k equals block n - k.  Hence
enumeration._closed_form_value walks only k <= n/2, each run from
(n - k, k), and weights the blocks off the diagonal 2k = n by 2.  A
trace here is the tested reference for that walk, term by term.
Indexing convention: remainders r_{-1} = n, r_0 = k, ..., r_L = gcd(n, k),
r_{L+1} = 0, with r_{l-2} = q_l * r_{l-1} + r_l for l = 1 .. L+1.
"""

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class EuclidTrace:
    """One complete run of the division algorithm on (n, k), 1 <= k < n.

    remainders holds r_{-1} .. r_{L+1} (length steps + 3), quotients holds
    q_1 .. q_{L+1}, epsilons holds the offsets eps_0 .. eps_L where
    eps_0 = 1 and eps_{l+1} = eps_l + q_{l+1}.
    """

    n: int
    k: int
    remainders: tuple[int, ...]
    quotients: tuple[int, ...]
    epsilons: tuple[int, ...]
    steps: int

    @property
    def gcd(self) -> int:
        return self.remainders[self.steps + 1]


def euclid_trace(n: int, k: int) -> EuclidTrace:
    """Run the division algorithm on (n, k) and record the whole trace."""
    if n < 2 or k < 1 or k >= n:
        raise DomainError(f"euclid_trace needs 1 <= k < n with n >= 2, got n={n} k={k}")
    remainders = [n, k]
    quotients = []
    while remainders[-1] != 0:
        q, r = divmod(remainders[-2], remainders[-1])
        quotients.append(q)
        remainders.append(r)
    steps = len(quotients) - 1
    epsilons = [1]
    for l in range(steps):
        epsilons.append(epsilons[-1] + quotients[l])
    return EuclidTrace(
        n=n,
        k=k,
        remainders=tuple(remainders),
        quotients=tuple(quotients),
        epsilons=tuple(epsilons),
        steps=steps,
    )
