"""Dimensions of the group-invariant eigenspaces of a lens space.

dim H^G_(p,q) equals the number of pairs (alpha, beta) of exponent tuples
with |alpha| = p, |beta| = q, alpha_1 = 0 or beta_1 = 0, and
sum l_j (alpha_j - beta_j) = 0 mod k.  As P_(p,q) = H_(p,q) + |z|^2 P_(p-1,q-1)
with |z|^2 invariant, that is also N(p, q) - N(p-1, q-1), N counting all
invariant monomials z^alpha zbar^beta.  Three routes to the count live
here: a literal enumeration (the oracle), a residue-class convolution
for N (the route for n >= 3, and the independent check for n = 2), and,
for n = 2, the paper's count m_pq + n_pq - [k | p - q] in closed form,
O(1) per bidegree after one modular inverse per space.  `dim_cell` is
the one place that picks a space's route: the closed form for n = 2, the
convolution otherwise; the tests keep the convolution as the n = 2 check.
The n = 2 shift recurrence reduces any bidegree to a k x k base table
filled from the closed form.  The convolution's residue profiles are row
functions, sized to no degree.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from operator import add, mul
from typing import Callable, Iterator

from .core import (
    DEFAULT_BUDGET,
    LensSpace,
    UnsupportedDimension,
    charge,
    gcd_invariant,
)


def divides(k: int, a: int) -> int:
    """1 if k divides a, else 0.  a may be negative."""
    return 1 if a % k == 0 else 0


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def dim_invariant_bruteforce(
    space: LensSpace, p: int, q: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Count the invariant dimension by exhaustive pair enumeration.

    This is the oracle every faster path is checked against.  Scans all
    C(p+n-1, n-1) * C(q+n-1, n-1) candidate pairs; raises ResourceLimit
    if that product exceeds the budget.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    n, k, weights = space.n, space.k, space.weights
    charge(comb(p + n - 1, n - 1) * comb(q + n - 1, n - 1), budget)

    def residue(t: tuple[int, ...]) -> int:
        return sum(w * e for w, e in zip(weights, t)) % k

    beta_all = [residue(b) for b in compositions(q, n)]
    beta_first_zero = [residue(b) for b in compositions(q, n) if b[0] == 0]
    count = 0
    for alpha in compositions(p, n):
        r = residue(alpha)
        if alpha[0] == 0:
            count += beta_all.count(r)
        else:
            count += beta_first_zero.count(r)
    return count


@lru_cache(maxsize=None)
def _profile_rows(weights: tuple[int, ...], k: int) -> Callable[[int], tuple[int, ...]]:
    """Residue profiles of the weight list, as a memoized function of degree.

    Row t, column r counts exponent tuples of degree t whose weighted sum
    is r mod k.  With m weights, rows t < mk are filled on demand, O(mk)
    each, by new[t][r] = old[t][r] + new[t-1][r-w] on the newest rows of
    the partial products.  The generating function is P(t)/(1 - t^k)^m,
    deg P = m(k - 1), so row e + ck is a polynomial of degree < m in c for
    all c >= 0: a later row is interpolated from rows e + ik, i < m, in O(mk).
    A zero weight appended makes row t the sum of rows 0..t (a slack).
    """
    m = len(weights)
    newest = [(1,) + (0,) * (k - 1)] * m  # the newest row of each partial product
    filled, memo = [newest[0]], {}

    def profile(t: int) -> tuple[int, ...]:
        if t not in memo:
            while len(filled) <= min(t, m * k - 1):
                for j, w in enumerate(weights):
                    shifted = newest[j][k - w % k :] + newest[j][: k - w % k]
                    newest[j] = tuple(map(add, newest[j - 1] if j else (0,) * k, shifted))
                filled.append(newest[-1])
            c, e = divmod(t, k)
            if c < m:
                memo[t] = filled[t]
            else:  # The exact integer Lagrange weights on the nodes c = 0..m-1.
                lagrange = [(-1) ** (m - 1 - i) * comb(c, i) * comb(c - i - 1, m - 1 - i)
                            for i in range(m)]
                memo[t] = tuple(sum(map(mul, lagrange, col)) for col in zip(*filled[e::k]))
        return memo[t]

    return profile


def exponent_profile(space: LensSpace, degree: int) -> tuple[int, ...]:
    """Counts, per residue class mod k, of exponent tuples of total degree.

    Entry r is #{alpha >= 0, |alpha| = degree, sum l_i alpha_i = r mod k};
    the entries sum to C(degree + n - 1, n - 1).
    """
    return _profile_rows(space.weights, space.k)(degree)


def _correlate_zero(a: tuple[int, ...], b: tuple[int, ...], k: int) -> int:
    """Number of cross pairs whose residues sum to 0 mod k."""
    return sum(a[r] * b[-r % k] for r in range(k))


def dim_invariant_dp(space: LensSpace, p: int, q: int) -> int:
    """Invariant dimension N(p, q) - N(p-1, q-1) by residue-class convolution.

    N(p, q) correlates profile row p of the weights with profile row q of
    the negated weights; the second term is absent when
    p = 0 or q = 0.  Multiplying by z_1 zbar_1 maps the (p-1, q-1) pairs
    one-to-one, residue kept, onto the pairs with alpha_1, beta_1 >= 1, so
    this is the alpha_1 = 0 or beta_1 = 0 count of the oracle.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    k, weights = space.k, space.weights
    alpha = _profile_rows(weights, k)
    beta = _profile_rows(tuple(-w % k for w in weights), k)
    count = _correlate_zero(alpha(p), beta(q), k)
    if p and q:
        count -= _correlate_zero(alpha(p - 1), beta(q - 1), k)
    return count


@dataclass(frozen=True)
class MNCounts:
    """Solution counts of the two one-variable congruences behind n = 2.

    m_pq counts beta_1 in [0, q] with l_1(-beta_1) + l_2(p-q+beta_1) = 0
    mod k (the alpha_1 = 0 branch); n_pq counts alpha_1 in [0, p] with
    l_1 alpha_1 + l_2(p-q-alpha_1) = 0 mod k (beta_1 = 0).  The invariant
    dimension is m_pq + n_pq - divides(k, p-q).
    """

    m_pq: int
    n_pq: int


def _congruence(space: LensSpace) -> tuple[int, int, int]:
    """(d, s, c), which bind the n = 2 closed form of the space.

    With r = p - q, both congruences of `MNCounts` read
    (l_1 - l_2) x = -l_2 r mod k, for x = alpha_1 and for x = -beta_1.
    l_2 is a unit, so they are solvable iff d = gcd(k, l_1 - l_2) divides
    r, and then exactly for x = a mod s, where s = k/d, a = c r/d mod s
    and c = -l_2 ((l_1 - l_2)/d)^-1 mod s.  Hence n_pq = floor((p - a)/s)
    + 1 and m_pq = floor((q + a)/s) + [a = 0].  As c is a unit mod s,
    a = 0 iff k | r, so dim = floor((p - a)/s) + floor((q + a)/s) + 1.
    """
    l1, l2 = space.weights
    d = gcd_invariant(space)
    s = space.k // d
    return d, s, -l2 * pow((l1 - l2) // d, -1, s) % s


def _closed_form(space: LensSpace) -> Callable[[int, int], int]:
    """The n = 2 dimension as a function of p, q >= 0, in O(1) per cell."""
    d, s, c = _congruence(space)

    def dim(p: int, q: int) -> int:
        if (p - q) % d:
            return 0
        a = c * ((p - q) // d) % s
        return (p - a) // s + (q + a) // s + 1

    return dim


def mn_counts(space: LensSpace, p: int, q: int) -> MNCounts:
    """Count the two congruence branches separately (n = 2 only), in O(1)."""
    if space.n != 2:
        raise UnsupportedDimension(f"mn_counts needs n = 2, got n={space.n}")
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    d, s, c = _congruence(space)
    if (p - q) % d:
        return MNCounts(m_pq=0, n_pq=0)
    a = c * ((p - q) // d) % s
    return MNCounts(m_pq=(q + a) // s + (a == 0), n_pq=(p - a) // s + 1)


@lru_cache(maxsize=None)
def base_dim_table(space: LensSpace) -> tuple[tuple[int, ...], ...]:
    """The k x k table of invariant dimensions for 0 <= p, q < k (n = 2).

    The shift recurrence reduces every bidegree to this table, so it is
    the complete spectral fingerprint of a 3-d lens space.  Filled from
    the closed form in O(k^2); cached per space.
    """
    if space.n != 2:
        raise UnsupportedDimension(f"base table needs n = 2, got n={space.n}")
    k, dim = space.k, _closed_form(space)
    return tuple(tuple(dim(p, q) for q in range(k)) for p in range(k))


def dim_invariant_recurrence(
    space: LensSpace, p: int, q: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Invariant dimension via the n = 2 reduction to the base table.

    Returns 0 when d = gcd(k, l_1 - l_2) does not divide p - q; otherwise
    base[p%k][q%k] + d*(floor(p/k) + floor(q/k)).  The table's k^2
    entries are charged against the budget, even when cached; over it
    raises ResourceLimit before the fill.
    """
    if space.n != 2:
        raise UnsupportedDimension(f"recurrence needs n = 2, got n={space.n}")
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    charge(space.k**2, budget)
    k, d = space.k, gcd_invariant(space)
    if (p - q) % d:
        return 0
    return base_dim_table(space)[p % k][q % k] + d * (p // k + q // k)


def dim_cell(space: LensSpace) -> Callable[[int, int], int]:
    """dim_invariant(space, p, q) as a function of p, q >= 0 alone.

    The one place that picks the per-cell route for a space: the n = 2
    closed form, O(1) per cell with no table, or for higher n the space
    bound to the convolution.  A caller asking about many cells binds it
    once.  Bidegrees are not sign-checked.
    """
    return _closed_form(space) if space.n == 2 else partial(dim_invariant_dp, space)


def dim_invariant(space: LensSpace, p: int, q: int) -> int:
    """Invariant dimension by the fastest exact route for the space.

    The route is `dim_cell`'s.  k = 1 degenerates to the full sphere
    eigenspace dimension either way.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    return dim_cell(space)(p, q)


def clear_caches() -> None:
    """Drop the memoized profiles and base tables (mainly for tests)."""
    _profile_rows.cache_clear()
    base_dim_table.cache_clear()
