"""Dimensions of the group-invariant eigenspaces of a lens space.

dim H^G_(p,q) equals the number of pairs (alpha, beta) of exponent tuples
with |alpha| = p, |beta| = q, alpha_1 = 0 or beta_1 = 0, and
sum l_j (alpha_j - beta_j) = 0 mod k.  As P_(p,q) = H_(p,q) + |z|^2 P_(p-1,q-1)
with |z|^2 invariant, that is also N(p, q) - N(p-1, q-1), N counting all
invariant monomials z^alpha zbar^beta.  Three routes to the count live
here: a literal enumeration (the oracle), a residue-class convolution
for N (the route for n >= 3, and the independent check for n = 2), and,
for n = 2, the paper's count m_pq + n_pq - [k | p - q] in closed form,
O(1) per bidegree after one modular inverse per space.  The route is
picked here alone: `dim_cell` binds the closed form for n = 2 and the
convolution otherwise, and `dim_grid` fills a square (p, q) grid from
the same routes; the tests keep the convolution as the n = 2 check.
dim(p, q) = dim(q, p), as conjugation maps the invariants of bidegree
(p, q) onto those of (q, p), so a grid computes each unordered pair
once, for n >= 3 with one dot product.  The n = 2 shift recurrence
reduces any bidegree to the k x k base table, the grid of size k - 1.
The convolution's one residue profile per space is a row function,
sized to no degree: z^alpha zbar^beta is invariant iff alpha and beta
have equal weighted residues, so N(p, q) is the dot product of profile
rows p and q.
"""
from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, pairwise, repeat
from math import comb
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterator, NamedTuple

from .core import DEFAULT_BUDGET, LensSpace, _congruence_gcd, charge, check_bidegree, check_n2


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def dim_invariant_bruteforce(
    space: LensSpace, p: int, q: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Count the invariant dimension by exhaustive pair enumeration.

    This is the oracle every faster path is checked against.  Scans all
    C(p+n-1, n-1) * C(q+n-1, n-1) candidate pairs; raises ResourceLimit
    if that product exceeds the budget.
    """
    check_bidegree(p, q)
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


@lru_cache(maxsize=8)
def _profile_rows(weights: tuple[int, ...], k: int) -> Callable[[int], tuple[int, ...]]:
    """Residue profiles of the weight list, as a memoized function of degree.

    Row t, column r counts exponent tuples of degree t whose weighted sum
    is r mod k (0 for t < 0).  With m weights, rows t < mk are filled on
    demand, O(mk) each, by new[t][r] = old[t][r] + new[t-1][r-w] on the
    newest rows of the partial products.  The generating function is
    P(t)/(1 - t^k)^m, deg P = m(k - 1), so row e + ck is a polynomial of
    degree < m in c for all c >= 0: a later row is sum_j C(c, j) D_j, in
    O(mk), D_j the forward differences of rows e + ik, i < m, made once.
    A zero weight appended makes row t the sum of rows 0..t (a slack).
    """
    m = len(weights)
    newest = [(1,) + (0,) * (k - 1)] * m  # the newest row of each partial product
    filled, memo, differences = [newest[0]], {}, {}

    def profile(t: int) -> tuple[int, ...]:
        if t not in memo:
            while len(filled) <= min(t, m * k - 1):
                for j, w in enumerate(weights):
                    shifted = newest[j][k - w % k :] + newest[j][: k - w % k]
                    newest[j] = tuple(map(add, newest[j - 1] if j else (0,) * k, shifted))
                filled.append(newest[-1])
            c, e = divmod(t, k)
            if c < m:
                memo[t] = filled[t] if t >= 0 else (0,) * k
            else:
                if e not in differences:
                    rows, differences[e] = filled[e::k], []
                    while rows:
                        differences[e].append(rows[0])
                        rows = [tuple(map(sub, b, a)) for a, b in pairwise(rows)]
                row = differences[e][0]
                for j, delta in enumerate(differences[e][1:], 1):
                    row = map(add, row, map(mul, repeat(comb(c, j)), delta))
                memo[t] = tuple(row)
        return memo[t]

    return profile


def exponent_profile(space: LensSpace, degree: int) -> tuple[int, ...]:
    """Counts, per residue class mod k, of exponent tuples of total degree.

    Entry r is #{alpha >= 0, |alpha| = degree, sum l_i alpha_i = r mod k};
    the entries sum to C(degree + n - 1, n - 1).
    """
    check_bidegree(degree, 0)
    return _profile_rows(space.weights, space.k)(degree)


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of cross pairs of two profile rows with equal residues."""
    return sum(map(mul, a, b))


def dim_invariant_dp(
    space: LensSpace, p: int, q: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Invariant dimension N(p, q) - N(p-1, q-1) by residue-class convolution.

    N(p, q) is the dot product of profile rows p and q: the pairs with
    equal residues.  The second term is absent when p = 0 or q = 0.
    Multiplying by z_1 zbar_1 maps the (p-1, q-1) pairs one-to-one,
    residue kept, onto the pairs with alpha_1, beta_1 >= 1, so this is
    the alpha_1 = 0 or beta_1 = 0 count of the oracle.  `_cell_work` is
    charged before any profile row is built, and not computed for budget None.
    """
    check_bidegree(p, q)
    if budget is not None:
        charge(_cell_work(space, p, q), budget)
    row = _profile_rows(space.weights, space.k)
    count = _dot(row(p), row(q))
    if p and q:
        count -= _dot(row(p - 1), row(q - 1))
    return count


class MNCounts(NamedTuple):
    """Solution counts of the two one-variable congruences behind n = 2.

    m_pq counts beta_1 in [0, q] with l_1(-beta_1) + l_2(p-q+beta_1) = 0
    mod k (the alpha_1 = 0 branch); n_pq counts alpha_1 in [0, p] with
    l_1 alpha_1 + l_2(p-q-alpha_1) = 0 mod k (beta_1 = 0).  The invariant
    dimension is m_pq + n_pq - [k | p - q].
    """

    m_pq: int
    n_pq: int


def _solution(space: LensSpace) -> tuple[int, Callable[[int], int]]:
    """(s, solve), which bind the n = 2 closed form of the space.

    With r = p - q, both congruences of `MNCounts` read
    (l_1 - l_2) x = -l_2 r mod k, for x = alpha_1 and for x = -beta_1.
    l_2 is a unit, so they are solvable iff d = gcd(k, l_1 - l_2) divides
    r, and then exactly for x = a mod s, where s = k/d, a = c r/d mod s
    and c = -l_2 ((l_1 - l_2)/d)^-1 mod s; solve(r) is that a, or -1 when
    d does not divide r.  Hence n_pq = floor((p - a)/s) + 1 and
    m_pq = floor((q + a)/s) + [a = 0].  As c is a unit mod s, a = 0 iff
    k | r, so dim = floor((p - a)/s) + floor((q + a)/s) + 1.
    """
    l1, l2 = space.weights
    d = _congruence_gcd(space)
    s = space.k // d
    c = -l2 * pow((l1 - l2) // d, -1, s) % s

    def solve(r: int) -> int:
        return -1 if r % d else c * (r // d) % s

    return s, solve


def _closed_form(space: LensSpace) -> Callable[[int, int], int]:
    """The n = 2 dimension as a function of p, q >= 0, in O(1) per cell."""
    s, solve = _solution(space)

    def dim(p: int, q: int) -> int:
        a = solve(p - q)
        return 0 if a < 0 else (p - a) // s + (q + a) // s + 1

    return dim


def mn_counts(space: LensSpace, p: int, q: int) -> MNCounts:
    """Count the two congruence branches separately (n = 2 only, `check_n2`), in O(1)."""
    check_n2(space)
    check_bidegree(p, q)
    s, solve = _solution(space)
    a = solve(p - q)
    if a < 0:
        return MNCounts(m_pq=0, n_pq=0)
    return MNCounts(m_pq=(q + a) // s + (a == 0), n_pq=(p - a) // s + 1)


@lru_cache(maxsize=8)
def base_dim_table(space: LensSpace) -> tuple[tuple[int, ...], ...]:
    """The k x k table of invariant dimensions for 0 <= p, q < k (n = 2).

    The shift recurrence reduces every bidegree to this table and d =
    gcd(k, l_1 - l_2), and the diagonal carries d: solve(0) = 0 gives
    dim(p, p) = 2 floor(p/s) + 1, s = k/d, which first reaches 3 at p = s,
    or never when d = 1.  The table alone is thus the complete spectral
    fingerprint of a 3-d lens space.  It is `dim_grid` of size k - 1,
    O(k^2); the last few tables are cached.
    """
    check_n2(space)
    return dim_grid(space, space.k - 1)


def dim_invariant_recurrence(
    space: LensSpace, p: int, q: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Invariant dimension via the n = 2 reduction to the base table.

    Returns 0 when d = gcd(k, l_1 - l_2) does not divide p - q; otherwise
    base[p%k][q%k] + d*(floor(p/k) + floor(q/k)).  The table's
    `_grid_work`, k^2, is charged against the budget, even when cached;
    over it raises ResourceLimit before the fill.
    """
    check_n2(space)
    check_bidegree(p, q)
    charge(_grid_work(space, space.k - 1), budget)
    k, d = space.k, _congruence_gcd(space)
    if (p - q) % d:
        return 0
    return base_dim_table(space)[p % k][q % k] + d * (p // k + q // k)


def dim_cell(space: LensSpace, budget: int | None = None) -> Callable[[int, int], int]:
    """dim_invariant(space, p, q, budget) as a function of p, q >= 0 alone.

    The one place that picks the per-cell route for a space: the n = 2
    closed form, O(1) per cell with no table, charge or sign check, or for
    higher n `dim_invariant_dp` with the space and budget bound.  A caller
    asking about many cells binds it once with the default None, which
    prices no cell, and charges its whole grid itself.
    """
    return _closed_form(space) if space.n == 2 else partial(dim_invariant_dp, space, budget=budget)


# The fixed cost of one pass over a profile row, in units of one entry:
# with it, k = 2 and k = 9 counts at n = 3 run at about the same time per
# unit of work charged.
_ROW_PASS = 6


def _profile_work(space: LensSpace, rows: int) -> int:
    """The charge of building `rows` rows of the space's residue profile."""
    return rows * space.n * (space.k + _ROW_PASS)


def _cell_work(space: LensSpace, p: int, q: int) -> int:
    """The charge of one convolution cell: profile rows t < nk, then p, q and below."""
    return _profile_work(space, min(max(p, q) + 1, space.n * space.k) + 2)


def _grid_work(space: LensSpace, size: int) -> int:
    """The charge of `dim_grid(space, size)`, made even when a cache holds it.

    n = 2: its (size + 1)^2 entries, k^2 for a base table.  n >= 3: k per dot
    product, floor(t/g) + 1 on each diagonal t = q - p, plus size + 1 profile rows.
    """
    if space.n == 2:
        return (size + 1) ** 2
    c, e = divmod(size, g := _congruence_gcd(space))  # Diagonals t < cg: c blocks of g.
    dots = g * c * (c + 1) // 2 + (e + 1) * (c + 1)
    return space.k * dots + _profile_work(space, size + 1)


def dim_grid(space: LensSpace, size: int) -> tuple[tuple[int, ...], ...]:
    """dim_invariant(space, p, q) for 0 <= p, q <= size, a symmetric grid.

    Row p is a tuple over q.  It computes only q >= p and copies q < p
    from the rows before it.  For n = 2 that part is the closed form,
    which solves its congruence once per diagonal (2k - 1 solves would
    cover a k x k table; its upper half needs k).  For
    n >= 3 it takes the dot product of profile rows p and q into N(p, q)
    for q = p mod g, g = `_congruence_gcd`, leaves N = 0 in the other
    cells, and differences that along the diagonal, dim = N(p, q) -
    N(p-1, q-1): the dot products `_grid_work` prices, about 1/g of the cells.
    """
    if space.n == 2:
        # `_closed_form`, with the congruence solved once per diagonal q - p = r.
        s, solve = _solution(space)
        solved = [solve(-r) for r in range(size + 1)]
        uppers = ((0 if a < 0 else (p - a) // s + (q + a) // s + 1
                   for q, a in zip(range(p, size + 1), solved)) for p in range(size + 1))
    else:
        row, g = _profile_rows(space.weights, space.k), _congruence_gcd(space)
        columns = [row(q) for q in range(size + 1)]
        counts = [[0] * (size + 1 - p) for p in range(size + 1)]
        for p, upper in enumerate(counts):
            upper[::g] = map(partial(_dot, row(p)), columns[p::g])
        # N(p-1, q-1) over q >= p is row p - 1 of `counts`, zero on the edge.
        uppers = (map(sub, now, below) for below, now in pairwise(chain([repeat(0)], counts)))
    grid: list[tuple[int, ...]] = []
    for p, upper in enumerate(uppers):
        # One tuple per row: concatenated temporaries left k = 1001 tables 30% more RSS.
        grid.append(tuple(chain(map(itemgetter(p), grid), upper)))
    return tuple(grid)


def dim_invariant(
    space: LensSpace, p: int, q: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Invariant dimension by the fastest exact route for the space.

    The route, and at n >= 3 the `_cell_work` charge, is `dim_cell`'s.  k = 1
    degenerates to the full sphere eigenspace dimension either way.
    """
    check_bidegree(p, q)
    return dim_cell(space, budget)(p, q)
