"""CR isometry/isospectrality decisions for lens spaces.

The arithmetic certificate of a CR isometry is a unit a mod k and a
coordinate permutation carrying one weight tuple to the other, found
among at most n candidate units.  For 3-dimensional lens spaces with
prime k this is equivalent to equality of spectra, of all invariant
dimensions (decided exactly here for every n), and of the congruence
invariant d; the machinery here also exposes the residue-count matrices
C^lambda and the row-shift operator whose span argument drives that
equivalence.  A spectral comparison tries a witness, then charges both
full sieves before tables at rising cutoffs.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .core import (DEFAULT_BUDGET, LensSpace, MismatchedSpaces, charge, check_cutoff,
                   check_eigenvalue, check_n2, check_order, gcd_invariant)
from .invariant import _grid_work, base_dim_table, dim_grid
from .spectrum import _bidegrees_for, _charge_sieves, multiplicity_table


class IsometryWitness(NamedTuple):
    """Unit a and permutation sigma with l'_i = a * l_sigma(i) mod k.

    sigma is stored 1-based: sigma[i-1] is the source position for target
    position i.
    """

    a: int
    sigma: tuple[int, ...]


def verify_witness(space: LensSpace, other: LensSpace, witness: IsometryWitness) -> bool:
    """Recompute a * l_sigma(i) mod k and compare against the target weights."""
    k = space.k
    return all(
        other.weights[i] == (witness.a * space.weights[s - 1]) % k
        for i, s in enumerate(witness.sigma)
    )


def _check_comparable(space: LensSpace, other: LensSpace) -> None:
    """Reject two spaces whose k or n differ."""
    if space.k != other.k or space.n != other.n:
        raise MismatchedSpaces(f"cannot compare {space} with {other}: k and n must agree")


def condition4_witness(space: LensSpace, other: LensSpace) -> IsometryWitness | None:
    """The lexicographically smallest isometry certificate (a, sigma), or None.

    A valid a maps l_1 onto some l'_i, so it is one of the at most n units
    l'_i / l_1 mod k; they are tried ascending, and the first whose image
    a l sorts to the sorted target weights gives the witness.  Each target
    position then takes the smallest unused source index with its residue,
    which makes sigma the lexicographically smallest.  O(n^2 log n), with
    no dependence on k; k = 1 gives a = 1.
    """
    _check_comparable(space, other)
    k, target = space.k, sorted(other.weights)
    inverse = pow(space.weights[0], -1, k)
    for a in sorted({w * inverse % k for w in other.weights}) if k > 1 else [1]:
        image = [a * l % k for l in space.weights]
        if sorted(image) == target:
            sources: dict[int, list[int]] = {}
            for s, r in enumerate(image, 1):
                sources.setdefault(r, []).append(s)
            return IsometryWitness(a=a, sigma=tuple(sources[r].pop(0) for r in other.weights))
    return None


def spectra_equal_up_to(
    space: LensSpace, other: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> bool:
    """Whether the multiplicity tables agree for every even eigenvalue <= cutoff.

    k may differ between the spaces; n may not.  Decided, and charged, as
    in `_compare_spectra`.
    """
    return _compare_spectra(space, other, lambda_max, budget)[1]


def _compare_spectra(
    space: LensSpace, other: LensSpace, lambda_max: int, budget: int | None
) -> tuple[IsometryWitness | None, bool]:
    """The isometry witness, and whether the spectra agree up to lambda_max.

    A negative cutoff raises ValueError first.  The witness is None when k
    differs or there is none; one proves equality, with no sieve run or
    priced, as it maps one group onto the other by a coordinate permutation.
    Otherwise both sieves to lambda_max are charged (`_charge_sieves`)
    before any sieve (budget None means unbounded), and the tables are
    compared at cutoff min(lambda_max, 64), then 4, 16, ... times that,
    capped at lambda_max: a table at c is the entries <= c of the one at
    lambda_max, so the first difference is final, and the sieves cost at
    most 4/3 of the two at lambda_max.
    """
    if space.n != other.n:
        raise MismatchedSpaces("spectral comparison needs equal n")
    check_cutoff(lambda_max)
    witness = condition4_witness(space, other) if space.k == other.k else None
    if witness is not None:
        return witness, True
    _charge_sieves((space, other), lambda_max, budget)
    cutoff = min(lambda_max, 64)
    while (multiplicity_table(space, cutoff, budget=None)
           == multiplicity_table(other, cutoff, budget=None)):
        if cutoff == lambda_max:
            return None, True
        cutoff = min(4 * cutoff, lambda_max)
    return None, False


def dims_equal(space: LensSpace, other: LensSpace) -> bool:
    """Whether all invariant dimensions agree: a complete decision for every n.

    The dimensions on the box p, q <= size decide.  For n = 2, size k - 1:
    the shift reduction fixes every dimension from the k x k base table and
    d, and the table fixes d: the cached `base_dim_table`s are compared.
    For n >= 3, size nk - 1: profile row e + ck is a polynomial of degree
    < n in c, so on each residue class of (p, q) mod k, N(p, q) is a
    polynomial of degree < n in floor(p/k) and in floor(q/k), fixed by its
    values at p, q < nk, where dim(p, q) = N(p, q) - N(p-1, q-1) fixes N.
    Charged against `DEFAULT_BUDGET` before any grid is built, cached or
    not: each space's `_grid_work`, k^2 at n = 2, else k per dot product
    taken (about 1/g of the cells) plus nk profile rows.
    """
    _check_comparable(space, other)
    n, k = space.n, space.k
    size = k - 1 if n == 2 else n * k - 1
    charge(_grid_work(space, size) + _grid_work(other, size), DEFAULT_BUDGET)
    if n == 2:
        return base_dim_table(space) == base_dim_table(other)
    return dim_grid(space, size) == dim_grid(other, size)


def d_invariant_check(space: LensSpace, other: LensSpace) -> bool:
    """Fast necessary condition: equal gcd invariants d = d'.

    Spectrally equal 3-d lens spaces share d (with the d=2/d'=4 pairing
    left open), so unequal d certifies distinct spectra in all other
    cases; equal d decides nothing.  Either space at n != 2 raises
    UnsupportedDimension (`check_n2`), and unequal k MismatchedSpaces.
    """
    check_n2(space)
    check_n2(other)
    _check_comparable(space, other)
    return gcd_invariant(space) == gcd_invariant(other)


class CMatrix(NamedTuple):
    """k x k counts of bidegree classes hitting one eigenvalue (n = 2).

    Entry (a, b) counts pairs (p, q) with p = a, q = b mod k and
    2q(p+1) = lam.  The entries sum to the number of divisors of lam/2.
    """

    k: int
    lam: int
    entries: tuple[tuple[int, ...], ...]

    def as_vector(self) -> tuple[int, ...]:
        return tuple(x for row in self.entries for x in row)

    def rows(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def _residue_counts(k: int, lam: int) -> dict[int, int]:
    """The nonzero entries of C^lam, keyed by (p mod k) k + (q mod k).

    One divisor enumeration of lam/2, so at most d(lam/2) entries.
    """
    counts: dict[int, int] = {}
    for p, q in _bidegrees_for(lam, 2):
        cell = p % k * k + q % k
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def c_matrix(k: int, lam: int, budget: int | None = DEFAULT_BUDGET) -> CMatrix:
    """Build C^lam densely from its residue counts.

    Charged k^2 entries plus isqrt(lam/2) trial divisions before the
    matrix is allocated.  k < 2 raises InvalidOrder (`check_order`).
    """
    check_order(k)
    check_eigenvalue(lam)
    charge(k * k + math.isqrt(lam // 2), budget)
    entries = [[0] * k for _ in range(k)]
    for cell, count in _residue_counts(k, lam).items():
        entries[cell // k][cell % k] = count
    return CMatrix(k=k, lam=lam, entries=tuple(tuple(row) for row in entries))


def _rotate(matrix, step: int) -> list[list[int]]:
    """The square matrix with row i taken from row i + step, cyclically."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    return [list(matrix[(i + step) % size]) for i in range(size)]


def t_apply(matrix) -> list[list[int]]:
    """Cyclic row shift: the top row moves to the bottom."""
    return _rotate(matrix, 1)


def t_inverse(matrix) -> list[list[int]]:
    """Inverse row shift: the bottom row moves to the top."""
    return _rotate(matrix, -1)


def _integer_rank(rows, ceiling: int | None = None) -> int:
    """Rank over Q of sparse integer rows {column: nonzero entry}.

    Fraction-free elimination on the nonzeros alone: an echelon basis is
    kept keyed by pivot, each row's smallest column, every basis row
    divided by its content and with a positive pivot.  A new row meeting
    a basis row b at its pivot becomes (b/g) row - (r/g) b, where b and r
    are the two pivot entries and g = gcd(b, r), until it vanishes or
    brings a pivot of its own; no rationals ever appear.  No further row
    is read once the rank reaches `ceiling`, a bound on the rank of all
    the rows that the caller knows (None: read them all).
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(basis) == ceiling:
            break
        row = dict(row)
        while row:
            pivot = min(row)
            b = basis.get(pivot)
            if b is None:
                g = math.gcd(*row.values())
                if row[pivot] < 0:
                    g = -g
                basis[pivot] = {col: x // g for col, x in row.items()}
                break
            g = math.gcd(b[pivot], row[pivot])
            scale, factor = b[pivot] // g, row[pivot] // g
            if scale != 1:
                row = {col: scale * x for col, x in row.items()}
            for col, y in b.items():
                if x := row.get(col, 0) - factor * y:
                    row[col] = x
                else:
                    del row[col]
    return len(basis)


# The price of one trial division of lam/2 in `span_dimension`, in units:
# one for the division, three for eliminating what it finds.  Elimination
# did at most 2.5 entry updates per trial division on the ranges measured
# (k <= 211, prime and composite, lam up to 2e5).
_SPAN_UNIT = 4


def span_dimension(k: int, lambdas, budget: int | None = DEFAULT_BUDGET) -> int:
    """Rational rank of the set of C^lam matrices viewed as k^2-vectors.

    (p, q) -> (q - 1, p + 1) keeps q(p + 1), so for every k each C^lam is
    fixed by the involution (a, b) -> (b - 1, a + 1) mod k.  Its k fixed
    cells and (k^2 - k)/2 swapped pairs make the span lie in a space of
    dimension k(k+1)/2 (for prime k the span fills it once enough
    eigenvalues are included), so the elimination stops when the rank
    reaches k(k+1)/2.  Each C^lam enters the elimination as its residue
    counts; no k x k matrix is built.
    The divisor searches, isqrt(lam/2) trial divisions each, and the
    elimination are charged `_SPAN_UNIT` per trial division before any
    work, whether or not the elimination stops early.  The pricing pass
    stops at the first eigenvalue that takes the work past the budget, so
    it keeps at most budget / 4 of them.  An order k < 2 raises
    InvalidOrder (`check_order`), also when there is no eigenvalue.
    """
    check_order(k)
    kept, work = [], 0
    for lam in lambdas:
        check_eigenvalue(lam)
        kept.append(lam)
        work += _SPAN_UNIT * math.isqrt(lam // 2)
        if budget is not None and work > budget:
            break
    charge(work, budget)
    return _integer_rank((_residue_counts(k, lam) for lam in kept), k * (k + 1) // 2)


def _totient(k: int) -> int:
    """Euler's phi(k), by trial division of k: O(sqrt(k))."""
    phi, rest, f = k, k, 2
    while f * f <= rest:
        if rest % f == 0:
            phi -= phi // f
            while rest % f == 0:
                rest //= f
        f += 1
    return phi - phi // rest if rest > 1 else phi


def classify_all(
    k: int, budget: int | None = DEFAULT_BUDGET
) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Partition all valid n = 2 weight pairs into isometry classes.

    A pair (x, y) lies in the class of its unit ratio r = y / x mod k, and
    the swap (y, x) has ratio 1/r, so the class of r is {(a, a r), (a, a/r)
    : a a unit}; listed by a, it is sorted.  Keys are the representatives
    (1, min(r, 1/r)), values the members in ascending order, and classes
    come by ascending representative.  The phi(k)^2 pairs are charged
    before any unit is listed; as phi(k)^2 >= k/2, k // 2 is charged first,
    which bounds the factoring.  k < 2 raises InvalidOrder (`check_order`).
    """
    check_order(k)
    charge(k // 2, budget)
    charge(_totient(k) ** 2, budget)
    units = [a for a in range(1, k) if math.gcd(a, k) == 1]
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for r in units:
        s = pow(r, -1, k)
        if r == s:
            classes[(1, r)] = [(a, a * r % k) for a in units]
        elif r < s:
            members = classes[(1, r)] = []
            for a in units:  # a r != a s, as r != s and a is a unit.
                x, y = a * r % k, a * s % k
                members += ((a, x), (a, y)) if x < y else ((a, y), (a, x))
    return classes
