"""CR isometry/isospectrality decisions for lens spaces.

The arithmetic certificate of a CR isometry is a unit a mod k and a
coordinate permutation carrying one weight tuple to the other.  For
3-dimensional lens spaces with prime k this is equivalent to equality of
spectra, of all invariant dimensions, and of the congruence invariant d;
the machinery here also exposes the residue-count matrices C^lambda and
the row-shift operator whose span argument drives that equivalence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product

from .core import (
    DEFAULT_BUDGET,
    InvalidOrder,
    LensSpace,
    MismatchedSpaces,
    UnsupportedDimension,
    charge,
    gcd_invariant,
)
from .invariant import base_dim_table, dim_cell
from .spectrum import _bidegrees_for, _check_eigenvalue, _sieve_work, multiplicity_table


@dataclass(frozen=True)
class IsometryWitness:
    """Unit a and permutation sigma with l'_i = a * l_sigma(i) mod k.

    sigma is stored 1-based: sigma[i-1] is the source position for target
    position i.
    """

    a: int
    sigma: tuple[int, ...]


def _units(k: int) -> list[int]:
    if k == 1:
        return [1]
    return [a for a in range(1, k) if math.gcd(a, k) == 1]


def verify_witness(space: LensSpace, other: LensSpace, witness: IsometryWitness) -> bool:
    """Recompute a * l_sigma(i) mod k and compare against the target weights."""
    k = space.k
    return all(
        other.weights[i] == (witness.a * space.weights[s - 1]) % k
        for i, s in enumerate(witness.sigma)
    )


def condition4_witness(space: LensSpace, other: LensSpace) -> IsometryWitness | None:
    """Search exhaustively for the isometry certificate (a, sigma).

    Scans units a ascending and permutations in lexicographic order, so a
    returned witness is the lexicographically smallest one.  Returns None
    when no certificate exists.
    """
    if space.k != other.k or space.n != other.n:
        raise MismatchedSpaces(
            f"cannot compare {space} with {other}: k and n must agree"
        )
    for a in _units(space.k):
        for sigma in permutations(range(1, space.n + 1)):
            witness = IsometryWitness(a=a, sigma=sigma)
            if verify_witness(space, other, witness):
                return witness
    return None


def spectra_equal_up_to(
    space: LensSpace, other: LensSpace, lambda_max: int, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether the multiplicity tables agree for every even eigenvalue <= cutoff.

    k may differ between the spaces; n may not.  Both sieves are charged
    together, each as in `build_spectrum`, before either is built.
    """
    if space.n != other.n:
        raise MismatchedSpaces("spectral comparison needs equal n")
    charge(_sieve_work(space, lambda_max) + _sieve_work(other, lambda_max), budget)
    tables = [multiplicity_table(x, lambda_max, budget=None) for x in (space, other)]
    return tables[0] == tables[1]


def dims_equal(space: LensSpace, other: LensSpace, p_max: int, q_max: int) -> bool:
    """Whether all invariant dimensions agree.

    For n = 2 this is a complete decision: the shift reduction means two
    spaces agree everywhere iff they share the congruence invariant d and
    the k x k base table, so p_max/q_max are ignored.  For n >= 3 only the
    given finite grid is compared (a partial check).
    """
    if space.k != other.k or space.n != other.n:
        raise MismatchedSpaces(
            f"cannot compare {space} with {other}: k and n must agree"
        )
    if space.n == 2:
        return gcd_invariant(space) == gcd_invariant(other) and base_dim_table(
            space
        ) == base_dim_table(other)
    dim, other_dim = dim_cell(space), dim_cell(other)
    return all(
        dim(p, q) == other_dim(p, q)
        for p in range(p_max + 1)
        for q in range(q_max + 1)
    )


def d_invariant_check(space: LensSpace, other: LensSpace) -> bool:
    """Fast necessary condition: equal gcd invariants d = d'.

    Spectrally equal 3-d lens spaces share d (with the d=2/d'=4 pairing
    left open), so unequal d certifies distinct spectra in all other
    cases; equal d decides nothing.
    """
    if space.n != 2 or other.n != 2:
        raise UnsupportedDimension("d-invariant comparison needs n = 2")
    if space.k != other.k:
        raise MismatchedSpaces("d-invariant comparison needs equal k")
    return gcd_invariant(space) == gcd_invariant(other)


@dataclass(frozen=True)
class CMatrix:
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


def _check_order(k: int) -> None:
    """Reject an order k < 2."""
    if k < 2:
        raise InvalidOrder(f"residue-count matrix needs k >= 2, got {k}")


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
    matrix is allocated.
    """
    _check_order(k)
    _check_eigenvalue(lam)
    charge(k * k + math.isqrt(lam // 2), budget)
    entries = [[0] * k for _ in range(k)]
    for cell, count in _residue_counts(k, lam).items():
        entries[cell // k][cell % k] = count
    return CMatrix(k=k, lam=lam, entries=tuple(tuple(row) for row in entries))


def t_apply(matrix) -> list[list[int]]:
    """Cyclic row shift: the top row moves to the bottom."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    return [list(matrix[(i + 1) % size]) for i in range(size)]


def t_inverse(matrix) -> list[list[int]]:
    """Inverse row shift: the bottom row moves to the top."""
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError("matrix must be square")
    return [list(matrix[(i - 1) % size]) for i in range(size)]


def _integer_rank(rows) -> int:
    """Rank over Q of sparse integer rows {column: nonzero entry}.

    Fraction-free elimination on the nonzeros alone: an echelon basis is
    kept keyed by pivot, each row's smallest column, every basis row
    divided by its content and with a positive pivot.  A new row meeting
    a basis row b at its pivot becomes (b/g) row - (r/g) b, where b and r
    are the two pivot entries and g = gcd(b, r), until it vanishes or
    brings a pivot of its own; no rationals ever appear.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
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

    For prime k the span is the shifted symmetric matrices, so the rank
    tops out at k(k+1)/2 once enough eigenvalues are included.  Each C^lam
    enters the elimination as its residue counts; no k x k matrix is built.
    The divisor searches, isqrt(lam/2) trial divisions each, and the
    elimination are charged `_SPAN_UNIT` per trial division before any
    work.  The pricing pass stops at the first eigenvalue that takes the
    work past the budget, so it keeps at most budget / 4 of them.  An
    order k < 2 raises InvalidOrder, also when there is no eigenvalue.
    """
    _check_order(k)
    kept, work = [], 0
    for lam in lambdas:
        _check_eigenvalue(lam)
        kept.append(lam)
        work += _SPAN_UNIT * math.isqrt(lam // 2)
        if budget is not None and work > budget:
            break
    charge(work, budget)
    return _integer_rank(_residue_counts(k, lam) for lam in kept)


def classify_all(k: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Partition all valid n = 2 weight pairs into isometry classes.

    Each class is the orbit {(a x, a y), (a y, a x) mod k : a a unit} of
    any member.  Keys are canonical representatives (first weight 1, least
    second weight over the orbit); values list the class members in
    ascending order.  Classes are returned by ascending representative.
    """
    if k < 2:
        raise InvalidOrder(f"classification needs k >= 2, got {k}")
    units = _units(k)
    unclassified = set(product(units, repeat=2))
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    while unclassified:
        x, y = unclassified.pop()
        orbit = {((a * u) % k, (a * v) % k) for a in units for u, v in ((x, y), (y, x))}
        unclassified -= orbit
        classes[min(pair for pair in orbit if pair[0] == 1)] = sorted(orbit)
    return dict(sorted(classes.items()))
