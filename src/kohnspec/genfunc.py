"""Two-variable generating function of the invariant dimensions.

The closed form averages rational terms over the group: (1/k) times the
sum over m of (1 - zw) / prod_i (1 - zeta^(m l_i) z)(1 - zeta^(-m l_i) w).
Evaluations here are double precision.  The series side sums exact
dimensions by `dim_cell`'s route (for n = 2 the paper's closed-form count,
which the tests check against the residue convolution), so it is an
independent cross-check of the rational closed form.
"""
from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache
from itertools import product

from .core import DomainViolation, InsufficientSamples, InvalidOrder, LensSpace
from .invariant import dim_cell

MODULUS_BOUND = 0.9


def _check_point(z: complex, w: complex) -> None:
    if abs(z) > MODULUS_BOUND or abs(w) > MODULUS_BOUND:
        raise DomainViolation(
            f"|z|={abs(z):.3f}, |w|={abs(w):.3f} exceed the {MODULUS_BOUND} bound"
        )


def genfunc_closed(space: LensSpace, z: complex, w: complex) -> complex:
    """Evaluate the closed-form generating function at (z, w).

    Roots of unity are taken as cos/sin of the reduced phase per term,
    and the m and k-m terms are added in conjugate pairs so that real
    inputs leave only rounding-level imaginary residue.
    """
    _check_point(z, w)
    k = space.k

    def term(m: int) -> complex:
        denom = 1 + 0j
        for l in space.weights:
            zeta = cmath.exp(2j * math.pi * ((m * l) % k) / k)
            denom *= (1 - zeta * z) * (1 - zeta.conjugate() * w)
        return (1 - z * w) / denom

    total = term(0)
    for m in range(1, k // 2 + 1):
        if m == k - m:
            total += term(m)
        else:
            total += term(m) + term(k - m)
    return total / k


@lru_cache(maxsize=16)
def _series_grid(
    space: LensSpace, p_max: int, q_max: int
) -> tuple[tuple[int, ...], ...]:
    """dim H^G_(p,q) for p <= p_max, q <= q_max, by `dim_cell`'s route."""
    dim = dim_cell(space)
    return tuple(tuple(dim(p, q) for q in range(q_max + 1)) for p in range(p_max + 1))


def genfunc_series(
    space: LensSpace, z: complex, w: complex, p_max: int, q_max: int
) -> complex:
    """Truncated power series sum of dim H^G_(p,q) z^p w^q.

    The integer grid of dimensions is built once per (space, p_max,
    q_max) and kept for the next sample points (a small bounded cache).
    Inside |z|, |w| <= 0.9 the dropped tail is geometric: the dimensions
    grow polynomially while |z|^p |w|^q decays, so cutoffs around 60 put
    the truncation error far below double-precision comparisons at
    moduli <= 0.5.
    """
    _check_point(z, w)
    total = 0j
    zp = 1 + 0j
    for dims in _series_grid(space, p_max, q_max):
        row = 0j
        wq = 1 + 0j
        for dim in dims:
            row += dim * wq
            wq *= w
        total += zp * row
        zp *= z
    return total


def unit_disk_points(
    count: int, radius: float = 0.5, seed: int = 12345
) -> list[tuple[complex, complex]]:
    """Deterministic pseudorandom (z, w) pairs inside the given disk."""
    rng = random.Random(seed)

    def one() -> complex:
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        return r * cmath.exp(1j * theta)

    return [(one(), one()) for _ in range(count)]


def independence_probe(k: int, sample_points) -> int:
    """Numerical rank of the pole-pair function family at the sample points.

    The functions are 1/((z - zeta^l)(w - zeta^-l)(z - zeta^m)(w - zeta^-m))
    for 0 <= l <= m <= k-1; full rank k(k+1)/2 reflects their linear
    independence.  Rank counts the pivots of a full-pivoting elimination
    above 1e-8 of the first (largest) one.
    """
    if k < 2:
        raise InvalidOrder(f"independence probe needs k >= 2, got {k}")
    points = list(sample_points)
    expected = k * (k + 1) // 2
    if len(points) < expected:
        raise InsufficientSamples(
            f"need at least {expected} sample points for k={k}, got {len(points)}"
        )
    zetas = [cmath.exp(2j * math.pi * j / k) for j in range(k)]
    pairs = [(l, m) for l in range(k) for m in range(l, k)]
    matrix = [
        [
            1.0
            / (
                (z - zetas[l])
                * (w - zetas[l].conjugate())
                * (z - zetas[m])
                * (w - zetas[m].conjugate())
            )
            for l, m in pairs
        ]
        for z, w in points
    ]
    return _numerical_rank(matrix)


def _numerical_rank(matrix: list[list[complex]]) -> int:
    """Pivots above 1e-8 of the first, by full-pivoting elimination.

    Each step pivots on the entry of largest modulus left, so the first
    pivot is the largest entry, and removes its row and column.  The
    matrix is consumed.
    """
    rank, largest = 0, 0.0
    while matrix and matrix[0]:
        i, j = max(
            product(range(len(matrix)), range(len(matrix[0]))),
            key=lambda ij: abs(matrix[ij[0]][ij[1]]),
        )
        pivot_row = matrix.pop(i)
        pivot = pivot_row.pop(j)
        largest = largest or abs(pivot)
        if abs(pivot) <= 1e-8 * largest:
            break
        rank += 1
        for row in matrix:
            factor = row.pop(j) / pivot
            for col, x in enumerate(pivot_row):
                row[col] -= factor * x
    return rank


def max_deviation(
    space: LensSpace,
    points,
    p_max: int = 60,
    q_max: int = 60,
) -> float:
    """Largest |closed - series| over the sample points."""
    return max(
        abs(genfunc_closed(space, z, w) - genfunc_series(space, z, w, p_max, q_max))
        for z, w in points
    )
