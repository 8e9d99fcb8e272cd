"""Eigenspace dimensions and eigenvalue counting for the sphere S^(2n-1).

The eigenspaces of the Kohn Laplacian on the sphere are the bigraded
harmonic spaces indexed by (p, q), of eigenvalue 2q(p + n - 1); the
kernel (q = 0) is excluded from all counting.  The cell walker `_rows`
serves only the `sphere_counting` oracle; counts, the grid size and the
lemma sums sum the lines of `spectrum._lines` by one prefix function each,
a batch of cutoffs at a time (`spectrum._sum_lines`), and the spectrum
sieve adds those lines one at a time.
"""
from __future__ import annotations

from functools import partial
from itertools import product, starmap
from math import comb

from .core import DEFAULT_BUDGET, charge, check_bidegree, check_dimension
from .spectrum import counting_grid_size


def dim_hpq(n: int, p: int, q: int) -> int:
    """Dimension of the bidegree-(p, q) harmonic eigenspace on S^(2n-1).

    Evaluates ((p+q)/(n-1) + 1) * C(p+n-2, n-2) * C(q+n-2, n-2) exactly,
    as (p+q+n-1) * C(...) * C(...) / (n-1) with the division asserted to
    be exact.  Arbitrary precision.
    """
    check_dimension(n)
    check_bidegree(p, q)
    numerator = (p + q + n - 1) * comb(p + n - 2, n - 2) * comb(q + n - 2, n - 2)
    quotient, remainder = divmod(numerator, n - 1)
    assert remainder == 0, f"dimension formula not integral at n={n}, p={p}, q={q}"
    return quotient


def eigenvalue(n: int, p: int, q: int) -> int:
    """Kohn Laplacian eigenvalue 2q(p + n - 1) of the (p, q) eigenspace."""
    check_dimension(n)
    check_bidegree(p, q)
    return 2 * q * (p + n - 1)


def _rows(n: int, lam: int):
    """Runs of rows of the cells q >= 1, 2q(p + n - 1) <= lam.

    Yields (ps, top): ps is a range of rows p whose cells are q = 1..top.
    The top changes only O(sqrt(lam)) times, so runs are few.
    """
    half = lam // 2
    width = n - 1  # p + n - 1 of the run's first row
    while width <= half:
        top = half // width
        last = half // top
        yield range(width - n + 1, last - n + 2), top
        width = last + 1


def _fold(n: int, lam: int, cell) -> int:
    """Sum of cell(p, q) over the cells under the cutoff lam."""
    return sum(
        sum(starmap(cell, product(ps, range(1, top + 1)))) for ps, top in _rows(n, lam)
    )


def sphere_counting(n: int, lam: int, budget: int | None = DEFAULT_BUDGET) -> int:
    """Number of positive eigenvalues <= lam on S^(2n-1), with multiplicity.

    Sums dim_hpq over p and the admissible q-range 1 <= q <= lam/(2(p+n-1)),
    mirroring the double sum the asymptotic analysis manipulates.  A
    negative lam raises ValueError (`check_cutoff`); the walk's cells,
    `counting_grid_size(n, lam)`, are charged before it starts, and over
    `budget` (None: unbounded) raise ResourceLimit.  The row q = 1's
    lam/2 - n + 2 cells are charged first, so a huge lam is refused
    before its O(sqrt(lam)) grid size is summed.
    """
    check_dimension(n)
    charge(max(lam // 2 - n + 2, 0), budget)
    charge(counting_grid_size(n, lam), budget)
    return _fold(n, lam, partial(dim_hpq, n))
