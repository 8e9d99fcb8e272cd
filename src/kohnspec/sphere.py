"""Eigenspace dimensions and eigenvalue counting for the sphere S^(2n-1).

The eigenspaces of the Kohn Laplacian on the sphere are the bigraded
harmonic spaces indexed by (p, q); the eigenvalue attached to (p, q) is
2q(p + n - 1), and the kernel (q = 0) is excluded from all counting.
"""
from __future__ import annotations

from functools import partial
from itertools import accumulate, product, starmap
from math import comb

from .core import DimensionTooSmall, ResourceLimit


def dim_hpq(n: int, p: int, q: int) -> int:
    """Dimension of the bidegree-(p, q) harmonic eigenspace on S^(2n-1).

    Evaluates ((p+q)/(n-1) + 1) * C(p+n-2, n-2) * C(q+n-2, n-2) exactly,
    as (p+q+n-1) * C(...) * C(...) / (n-1) with the division asserted to
    be exact.  Arbitrary precision.
    """
    if n < 2:
        raise DimensionTooSmall(f"dimension parameter must be >= 2, got {n}")
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    numerator = (p + q + n - 1) * comb(p + n - 2, n - 2) * comb(q + n - 2, n - 2)
    quotient, remainder = divmod(numerator, n - 1)
    assert remainder == 0, f"dimension formula not integral at n={n}, p={p}, q={q}"
    return quotient


def eigenvalue(n: int, p: int, q: int) -> int:
    """Kohn Laplacian eigenvalue 2q(p + n - 1) of the (p, q) eigenspace."""
    if n < 2:
        raise DimensionTooSmall(f"dimension parameter must be >= 2, got {n}")
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")
    return 2 * q * (p + n - 1)


def _rows(n: int, cutoffs, budget: int | None = None, cost: int = 1):
    """Runs of rows of the cells q >= 1, 2q(p + n - 1) <= cutoff.

    `cutoffs` is sorted ascending.  Yields (ps, tops): ps is a range of
    rows p whose cells under cutoffs[j] are q = 1..tops[j].  Tops change
    only O(sqrt(cutoff)) times, so runs are few.  Raises ResourceLimit,
    before the walk, if cost per cell under the last cutoff tops the budget.
    """
    if budget is not None:
        cells = sum(len(ps) * tops[-1] for ps, tops in _rows(n, cutoffs[-1:]))
        if cost * cells > budget:
            raise ResourceLimit(
                f"{cost * cells} grid cell evaluations exceed budget {budget}"
            )
    halves = [lam // 2 for lam in cutoffs]
    width = n - 1  # p + n - 1 of the run's first row
    while halves and width <= halves[-1]:
        tops = [half // width for half in halves]
        last = min(half // top for half, top in zip(halves, tops) if top > 0)
        yield range(width - n + 1, last - n + 2), tops
        width = last + 1


def _fold(n: int, cutoffs, *cells, budget: int | None = None) -> list[list[int]]:
    """Sum each cell(p, q) over the cells under every cutoff, in one walk.

    Returns one list per cell function, aligned with `cutoffs`; the budget
    is charged once per cell and cell function.
    """
    segments = [[0] * len(cutoffs) for _ in cells]
    for ps, tops in _rows(n, cutoffs, budget, len(cells)):
        low = 1  # each cell is added to the first cutoff that reaches it
        for i, top in enumerate(tops):
            if top >= low:
                for cell, segment in zip(cells, segments):
                    segment[i] += sum(starmap(cell, product(ps, range(low, top + 1))))
                low = top + 1
    return [list(accumulate(segment)) for segment in segments]


def sphere_counting(n: int, lam: int) -> int:
    """Number of positive eigenvalues <= lam on S^(2n-1), with multiplicity.

    Sums dim_hpq over p and the admissible q-range 1 <= q <= lam/(2(p+n-1)),
    mirroring the double sum the asymptotic analysis manipulates.
    """
    if n < 2:
        raise DimensionTooSmall(f"dimension parameter must be >= 2, got {n}")
    if lam < 0:
        raise ValueError("eigenvalue cutoff must be nonnegative")
    return _fold(n, [lam], partial(dim_hpq, n))[0][0]
