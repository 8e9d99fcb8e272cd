"""Exact eigenvalue -> multiplicity tables and the counting function.

Eigenvalues are even integers 2q(p + n - 1); the multiplicity of lam sums
the invariant dimensions over all (p, q) with that eigenvalue.  A table up
to a cutoff is one sieve of multiplicities: a walk over the (p, q) cells
adds each cell's dimension to its eigenvalue.  A single eigenvalue, and
its per-(p, q) provenance, is answered by enumerating the divisors of
lam/2.  k = 1 encodes the sphere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import isqrt

from .core import DEFAULT_BUDGET, InvalidEigenvalue, LensSpace
from .invariant import dim_invariant
from .sphere import _fold, _rows


@dataclass(frozen=True)
class Contributor:
    """One bidegree (p, q) contributing a positive dimension to an eigenvalue."""

    p: int
    q: int
    dim: int


@dataclass
class SpectrumTable:
    """Sorted map eigenvalue -> multiplicity of the eigenvalues <= lambda_max.

    Only eigenvalues with positive multiplicity appear.
    """

    space: LensSpace
    lambda_max: int
    by_eigenvalue: dict[int, int]

    def multiplicities(self) -> dict[int, int]:
        return dict(self.by_eigenvalue)

    def total_count(self) -> int:
        return sum(self.by_eigenvalue.values())

    def contributors(self, lam: int) -> list[Contributor]:
        """The bidegrees of positive dimension that make up lam, by p."""
        return list(_contributors(self.space, lam))


def _bidegrees_for(lam: int, n: int) -> list[tuple[int, int]]:
    """All (p, q) with 2q(p + n - 1) = lam, by divisor enumeration of lam/2."""
    half = lam // 2
    pairs = []
    for i in range(1, isqrt(half) + 1):
        if half % i == 0:
            for q in {i, half // i}:
                p = half // q - (n - 1)
                if p >= 0:
                    pairs.append((p, q))
    pairs.sort()
    return pairs


def _contributors(space: LensSpace, lam: int):
    """Yield the bidegrees of the eigenvalue lam with positive dimension."""
    if lam <= 0 or lam % 2 != 0:
        raise InvalidEigenvalue(f"eigenvalues are positive even integers, got {lam}")
    for p, q in _bidegrees_for(lam, space.n):
        if d := dim_invariant(space, p, q):
            yield Contributor(p, q, d)


def multiplicity(space: LensSpace, lam: int) -> int:
    """Exact multiplicity of the eigenvalue lam on the lens space."""
    return sum(c.dim for c in _contributors(space, lam))


def _sieve(space: LensSpace, lambda_max: int, budget: int | None) -> dict[int, int]:
    """Eigenvalue -> multiplicity (positive entries only), in one cell walk."""
    by_half = [0] * (lambda_max // 2 + 1)
    for ps, (top,) in _rows(space.n, [lambda_max], budget):
        for p, q in product(ps, range(1, top + 1)):
            by_half[q * (p + space.n - 1)] += dim_invariant(space, p, q)
    return {2 * half: m for half, m in enumerate(by_half) if m}


def build_spectrum(
    space: LensSpace, lambda_max: int, budget: int = DEFAULT_BUDGET
) -> SpectrumTable:
    """Assemble the eigenvalue table for all even eigenvalues <= lambda_max.

    More than `budget` (p, q) cells under lambda_max raise ResourceLimit.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    return SpectrumTable(space, lambda_max, _sieve(space, lambda_max, budget))


def multiplicity_table(space: LensSpace, lambda_max: int) -> dict[int, int]:
    """Map of eigenvalue -> multiplicity (positive entries only)."""
    return _sieve(space, lambda_max, None)


def lens_counting(space: LensSpace, lam: int) -> int:
    """Number of positive eigenvalues <= lam on the lens space, with multiplicity."""
    if lam < 0:
        raise ValueError("eigenvalue cutoff must be nonnegative")
    return _fold(space.n, [lam], partial(dim_invariant, space))[0][0]


def counting_grid_size(n: int, lam: int) -> int:
    """Number of (p, q) pairs the counting function sums over at cutoff lam."""
    return sum(len(ps) * tops[-1] for ps, tops in _rows(n, [lam]))


def spectrum_to_csv(table: SpectrumTable) -> str:
    """Two-column CSV `lambda,multiplicity`, one row per eigenvalue."""
    lines = ["lambda,multiplicity"]
    for lam, m in table.by_eigenvalue.items():
        lines.append(f"{lam},{m}")
    return "\n".join(lines) + "\n"


def spectrum_to_json_obj(table: SpectrumTable, contributors: bool = False):
    """JSON-serializable view of the table, optionally with provenance."""
    rows = []
    for lam, m in table.by_eigenvalue.items():
        row = {"lambda": lam, "multiplicity": m}
        if contributors:
            row["contributors"] = [
                {"p": c.p, "q": c.q, "dim": c.dim} for c in table.contributors(lam)
            ]
        rows.append(row)
    return {
        "lens": str(table.space),
        "lambda_max": table.lambda_max,
        "entries": rows,
    }


def spectrum_to_json(table: SpectrumTable, contributors: bool = False) -> str:
    return json.dumps(spectrum_to_json_obj(table, contributors), indent=2)
