"""Exact eigenvalue -> multiplicity tables and the counting function.

Eigenvalues are even integers 2q(p + n - 1); the multiplicity of lam sums
the invariant dimensions over all (p, q) with that eigenvalue.  A table up
to a cutoff is one sieve of multiplicities, one pass over the O(sqrt(lam))
lines of the hyperbola split below.  The eigenvalues along a line are
evenly spaced, so each line is one strided slice add; for n = 2 its
dimensions come from slices of the base table and make no call per cell.
A single eigenvalue, and its per-(p, q) provenance, is answered by
enumerating the divisors of lam/2; `write_json` streams a table with its
provenance one eigenvalue at a time.  k = 1 encodes the sphere.

Every count N_L(lam) comes from `_counts`, at any list of cutoffs, and
visits no cell.  The cells q(p + n - 1) <= lam/2 lie under a hyperbola,
which `_sum_lines`, the one Dirichlet split, cuts into O(sqrt(lam)) rows
and columns, each summed in closed form: for n = 2 from prefix sums of the
k x k base table, for n >= 3 as one correlation of a profile row with a
cumulative profile row, through the difference N(p, q) - N(p-1, q-1),
whose profile rows are built one at a time in O(nk) each.
`counting_grid_size` and the lemma sums of `asymptotics` are line sums
too.  Tables, counts and comparisons check their work with `core.charge`.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, cycle, islice, repeat
from math import isqrt
from operator import add

from .core import (
    DEFAULT_BUDGET,
    InvalidEigenvalue,
    LensSpace,
    charge,
    gcd_invariant,
)
from .invariant import _correlate_zero, _profile_rows, base_dim_table, dim_cell


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
        cells = _contributors(self.space, lam, dim_cell(self.space))
        return [Contributor(*cell) for cell in cells]


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


def _check_eigenvalue(lam: int) -> None:
    """Reject an eigenvalue that is not positive and even."""
    if lam < 2 or lam % 2 != 0:
        raise InvalidEigenvalue(f"eigenvalues are positive even integers, got {lam}")


def _contributors(space: LensSpace, lam: int, dim):
    """Yield (p, q, dim) for the bidegrees of lam with positive dimension.

    `dim` is `dim_cell(space)`, which a caller asking about many
    eigenvalues binds once.
    """
    _check_eigenvalue(lam)
    for p, q in _bidegrees_for(lam, space.n):
        if d := dim(p, q):
            yield p, q, d


def multiplicity(space: LensSpace, lam: int) -> int:
    """Exact multiplicity of the eigenvalue lam on the lens space."""
    return sum(d for _, _, d in _contributors(space, lam, dim_cell(space)))


def _sieve_work(space: LensSpace, lambda_max: int) -> int:
    """The charge of `_sieve`: its cells, plus k^2 for an n = 2 base table.

    Every sieve's caller prices it first, so a negative cutoff is
    rejected here, before any charge.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")
    # The table is charged even when cached: a verdict must not depend on
    # cache state.
    return counting_grid_size(space.n, lambda_max) + (space.k**2 if space.n == 2 else 0)


def _sieve(space: LensSpace, lambda_max: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity (positive entries only), line by line.

    The cells q(p + n - 1) <= lam/2 are cut as in `_sum_lines`: the rows
    q <= s = isqrt(lam/2), and over q > s the columns p + n - 1 <= s.
    dim(p, q) = dim(q, p), as conjugation maps the invariants of bidegree
    (p, q) onto those of (q, p), so every line is a run of one coordinate
    m with the other, f, fixed.  Its admissible cells are evenly spaced,
    and so are their eigenvalues: a line is one strided slice add.
    """
    if lambda_max < 2:  # The least eigenvalue is 2.
        return {}
    n, half = space.n, lambda_max // 2
    s = isqrt(half)
    by_half = [0] * (half + 1)
    step, dims = _line_dims(space, half)
    # Row q = f: p = m = 0..half // f - n + 1 at index f (m + n - 1).
    # Column p = f = v - n + 1: q = m = s + 1..half // v at index v m.
    rows = ((u, 0, half // u - n + 1, u, n - 1) for u in range(1, s + 1))
    columns = ((v - n + 1, s + 1, half // v, v, 0) for v in range(n - 1, s + 1))
    for f, low, top, width, shift in chain(rows, columns):
        ms = range(low + (f - low) % step, top + 1, step)
        line = slice(width * (ms.start + shift), width * (top + shift) + 1, width * step)
        by_half[line] = map(add, by_half[line], dims(f, ms))
    return {2 * h: m for h, m in enumerate(by_half) if m}


def _line_dims(space: LensSpace, half: int):
    """(step, dims): dims(f, ms) yields dim(f, m) for m in the range ms.

    dim(f, m) > 0 only for every step-th m, and each range ms given
    starts at such an m.  n >= 3: step 1 and one `dim_cell` call per m.
    n = 2: dim vanishes off d | f - m, d = gcd(k, l_1 - l_2), so the step
    is d; at m = f mod d + d j, by the shift reduction that
    `dim_invariant_recurrence` uses,
    dim = base[f mod k][m mod k] + d floor(f/k) + d floor(j/period),
    period = k/d.  The base part repeats with that period: a slice of
    base row f mod k, cycled.  The floor part is a slice of one list
    floors[i] = d floor(i/period), at offset j + period floor(f/k); a
    line has m <= half and f <= isqrt(half), which bounds the list.
    """
    if space.n != 2:
        cell = dim_cell(space)
        return 1, lambda f, ms: map(cell, repeat(f), ms)
    k, d = space.k, gcd_invariant(space)
    period, base = k // d, base_dim_table(space)
    # Each multiple of d, period times: at least (half + isqrt(half)) / d + 1.
    blocks = range(0, d * ((half + isqrt(half)) // k + 1), d)
    floors = list(chain.from_iterable(map(repeat, blocks, repeat(period))))

    def dims(f: int, ms: range):
        j, count = ms.start // d, len(ms)
        start, offset = j % period, j + period * (f // k)
        pattern = islice(cycle(base[f % k][f % d :: d]), start, start + count)
        return map(add, pattern, floors[offset : offset + count])

    return d, dims


def build_spectrum(
    space: LensSpace, lambda_max: int, budget: int = DEFAULT_BUDGET
) -> SpectrumTable:
    """Assemble the eigenvalue table for all even eigenvalues <= lambda_max.

    More than `budget` (p, q) cells under lambda_max, plus k^2 for an
    n = 2 base table, raise ResourceLimit before any table is built.
    """
    charge(_sieve_work(space, lambda_max), budget)
    return SpectrumTable(space, lambda_max, _sieve(space, lambda_max))


def multiplicity_table(
    space: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> dict[int, int]:
    """Map of eigenvalue -> multiplicity (positive entries only).

    Charged as `build_spectrum`; over budget raises ResourceLimit first.
    """
    charge(_sieve_work(space, lambda_max), budget)
    return _sieve(space, lambda_max)


def lens_counting(
    space: LensSpace, lam: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Number of positive eigenvalues <= lam on the lens space, with multiplicity.

    The one-cutoff case of `_counts`.  Over budget raises ResourceLimit.
    """
    return _counts([space], [lam], budget)[0][0]


def _counts(spaces, lams, budget: int | None) -> list[list[int]]:
    """N_L at each cutoff in `lams`, one list per space.

    Each space's setup serves every cutoff.  All the work (`_work`) is
    charged first; over budget raises ResourceLimit before any is done.
    """
    if any(lam < 0 for lam in lams):
        raise ValueError("eigenvalue cutoff must be nonnegative")
    halves = [lam // 2 for lam in lams]
    charge(sum(_work(space, halves) for space in spaces), budget)
    return [
        (_count_recurrence if space.n == 2 else _count_convolution)(space, halves)
        for space in spaces
    ]


# The fixed cost of one pass over a profile row, in units of one entry:
# with it, k = 2 and k = 9 counts at n = 3 run at about the same time per
# unit of work charged.
_ROW_PASS = 6


def _work(space: LensSpace, halves: list[int]) -> int:
    """The charge of counting the space at every half-cutoff in `halves`.

    `_sum_lines` evaluates at most isqrt(half) rows and as many columns
    of two lines.  n = 2: k^2 for the base table's fill, k^2 prefix sums,
    one per line.  n >= 3, two regions: k per correlation, and at most
    (n + 1)(k + _ROW_PASS) per profile row built: n + 1 passes of k
    entries, each with a fixed cost (tuple building; an interpolated
    row's two `comb` calls) that dominates at small k.  A cumulative
    profile fills its m = (n + 1) k rows t < m and interpolates at most
    min(lines, largest + 1) more; a plain profile builds its rows
    0..isqrt(largest) at most.
    """
    n, k, largest = space.n, space.k, max(halves, default=0)
    lines = sum(3 * isqrt(half) for half in halves)
    if n == 2:  # The fill is charged even when cached, as in `_sieve_work`.
        return 2 * k * k + lines
    m, row = (n + 1) * k, (n + 1) * (k + _ROW_PASS)
    return 2 * row * (m + min(lines, largest + 1) + isqrt(largest) + 1) + 2 * k * lines


def _sum_lines(half: int, low: int, row, column) -> int:
    """Sum over the cells u >= 1, v >= low, u v <= half: the hyperbola split.

    row(u, top) sums the cells v = low..top of a row u <= s = isqrt(half),
    top = half // u >= low.  column(v, b) - column(v, a) sums the cells
    u = a+1..b of column v; each column low <= v <= s adds u = s+1..half // v.
    Past u = s, v <= half/(s+1) < s+1, so every cell is on one line.  A
    negative half has no cells.
    """
    s = isqrt(max(half, 0))
    total = sum(row(u, half // u) for u in range(1, s + 1) if half // u >= low)
    return total + sum(column(v, half // v) - column(v, s) for v in range(low, s + 1))


def _count_recurrence(space: LensSpace, halves: list[int]) -> list[int]:
    """N_L for n = 2: each line of dim(p, q), q(p + 1) <= half, in O(1).

    dim = [d | p - q] (base[p mod k][q mod k] + d (floor(p/k) + floor(q/k)));
    base vanishes off d | p - q, and d | k, so a line's sum over x < c k + e
    takes the base row's prefix sums at k and e and the number of
    admissible residues, k/d per full block and `part` in the last one.
    """
    k, d = space.k, gcd_invariant(space)
    base = base_dim_table(space)
    fixed_p = [list(accumulate(row, initial=0)) for row in base]
    fixed_q = [list(accumulate(col, initial=0)) for col in zip(*base)]

    def line(prefix, a: int, length: int) -> int:
        """Sum of dim over the first `length` cells of the line with index a."""
        r = a % k
        c, e = divmod(length, k)
        full, part = k // d, (e - r % d + d - 1) // d
        return (
            c * prefix[r][k]
            + prefix[r][e]
            + d * ((a // k) * (c * full + part) + full * c * (c - 1) // 2 + c * part)
        )

    # Row q holds p = 0..top - 1; column v = p + 1 holds q = 0..top.
    def column(v: int, top: int) -> int:
        return line(fixed_p, v - 1, top + 1)

    return [_sum_lines(half, 1, partial(line, fixed_q), column) for half in halves]


def _count_convolution(space: LensSpace, halves: list[int]) -> list[int]:
    """N_L for n >= 3 as the sum of N over the cells minus the (-1, -1) shift.

    dim(p, q) = N(p, q) - N(p-1, q-1) with N = 0 off p, q >= 0.  Over a
    row, N sums to a correlation of a cumulative profile row of the
    weights with a plain row of the negated weights; over a column, the
    other way round; a zero weight appended makes a profile cumulative.
    """
    n, k = space.n, space.k
    negated = tuple(-w % k for w in space.weights)
    plain_a, plain_b = _profile_rows(space.weights, k), _profile_rows(negated, k)
    cum_a, cum_b = _profile_rows(space.weights + (0,), k), _profile_rows(negated + (0,), k)

    def region(half: int, low: int, shift: int) -> int:
        """Sum of N(v - low, u - shift) over u >= 1, v >= low, u v <= half."""
        return _sum_lines(
            half,
            low,
            lambda u, t: _correlate_zero(cum_a(t - low), plain_b(u - shift), k),
            lambda v, t: _correlate_zero(plain_a(v - low), cum_b(t - shift), k),
        )

    # (p, q) = (v - n + 1, u) and (p - 1, q - 1) = (v - n, u - 1).
    return [region(half, n - 1, 0) - region(half, n, 1) for half in halves]


def counting_grid_size(n: int, lam: int) -> int:
    """Number of (p, q) pairs the counting function sums over at cutoff lam."""
    # Row q holds v = p + n - 1 = n - 1..top; column v holds q = 1..top.
    return _sum_lines(lam // 2, n - 1, lambda u, top: top - n + 2, lambda v, top: top)


def spectrum_to_csv(table: SpectrumTable) -> str:
    """Two-column CSV `lambda,multiplicity`, one row per eigenvalue."""
    lines = ["lambda,multiplicity"]
    for lam, m in table.by_eigenvalue.items():
        lines.append(f"{lam},{m}")
    return "\n".join(lines) + "\n"


def spectrum_to_json_obj(table: SpectrumTable, contributors: bool = False):
    """JSON-serializable view of the table, optionally with provenance.

    It holds every entry at once; `write_json` prints the same document
    one eigenvalue at a time.
    """
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


_ENTRY = '    {\n      "lambda": %d,\n      "multiplicity": %d'
_CELL = '        {\n          "p": %d,\n          "q": %d,\n          "dim": %d\n        }'


def write_json(table: SpectrumTable, out, contributors: bool = False) -> None:
    """Write `json.dumps(spectrum_to_json_obj(table, contributors), indent=2)`.

    The indent=2 layout is spelled out here, so the document is streamed
    one eigenvalue at a time, and provenance costs O(sqrt(lam)) memory
    per eigenvalue: no whole-table object is built.
    """
    out.write('{\n  "lens": %s,\n  "lambda_max": %d,\n  "entries": ['
              % (json.dumps(str(table.space)), table.lambda_max))
    sep, dim = "\n", dim_cell(table.space)
    for lam, m in table.by_eigenvalue.items():
        out.write(sep + _ENTRY % (lam, m))
        sep = ",\n"
        if contributors:  # A listed eigenvalue has at least one contributor.
            cells = [_CELL % cell for cell in _contributors(table.space, lam, dim)]
            out.write(',\n      "contributors": [\n%s\n      ]' % ",\n".join(cells))
        out.write("\n    }")
    out.write("\n  ]\n}" if table.by_eigenvalue else "]\n}")


def spectrum_to_json(table: SpectrumTable, contributors: bool = False) -> str:
    """The text `write_json` writes."""
    buffer = io.StringIO()
    write_json(table, buffer, contributors)
    return buffer.getvalue()
