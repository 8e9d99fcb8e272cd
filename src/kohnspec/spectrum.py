"""Exact eigenvalue -> multiplicity tables and the counting function.

Eigenvalues are even integers 2q(p + n - 1); the multiplicity of lam sums
the invariant dimensions over all (p, q) with that eigenvalue.  A table up
to a cutoff is one sieve of multiplicities, one pass over the O(sqrt(lam))
lines of the hyperbola split below.  The eigenvalues along a line are
evenly spaced, so each line is one strided slice add; for n = 2 its
dimensions are slices of the base table, with no Python step per cell.
A single eigenvalue, and its per-(p, q) provenance, is answered by
enumerating the divisors of lam/2.  `write_json` streams a whole table's
provenance from the sieve's own lines instead: a block of eigenvalues at
a time, each line's cells in the block, with their dimensions from the
same slices, filed by eigenvalue.  k = 1 encodes the sphere.

Every count N_L(lam) comes from `_counts`, at any list of cutoffs, and
visits no cell.  The cells q(p + n - 1) <= lam/2 lie under a hyperbola,
which `_lines`, the one Dirichlet split, cuts into O(sqrt(lam)) rows and
columns of bidegrees; `_sum_lines` sums each by one prefix function in
closed form: for n = 2 from prefix sums of the k x k base table, for n >= 3
as dot products of profile rows with cumulative ones, through dim(p, q) =
N(p, q) - N(p-1, q-1), profile rows built one at a time in O(nk) each.
Each count is memoized per space for the last eight spaces (`_count_memo`),
so a sweep and a count at its cutoffs compute each N_L once; a memo hit is
charged like a miss.  `counting_grid_size` and the lemma sums of `asymptotics`
are line sums too.  Tables, counts and comparisons check their work with
`core.charge`.
"""
from __future__ import annotations

import json
from functools import cache, lru_cache
from itertools import accumulate, chain, compress, cycle, groupby, islice, repeat
from math import isqrt
from operator import add
from typing import NamedTuple

from .core import (
    DEFAULT_BUDGET,
    InvalidEigenvalue,
    LensSpace,
    charge,
)
from .invariant import (_congruence_gcd, _dot, _grid_work, _profile_rows, _profile_work,
                        base_dim_table, dim_cell)


class Contributor(NamedTuple):
    """One bidegree (p, q) contributing a positive dimension to an eigenvalue."""

    p: int
    q: int
    dim: int


class SpectrumTable(NamedTuple):
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
        return [Contributor(*cell) for cell in _contributors(self.space, lam)]


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


def _contributors(space: LensSpace, lam: int):
    """Yield (p, q, dim) for the bidegrees of lam with positive dimension."""
    _check_eigenvalue(lam)
    dim = dim_cell(space)
    for p, q in _bidegrees_for(lam, space.n):
        if d := dim(p, q):
            yield p, q, d


def multiplicity(space: LensSpace, lam: int) -> int:
    """Exact multiplicity of the eigenvalue lam on the lens space."""
    return sum(d for _, _, d in _contributors(space, lam))


def _check_cutoff(lambda_max: int) -> None:
    """Reject a negative table cutoff."""
    if lambda_max < 0:
        raise ValueError("lambda_max must be nonnegative")


def _charge_sieves(spaces, lambda_max: int, budget: int | None) -> None:
    """Charge the `_sieve`s of `spaces` to lambda_max, before any runs; None: no charge."""
    _check_cutoff(lambda_max)
    if budget is None:
        return
    # Each costs lam/2 at least (n = 2: the row q = 1 holds lam/2 cells; n >= 3:
    # the lam/2 + 1 profile rows), so a huge cutoff is refused before lines are summed.
    charge(len(spaces) * (lambda_max // 2), budget)
    charge(sum(_sieve_work(space, lambda_max) for space in spaces), budget)


def _sieve_work(space: LensSpace, lambda_max: int) -> int:
    """The charge of `_sieve`, made even when cached: a verdict must not depend on caches.

    n = 2: one unit per cell, plus the base table's `_grid_work`.  n >= 3:
    2k per cell of `_line_cells` that the sieve evaluates, two dot products
    of k entries at most, plus the profile rows its lines reach, p, q <=
    lam/2.  `write_json` with contributors evaluates each cell again, so at
    n >= 3 it does up to twice this charge.
    """
    if space.n == 2:
        return counting_grid_size(2, lambda_max) + _grid_work(space, space.k - 1)
    g, half = _congruence_gcd(space), lambda_max // 2
    # The cells `_line_cells` lists: the m = f mod g of each line.
    cells = _sum_lines(half, space.n, lambda f, x: (x - 1 - f % g) // g + 1)
    return 2 * space.k * cells + _profile_work(space, half + 1)


def _sieve(space: LensSpace, lambda_max: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity (positive entries only), line by line.

    The cells q(p + n - 1) <= lam/2 lie on the lines of `_lines(lam/2, n)`,
    each running one bidegree coordinate m with the other, f, fixed; dim(p,
    q) = dim(q, p), as conjugation maps the invariants of bidegree (p, q)
    onto those of (q, p).  A line's cells of positive dim, and their
    eigenvalues, are evenly spaced, so a line is one strided slice add.
    n = 2 takes a line's dims as one slice of a template per residue f mod
    k (`_sliced_dims`), once the table is long enough for each template to
    serve several lines.
    """
    if lambda_max < 2:  # The least eigenvalue is 2.
        return {}
    half = lambda_max // 2
    by_half = [0] * (half + 1)
    step, dims = _line_dims(space, half)
    lines = list(_line_cells(half, space.n, step))
    # With isqrt(half) >= 2k every residue mod k has two rows and two
    # columns or more, so a template serves several lines; below that,
    # building it costs more than the lazy rows it replaces.
    if space.n == 2 and isqrt(half) >= 2 * space.k:
        dims = _sliced_dims(space, lines, dims)
    for _, f, ms, halves in lines:
        line = slice(halves.start, halves.stop, halves.step)
        by_half[line] = map(add, by_half[line], dims(f, ms))
    return dict(compress(zip(range(0, 2 * half + 1, 2), by_half), by_half))


def _sliced_dims(space: LensSpace, lines: list, dims):
    """n = 2: `_line_dims`' dims(f, ms) for the given lines, each as one list slice.

    With j = ms.start // d, a line's dims are T[r][j + period floor(f/k):]
    for r = f mod k, where the template T[r][i] = base[r][r mod d :: d][i mod
    period] + d floor(i/period): shifting by period floor(f/k) adds the
    d floor(f/k) term.  T[r] is dims' own lazy row for f = r, built once,
    as long as the longest of its lines needs.
    """
    k, d = space.k, _congruence_gcd(space)
    period = k // d
    lengths = [0] * k
    for _, f, ms, _ in lines:
        r = f % k
        lengths[r] = max(lengths[r], ms.start // d + period * (f // k) + len(ms))
    templates = [list(dims(r, range(r % d, r % d + d * length, d)))
                 for r, length in enumerate(lengths)]

    def sliced(f: int, ms: range) -> list[int]:
        offset = ms.start // d + period * (f // k)
        return templates[f % k][offset : offset + len(ms)]

    return sliced


def _line_cells(half: int, n: int, step: int):
    """(shift, f, ms, halves) for each line of `_lines(half, n)`, in its order.

    ms holds the line's m in [lo, hi) congruent to f mod step, the only
    cells that can have positive dim (see `_line_dims`), and halves[i], the
    half-eigenvalue q(p + n - 1) of the cell (f, ms[i]), is fixed (ms[i] +
    shift).  A row has shift n - 1 and a column shift 0.
    """
    for fixed, shift, f, lo, hi in _lines(half, n):
        ms = range(lo + (f - lo) % step, hi, step)
        yield shift, f, ms, range(fixed * (ms.start + shift), fixed * (ms.stop + shift),
                                  fixed * step)


def _line_dims(space: LensSpace, half: int):
    """(step, dims): dims(f, ms) yields dim(f, m) for m in the range ms.

    dim vanishes off g | f - m, g = `_congruence_gcd`, so the step is g
    and each range ms given starts at an m = f mod g.  n >= 3: one
    `dim_cell` call per m.  n = 2: g is d = gcd(k, l_1 - l_2); at
    m = f mod d + d j, by the shift reduction that
    `dim_invariant_recurrence` uses,
    dim = base[f mod k][m mod k] + d floor(f/k) + d floor(j/period),
    period = k/d.  The base part repeats with that period: a slice of
    base row f mod k, cycled.  The floor part is a slice of one list
    floors[i] = d floor(i/period), at offset j + period floor(f/k); a
    line has m <= half and f <= isqrt(half), which bounds the list.  The
    rows are lazy, so the streaming writer holds no more than a block of
    them; `_sieve` materializes them once per residue (`_sliced_dims`).
    """
    k, d = space.k, _congruence_gcd(space)  # g, named d as for n = 2
    if space.n != 2:
        cell = dim_cell(space)
        return d, lambda f, ms: map(cell, repeat(f), ms)
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
    space: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> SpectrumTable:
    """Assemble the eigenvalue table for all even eigenvalues <= lambda_max.

    Work over `budget`, as `_sieve_work` prices it, raises ResourceLimit
    before any table is built.
    """
    return SpectrumTable(space, lambda_max, multiplicity_table(space, lambda_max, budget))


def multiplicity_table(
    space: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> dict[int, int]:
    """Map of eigenvalue -> multiplicity (positive entries only).

    Charged as `build_spectrum`; over budget raises ResourceLimit first.
    """
    _charge_sieves([space], lambda_max, budget)
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

    All the work (`_work`) is charged first, memoized cutoffs too, so the
    verdict does not depend on cache state; over budget raises
    ResourceLimit before any is done.  Then each space's distinct
    half-cutoffs missing from its `_count_memo` are counted in one batch,
    whose setup serves them all.
    """
    if any(lam < 0 for lam in lams):
        raise ValueError("eigenvalue cutoff must be nonnegative")
    halves = [lam // 2 for lam in lams]
    charge(sum(_work(space, halves) for space in spaces), budget)
    counts = []
    for space in spaces:
        memo = _count_memo(space)
        if missing := sorted(set(halves).difference(memo)):
            count = _count_recurrence if space.n == 2 else _count_convolution
            memo.update(zip(missing, count(space, missing)))
        counts.append([memo[half] for half in halves])
    return counts


@lru_cache(maxsize=8)
def _count_memo(space: LensSpace) -> dict[int, int]:
    """Half-cutoff -> N_L of the space, read and filled by `_counts` alone; eight spaces kept."""
    return {}


def _work(space: LensSpace, halves: list[int]) -> int:
    """The charge of counting the space at every half-cutoff in `halves`.

    `_sum_lines` makes one prefix call per row and two per column, at most
    3 isqrt(half) in all.  n = 2: the base table's `_grid_work`, k^2, and k^2
    prefix sums, one per line.  n >= 3, two regions: k per dot product,
    and per profile row built at most the `_profile_work` of a row of
    n + 1 weights, as in the cumulative profile: n + 1 passes of k entries,
    each with a fixed cost (tuple building; an interpolated row's two
    `comb` calls) that dominates at small k.  The cumulative profile
    fills its m = (n + 1) k rows t < m and interpolates at most
    min(lines, largest + 1) more; the plain profile builds its rows
    0..isqrt(largest) at most.
    """
    n, k, largest = space.n, space.k, max(halves, default=0)
    lines = sum(3 * isqrt(half) for half in halves)
    if n == 2:  # The fill is charged even when cached, as in `_sieve_work`.
        return _grid_work(space, k - 1) + k * k + lines
    m, row = (n + 1) * k, _profile_work(space, n + 1) // n
    return row * (m + min(lines, largest + 1) + isqrt(largest) + 1) + 2 * k * lines


def _sum_lines(half: int, n: int, prefix) -> int:
    """Sum of a value symmetric in (p, q) over the cells q >= 1, q(p + n - 1) <= half.

    prefix(f, x) = sum of value(f, m), 0 <= m < x; each line of `_lines`
    adds prefix(f, hi) - prefix(f, lo), a row's lo = 0 term dropped.
    """
    return sum(prefix(f, hi) - prefix(f, lo) if lo else prefix(f, hi)
               for _, _, f, lo, hi in _lines(half, n))


def _lines(half: int, n: int):
    """The Dirichlet split of the cells q >= 1, p >= 0, q(p + n - 1) <= half.

    In u = q, v = p + n - 1, rows u <= s = isqrt(half) run v = n - 1..half // u,
    columns n - 1 <= v <= s run u = s+1..half // v, and past u = s, v < s+1.
    A line (fixed, shift, f, lo, hi) runs m over [lo, hi): a row fixes q = f
    = u, p = m, lo = 0; a column fixes p = f = v - n + 1, q = m, lo = s + 1.
    The cell's index u v is fixed (m + shift).
    """
    s = isqrt(max(half, 0))
    rows = ((u, n - 1, u, 0, hi) for u in range(1, s + 1) if (hi := half // u - n + 2) > 0)
    return chain(rows, ((v, 0, v - n + 1, s + 1, half // v + 1) for v in range(n - 1, s + 1)))


def _count_recurrence(space: LensSpace, halves: list[int]) -> list[int]:
    """N_L for n = 2: each line of dim(p, q), q(p + 1) <= half, in O(1).

    dim = [d | p - q] (base[p mod k][q mod k] + d (floor(p/k) + floor(q/k)));
    base vanishes off d | p - q, and d | k, so a line's sum over x < c k + e
    takes the base row's prefix sums at k and e and the number of
    admissible residues, k/d per full block and `part` in the last one.
    """
    k, d = space.k, _congruence_gcd(space)
    # One prefix table serves rows and columns: the base table is symmetric.
    prefix = [list(accumulate(row, initial=0)) for row in base_dim_table(space)]

    def line(a: int, length: int) -> int:
        """Sum of dim over the first `length` cells of the line with index a."""
        r = a % k
        c, e = divmod(length, k)
        full, part = k // d, (e - r % d + d - 1) // d
        return (
            c * prefix[r][k]
            + prefix[r][e]
            + d * ((a // k) * (c * full + part) + full * c * (c - 1) // 2 + c * part)
        )

    return [_sum_lines(half, 2, line) for half in halves]


def _count_convolution(space: LensSpace, halves: list[int]) -> list[int]:
    """N_L for n >= 3 as the sum of N over the cells minus the (-1, -1) shift.

    dim(p, q) = N(p, q) - N(p-1, q-1) with N = 0 off p, q >= 0, and N(p, q)
    is the dot product of profile rows p and q.  Over m < x, N(f, m) sums
    to the dot product of plain row f with cumulative row x - 1: a zero
    weight appended makes the profile cumulative.
    """
    k = space.k
    plain, cum = _profile_rows(space.weights, k), _profile_rows(space.weights + (0,), k)

    def prefix(f: int, x: int) -> int:
        """Sum of dim(f, m) over m < x; every line has x >= 1."""
        total = _dot(plain(f), cum(x - 1))
        return total - _dot(plain(f - 1), cum(x - 2)) if f and x > 1 else total

    return [_sum_lines(half, space.n, prefix) for half in halves]


def counting_grid_size(n: int, lam: int) -> int:
    """Number of (p, q) pairs the counting function sums over at cutoff lam."""
    return _sum_lines(lam // 2, n, lambda f, x: x)


def spectrum_to_csv(table: SpectrumTable) -> str:
    """Two-column CSV `lambda,multiplicity`, one row per eigenvalue.

    The rows are one `%` of a per-count template, with no step per row.
    """
    items = table.by_eigenvalue.items()
    return "lambda,multiplicity\n" + ("%d,%d\n" * len(items)) % tuple(chain.from_iterable(items))


_ENTRY = '    {\n      "lambda": %d,\n      "multiplicity": %d'
_CELL = '        {\n          "p": %d,\n          "q": %d,\n          "dim": %d\n        }'
# Provenance is gathered for this many consecutive half-eigenvalues at a time.
_BLOCK = 256


@cache
def _entry(count: int) -> str:
    """The template of an entry with `count` >= 1 contributors, memoized per count."""
    cells = ",\n".join(repeat(_CELL, count))
    return _ENTRY + ',\n      "contributors": [\n%s\n      ]\n    }' % cells


def write_json(table: SpectrumTable, out, contributors: bool = False) -> None:
    """Write the table as JSON, laid out as `json.dumps(..., indent=2)` would.

    The layout is spelled out, so the document streams: one `%` of an
    `_entry` template and one write per entry.  Beyond the sieve's lines,
    it holds one entry's string and the cells of _BLOCK consecutive halves.
    """
    out.write('{\n  "lens": %s,\n  "lambda_max": %d,\n  "entries": ['
              % (json.dumps(str(table.space)), table.lambda_max))
    entries = ((_entry(len(flat) // 3) % (lam, m, *flat) for lam, m, flat in _provenance(table))
               if contributors else map((_ENTRY + "\n    }").__mod__, table.by_eigenvalue.items()))
    sep = "\n"
    for entry in entries:
        out.write(sep + entry)
        sep = ",\n"
    out.write("\n  ]\n}" if table.by_eigenvalue else "]\n}")


def _provenance(table: SpectrumTable):
    """Yield (lam, multiplicity, flat) per entry, flat = [p, q, dim, p, ...] by p.

    The cells are the sieve's: each block of _BLOCK halves walks every line
    of `_line_cells` over the part whose halves fall in the block, takes
    its dims from `_line_dims` and files each cell of positive dim under
    its half.  Only blocks with an eigenvalue are walked.  For a
    half h, the cells (u, v) with u v = h have p = h/u - n + 1 falling as u
    grows, and a column's u exceeds isqrt(half), which bounds a row's: the
    columns by v ascending, then the rows by u descending, file each
    eigenvalue's cells by p.
    """
    if not table.by_eigenvalue:  # Nothing to walk, and no base table to fill.
        return
    space, half = table.space, table.lambda_max // 2
    step, dims = _line_dims(space, half)
    lines = list(_line_cells(half, space.n, step))
    lines = [line for line in lines if not line[0]] + [line for line in lines[::-1] if line[0]]
    for block, entries in groupby(table.by_eigenvalue.items(), lambda e: e[0] // (2 * _BLOCK)):
        low = block * _BLOCK
        high = min(low + _BLOCK, half + 1)
        buckets = [[] for _ in range(high - low)]
        for shift, f, ms, halves in lines:
            start, stride = halves.start, halves.step
            if start >= high:  # A column that starts past the block.
                continue
            # The line's cells with halves in [low, high): the first index at
            # or past low, to the first at or past high.
            first = -((start - low) // stride) if start < low else 0
            part = ms[first : -((start - high) // stride)]
            if not part:
                continue
            targets = buckets[start + first * stride - low :: stride]
            ds = list(dims(f, part))
            cells = zip(part, repeat(f), ds) if shift else zip(repeat(f), part, ds)
            # Flat: a formatted cell takes twice the memory.
            any(map(list.extend, compress(targets, ds), compress(cells, ds)))
        for lam, m in entries:
            yield lam, m, buckets[lam // 2 - low]
