"""Exact eigenvalue -> multiplicity tables and the counting function.

Eigenvalues are even integers 2q(p + n - 1); the multiplicity of lam sums
the invariant dimensions over all (p, q) with that eigenvalue.  The cells
q(p + n - 1) <= lam/2 lie under a hyperbola, which `_lines`, the one
Dirichlet split, cuts into O(sqrt(lam)) rows and columns of bidegrees.
Along a line the dimensions come from the space's `_kernel`, the one place
that picks the formula: for n = 2 a slice of one template per residue mod
k, built from the k x k base table, with no Python step per cell; for
n >= 3 profile rows, through dim(p, q) = N(p, q) - N(p-1, q-1).  A table
up to a cutoff is one sieve of multiplicities: the eigenvalues along a
line are evenly spaced, so each line is one strided slice add.
`write_json` streams a whole table's provenance from the sieve's own
lines and line dimensions, a block of eigenvalues at a time.  A single
eigenvalue, and its per-(p, q) provenance, is answered by enumerating the
divisors of lam/2.  k = 1 encodes the sphere.

Every count N_L(lam) comes from `_counts`, at any list of cutoffs, and
visits no cell: `_sum_lines` sums each line by the kernel's prefix
function in closed form, and ascending cutoffs share their column terms.
Each count is memoized per space for the last eight spaces
(`_count_memo`), so a sweep and a count at its cutoffs compute each N_L
once; a memo hit is charged like a miss.
`_cells` (a sieve's cells, the one count under `counting_grid_size` and
both sieve prices) and the lemma sums of `asymptotics` are line sums too.
Tables, counts and comparisons check their work with `core.charge`.
"""
from __future__ import annotations

import json
from functools import cache, lru_cache
from itertools import accumulate, chain, compress, cycle, groupby, islice, repeat
from math import isqrt
from operator import add
from typing import Callable, NamedTuple

from .core import (DEFAULT_BUDGET, LensSpace, _congruence_gcd, charge, check_cutoff,
                   check_dimension, check_eigenvalue)
from .invariant import (_dot, _grid_work, _profile_rows, _profile_work,
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


def _contributors(space: LensSpace, lam: int):
    """Yield (p, q, dim) for the bidegrees of lam with positive dimension.

    Its isqrt(lam/2) trial divisions are charged first, as in `c_matrix`.
    """
    check_eigenvalue(lam)
    charge(isqrt(lam // 2), DEFAULT_BUDGET)
    dim = dim_cell(space)
    for p, q in _bidegrees_for(lam, space.n):
        if d := dim(p, q):
            yield p, q, d


def multiplicity(space: LensSpace, lam: int) -> int:
    """Exact multiplicity of the eigenvalue lam on the lens space."""
    return sum(d for _, _, d in _contributors(space, lam))


def _charge_sieves(spaces, lambda_max: int, budget: int | None) -> None:
    """Charge the `_sieve`s of `spaces` to lambda_max, before any runs; None: no charge."""
    check_cutoff(lambda_max)
    if budget is None:
        return
    # Each fills lam/2 + 1 multiplicities at any n and g, so a huge cutoff is
    # refused before the lines of its price are summed.
    charge(len(spaces) * (lambda_max // 2), budget)
    charge(sum(_kernel(space).sieve_work(lambda_max // 2) for space in spaces), budget)


def _sieve(space: LensSpace, lambda_max: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity (positive entries only), line by line.

    The cells q(p + n - 1) <= lam/2 lie on the lines of `_lines(lam/2, n)`,
    each running one bidegree coordinate m with the other, f, fixed; dim(p,
    q) = dim(q, p), as conjugation maps the invariants of bidegree (p, q)
    onto those of (q, p).  A line's cells of positive dim, and their
    eigenvalues, are evenly spaced, so a line is one strided slice add of
    the kernel's `dims`.
    """
    if lambda_max < 2:  # The least eigenvalue is 2.
        return {}
    half, kernel = lambda_max // 2, _kernel(space)
    by_half = [0] * (half + 1)
    lines = list(_line_cells(half, space.n, _congruence_gcd(space)))
    dims = kernel.dims(lines)
    for _, f, ms, halves in lines:
        line = slice(halves.start, halves.stop, halves.step)
        by_half[line] = map(add, by_half[line], dims(f, ms))
    return dict(compress(zip(range(0, 2 * half + 1, 2), by_half), by_half))


def _line_cells(half: int, n: int, step: int):
    """(shift, f, ms, halves) for each line of `_lines(half, n)`, rows first.

    ms holds the line's m in [lo, hi) congruent to f mod step, the only
    cells that can have positive dim (see `_Kernel`), and halves[i], the
    half-eigenvalue q(p + n - 1) of the cell (f, ms[i]), is fixed (ms[i] +
    shift).  A row has shift n - 1 and a column shift 0.
    """
    s, rows, columns = _lines(half, n)
    for shift, lo, (fs, his) in ((n - 1, 0, rows), (0, s + 1, columns)):
        for f, hi in zip(fs, his):
            fixed = f + n - 1 - shift
            ms = range(lo + (f - lo) % step, hi, step)
            yield shift, f, ms, range(fixed * (ms.start + shift), fixed * (ms.stop + shift),
                                      fixed * step)


class _Kernel(NamedTuple):
    """A space's dimension formula along the lines of `_lines`, in each form used.

    dim(f, m) vanishes off g | f - m, g = `_congruence_gcd`, the step the
    sieve gives `_line_cells`.  dims(lines)(f, ms): the list of
    dim(f, m) for m in ms, for the `_line_cells` lines and any part of one
    (the sieve's and the writer's one form); prefix()(f, x): the sum of
    dim(f, m) over m < x, 0 at x = 0.  The charges sieve_work(half) and
    count_work(halves) hold even when caches hold the work.  Building a
    kernel builds nothing: tables and profiles are reached only inside
    dims and prefix.
    """

    dims: Callable
    prefix: Callable
    sieve_work: Callable
    count_work: Callable


def _kernel(space: LensSpace) -> _Kernel:
    """The line kernel of the space: the one place that picks the n = 2 or n >= 3 formula."""
    return _kernel_2(space) if space.n == 2 else _kernel_n(space)


def _kernel_2(space: LensSpace) -> _Kernel:
    """n = 2: by the shift reduction of `dim_invariant_recurrence`, on d | f - m
    dim(f, m) = base[f mod k][m mod k] + d floor(f/k) + d floor(m/k), d = g.

    At m = f mod d + d j, floor(m/k) = floor(j/period), period = k/d, and the
    base part repeats with that period.  `dims` builds one template per
    residue r = f mod k that its lines reach: the row for f = r, base row r
    cycled from r mod d in steps of d plus floors[j] = d floor(j/period),
    as long as the longest of those lines needs ([] for a residue with no
    line).  Line (f, ms) is one slice of it, at offset j + period floor(f/k):
    that shift adds d floor(f/k).  The templates hold O(half log k / d)
    entries: residue r reaches about half / (d max(r, 1)).  `prefix` sums
    x = c k + e cells from the base row's prefix sums at k and e and the
    admissible residues, k/d per full block and `part` in the last.  A
    sieve is charged one unit per cell it slices (`_cells`) plus the base
    table's `_grid_work`, k^2; counts that fill, its k^2 prefix sums and
    3 isqrt(half) per cutoff, one per prefix call at most.
    """
    k, d = space.k, _congruence_gcd(space)
    period = k // d

    def dims(lines: list):
        base = base_dim_table(space)
        lengths = [0] * k
        for _, f, ms, _ in lines:
            r = f % k
            lengths[r] = max(lengths[r], ms.start // d + period * (f // k) + len(ms))
        # Each multiple of d, period times, as far as the longest template.
        blocks = range(0, d * (max(lengths) // period + 1), d)
        floors = list(chain.from_iterable(map(repeat, blocks, repeat(period))))
        templates = [list(map(add, islice(cycle(base[r][r % d :: d]), length), floors))
                     if length else [] for r, length in enumerate(lengths)]

        def line(f: int, ms: range) -> list[int]:
            offset = ms.start // d + period * (f // k)
            return templates[f % k][offset : offset + len(ms)]

        return line

    def prefix():
        # One prefix table serves rows and columns: the base table is symmetric.
        sums = [list(accumulate(row, initial=0)) for row in base_dim_table(space)]

        def line(a: int, x: int) -> int:
            r = a % k
            c, e = divmod(x, k)
            part = (e - r % d + d - 1) // d
            return (c * sums[r][k] + sums[r][e]
                    + d * ((a // k) * (c * period + part) + period * c * (c - 1) // 2 + c * part))

        return line

    def count_work(halves: list[int]) -> int:
        return _grid_work(space, k - 1) + k * k + sum(3 * isqrt(h) for h in halves)

    return _Kernel(dims, prefix, lambda half: _cells(half, 2, d) + _grid_work(space, k - 1),
                   count_work)


def _kernel_n(space: LensSpace) -> _Kernel:
    """n >= 3: dim(f, m) = N(f, m) - N(f-1, m-1), N(p, q) the dot product of
    profile rows p and q, N = 0 off p, q >= 0; one `dim_cell` call per cell.

    Over m < x, N(f, m) sums to the dot product of plain row f with
    cumulative row x - 1: a zero weight appended makes the profile
    cumulative.  A sieve is charged 2k per cell it evaluates, g | f - m
    (`_cells`; two dot products of k entries at most, `write_json` with
    contributors up to twice that), plus the profile rows it reaches, p, q <= half.
    Counts are charged k per dot product, two per prefix call (at most one
    call per row, two per column: 3 isqrt(half) per cutoff, `lines` in all),
    and per profile row the `_profile_work` of a row of n + 1 weights
    (each pass has a fixed cost, tuple building or an interpolated row's
    `comb` calls, that dominates at small k): the cumulative
    profile's m = (n + 1) k filled rows, at most min(lines, largest + 1)
    interpolated ones, and the plain profile's rows 0..isqrt(largest).
    """
    n, k, g = space.n, space.k, _congruence_gcd(space)

    def dims(lines: list):
        cell = dim_cell(space)
        return lambda f, ms: list(map(cell, repeat(f), ms))

    def prefix():
        plain, cum = _profile_rows(space.weights, k), _profile_rows(space.weights + (0,), k)

        def line(f: int, x: int) -> int:
            total = _dot(plain(f), cum(x - 1))
            return total - _dot(plain(f - 1), cum(x - 2)) if f and x > 1 else total

        return line

    def sieve_work(half: int) -> int:
        return 2 * k * _cells(half, n, g) + _profile_work(space, half + 1)

    def count_work(halves: list[int]) -> int:
        largest, lines = max(halves, default=0), sum(3 * isqrt(h) for h in halves)
        m, row = (n + 1) * k, _profile_work(space, n + 1) // n
        return row * (m + min(lines, largest + 1) + isqrt(largest) + 1) + 2 * k * lines

    return _Kernel(dims, prefix, sieve_work, count_work)


def build_spectrum(
    space: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> SpectrumTable:
    """Assemble the eigenvalue table for all even eigenvalues <= lambda_max.

    A negative lambda_max raises ValueError (`check_cutoff`); work over
    `budget`, as the kernel's `sieve_work` prices it, raises ResourceLimit
    before any table is built.
    """
    return SpectrumTable(space, lambda_max, multiplicity_table(space, lambda_max, budget))


def multiplicity_table(
    space: LensSpace, lambda_max: int, budget: int | None = DEFAULT_BUDGET
) -> dict[int, int]:
    """Map of eigenvalue -> multiplicity (positive entries only).

    Checked and charged as `build_spectrum`, before any table is built.
    """
    _charge_sieves([space], lambda_max, budget)
    return _sieve(space, lambda_max)


def lens_counting(
    space: LensSpace, lam: int, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Number of positive eigenvalues <= lam on the lens space, with multiplicity.

    The one-cutoff case of `_counts`: a negative lam raises ValueError, and
    work over budget ResourceLimit.
    """
    return _counts([space], [lam], budget)[0][0]


def _counts(spaces, lams, budget: int | None) -> list[list[int]]:
    """N_L at each cutoff in `lams`, one list per space; a negative one raises ValueError.

    All the work (each kernel's `count_work`) is charged first, memoized
    cutoffs too, so the verdict does not depend on cache state; over
    budget raises ResourceLimit before any is done.  Then each space's
    distinct half-cutoffs missing from its `_count_memo` are summed in
    ascending order by one `_sum_lines` with one kernel `prefix`.
    """
    check_cutoff(min(lams, default=0))
    halves = [lam // 2 for lam in lams]
    kernels = [_kernel(space) for space in spaces]
    charge(sum(kernel.count_work(halves) for kernel in kernels), budget)
    counts = []
    for space, kernel in zip(spaces, kernels):
        memo = _count_memo(space)
        if missing := sorted(set(halves).difference(memo)):
            memo.update(zip(missing, _sum_lines(missing, space.n, kernel.prefix())))
        counts.append([memo[half] for half in halves])
    return counts


@lru_cache(maxsize=8)
def _count_memo(space: LensSpace) -> dict[int, int]:
    """Half-cutoff -> N_L of the space, read and filled by `_counts` alone; eight spaces kept."""
    return {}


def _sum_lines(halves, n: int, prefix) -> list[int]:
    """Per half in `halves`, the sum of a value symmetric in (p, q) over
    the cells q >= 1, q(p + n - 1) <= half.

    prefix(f, x) sums value(f, m) over m < x (0 at x = 0).  A half maps it
    over its `_lines`, less Sq(s) = sum of prefix(f, s + 1), f <= s - n + 1,
    the columns' lo terms.  By symmetry Sq(t + 1) - Sq(t) = prefix(t - n + 2,
    t + 2) + prefix(t + 1, t - n + 2): Sq(s) grows from the last half's
    Sq(t) or is summed anew, whichever takes fewer calls.
    """
    sums, t, square = [], n - 2, 0  # Sq(t) = 0 for t <= n - 2.
    for half in halves:
        s, (us, row_his), (fs, col_his) = _lines(half, n)
        if 0 <= 2 * (s - t) < s - n + 2:  # Then t >= n: every term of the growth is there.
            edge = range(t - n + 2, s - n + 2)
            square += (sum(map(prefix, edge, range(t + 2, s + 2)))
                       + sum(map(prefix, range(t + 1, s + 1), edge)))
        else:
            square = sum(map(prefix, range(s - n + 2), repeat(s + 1)))
        t = s
        sums.append(sum(map(prefix, us, row_his)) + sum(map(prefix, fs, col_his)) - square)
    return sums


def _lines(half: int, n: int):
    """The Dirichlet split of the cells q >= 1, p >= 0, q(p + n - 1) <= half.

    In u = q, v = p + n - 1, rows u <= s = isqrt(half) run v = n - 1..half // u,
    columns n - 1 <= v <= s run u = s+1..half // v, and past u = s, v < s+1.
    Returns (s, (fs, his) of the rows, (fs, his) of the columns): line f runs
    m over [lo, hi).  A row fixes q = f = u, p = m, lo = 0; a column fixes
    p = f = v - n + 1, q = m, lo = s + 1.  The cell's index u v is fixed (m
    + shift), fixed = f + n - 1 - shift, shift n - 1 in a row, 0 in a column.
    """
    s = isqrt(max(half, 0))
    us, vs = range(1, min(s, half // (n - 1)) + 1), range(n - 1, s + 1)
    return (s, (us, [half // u - n + 2 for u in us]),
            (range(len(vs)), [half // v + 1 for v in vs]))


def counting_grid_size(n: int, lam: int) -> int:
    """Number of (p, q) pairs the counting function sums over at cutoff lam.

    `_cells` at g = 1; n below 2 raises DimensionTooSmall and a negative lam ValueError.
    """
    check_dimension(n)
    check_cutoff(lam)
    return _cells(lam // 2, n, 1)


def _cells(half: int, n: int, g: int) -> int:
    """Number of cells q >= 1, q(p + n - 1) <= half with g | p - q, the
    ones `_line_cells(half, n, g)` lists: a prefix counts m < x, m = f mod g."""
    return _sum_lines([half], n, lambda f, x: (x - f % g + g - 1) // g)[0]


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
    `_entry` template and one write per entry.  Beyond the sieve's lines and
    the kernel's `dims` (n = 2: its templates, O(half log k / d) entries),
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
    its dims from the kernel's `dims` and files each cell of positive dim
    under its half.  Only blocks with an eigenvalue are walked.  For a
    half h, the cells (u, v) with u v = h have p = h/u - n + 1 falling as u
    grows, and a column's u exceeds isqrt(half), which bounds a row's: the
    columns by v ascending, then the rows by u descending, file each
    eigenvalue's cells by p.
    """
    if not table.by_eigenvalue:  # Nothing to walk, and no base table to fill.
        return
    space, half, kernel = table.space, table.lambda_max // 2, _kernel(table.space)
    lines = list(_line_cells(half, space.n, _congruence_gcd(space)))
    dims = kernel.dims(lines)
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
            ds = dims(f, part)
            cells = zip(part, repeat(f), ds) if shift else zip(repeat(f), part, ds)
            # Flat: a formatted cell takes twice the memory.
            any(map(list.extend, compress(targets, ds), compress(cells, ds)))
        for lam, m in entries:
            yield lam, m, buckets[lam // 2 - low]
