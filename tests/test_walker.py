"""Property tests of the (p, q) cell walker and of the hyperbola line sums.

The walker sums over the cells q >= 1, 2q(p + n - 1) <= lam under one
cutoff; it serves the `sphere_counting` oracle.  Its results are compared
with literal scans of the (p, q) rectangle.  The walker in turn is the
oracle for the spectrum sieve, which adds whole lines of the hyperbola
split, and whose tables are also compared with divisor enumeration
(`multiplicity`); and for the closed-form counts of `spectrum._counts`, which serve
`count`, `weyl` and `remainder`.  Those counts, `counting_grid_size` and
the lemma sums all go through `spectrum._sum_lines`, which is checked
against a scan of every cell.  Every budget is charged before any work.
"""
import time
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from kohnspec import asymptotics, clear_caches, spectrum
from kohnspec.asymptotics import (
    lemma_ratio_decay,
    remainder_experiment,
    weyl_ratio_series,
)
from kohnspec.core import DEFAULT_BUDGET, ResourceLimit, _congruence_gcd, make_lens_space
from kohnspec.invariant import dim_cell, dim_invariant
from kohnspec.isospectral import c_matrix, spectra_equal_up_to
from kohnspec.spectrum import (
    _counts,
    _kernel,
    _sum_lines,
    build_spectrum,
    counting_grid_size,
    lens_counting,
    multiplicity,
    multiplicity_table,
)
from kohnspec.sphere import _fold, _rows, dim_hpq, sphere_counting


@st.composite
def lens_spaces(draw, n_values=(2, 3), k_max=12):
    n = draw(st.sampled_from(n_values))
    k = draw(st.integers(1, k_max))
    units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
    weights = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    return make_lens_space(n, k, weights)


def walked_count(space, lam):
    return _fold(space.n, lam, partial(dim_invariant, space))


def trivial_group(n):
    return make_lens_space(n, 1, [1] * n)


even_cutoffs = st.lists(st.integers(0, 150).map(lambda h: 2 * h), min_size=1, max_size=6)


def cells(n, lam):
    """Every (p, q) with q >= 1 and 2q(p + n - 1) <= lam, by a rectangle scan."""
    half = lam // 2
    return [
        (p, q)
        for p in range(half + 1)
        for q in range(1, half + 1)
        if q * (p + n - 1) <= half
    ]


@settings(max_examples=40, deadline=None)
@given(
    lens_spaces(n_values=(2, 3, 4)),
    st.lists(st.integers(0, 300), min_size=1, max_size=6).map(sorted),
)
def test_multi_cutoff_counts_are_cumulative_multiplicities(space, cutoffs):
    sphere = trivial_group(space.n)
    lens_counts, sphere_counts = _counts([space, sphere], cutoffs, None)
    for group, counts in ((space, lens_counts), (sphere, sphere_counts)):
        prefix = list(accumulate(multiplicity(group, 2 * h) for h in range(1, 151)))
        assert counts == [prefix[lam // 2 - 1] if lam >= 2 else 0 for lam in cutoffs]
        assert counts == [walked_count(group, lam) for lam in cutoffs]


@settings(max_examples=30, deadline=None)
@given(lens_spaces(n_values=(2, 3, 4)), st.integers(1, 8), st.integers(1, 12))
def test_sweeps_match_the_walker(space, half_stride, samples):
    stride = 2 * half_stride
    lambda_max = stride * samples
    series = weyl_ratio_series(space, lambda_max, stride)
    assert [s.lam for s in series] == list(range(stride, lambda_max + 1, stride))
    for s in series:
        assert s.n_lens == walked_count(space, s.lam)
        assert s.n_sphere == sphere_counting(space.n, s.lam)
    predicted = asymptotics._predicted_constant(space)
    for row in remainder_experiment(space, lambda_max, samples):
        expected = walked_count(space, row.lam) - predicted * float(row.lam) ** space.n
        assert row.residual == expected


@settings(max_examples=40, deadline=None)
@given(lens_spaces(), st.integers(0, 150).map(lambda h: 2 * h))
@example(make_lens_space(3, 12, [1, 5, 7]), 300)  # g = 2, from the even k
@example(make_lens_space(3, 49, [1, 8, 22]), 300)  # g = 7
@example(make_lens_space(3, 7, [1, 1, 1]), 300)  # g = k: equal weights
def test_sieve_tables_match_divisor_enumeration(space, lam):
    by_divisors = {
        m: mult for m in range(2, lam + 1, 2) if (mult := multiplicity(space, m))
    }
    assert multiplicity_table(space, lam) == by_divisors
    table = build_spectrum(space, lam)
    assert table.multiplicities() == by_divisors
    for m in range(2, lam + 1, 2):
        dims = [c.dim for c in table.contributors(m)]
        assert all(d > 0 for d in dims) and sum(dims) == by_divisors.get(m, 0)


def walked_table(space, lambda_max):
    """The eigenvalue table by a walk that evaluates every cell."""
    by_half = [0] * (lambda_max // 2 + 1)
    cell = dim_cell(space)
    for ps, top in _rows(space.n, lambda_max):
        for p in ps:
            for q in range(1, top + 1):
                by_half[q * (p + space.n - 1)] += cell(p, q)
    return {2 * half: m for half, m in enumerate(by_half) if m}


@settings(max_examples=40, deadline=None)
@given(lens_spaces(k_max=40), st.integers(0, 3000))
@example(make_lens_space(2, 12, [5, 5]), 3000)  # d = k: equal weights
@example(make_lens_space(2, 30, [1, 7]), 2999)  # d = 6 divides l_1 - l_2 and k
@example(make_lens_space(2, 40, [3, 23]), 2002)  # d = 20
@example(make_lens_space(2, 1, [1, 1]), 2001)  # the sphere
# Templates for many residues, sliced at nonzero offsets (isqrt(lam/2) >= 2k).
@example(make_lens_space(2, 31, [1, 3]), 8001)
@example(make_lens_space(2, 30, [1, 7]), 7998)  # d = 6
@example(make_lens_space(2, 1, [1, 1]), 2999)
@example(make_lens_space(3, 1, [1, 1, 1]), 3000)
@example(make_lens_space(3, 40, [1, 9, 31]), 1201)
@example(make_lens_space(2, 7, [1, 3]), 0)
@example(make_lens_space(2, 7, [1, 3]), 1)
@example(make_lens_space(2, 7, [1, 3]), 2)
@example(make_lens_space(3, 5, [1, 2, 4]), 3)
def test_line_sieve_matches_a_walk_over_every_cell(space, lam):
    assert multiplicity_table(space, lam) == walked_table(space, lam)


def test_n2_sieve_calls_no_dim_cell(monkeypatch):
    space = make_lens_space(2, 30, [1, 7])
    expected = walked_table(space, 3000)
    calls = []
    monkeypatch.setattr(spectrum, "dim_cell", lambda *args: calls.append(args))
    assert build_spectrum(space, 3000).multiplicities() == expected
    assert calls == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), even_cutoffs)
def test_grid_size_and_ratio_decay_match_rectangle_scans(n, cutoffs):
    for lam in cutoffs:
        assert counting_grid_size(n, lam) == len(cells(n, lam))
    halves = [lam // 2 for lam in cutoffs]
    expected = []
    for half in halves:
        grid = cells(n, 2 * half)
        a = sum(comb(p + n - 2, n - 2) * comb(q + n - 2, n - 2) for p, q in grid)
        b = sum(dim_hpq(n, p, q) for p, q in grid)
        expected.append(Fraction(a, b) if b else Fraction(0))
    assert lemma_ratio_decay(n, halves) == expected


polynomials = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(sorted).map(tuple),
    st.integers(-5, 5),
    max_size=5,
)


def bidegree_cells(half, n):
    """Every (p, q) with q >= 1 and q(p + n - 1) <= half, by a scan of the rows q."""
    return [(p, q) for q in range(1, half + 1) for p in range(half // q - n + 2)]


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 3000), st.integers(2, 7), polynomials)
@example(0, 2, {(0, 0): 1})
@example(-2, 2, {(0, 0): 1})
@example(4, 7, {(1, 1): 2})
def test_line_sums_match_a_scan_of_every_cell(half, n, coefficients):
    def value(p, q):  # c_ij = c_ji, so symmetric in (p, q)
        return sum(c * (p**i * q**j + p**j * q**i) for (i, j), c in coefficients.items())

    def prefix(f, x):
        return sum(value(f, m) for m in range(x))

    scan = sum(value(p, q) for p, q in bidegree_cells(half, n))
    assert _sum_lines([half], n, prefix) == [scan]


@pytest.mark.parametrize("n", range(2, 8))
def test_lines_list_each_cell_once_with_its_index(n):
    for half in [*range(-2, 150), 999, 1000, 3000]:
        listed = []
        s, rows, columns = spectrum._lines(half, n)
        assert s == isqrt(max(half, 0))
        for shift, lo, (fs, his) in ((n - 1, 0, rows), (0, s + 1, columns)):
            for f, hi in zip(fs, his, strict=True):
                fixed = f + n - 1 - shift
                for m in range(lo, hi):
                    p, q = (m, f) if shift else (f, m)  # A row has shift n - 1, a column 0.
                    assert fixed * (m + shift) == q * (p + n - 1)
                    listed.append((p, q))
        assert sorted(listed) == sorted(bidegree_cells(half, n))


@settings(max_examples=60, deadline=None)
@given(lens_spaces(n_values=(2, 3, 4), k_max=10), st.integers(0, 800))
@example(make_lens_space(2, 7, [1, 2]), 195)  # d = 1, isqrt(half) = 13: 2k - 1
@example(make_lens_space(2, 7, [1, 2]), 196)  # d = 1, isqrt(half) = 14 = 2k
@example(make_lens_space(2, 12, [1, 7]), 575)  # d = 6, isqrt(half) = 23: 2k - 1
@example(make_lens_space(2, 12, [1, 7]), 576)  # d = 6, isqrt(half) = 24 = 2k
@example(make_lens_space(2, 12, [1, 7]), 30)  # d = 6, residues 6-11 have no line
@example(make_lens_space(2, 1, [1, 1]), 4)  # the sphere
@example(make_lens_space(3, 12, [1, 5, 7]), 300)  # g = 2
@example(make_lens_space(4, 5, [1, 2, 3, 4]), 300)
def test_kernel_forms_agree_on_every_line(space, half):
    # The sieve's and the writer's form of one line, the count's, and the cell route.
    kernel, cell = _kernel(space), dim_cell(space)
    lines = list(spectrum._line_cells(half, space.n, _congruence_gcd(space)))
    dims, prefix = kernel.dims(lines), kernel.prefix()
    # Step 1 lists each line's whole range [lo, hi).
    for (_, f, whole, _), (_, fixed, ms, _) in zip(spectrum._line_cells(half, space.n, 1),
                                                   lines, strict=True):
        assert fixed == f
        lo, hi = whole.start, whole.stop
        values = dims(f, ms)
        assert values == [cell(f, m) for m in ms]
        line_sum = prefix(f, hi) - prefix(f, lo) if lo else prefix(f, hi)
        assert sum(values) == line_sum == sum(cell(f, m) for m in range(lo, hi))


@pytest.mark.usefixtures("cold_caches")
def test_n3_count_walks_the_lines_once_per_cutoff(monkeypatch):
    calls, lines = [], spectrum._lines
    monkeypatch.setattr(spectrum, "_lines", lambda *args: calls.append(args) or lines(*args))
    space = make_lens_space(3, 9, [1, 2, 4])
    assert _counts([space], [400, 4000, 40000], None)[0][0] == walked_count(space, 400)
    assert len(calls) == 3


def test_ratio_decay_sums_lines_not_cells():
    start = time.perf_counter()
    (ratio,) = lemma_ratio_decay(2, [10**8])
    assert time.perf_counter() - start < 1
    # For n = 2 every cell weighs 1 in A, so A is the grid size.
    sphere_count = lens_counting(trivial_group(2), 2 * 10**8, None)
    assert ratio == Fraction(counting_grid_size(2, 2 * 10**8), sphere_count)
    for cutoffs in ([-1], [10, -2]):
        with pytest.raises(ValueError):
            lemma_ratio_decay(2, cutoffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 150).map(lambda h: 2 * h))
def test_c_matrix_matches_rectangle_scan(k, lam):
    entries = [[0] * k for _ in range(k)]
    for p, q in cells(2, lam):
        if 2 * q * (p + 1) == lam:
            entries[p % k][q % k] += 1
    assert c_matrix(k, lam).rows() == entries


@pytest.mark.usefixtures("cold_caches")
def test_budget_charges_each_evaluation_before_the_walk(monkeypatch):
    space = make_lens_space(2, 3, [1, 2])
    # The cells plus k^2 for the n = 2 base table.
    work = counting_grid_size(2, 400) + 9
    build_spectrum(space, 400, budget=work)
    multiplicity_table(space, 400, budget=work)
    other = make_lens_space(2, 3, [1, 1])
    # Two sieves, each charged as above, together.
    assert spectra_equal_up_to(space, other, 400, budget=2 * work) is False
    calls = []
    monkeypatch.setattr(
        spectrum, "dim_cell", lambda space: lambda *args: calls.append(args)
    )
    # An n = 2 sieve builds the base table first and calls no `dim_cell`.
    monkeypatch.setattr(spectrum, "base_dim_table", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimit):
        build_spectrum(space, 400, budget=work - 1)
    with pytest.raises(ResourceLimit):
        multiplicity_table(space, 400, budget=work - 1)
    with pytest.raises(ResourceLimit):
        spectra_equal_up_to(space, other, 400, budget=2 * work - 1)
    assert calls == []
    monkeypatch.undo()
    # n = 2 setup: k^2 for the base table's fill, k^2 prefix sums; both
    # are 1 for the sphere.  Each cutoff: isqrt(lam/2) rows, as many
    # columns, two line evaluations per column.
    lines = sum(3 * isqrt(lam // 2) for lam in range(40, 401, 40))
    remainder = 9 + 9 + lines
    weyl = remainder + 1 + 1 + lines
    weyl_ratio_series(space, 400, 40, budget=weyl)
    remainder_experiment(space, 400, 10, budget=remainder)
    for name in ("base_dim_table", "_profile_rows"):
        monkeypatch.setattr(spectrum, name, lambda *args: calls.append(args))
    with pytest.raises(ResourceLimit):
        weyl_ratio_series(space, 400, 40, budget=weyl - 1)
    with pytest.raises(ResourceLimit):
        remainder_experiment(space, 400, 10, budget=remainder - 1)
    assert calls == []


@pytest.mark.usefixtures("cold_caches")
def test_count_charges_each_pass_over_the_profile_tables():
    space = make_lens_space(3, 2, [1, 1, 1])
    # half = 1e14: 3 isqrt(half) line evaluations per region.  The one
    # cumulative profile fills m = (n + 1) k rows and interpolates at most
    # `lines` more, the one plain profile builds isqrt(half) + 1 rows,
    # every row at (n + 1)(k + 6); each line evaluation is a dot product of k.
    m, row, lines = 8, 32, 3 * 10**7
    charge = row * (m + lines) + row * (10**7 + 1) + 2 * 2 * lines
    assert spectrum._kernel(space).count_work([10**14]) == charge
    with pytest.raises(ResourceLimit, match=f"work {charge} exceeds"):
        lens_counting(space, 2 * 10**14)
    # No table is sized to the cutoff: 2e6 runs under the default budget.
    start = time.perf_counter()
    assert lens_counting(space, 2_000_000) == 274156174598330642
    assert time.perf_counter() - start < 1


@pytest.mark.usefixtures("cold_caches")
def test_sweeps_are_charged_under_the_default_budget():
    # The count at 2e12 alone is charged far over the default budget.
    space = make_lens_space(3, 2, [1, 1, 1])
    with pytest.raises(ResourceLimit):
        weyl_ratio_series(space, 2 * 10**12, 2 * 10**12)
    with pytest.raises(ResourceLimit):
        remainder_experiment(space, 2 * 10**12, 1)


@pytest.mark.usefixtures("cold_caches")
def test_dense_sweep_charges_its_setup_once():
    series = weyl_ratio_series(
        make_lens_space(2, 31, [1, 3]), 2000, 2, budget=DEFAULT_BUDGET
    )
    assert len(series) == 1000
    # n >= 3 pays per profile row built, not per line: (2n + 2) k per
    # line evaluation would put weyl on L(9;1,2,4) at 4000, stride 2, near 28M.
    halves = list(range(1, 2001))
    space = make_lens_space(3, 9, [1, 2, 4])
    work = _kernel(space).count_work(halves) + _kernel(trivial_group(3)).count_work(halves)
    assert work <= DEFAULT_BUDGET


def cold_count(space, lams):
    """N_L at each cutoff by the count routine itself, past the memo."""
    prefix = _kernel(space).prefix()
    return [_sum_lines([lam // 2], space.n, prefix)[0] for lam in lams]


@st.composite
def half_batches(draw):
    """Half-cutoffs for one batch: a dense run, sparse and tiny halves, repeats, any order."""
    start, gap = draw(st.integers(0, 2500)), draw(st.integers(0, 60))
    run = [start + gap * i for i in range(draw(st.integers(1, 12)))]
    others = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 3000)), max_size=5))
    halves = run + others + draw(st.lists(st.sampled_from(run), max_size=3))
    return sorted(halves) if draw(st.booleans()) else draw(st.permutations(halves))


@settings(max_examples=60, deadline=None)
@given(lens_spaces(n_values=(2, 3, 4), k_max=13), half_batches())
@example(make_lens_space(3, 9, [1, 2, 4]), list(range(900, 1400, 20)))
@example(make_lens_space(4, 5, [1, 2, 3, 4]), [0, 1, 2, 2000, 2001, 2040, 1, 2100])
def test_a_batch_of_line_sums_equals_its_cutoffs_one_by_one(space, halves):
    # The squares a batch shares must give each cutoff its own sum.
    prefix = _kernel(space).prefix()
    batch = _sum_lines(halves, space.n, prefix)
    assert batch == [_sum_lines([h], space.n, prefix)[0] for h in halves]
    spectrum._count_memo.cache_clear()
    assert _counts([space], [2 * h for h in halves], None) == [batch]
    for half, count in zip(halves, batch):
        if half <= 200:
            assert count == walked_count(space, 2 * half)


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("space", [make_lens_space(2, 15, [1, 2]),
                                   make_lens_space(3, 9, [1, 2, 4])])
def test_a_sweep_shares_its_squares(space, monkeypatch):
    calls = []
    kernel = spectrum._kernel

    def counted(space):
        plain = kernel(space)

        def prefix():
            line = plain.prefix()
            return lambda f, x: calls.append(f) or line(f, x)

        return plain._replace(prefix=prefix)

    monkeypatch.setattr(spectrum, "_kernel", counted)
    weyl_ratio_series(space, 5000, 200)
    # One call per row and two per column, each cutoff alone, is 3 isqrt(h) at
    # most per space (the charge): 5,076 calls for the two spaces at n = 2.
    unshared = 2 * sum(3 * isqrt(h) for h in range(100, 2501, 100))
    assert len(calls) < 0.75 * unshared


@pytest.mark.parametrize("space", [make_lens_space(2, 7, [1, 3]), make_lens_space(2, 12, [1, 7]),
                                   make_lens_space(3, 5, [1, 2, 3]),
                                   make_lens_space(4, 3, [1, 1, 2, 2])])
def test_an_empty_prefix_is_zero(space):
    prefix, cell = _kernel(space).prefix(), dim_cell(space)
    assert [prefix(f, 0) for f in range(30)] == [0] * 30
    assert [prefix(f, 1) for f in range(30)] == [cell(f, 0) for f in range(30)]


def test_ratio_decay_of_an_unsorted_list_is_that_of_each_cutoff():
    halves = [900, 30, 0, 905, 1, 910, 905, 400, 2]
    for n in (2, 3, 4):
        assert lemma_ratio_decay(n, halves) == [lemma_ratio_decay(n, [h])[0] for h in halves]


@settings(max_examples=30, deadline=None)
@given(st.lists(lens_spaces(k_max=12), min_size=1, max_size=10), st.data())
def test_memoized_counts_equal_cold_counts(spaces, data):
    # Up to ten spaces against a memo of eight: queries also hit evicted spaces.
    clear_caches()
    for _ in range(data.draw(st.integers(1, 12))):
        pair = [data.draw(st.sampled_from(spaces)) for _ in range(2)]
        lams = data.draw(st.lists(st.integers(0, 3000), min_size=1, max_size=6))
        repeats = data.draw(st.lists(st.sampled_from(lams), max_size=4))
        lams = data.draw(st.permutations(lams + repeats))
        for space, counts in zip(pair, _counts(pair, lams, None)):
            assert counts == cold_count(space, lams)
            for lam, count in zip(lams, counts):
                if lam <= 400:
                    assert count == walked_count(space, lam)


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("space", [make_lens_space(2, 7, [1, 3]),
                                   make_lens_space(3, 5, [1, 2, 3])])
def test_memoized_counts_are_charged_like_misses(space, monkeypatch):
    # Every cutoff below is memoized first, and the kernel's prefix then fails:
    # a budget one short of the work still refuses, and the full budget is
    # served from the memo.
    sphere = trivial_group(space.n)
    lams = range(40, 401, 40)
    halves = [lam // 2 for lam in lams]
    series = weyl_ratio_series(space, 400, 40, budget=None)
    rows = remainder_experiment(space, 400, 10, budget=None)
    count = lens_counting(space, 400, budget=None)

    def fails(*args):
        raise AssertionError("a memoized count was computed again")

    kernel = spectrum._kernel
    monkeypatch.setattr(spectrum, "_kernel", lambda space: kernel(space)._replace(prefix=fails))
    weyl = kernel(space).count_work(halves) + kernel(sphere).count_work(halves)
    remainder, top = kernel(space).count_work(halves), kernel(space).count_work([200])
    with pytest.raises(ResourceLimit):
        weyl_ratio_series(space, 400, 40, budget=weyl - 1)
    with pytest.raises(ResourceLimit):
        remainder_experiment(space, 400, 10, budget=remainder - 1)
    with pytest.raises(ResourceLimit):
        lens_counting(space, 400, budget=top - 1)
    assert weyl_ratio_series(space, 400, 40, budget=weyl) == series
    assert remainder_experiment(space, 400, 10, budget=remainder) == rows
    assert lens_counting(space, 400, budget=top) == count
    assert [s.lam for s in series] == list(lams)


@settings(max_examples=60, deadline=None)
@given(lens_spaces(n_values=(2, 3, 4), k_max=13), st.integers(0, 3000))
def test_closed_form_count_matches_the_walker(space, lam):
    assert lens_counting(space, lam) == walked_count(space, lam)


@pytest.mark.parametrize(
    "n, k, weights, lam",
    [(2, 13, (1, 5), 20002), (2, 12, (1, 7), 19998), (3, 11, (1, 3, 7), 2000)],
)
def test_closed_form_count_matches_the_walker_at_larger_cutoffs(n, k, weights, lam):
    space = make_lens_space(n, k, weights)
    assert lens_counting(space, lam) == walked_count(space, lam)


def test_closed_form_count_of_the_trivial_group_is_the_sphere_count():
    for n in (2, 3, 4, 5, 6):
        sphere = trivial_group(n)
        for lam in (0, 2, 2 * n - 2, 2 * n, 501, 1200):
            assert lens_counting(sphere, lam) == sphere_counting(n, lam), (n, lam)
