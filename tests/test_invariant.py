import math
import time
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kohnspec.core import ResourceLimit, UnsupportedDimension, make_lens_space
from kohnspec import invariant, spectrum
from kohnspec.invariant import (
    _profile_rows,
    base_dim_table,
    compositions,
    dim_invariant,
    dim_invariant_bruteforce,
    dim_invariant_dp,
    dim_invariant_recurrence,
    dim_grid,
    exponent_profile,
    mn_counts,
)
from kohnspec.sphere import dim_hpq


def divides(k: int, a: int) -> int:
    """1 if k divides a, else 0.  a may be negative."""
    return 1 if a % k == 0 else 0


def lens_strategy(n_values=(2, 3), k_max=8):
    def build(args):
        n, k, seed = args
        units = [a for a in range(1, k) if math.gcd(a, k) == 1] or [1]
        weights = [units[(seed + i * 7) % len(units)] for i in range(n)]
        return make_lens_space(n, k, weights)

    return st.tuples(
        st.sampled_from(n_values), st.integers(1, k_max), st.integers(0, 10**6)
    ).map(build)


def test_bruteforce_hand_examples():
    assert dim_invariant_bruteforce(make_lens_space(2, 3, [1, 2]), 1, 1) == 1
    assert dim_invariant_bruteforce(make_lens_space(2, 2, [1, 1]), 1, 1) == 3
    # p - q even, so the whole 5-dimensional eigenspace is invariant
    assert dim_invariant_bruteforce(make_lens_space(2, 2, [1, 1]), 3, 1) == 5


def test_trivial_group_gives_full_dimension():
    sphere3 = make_lens_space(2, 1, [1, 1])
    sphere5 = make_lens_space(3, 1, [1, 1, 1])
    for p in range(8):
        for q in range(8):
            assert dim_invariant_bruteforce(sphere3, p, q) == dim_hpq(2, p, q)
            assert dim_invariant_bruteforce(sphere5, p, q) == dim_hpq(3, p, q)


def test_bruteforce_budget():
    with pytest.raises(ResourceLimit):
        dim_invariant_bruteforce(make_lens_space(3, 5, [1, 2, 3]), 40, 40, budget=1000)


def test_compositions_enumeration():
    assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in compositions(6, 3)) == comb(8, 2)


def test_exponent_profile_totals():
    space = make_lens_space(3, 5, [1, 2, 3])
    for degree in range(10):
        profile = exponent_profile(space, degree)
        assert len(profile) == 5
        assert sum(profile) == comb(degree + 2, 2)


def test_exponent_profile_rejects_a_negative_degree():
    # A negative degree must not read (or memoize) a row built for another.
    space = make_lens_space(3, 5, [1, 2, 3])
    for degree in (-1, -2):
        with pytest.raises(ValueError, match="bidegree components must be nonnegative"):
            exponent_profile(space, degree)
    rows = [exponent_profile(space, degree) for degree in range(4)]
    with pytest.raises(ValueError, match="bidegree components must be nonnegative"):
        exponent_profile(space, -2)
    assert [exponent_profile(space, degree) for degree in range(4)] == rows


@pytest.mark.usefixtures("cold_caches")
def test_n3_routes_build_only_the_weight_profiles(monkeypatch):
    # N(p, q) is a dot product of two rows of one profile: no route builds
    # a profile of the negated weights.
    built = []
    rows = invariant._profile_rows

    def recorded(weights, k):
        built.append(weights)
        return rows(weights, k)

    monkeypatch.setattr(invariant, "_profile_rows", recorded)
    monkeypatch.setattr(spectrum, "_profile_rows", recorded)
    space = make_lens_space(3, 5, [1, 2, 3])
    dim_invariant_dp(space, 4, 3)
    dim_grid(space, 6)
    spectrum.lens_counting(space, 2000)
    assert built and set(built) == {space.weights, space.weights + (0,)}


def literal_profile_rows(weights, k, cap):
    """Profile rows 0..cap, each weight a pass of new[t][r] += new[t-1][r-w]."""
    rows = [[0] * k for _ in range(cap + 1)]
    rows[0][0] = 1
    for w in weights:
        for t in range(1, cap + 1):
            for r in range(k):
                rows[t][r] += rows[t - 1][(r - w) % k]
    return [tuple(row) for row in rows]


@st.composite
def profile_requests(draw):
    """Weights (0, the slack weight, included) mod k and degrees t <= 4nk."""
    n, k = draw(st.integers(2, 5)), draw(st.integers(1, 13))
    weights = tuple(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    degrees = draw(st.lists(st.integers(0, 4 * n * k), min_size=1, max_size=8))
    return weights, k, degrees


@settings(max_examples=150, deadline=None)
@given(profile_requests())
@example(((0, 0), 1, [8]))
@example(((1, 2, 0), 7, [0, 84, 20, 21, 63]))
def test_profile_rows_match_the_plain_fill(request):
    weights, k, degrees = request
    literal = literal_profile_rows(weights, k, max(degrees))
    rows = _profile_rows(weights, k)
    # Requests in any order: fills below nk, interpolations past it.
    for t in degrees:
        assert rows(t) == literal[t], (weights, k, t)


def test_profile_rows_are_zero_below_degree_0():
    for weights, k in [((1, 2, 3), 5), ((1, 2, 3, 0), 5), ((1, 1), 1)]:
        rows = _profile_rows(weights, k)
        assert rows(0) == (1,) + (0,) * (k - 1)
        assert rows(-1) == rows(-k - 1) == (0,) * k, (weights, k)


def test_dp_matches_bruteforce_small_grid():
    for n, k, weights in [
        (2, 3, [1, 2]),
        (2, 5, [1, 2]),
        (2, 6, [1, 5]),
        (3, 4, [1, 3, 1]),
        (3, 7, [1, 2, 4]),
        (4, 3, [1, 1, 2, 2]),
    ]:
        space = make_lens_space(n, k, weights)
        for p in range(9):
            for q in range(9):
                assert dim_invariant_dp(space, p, q) == dim_invariant_bruteforce(
                    space, p, q
                ), (space, p, q)


@settings(max_examples=60, deadline=None)
@given(lens_strategy(n_values=(2, 3, 4)), st.integers(0, 10), st.integers(0, 10))
def test_dp_matches_bruteforce_property(space, p, q):
    assert dim_invariant_dp(space, p, q) == dim_invariant_bruteforce(space, p, q)


def test_negative_bidegree_rejected_by_every_route():
    space = make_lens_space(2, 3, [1, 2])
    routes = (
        dim_invariant,
        dim_invariant_dp,
        dim_invariant_recurrence,
        dim_invariant_bruteforce,
        mn_counts,
    )
    for route in routes:
        for p, q in ((-1, 1), (1, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                route(space, p, q)


def literal_mn_counts(space, p, q):
    """The two congruence branches counted one solution candidate at a time."""
    k = space.k
    l1, l2 = space.weights
    m_pq = sum(1 for b1 in range(q + 1) if (l2 * (p - q + b1) - l1 * b1) % k == 0)
    n_pq = sum(1 for a1 in range(p + 1) if (l1 * a1 + l2 * (p - q - a1)) % k == 0)
    return m_pq, n_pq


def n2_space(k, first, second):
    """L(k; l1, l2) with the weights drawn among the units mod k."""
    units = [a for a in range(k) if math.gcd(a, k) == 1]
    return make_lens_space(2, k, [units[first % len(units)], units[second % len(units)]])


n2_spaces = st.builds(
    n2_space, st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 10**6)
)


@settings(max_examples=60, deadline=None)
@given(n2_spaces, st.integers(0, 180), st.integers(0, 180))
@example(make_lens_space(2, 1, [1, 1]), 4, 7)
@example(make_lens_space(2, 2, [1, 1]), 3, 1)
@example(make_lens_space(2, 9, [4, 4]), 11, 2)
@example(make_lens_space(2, 12, [1, 7]), 13, 7)
def test_mn_counts_match_the_literal_count(space, p, q):
    counts = mn_counts(space, p, q)
    assert (counts.m_pq, counts.n_pq) == literal_mn_counts(space, p, q)


@settings(max_examples=40, deadline=None)
@given(n2_spaces, st.lists(st.tuples(st.integers(0, 180), st.integers(0, 180)), max_size=8))
@example(make_lens_space(2, 1, [1, 1]), [(0, 0), (3, 2)])
@example(make_lens_space(2, 2, [1, 1]), [(1, 1), (5, 2)])
@example(make_lens_space(2, 7, [3, 3]), [(9, 2), (4, 4), (8, 3)])
@example(make_lens_space(2, 60, [1, 31]), [(40, 10), (179, 1), (7, 8)])
def test_closed_form_matches_the_convolution(space, cells):
    k = space.k
    table = [[dim_invariant_dp(space, p, q) for q in range(k)] for p in range(k)]
    assert [list(row) for row in base_dim_table(space)] == table
    for p, q in cells:
        p, q = p % (3 * k + 1), q % (3 * k + 1)
        assert dim_invariant(space, p, q) == dim_invariant_dp(space, p, q), (p, q)


def test_mn_counts_example():
    counts = mn_counts(make_lens_space(2, 3, [1, 2]), 1, 1)
    assert (counts.m_pq, counts.n_pq) == (1, 1)
    assert counts.m_pq + counts.n_pq - divides(3, 0) == 1


def test_mn_counts_equal_weights_vanish_off_diagonal():
    space = make_lens_space(2, 5, [1, 1])
    for p in range(12):
        for q in range(12):
            if (p - q) % 5 != 0:
                counts = mn_counts(space, p, q)
                assert (counts.m_pq, counts.n_pq) == (0, 0)


def test_mn_counts_shift_by_k_adds_d():
    space = make_lens_space(2, 5, [1, 2])
    d = 1  # gcd(5, 1 - 2)
    assert mn_counts(space, 1, 6).m_pq == mn_counts(space, 1, 1).m_pq + d
    assert mn_counts(space, 6, 1).n_pq == mn_counts(space, 1, 1).n_pq + d


def test_mn_counts_reconstruct_dimension():
    for k, weights in [(3, [1, 2]), (5, [1, 3]), (6, [1, 5]), (8, [3, 5])]:
        space = make_lens_space(2, k, weights)
        for p in range(10):
            for q in range(10):
                counts = mn_counts(space, p, q)
                total = counts.m_pq + counts.n_pq - divides(k, p - q)
                assert total == dim_invariant_bruteforce(space, p, q)


def test_mn_counts_needs_n2():
    with pytest.raises(UnsupportedDimension):
        mn_counts(make_lens_space(3, 5, [1, 2, 3]), 1, 1)


def test_recurrence_examples():
    assert dim_invariant_recurrence(make_lens_space(2, 3, [1, 2]), 4, 1) == 2
    # d = gcd(6, -4) = 2 does not divide 3 - 2
    assert dim_invariant_recurrence(make_lens_space(2, 6, [1, 5]), 3, 2) == 0


def test_recurrence_matches_bruteforce_beyond_base_table():
    for k, weights in [(3, [1, 2]), (4, [1, 3]), (5, [2, 3]), (6, [1, 5])]:
        space = make_lens_space(2, k, weights)
        for p in range(14):
            for q in range(14):
                assert dim_invariant_recurrence(space, p, q) == (
                    dim_invariant_bruteforce(space, p, q)
                ), (space, p, q)


@settings(max_examples=60, deadline=None)
@given(lens_strategy(n_values=(2,)), st.integers(0, 12), st.integers(0, 12))
def test_symmetry_all_algorithms(space, p, q):
    assert dim_invariant_bruteforce(space, p, q) == dim_invariant_bruteforce(space, q, p)
    assert dim_invariant_dp(space, p, q) == dim_invariant_dp(space, q, p)
    assert dim_invariant_recurrence(space, p, q) == dim_invariant_recurrence(space, q, p)


@settings(max_examples=60, deadline=None)
@given(lens_strategy(n_values=(2,), k_max=9), st.integers(0, 10), st.integers(0, 10))
def test_shift_law(space, p, q):
    d = math.gcd(space.k, space.weights[0] - space.weights[1])
    if (p - q) % d != 0:
        assert dim_invariant_dp(space, p, q) == 0
    else:
        base = dim_invariant_dp(space, p, q)
        assert dim_invariant_dp(space, p + space.k, q) == base + d
        assert dim_invariant_dp(space, p, q + space.k) == base + d


@settings(max_examples=60, deadline=None)
@given(lens_strategy(), st.integers(0, 10), st.integers(0, 10))
def test_invariant_dimension_bounded_by_full_dimension(space, p, q):
    value = dim_invariant(space, p, q)
    assert 0 <= value <= dim_hpq(space.n, p, q)
    if space.k == 1:
        assert value == dim_hpq(space.n, p, q)


def test_base_table_is_cached_and_consistent():
    space = make_lens_space(2, 7, [1, 3])
    table = base_dim_table(space)
    assert table is base_dim_table(space)
    for p in range(7):
        for q in range(7):
            assert table[p][q] == dim_invariant_dp(space, p, q)


def test_base_table_cache_is_bounded():
    spaces = [make_lens_space(2, k, [1, 2]) for k in range(3, 27, 2)]
    for space in spaces:
        assert base_dim_table(space)[0][0] == 1
    assert len(spaces) > 8 and base_dim_table.cache_info().currsize <= 8


@pytest.mark.usefixtures("cold_caches")
def test_profile_cache_is_bounded():
    # 20 n = 3 spaces, each counted through two profiles (plain and cumulative).
    spaces = [make_lens_space(3, k, [1, 1, k - 1]) for k in range(2, 22)]
    cold = []
    for space in spaces:
        _profile_rows.cache_clear()
        cold.append(spectrum.lens_counting(space, 600))
    assert [spectrum.lens_counting(space, 600) for space in spaces] == cold
    info = _profile_rows.cache_info()
    assert info.misses >= 40 and info.currsize <= _profile_rows.cache_parameters()["maxsize"]
    assert [spectrum.lens_counting(space, 600) for space in spaces[::-1]] == cold[::-1]


@st.composite
def congruence_spaces(draw):
    """n = 3, 4 spaces with g = gcd(k, l_2 - l_1, ..., l_n - l_1) > 1.

    k is a multiple of some g >= 2 and every weight is a unit = l_1 mod g;
    k = g forces equal weights.
    """
    n, g = draw(st.sampled_from((3, 4))), draw(st.integers(2, 7))
    k = g * draw(st.integers(1, 4))
    units = [a for a in range(1, k) if math.gcd(a, k) == 1]
    first = draw(st.sampled_from(units))
    rest = st.sampled_from([u for u in units if (u - first) % g == 0])
    return make_lens_space(n, k, [first, *draw(st.lists(rest, min_size=n - 1, max_size=n - 1))])


@settings(max_examples=40, deadline=None)
@given(congruence_spaces(), st.integers(0, 8), st.integers(0, 8))
@example(make_lens_space(3, 7, [1, 1, 1]), 3, 5)
@example(make_lens_space(3, 12, [1, 5, 7]), 4, 1)
@example(make_lens_space(3, 49, [1, 8, 22]), 8, 2)
@example(make_lens_space(4, 8, [1, 3, 5, 7]), 0, 3)
def test_cells_off_the_congruence_vanish(space, p, q):
    g = invariant._congruence_gcd(space)
    assert g > 1
    assume((p - q) % g)
    assert dim_invariant_bruteforce(space, p, q) == 0
    size = 10
    assert dim_grid(space, size) == tuple(
        tuple(dim_invariant_dp(space, a, b) for b in range(size + 1)) for a in range(size + 1)
    )


@settings(max_examples=40, deadline=None)
@given(st.one_of(lens_strategy(n_values=(3, 4), k_max=40), congruence_spaces()),
       st.integers(0, 120))
@example(make_lens_space(3, 12, [1, 5, 7]), 35)
@example(make_lens_space(4, 8, [1, 3, 5, 7]), 24)
@example(make_lens_space(3, 37, [1, 2, 3]), 111)
def test_grid_work_prices_the_dot_products_dim_grid_takes(space, size):
    size %= 3 * space.k + 1
    calls, dot = [], invariant._dot

    def counted(a, b):
        calls.append(len(a))
        return dot(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "_dot", counted)
        dim_grid(space, size)
    assert set(calls) <= {space.k}
    expected = space.k * len(calls) + invariant._profile_work(space, size + 1)
    assert invariant._grid_work(space, size) == expected


@given(n2_spaces)
def test_grid_work_of_an_n2_base_table_is_k_squared(space):
    assert invariant._grid_work(space, space.k - 1) == space.k**2


def test_recurrence_needs_n2():
    with pytest.raises(UnsupportedDimension):
        dim_invariant_recurrence(make_lens_space(3, 5, [1, 2, 3]), 1, 1)


@pytest.mark.parametrize(
    "space",
    [
        make_lens_space(3, 1, [1, 1, 1]),
        make_lens_space(3, 12, [1, 5, 7]),
        make_lens_space(4, 1, [1, 1, 1, 1]),
        make_lens_space(4, 9, [1, 2, 4, 8]),
        make_lens_space(2, 30, [1, 7]),
    ],
)
def test_dim_grid_matches_the_convolution_cell_by_cell(monkeypatch, space):
    size = 13
    expected = tuple(
        tuple(dim_invariant_dp(space, p, q) for q in range(size + 1)) for p in range(size + 1)
    )
    calls = []
    dot = invariant._dot

    def counted(a, b):
        calls.append(len(a))
        return dot(a, b)

    monkeypatch.setattr(invariant, "_dot", counted)
    assert dim_grid(space, size) == expected
    assert len(calls) <= (size + 1) * (size + 2) // 2  # one per unordered pair (p, q)
    assert dim_grid(space, -1) == () and dim_grid(space, 0) == ((1,),)



@pytest.mark.parametrize("k, weights", [(29, [1, 2]), (30, [1, 7])])  # d = 1 and d = 6
def test_n2_grid_solves_the_congruence_once_per_diagonal(monkeypatch, k, weights):
    space = make_lens_space(2, k, weights)
    expected = tuple(
        tuple(dim_invariant_dp(space, p, q) for q in range(30)) for p in range(30)
    )
    solved, bind = [], invariant._solution

    def counted(space):
        s, solve = bind(space)
        return s, lambda r: solved.append(r) or solve(r)

    monkeypatch.setattr(invariant, "_solution", counted)
    assert dim_grid(space, 29) == expected
    assert solved == [-r for r in range(30)]  # the diagonals q - p = r >= 0


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("route", [dim_invariant, dim_invariant_dp])
def test_the_convolution_routes_charge_their_cell(route):
    # min(10^6 + 1, nk) + 2 = 6011 profile rows at 3 (2003 + 6), refused before any is built.
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match=r"^work 36228297 exceeds budget 10000000$"):
        route(make_lens_space(3, 2003, [1, 2, 3]), 10**6, 10**6)
    assert time.perf_counter() - start < 1.0
    # The price `dim --budget` pins: 4 + 2 rows at 3 (7 + 6).
    space = make_lens_space(3, 7, [1, 2, 3])
    with pytest.raises(ResourceLimit, match=r"^work 234 exceeds budget 233$"):
        route(space, 3, 1, budget=233)
    assert route(space, 3, 1, budget=234) == route(space, 3, 1, budget=None) == 3
    assert route(space, 3, 1, budget=None) == dim_invariant_bruteforce(space, 3, 1)


def test_only_the_convolution_is_charged_per_cell():
    # `dp` prices its 4 + 2 rows at 2 (7 + 6) even at n = 2; `auto` takes the closed form.
    space = make_lens_space(2, 7, [1, 2])
    with pytest.raises(ResourceLimit, match=r"^work 156 exceeds budget 155$"):
        dim_invariant_dp(space, 3, 1, budget=155)
    assert dim_invariant(space, 3, 1, budget=0) == dim_invariant_dp(space, 3, 1) == 0


@pytest.mark.usefixtures("cold_caches")
def test_per_cell_bindings_price_no_cell(monkeypatch):
    space = make_lens_space(3, 7, [1, 2, 3])
    calls, cell_work = [], invariant._cell_work

    def counted(*args):
        calls.append(args)
        return cell_work(*args)

    monkeypatch.setattr(invariant, "_cell_work", counted)
    spectrum.multiplicity_table(space, 300)
    assert calls == []
    assert dim_invariant(space, 3, 1) == 3 and calls == [(space, 3, 1)]  # the patch is seen
