import math
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from kohnspec.core import (
    DEFAULT_BUDGET,
    InvalidEigenvalue,
    InvalidOrder,
    MismatchedSpaces,
    ResourceLimit,
    UnsupportedDimension,
    gcd_invariant,
    make_lens_space,
)
from kohnspec.invariant import base_dim_table, dim_cell, dim_invariant_bruteforce
from kohnspec.isospectral import (
    IsometryWitness,
    _compare_spectra,
    _integer_rank,
    _residue_counts,
    _totient,
    c_matrix,
    classify_all,
    condition4_witness,
    d_invariant_check,
    dims_equal,
    span_dimension,
    spectra_equal_up_to,
    t_apply,
    t_inverse,
    verify_witness,
)
from kohnspec.spectrum import multiplicity, multiplicity_table


def units_of(k):
    return [a for a in range(1, k) if math.gcd(a, k) == 1]


def count_divisors(t):
    return sum(2 - (i == t // i) for i in range(1, isqrt(t) + 1) if t % i == 0)


def test_witness_examples():
    w = condition4_witness(make_lens_space(2, 7, [1, 2]), make_lens_space(2, 7, [2, 4]))
    assert w == IsometryWitness(a=2, sigma=(1, 2))

    w = condition4_witness(make_lens_space(2, 5, [1, 2]), make_lens_space(2, 5, [1, 3]))
    assert w == IsometryWitness(a=3, sigma=(2, 1))

    assert (
        condition4_witness(make_lens_space(2, 5, [1, 1]), make_lens_space(2, 5, [1, 2]))
        is None
    )


def test_witness_mismatch_raises():
    with pytest.raises(MismatchedSpaces):
        condition4_witness(make_lens_space(2, 5, [1, 2]), make_lens_space(2, 7, [1, 2]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**6), st.integers(0, 10**6))
def test_witness_sound_and_complete(k, seed_a, seed_b):
    units = units_of(k)
    first = make_lens_space(2, k, [units[seed_a % len(units)], units[(seed_a // 7) % len(units)]])
    second = make_lens_space(2, k, [units[seed_b % len(units)], units[(seed_b // 7) % len(units)]])
    witness = condition4_witness(first, second)
    exhaustive = any(
        tuple((a * first.weights[s]) % k for s in sigma) == second.weights
        for a in units
        for sigma in permutations(range(2))
    )
    assert (witness is not None) == exhaustive
    if witness is not None:
        assert verify_witness(first, second, witness)


def scan_witness(space, other):
    """The phi(k) n! scan: units ascending, permutations in lexicographic order."""
    k = space.k
    for a in units_of(k) if k > 1 else [1]:
        for sigma in permutations(range(1, space.n + 1)):
            witness = IsometryWitness(a=a, sigma=sigma)
            if verify_witness(space, other, witness):
                return witness
    return None


@st.composite
def same_order_pairs(draw):
    n, k = draw(st.integers(2, 4)), draw(st.integers(1, 16))
    units = units_of(k) if k > 1 else [1]
    weights = st.lists(st.sampled_from(units), min_size=n, max_size=n)
    first = draw(weights)
    if draw(st.booleans()):  # An isometric image, so witnesses are common.
        a = draw(st.sampled_from(units))
        second = draw(st.permutations([a * w for w in first]))
    else:
        second = draw(weights)
    return make_lens_space(n, k, first), make_lens_space(n, k, second)


@settings(max_examples=300, deadline=None)
@given(same_order_pairs())
@example((make_lens_space(3, 1, [1, 1, 1]), make_lens_space(3, 1, [1, 1, 1])))
@example((make_lens_space(4, 5, [1, 1, 2, 2]), make_lens_space(4, 5, [4, 2, 4, 2])))
def test_witness_is_the_scan_witness(pair):
    witness = condition4_witness(*pair)
    assert witness == scan_witness(*pair)
    if witness is not None:
        assert verify_witness(*pair, witness)


def test_spectra_equal_examples():
    space = make_lens_space(2, 5, [1, 2])
    assert spectra_equal_up_to(space, space, 200)
    assert spectra_equal_up_to(space, make_lens_space(2, 5, [2, 4]), 500)
    assert not spectra_equal_up_to(make_lens_space(2, 5, [1, 1]), space, 500)


def test_spectra_comparison_across_different_k():
    # same-n different-k spaces are comparable (and differ)
    assert not spectra_equal_up_to(
        make_lens_space(2, 3, [1, 1]), make_lens_space(2, 5, [1, 1]), 200
    )


def full_tables_equal(space, other, lambda_max):
    """The comparison `spectra_equal_up_to` decides: both whole tables."""
    return (multiplicity_table(space, lambda_max, budget=None)
            == multiplicity_table(other, lambda_max, budget=None))


@st.composite
def comparison_pairs(draw):
    """Equal-n pairs (n = 2, 3): isometric images, equal k, or different k."""
    n = draw(st.integers(2, 3))
    orders = st.integers(1, 25 if n == 2 else 10)

    def draw_space(k):
        units = st.sampled_from(units_of(k) if k > 1 else [1])
        return make_lens_space(n, k, draw(st.lists(units, min_size=n, max_size=n)))

    first = draw_space(draw(orders))
    kind = draw(st.sampled_from(("image", "same k", "other k")))
    if kind == "image":
        a = draw(st.sampled_from(units_of(first.k) if first.k > 1 else [1]))
        second = make_lens_space(n, first.k, draw(st.permutations([a * w for w in first.weights])))
    else:
        second = draw_space(first.k if kind == "same k" else draw(orders))
    return first, second


@settings(max_examples=150, deadline=None)
@given(comparison_pairs(),
       st.one_of(st.sampled_from((0, 1, 2, 63, 64, 65, 256, 257)), st.integers(0, 3000)))
@example((make_lens_space(2, 9, [1, 2]), make_lens_space(2, 9, [1, 4])), 257)  # d = 1, 3
@example((make_lens_space(2, 12, [1, 5]), make_lens_space(2, 12, [1, 7])), 65)  # d = 4, 6
@example((make_lens_space(2, 7, [1, 2]), make_lens_space(2, 7, [4, 1])), 3000)
@example((make_lens_space(3, 49, [1, 8, 22]), make_lens_space(3, 49, [1, 8, 36])), 257)
@example((make_lens_space(2, 1, [1, 1]), make_lens_space(2, 2, [1, 1])), 0)
# Invariant only on p = q below k, so these first differ at 2 * 101 and 2 * 257.
@example((make_lens_space(2, 101, [1, 1]), make_lens_space(2, 103, [1, 1])), 201)
@example((make_lens_space(2, 101, [1, 1]), make_lens_space(2, 103, [1, 1])), 202)
@example((make_lens_space(2, 257, [1, 1]), make_lens_space(2, 263, [1, 1])), 513)
@example((make_lens_space(2, 257, [1, 1]), make_lens_space(2, 263, [1, 1])), 514)
def test_spectra_equal_up_to_is_the_full_table_comparison(pair, lambda_max):
    assert spectra_equal_up_to(*pair, lambda_max, budget=None) == full_tables_equal(
        *pair, lambda_max)


def test_isometric_pair_is_decided_without_a_sieve(monkeypatch):
    from kohnspec import spectrum

    def forbidden(*args):
        raise AssertionError("an isometric pair needs no sieve")

    monkeypatch.setattr(spectrum, "_sieve", forbidden)
    for n, k, weights, image in ((2, 7, [1, 2], [2, 4]), (3, 9, [1, 2, 4], [7, 4, 8])):
        first, second = make_lens_space(n, k, weights), make_lens_space(n, k, image)
        assert condition4_witness(first, second) is not None
        assert spectra_equal_up_to(first, second, 20000)
        # The witness route runs no sieve, so it is not charged for one.
        assert spectra_equal_up_to(first, second, 20000, budget=1)
    other = make_lens_space(2, 7, [1, 3])
    # The sieve route is charged for both sieves before either runs.
    with pytest.raises(ResourceLimit):
        spectra_equal_up_to(make_lens_space(2, 7, [1, 2]), other, 20000, budget=1)
    with pytest.raises(AssertionError):
        spectra_equal_up_to(make_lens_space(2, 7, [1, 2]), other, 2)


def test_non_isometric_prime_pair_is_separated_at_cutoff_64(monkeypatch):
    from kohnspec import spectrum

    cutoffs, sieve = [], spectrum._sieve
    monkeypatch.setattr(spectrum, "_sieve",
                        lambda space, lam: cutoffs.append(lam) or sieve(space, lam))
    first, second = make_lens_space(2, 101, [1, 2]), make_lens_space(2, 101, [1, 3])
    assert condition4_witness(first, second) is None
    assert not spectra_equal_up_to(first, second, 12000)
    assert cutoffs == [64, 64]


def test_isospec_prices_each_sieve_once(monkeypatch):
    from kohnspec import spectrum

    priced, kernel = [], spectrum._kernel

    def recorded(space):
        built = kernel(space)
        # The lambda-max priced: a sieve is priced at its half-cutoff.
        return built._replace(
            sieve_work=lambda half: priced.append(2 * half) or built.sieve_work(half))

    monkeypatch.setattr(spectrum, "_kernel", recorded)
    first, second = make_lens_space(2, 7, [1, 2]), make_lens_space(2, 7, [1, 3])
    assert _compare_spectra(first, second, 2000, 10**7) == (None, False)
    # The rising tables are run with budget None: the charge at 2000 covers them.
    assert priced == [2000, 2000]

def test_dims_equal_examples():
    assert dims_equal(make_lens_space(2, 3, [1, 2]), make_lens_space(2, 3, [2, 1]))
    assert not dims_equal(
        make_lens_space(2, 7, [1, 2]), make_lens_space(2, 7, [1, 3])
    )
    space = make_lens_space(3, 5, [1, 2, 3])
    assert dims_equal(space, space)


@pytest.mark.usefixtures("cold_caches")
def test_n2_dims_equal_reads_the_cached_base_tables(monkeypatch):
    from kohnspec import invariant, isospectral

    built = []

    def dim_grid(space, size):
        built.append((space, size))
        return grid(space, size)

    grid = invariant.dim_grid
    monkeypatch.setattr(invariant, "dim_grid", dim_grid)
    monkeypatch.setattr(isospectral, "dim_grid", dim_grid)
    first, second = make_lens_space(2, 7, [1, 2]), make_lens_space(2, 7, [1, 3])
    assert [dims_equal(first, second) for _ in range(2)] == [False, False]
    assert built == [(first, 6), (second, 6)]


def test_dims_equal_grid_path_detects_difference():
    first = make_lens_space(3, 7, [1, 1, 1])
    second = make_lens_space(3, 7, [1, 2, 3])
    assert not dims_equal(first, second)
    # g = 2: 74,112 dot products of 128 entries, 9,795,072 in all, fit the default budget.
    first, second = make_lens_space(3, 128, [1, 3, 5]), make_lens_space(3, 128, [1, 3, 9])
    assert not dims_equal(first, second)


# Weights 1 + jm mod m^2: 5-dimensional lens spaces whose invariant
# dimensions agree everywhere, with no CR isometry between them.
ISOSPECTRAL_NON_ISOMETRIC = [((49, [1, 8, 22]), (49, [1, 8, 36])),
                             ((64, [1, 9, 25]), (64, [1, 9, 49]))]


@pytest.mark.parametrize("pair", ISOSPECTRAL_NON_ISOMETRIC)
def test_isospectral_non_isometric_5d_pairs(pair):
    first, second = (make_lens_space(3, k, w) for k, w in pair)
    assert dims_equal(first, second)
    assert condition4_witness(first, second) is None
    assert condition4_witness(second, first) is None
    assert spectra_equal_up_to(first, second, 600)
    for space in (first, second):
        cell = dim_cell(space)
        assert all(dim_invariant_bruteforce(space, p, q) == cell(p, q)
                   for p in range(9) for q in range(9))


def test_dims_equal_separates_a_5d_pair():
    first, second = make_lens_space(3, 49, [1, 8, 22]), make_lens_space(3, 49, [1, 8, 29])
    assert not dims_equal(first, second)
    assert not spectra_equal_up_to(first, second, 600)


def test_dims_equal_charges_the_box_before_any_grid(monkeypatch):
    from kohnspec import isospectral

    monkeypatch.setattr(isospectral, "dim_grid", None)
    space = make_lens_space(3, 200, [1, 3, 7])
    with pytest.raises(ResourceLimit, match="exceeds budget 10000000"):
        dims_equal(space, space)


class _Charged(Exception):
    pass


def _charge_of_dims_equal(monkeypatch, space) -> int:
    """The work `dims_equal(space, space)` charges, stopped before any grid."""
    from kohnspec import isospectral

    charged = []

    def record(work, budget):
        charged.append(work)
        raise _Charged

    monkeypatch.setattr(isospectral, "charge", record)
    with pytest.raises(_Charged):
        dims_equal(space, space)
    return charged[0]


def test_dims_equal_charges_the_symmetric_grid(monkeypatch):
    from kohnspec.invariant import _profile_work

    # g = 8: of the 192 x 192 box's 192 * 193 / 2 cells q >= p, the 2,400 with
    # 8 | q - p take a dot product of 64 entries.
    space = make_lens_space(3, 64, [1, 9, 25])
    expected = 2 * (2_400 * 64 + _profile_work(space, 192))
    assert _charge_of_dims_equal(monkeypatch, space) == expected == 387_840
    # g = 2 prices about half the k = 100 box; at g = 1 every cell q >= p is priced.
    charged = _charge_of_dims_equal(monkeypatch, make_lens_space(3, 100, [1, 3, 7]))
    assert charged == 4_720_800
    space = make_lens_space(3, 101, [1, 3, 7])
    expected = 2 * (303 * 304 // 2 * 101 + _profile_work(space, 303))
    assert _charge_of_dims_equal(monkeypatch, space) == expected == 9_497_838 <= DEFAULT_BUDGET
    charged = _charge_of_dims_equal(monkeypatch, make_lens_space(3, 200, [1, 3, 7]))
    assert charged == 36_861_600 > DEFAULT_BUDGET


def test_dims_equal_at_n2_is_equal_d_and_base_table():
    # Every pair of n = 2 spaces with k <= 12 (about 13,700 pairs): the box
    # decides exactly as equal congruence invariants and equal base tables.
    verdicts = set()
    for k in range(1, 13):
        spaces = [make_lens_space(2, k, ws) for ws in product(units_of(k) or [0], repeat=2)]
        keys = [(gcd_invariant(space), base_dim_table(space)) for space in spaces]
        for (first, key), (second, other) in product(zip(spaces, keys), repeat=2):
            verdict = dims_equal(first, second)
            assert verdict == (key == other), (first, second)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 10**6))
def test_base_table_diagonal_carries_d(k, seed_a, seed_b):
    units = units_of(k) or [0]
    space = make_lens_space(2, k, [units[seed_a % len(units)], units[seed_b % len(units)]])
    s = k // gcd_invariant(space)
    table = base_dim_table(space)
    assert [table[p][p] for p in range(k)] == [2 * (p // s) + 1 for p in range(k)]

def test_d_invariant_examples():
    assert not d_invariant_check(
        make_lens_space(2, 12, [1, 5]), make_lens_space(2, 12, [1, 7])
    )
    assert d_invariant_check(
        make_lens_space(2, 5, [1, 2]), make_lens_space(2, 5, [1, 3])
    )
    with pytest.raises(UnsupportedDimension):
        d_invariant_check(
            make_lens_space(3, 5, [1, 2, 3]), make_lens_space(3, 5, [1, 2, 3])
        )
    with pytest.raises(MismatchedSpaces):
        d_invariant_check(make_lens_space(2, 5, [1, 2]), make_lens_space(2, 7, [1, 2]))


def test_isometric_pairs_share_d():
    for k in range(2, 12):
        units = units_of(k)
        for l1, l2 in product(units, repeat=2):
            first = make_lens_space(2, k, [l1, l2])
            for a in units:
                second = make_lens_space(2, k, [(a * l2) % k, (a * l1) % k])
                assert d_invariant_check(first, second)


def test_c_matrix_anchors():
    assert c_matrix(3, 6).rows() == [[1, 0, 0], [0, 0, 0], [0, 1, 0]]
    assert c_matrix(3, 18).rows() == [[1, 0, 0], [0, 0, 0], [1, 1, 0]]
    m = c_matrix(5, 2)
    assert m.entries[0][1] == 1 and sum(m.as_vector()) == 1


def test_c_matrix_entry_total_is_divisor_count():
    for k in (3, 5, 7):
        for lam in range(2, 300, 2):
            assert sum(c_matrix(k, lam).as_vector()) == count_divisors(lam // 2)


def test_c_matrix_validation():
    with pytest.raises(InvalidEigenvalue):
        c_matrix(3, 7)
    with pytest.raises(InvalidEigenvalue):
        c_matrix(3, 0)


def test_c_matrix_counts_residue_classes():
    # direct definition check on a composite eigenvalue
    k, lam = 4, 120
    expected = [[0] * k for _ in range(k)]
    for p in range(lam):
        for q in range(1, lam + 1):
            if 2 * q * (p + 1) == lam:
                expected[p % k][q % k] += 1
    assert c_matrix(k, lam).rows() == expected


def test_t_apply_examples():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert t_apply(identity) == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


@given(st.integers(2, 6), st.integers(0, 10**9))
def test_t_inverse_undoes_t_apply(size, seed):
    rng = [[(seed * (i * size + j + 1)) % 97 for j in range(size)] for i in range(size)]
    assert t_inverse(t_apply(rng)) == [list(row) for row in rng]
    assert t_apply(t_inverse(rng)) == [list(row) for row in rng]


def test_shifted_c_matrix_symmetric():
    for k in (3, 5, 7):
        for lam in range(2, 1001, 2):
            shifted = t_inverse(c_matrix(k, lam).rows())
            assert shifted == [list(col) for col in zip(*shifted)], (k, lam)


def test_span_examples():
    assert span_dimension(3, range(2, 201, 2)) == 6
    assert span_dimension(3, [6]) == 1
    assert span_dimension(5, range(2, 601, 2)) == 15


def test_span_never_exceeds_symmetric_dimension():
    for k in (3, 4, 5, 6, 7):
        rank = span_dimension(k, range(2, 401, 2))
        assert rank <= k * (k + 1) // 2


def dense_rank(vectors):
    """Rank over Q by Gaussian elimination on Fraction rows."""
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9),
    st.lists(st.integers(1, 600).map(lambda h: 2 * h), max_size=25),
    st.data(),
)
def test_span_matches_a_dense_fraction_rank(k, lambdas, data):
    # Non-contiguous lists, with repeats: duplicate some entries.
    lambdas += data.draw(st.lists(st.sampled_from(lambdas), max_size=5)) if lambdas else []
    expected = dense_rank([c_matrix(k, lam).as_vector() for lam in lambdas])
    assert span_dimension(k, lambdas) == expected


def test_span_reaches_k_41():
    assert span_dimension(41, range(2, 8406, 2)) == 41 * 42 // 2


def test_span_builds_no_dense_matrix(monkeypatch):
    from kohnspec import isospectral

    monkeypatch.setattr(isospectral, "c_matrix", None)
    monkeypatch.setattr(isospectral.CMatrix, "__init__", None)
    assert span_dimension(7, range(2, 400, 2)) == 28


@given(st.integers(2, 40), st.integers(1, 20000).map(lambda h: 2 * h))
def test_residue_counts_are_fixed_by_the_shifted_transpose(k, lam):
    # (p, q) -> (q - 1, p + 1) keeps q(p + 1): C^lam(a, b) = C^lam(b - 1, a + 1).
    counts = _residue_counts(k, lam)
    image = {(cell % k - 1) % k * k + (cell // k + 1) % k: c for cell, c in counts.items()}
    assert image == counts


@pytest.mark.parametrize("k", [2, 3, 5, 7, 11, 13, 8, 12])
def test_span_stops_at_the_ceiling_with_the_full_rank(k, monkeypatch):
    from kohnspec import isospectral

    lambdas = range(2, 601, 2)
    full = _integer_rank(_residue_counts(k, lam) for lam in lambdas)
    read = []
    monkeypatch.setattr(isospectral, "_residue_counts",
                        lambda k, lam: read.append(lam) or _residue_counts(k, lam))
    assert span_dimension(k, lambdas) == full
    # Prime k reaches the k(k+1)/2 ceiling and reads no row after it;
    # 8 and 12 stay below it and read every row.
    reached = full == k * (k + 1) // 2
    assert reached == (k not in (8, 12))
    assert (len(read) < len(lambdas)) == reached


def test_span_validates_and_charges_before_any_work():
    for k in (1, 0, -7):  # With no eigenvalue to check, too.
        with pytest.raises(InvalidOrder):
            span_dimension(k, [])
    with pytest.raises(InvalidOrder):
        span_dimension(1, [2])
    with pytest.raises(InvalidEigenvalue):
        span_dimension(3, [2, 4, 7])
    work = 4 * sum(isqrt(lam // 2) for lam in range(2, 101, 2))
    with pytest.raises(ResourceLimit, match=f"work {work} exceeds budget {work - 1}"):
        span_dimension(3, range(2, 101, 2), budget=work - 1)
    assert span_dimension(3, range(2, 101, 2), budget=work) == 6


def test_c_matrix_charges_its_entries():
    with pytest.raises(ResourceLimit, match="work 10 exceeds budget 9"):
        c_matrix(3, 2, budget=9)
    assert c_matrix(3, 2, budget=10).rows() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]


def test_classify_small_orders():
    assert classify_all(2) == {(1, 1): [(1, 1)]}
    assert list(classify_all(5)) == [(1, 1), (1, 2), (1, 4)]


def test_classify_partitions_all_pairs():
    for k in (5, 7, 8, 12):
        classes = classify_all(k)
        members = [pair for cls in classes.values() for pair in cls]
        units = units_of(k)
        assert sorted(members) == sorted(product(units, repeat=2))


def test_classify_matches_orbit_enumeration():
    for k in (5, 7, 9):
        units = units_of(k)
        orbits = set()
        for pair in product(units, repeat=2):
            orbit = frozenset(
                ((a * x) % k, (a * y) % k)
                for a in units
                for x, y in (pair, pair[::-1])
            )
            orbits.add(orbit)
        classes = classify_all(k)
        assert {frozenset(members) for members in classes.values()} == orbits
        assert len(classes) == len(orbits)
        assert all(rep in members for rep, members in classes.items())


def orbit_classes(k):
    """The classes as unit orbits: take a pair, remove its orbit, repeat."""
    units = units_of(k)
    unclassified, classes = set(product(units, repeat=2)), {}
    while unclassified:
        x, y = unclassified.pop()
        orbit = {((a * u) % k, (a * v) % k) for a in units for u, v in ((x, y), (y, x))}
        unclassified -= orbit
        classes[min(pair for pair in orbit if pair[0] == 1)] = sorted(orbit)
    return dict(sorted(classes.items()))


def test_classify_is_the_orbit_construction():
    for k in [*range(2, 60), 97, 99, 112, 120]:
        classes, expected = classify_all(k, budget=None), orbit_classes(k)
        assert classes == expected and list(classes) == list(expected)


def test_totient_by_factoring_counts_the_units():
    for k in range(1, 400):
        assert _totient(k) == (len(units_of(k)) if k > 1 else 1)
        # The floor classify_all charges before it factors.
        assert _totient(k) ** 2 >= k / 2
    assert _totient(2**40) == 2**39 and _totient(1000003) == 1000002


def test_classify_charges_the_pairs_before_any_work():
    with pytest.raises(ResourceLimit, match="work 16 exceeds budget 15"):
        classify_all(12, budget=15)
    assert list(classify_all(12, budget=16)) == [(1, 1), (1, 5), (1, 7), (1, 11)]
    assert len(classify_all(12, budget=None)) == 4
    # 1000003 is prime: phi(k)^2 is about 1e12 pairs.
    with pytest.raises(ResourceLimit, match="work 1000004000004 exceeds"):
        classify_all(1000003)
    # An order far past the budget is refused before it is factored.
    with pytest.raises(ResourceLimit, match=f"work {10**30} exceeds"):
        classify_all(2 * 10**30)
    with pytest.raises(InvalidOrder):
        classify_all(1, budget=0)


def test_classify_representatives_mutually_distinct_spectra():
    reps = [make_lens_space(2, 5, rep) for rep in classify_all(5)]
    tables = [multiplicity_table(space, 500) for space in reps]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert tables[i] != tables[j]


def test_unequal_d_pair_has_explicit_spectral_difference():
    first = make_lens_space(2, 5, [1, 1])
    second = make_lens_space(2, 5, [1, 2])
    assert not d_invariant_check(first, second)
    assert multiplicity(first, 4) == 3
    assert multiplicity(second, 4) == 1
