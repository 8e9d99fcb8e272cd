import math
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from kohnspec.asymptotics import (
    BoundCheck,
    BoundParams,
    check_lower_bound,
    check_upper_bound,
    lemma_ratio_decay,
    remainder_experiment,
    sphere_volume,
    universal_constant,
    weyl_constant_experiment,
    weyl_ratio_series,
    _MAX_REFINEMENTS,
    _TOLERANCE,
    _TRUNCATION,
    _adaptive_simpson,
    _weyl_integrand,
)
from kohnspec.core import (
    NonConvergence,
    ResourceLimit,
    UnsupportedDimension,
    make_lens_space,
)

SPHERE3 = make_lens_space(2, 1, [1, 1])


def test_universal_constant_closed_form():
    # closed form for n = 2: the line integral is pi^2/3, so u_2 = 1/48
    assert abs(universal_constant(2) - 1.0 / 48.0) < 1e-9


def test_integrand_removable_singularity():
    assert _weyl_integrand(2)(0.0) == 1.0
    assert abs(_weyl_integrand(2)(1e-9) - 1.0) < 1e-12
    assert abs(_weyl_integrand(3)(1e-9) - math.exp(-1e-9)) < 1e-12


def test_integrand_no_overflow_for_large_n():
    f = _weyl_integrand(20)
    assert f(-40.0) >= 0.0
    assert math.isfinite(f(-40.0))


def test_universal_constant_matches_the_closed_form_at_n3():
    # u_3 = 1/(144 pi): the quadrature's truncation and tolerance lose ~1e-13.
    assert abs(universal_constant(3) * 144 * math.pi - 1) < 1e-12


def test_universal_constant_is_memoized_per_n_until_cleared(monkeypatch):
    from kohnspec import asymptotics, clear_caches

    quad, calls = asymptotics._adaptive_simpson, []
    monkeypatch.setattr(asymptotics, "_adaptive_simpson",
                        lambda *args: calls.append(args[0]) or quad(*args))
    clear_caches()
    first = [universal_constant(n) for n in range(2, 9)]
    assert [universal_constant(n) for n in range(2, 9)] == first
    assert universal_constant.cache_info().currsize == 7
    remainder_experiment(make_lens_space(8, 3, [1] * 8), 24, 1)
    clear_caches()
    assert universal_constant.cache_info().currsize == 0
    assert [universal_constant(n) for n in range(2, 9)] == first
    assert calls == []


def test_universal_constant_does_not_memoize_a_failure(monkeypatch):
    from kohnspec import asymptotics, clear_caches

    def fails(*args):
        raise NonConvergence("refinement limit reached")

    # n = 9 is the first n that runs the quadrature.
    clear_caches()
    monkeypatch.setattr(asymptotics, "_adaptive_simpson", fails)
    with pytest.raises(NonConvergence):
        universal_constant(9)
    monkeypatch.setattr(asymptotics, "_adaptive_simpson", lambda *args: 1.0)
    try:
        assert universal_constant(9) == 8 / (9 * (2.0 * math.pi) ** 9 * math.factorial(9))
    finally:
        clear_caches()


def test_quadrature_refinement_limit():
    with pytest.raises(NonConvergence):
        _adaptive_simpson(_weyl_integrand(2), -50.0, 50.0, 1e-14, 2)


def _reference_simpson(f, a, b, tol, max_depth):
    """The textbook form, one three-point `simpson` call per half: the bit-level oracle."""

    def simpson(x0, f0, x1, f1):
        xm = 0.5 * (x0 + x1)
        fm = f(xm)
        return xm, fm, (x1 - x0) / 6.0 * (f0 + 4.0 * fm + f1)

    def recurse(x0, f0, x1, f1, xm, fm, whole, tol, depth):
        lm, flm, left = simpson(x0, f0, xm, fm)
        rm, frm, right = simpson(xm, fm, x1, f1)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth <= 0:
            raise NonConvergence(
                f"refinement limit reached on [{x0}, {x1}] with error {abs(delta):.3e}"
            )
        return recurse(x0, f0, xm, fm, lm, flm, left, tol / 2.0, depth - 1) + recurse(
            xm, fm, x1, f1, rm, frm, right, tol / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    return recurse(a, fa, b, fb, m, fm, whole, tol, max_depth)


def _outcome(quadrature, n, tol, max_depth):
    try:
        return quadrature(_weyl_integrand(n), -50.0, 50.0, tol, max_depth).hex()
    except NonConvergence as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]), st.integers(2, 48))
@example(8, 1e-12, 48)
@example(2, 1e-12, 2)
def test_quadrature_is_bit_identical_to_the_three_point_form(n, tol, max_depth):
    assert _outcome(_adaptive_simpson, n, tol, max_depth) == _outcome(
        _reference_simpson, n, tol, max_depth)


# u_2 ... u_8: `bench/digests.json` pins the last digits of `remainder`, so these may not move.
PINNED_U = ["0x1.5555555555851p-6", "0x1.21bb945252689p-9", "0x1.4061b2c170322p-12",
            "0x1.82ec3ae2810f6p-15", "0x1.e450914c08a7ap-18", "0x1.33d3574687608p-20",
            "0x1.89de3f60bb7d4p-23"]


def test_universal_constant_bits_and_failures_are_pinned():
    assert [universal_constant(n).hex() for n in range(2, 9)] == PINNED_U
    for n, message in [
        (9, "[-7.884061896610817, -7.884061896610461] with error 5.377e-24"),
        (10, "[-11.473652238527166, -11.47365223852681] with error 1.303e-23"),
    ]:
        with pytest.raises(NonConvergence) as excinfo:
            universal_constant(n)
        assert str(excinfo.value) == "refinement limit reached on " + message


def test_quadrature_evaluates_each_node_once():
    for n, evaluations in [(2, 3249), (8, 26913)]:
        f, calls = _weyl_integrand(n), []
        _adaptive_simpson(lambda x: calls.append(x) or f(x),
                          -_TRUNCATION, _TRUNCATION, _TOLERANCE, _MAX_REFINEMENTS)
        assert len(calls) == evaluations


def test_the_table_is_the_quadrature_bits(monkeypatch):
    from kohnspec import asymptotics, clear_caches

    table = [asymptotics._SIMPSON_U[n].hex() for n in range(2, 9)]
    clear_caches()
    monkeypatch.setattr(asymptotics, "_SIMPSON_U", {})  # Every n takes the quadrature route.
    try:
        assert [universal_constant(n).hex() for n in range(2, 9)] == table == PINNED_U
    finally:
        clear_caches()


def _bernoulli(m):
    """B_0 ... B_m as Fractions (B_1 = -1/2), by the defining recurrence."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(comb(j + 1, i) * b[i] for i in range(j)) / (j + 1))
    return b


def _stirling_row(r):
    """Unsigned Stirling numbers of the first kind c(r, 0..r).

    They are the coefficients of m(m+1)...(m+r-1) = sum_i c(r, i) m^i.
    """
    row = [1]
    for j in range(r):
        row = [j * a + b for a, b in zip(row + [0], [0] + row)]
    return row


def weyl_polynomial(n):
    """u_n vol(S^{2n-1}) = sum_i c(n-1, i) zeta(n+1-i) / (2^(n-1) n! (n-2)!).

    The sum runs over 1 <= i <= n-1 with i = n-1 (mod 2), so only even zeta
    values appear.  Returns {j: the exact coefficient of pi^(2j)}, from
    zeta(2j) = (-1)^(j+1) B_(2j) (2 pi)^(2j) / (2 (2j)!).
    """
    c, b = _stirling_row(n - 1), _bernoulli(n + 1)
    scale = 2 ** (n - 1) * math.factorial(n) * math.factorial(n - 2)
    poly = {}
    for i in range(n - 1, 0, -2):
        j = (n + 1 - i) // 2
        zeta = (-1) ** (j + 1) * b[2 * j] * 2 ** (2 * j) / (2 * math.factorial(2 * j))
        poly[j] = c[i] * zeta / scale
    return poly


def test_the_table_matches_the_exact_weyl_polynomial():
    assert weyl_polynomial(2) == {1: Fraction(1, 24)}
    assert weyl_polynomial(3) == {1: Fraction(1, 144)}
    for n in range(2, 9):
        exact = sum(float(coefficient) * math.pi ** (2 * j)
                    for j, coefficient in weyl_polynomial(n).items())
        # Simpson's truncation and tolerance: at most 4.9e-13 relative, at n = 4.
        assert abs(universal_constant(n) * sphere_volume(n) / exact - 1) < 5e-13, n


def test_quadrature_refuses_an_overflowing_integrand():
    # At x = -50 the exponent is about 4.605 n - 100, past a float from n = 176.
    assert math.isfinite(_weyl_integrand(175)(-50.0))
    with pytest.raises(NonConvergence) as info:
        universal_constant(180)
    assert str(info.value) == "Weyl integrand overflows a float at n=180, x=-50.0"


def test_bound_examples_hold():
    for N, m, d, n in [(10, 2, 3, 3), (0, 1, 1, 3), (25, 1, 5, 4), (40, 3, 2, 5)]:
        params = BoundParams(N=N, m=m, d=d, n=n)
        assert check_lower_bound(params).holds
        assert check_upper_bound(params).holds


def test_bound_empty_inner_sum_convention():
    # N = 0, m = 1: the floor-sum upper index is 0-1; lhs is still exact
    result = check_lower_bound(BoundParams(N=0, m=1, d=1, n=3))
    assert result.lhs == 1
    assert result.rhs == Fraction(-4)
    assert result.holds


def test_bounds_hold_on_small_grid():
    for n in (3, 4, 5):
        for N in range(13):
            for m in range(1, 5):
                for d in range(1, 5):
                    params = BoundParams(N=N, m=m, d=d, n=n)
                    assert check_lower_bound(params).holds, params
                    assert check_upper_bound(params).holds, params


def literal_lower_bound(params):
    """The floor-sum lower bound summed term by term: O(N^2/m) floors."""
    N, m, d, n = params.N, params.m, params.d, params.n
    lhs = 0
    for r in range(N + 1):
        inner = sum((j * m + 1) // d for j in range((N - r + 1) // m))
        lhs += comb(r + n - 3, n - 3) * inner
    rhs = Fraction(0)
    margin = d + Fraction(3, 2) * m
    for q in range(N + 1):
        term = Fraction(q + n - 1, n - 1) - margin - margin * Fraction(n - 2, q + n - 2)
        rhs += term * comb(q + n - 2, n - 2)
    rhs /= m * d
    lhs = Fraction(lhs)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def literal_upper_bound(params):
    """The ceiling-sum upper bound summed term by term."""
    N, m, d, n = params.N, params.m, params.d, params.n
    lhs = 0
    for r in range(N + 1):
        j_top = -((N - r + 1) // -m)  # ceil((N-r+1)/m)
        inner = sum(-((j * m) // -d) for j in range(1, j_top + 1))
        lhs += comb(r + n - 3, n - 3) * inner
    rhs = Fraction(0)
    for q in range(N + 1):
        term = (
            Fraction(q + n - 1, n - 1)
            + d
            + Fraction(3, 2) * m
            + (m * m + m * d) * Fraction(n - 2, q + n - 2)
        )
        rhs += term * comb(q + n - 2, n - 2)
    rhs /= m * d
    lhs = Fraction(lhs)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def assert_bounds_match_the_literal_sums(params):
    for fast, literal in ((check_lower_bound, literal_lower_bound),
                          (check_upper_bound, literal_upper_bound)):
        result, expected = fast(params), literal(params)
        assert result == expected, (params, fast.__name__)
        assert type(result.lhs) is Fraction and type(result.rhs) is Fraction
        assert type(result.holds) is bool


@pytest.mark.parametrize("n", range(3, 8))
def test_bounds_match_the_literal_sums_on_a_grid(n):
    for N in range(25):
        for m in range(1, 7):
            for d in range(1, 7):
                assert_bounds_match_the_literal_sums(BoundParams(N=N, m=m, d=d, n=n))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(0, 200), st.integers(1, 15), st.integers(1, 15))
@example(3, 200, 1, 1)
@example(9, 199, 15, 2)
@example(4, 7, 15, 15)
def test_bounds_match_the_literal_sums(n, N, m, d):
    assert_bounds_match_the_literal_sums(BoundParams(N=N, m=m, d=d, n=n))


def test_bounds_at_a_large_N_take_a_few_terms():
    params = BoundParams(N=2000, m=3, d=5, n=4)
    start = time.perf_counter()
    lower, upper = check_lower_bound(params), check_upper_bound(params)
    assert time.perf_counter() - start < 0.01
    assert lower.holds and upper.holds


def test_bounds_reject_small_dimension():
    with pytest.raises(UnsupportedDimension):
        check_lower_bound(BoundParams(N=1, m=1, d=1, n=2))
    with pytest.raises(UnsupportedDimension):
        check_upper_bound(BoundParams(N=1, m=1, d=1, n=2))


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(N=-1, m=1, d=1, n=3)
    with pytest.raises(ValueError):
        BoundParams(N=0, m=0, d=1, n=3)
    with pytest.raises(ValueError):
        BoundParams(N=0, m=1, d=0, n=3)
    # `_make` and `_replace` build through the same check.
    with pytest.raises(ValueError):
        BoundParams._make((-1, 1, 1, 3))
    with pytest.raises(ValueError):
        BoundParams(N=0, m=1, d=1, n=3)._replace(d=0)
    assert BoundParams._make((2, 1, 1, 3))._replace(N=4) == BoundParams(4, 1, 1, 3)


def test_ratio_decay_single_term():
    assert lemma_ratio_decay(2, [1]) == [Fraction(1, 2)]


def test_ratio_decay_decreases():
    r10, r1000 = lemma_ratio_decay(2, [10, 1000])
    assert 0 < r1000 < r10 < 1
    r20, r2000 = lemma_ratio_decay(3, [20, 2000])
    assert 0 < r2000 < r20 < 1


def test_ratio_decay_n3_small():
    assert lemma_ratio_decay(3, [500])[0] < Fraction(1, 10)


def test_ratio_decay_is_budgeted():
    start = time.perf_counter()
    (ratio,) = lemma_ratio_decay(3, [10**6])
    assert time.perf_counter() - start < 1
    assert 0 < ratio < Fraction(1, 10**4)
    # The B side counts the sphere under the default budget.
    with pytest.raises(ResourceLimit):
        lemma_ratio_decay(3, [10**15])


def test_weyl_ratio_trivial_group_is_one():
    for sample in weyl_ratio_series(SPHERE3, 100, 10):
        assert sample.ratio == 1


def test_weyl_ratio_approaches_one_over_k():
    space = make_lens_space(2, 3, [1, 1])
    (sample,) = weyl_ratio_series(space, 400, 400)
    assert abs(sample.ratio - Fraction(1, 3)) < Fraction(1, 50)
    assert sample.ratio == Fraction(sample.n_lens, sample.n_sphere)


def test_weyl_ratio_budget():
    with pytest.raises(ResourceLimit):
        weyl_ratio_series(make_lens_space(2, 3, [1, 2]), 2000, 2, budget=100)


def test_remainder_budget():
    with pytest.raises(ResourceLimit):
        remainder_experiment(make_lens_space(2, 3, [1, 2]), 2000, 4, budget=100)


def test_weyl_ratio_stride_validation():
    with pytest.raises(ValueError):
        weyl_ratio_series(SPHERE3, 100, 3)


def test_weyl_ratio_refuses_a_negative_cutoff():
    # A negative cutoff lists no sample, so without the check it read as an empty sweep.
    space = make_lens_space(2, 5, [1, 2])
    with pytest.raises(ValueError, match=r"^cutoff must be nonnegative, got -10$"):
        weyl_ratio_series(space, -10, 2)
    assert weyl_ratio_series(space, 0, 2) == []


def test_weyl_constant_experiment_sphere():
    empirical, predicted = weyl_constant_experiment(SPHERE3, 2000)
    assert abs(predicted - math.pi**2 / 24.0) < 1e-8
    assert abs(empirical - predicted) / predicted < 0.01


def test_weyl_constant_experiment_needs_a_positive_cutoff():
    for lam in (0, -2):
        with pytest.raises(ValueError):
            weyl_constant_experiment(SPHERE3, lam)


def test_weyl_constant_experiment_below_first_eigenvalue():
    empirical, predicted = weyl_constant_experiment(make_lens_space(2, 5, [1, 2]), 2)
    assert empirical == 0.0
    assert predicted > 0.0


def test_sphere_volume_values():
    assert abs(sphere_volume(2) - 2 * math.pi**2) < 1e-12
    assert abs(sphere_volume(3) - math.pi**3) < 1e-12


def test_remainder_single_row():
    rows = remainder_experiment(make_lens_space(2, 3, [1, 1]), 200, 1)
    assert len(rows) == 1
    assert rows[0].lam == 200


def test_remainder_scaled_residual_shrinks():
    rows = remainder_experiment(SPHERE3, 2000, 4)
    # residual is O(lam log lam), so residual/lam^2 must fall off
    first, last = rows[0], rows[-1]
    assert abs(last.residual) / last.lam**2 < abs(first.residual) / first.lam**2


def test_remainder_validation():
    with pytest.raises(ValueError):
        remainder_experiment(SPHERE3, 10, 20)
