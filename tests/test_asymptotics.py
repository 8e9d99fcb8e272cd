import math
import time
from fractions import Fraction

import pytest

from kohnspec.asymptotics import (
    BoundParams,
    QuadratureConfig,
    check_lower_bound,
    check_upper_bound,
    lemma_ratio_decay,
    remainder_experiment,
    sphere_volume,
    universal_constant,
    weyl_constant_experiment,
    weyl_ratio_series,
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


def test_universal_constant_stable_under_truncation():
    u40 = universal_constant(3, QuadratureConfig(truncation=40.0))
    u60 = universal_constant(3, QuadratureConfig(truncation=60.0))
    assert abs(u40 - u60) < 1e-8


def test_quadrature_refinement_limit():
    with pytest.raises(NonConvergence):
        universal_constant(2, QuadratureConfig(tolerance=1e-14, max_refinements=2))


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
