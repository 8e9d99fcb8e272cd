import cmath
import math
import sys
from fractions import Fraction

import pytest

from kohnspec.core import DomainViolation, InsufficientSamples, make_lens_space
from kohnspec.genfunc import (
    DISK_RADIUS,
    _series_grid,
    genfunc_closed,
    genfunc_series,
    independence_probe,
    max_deviation,
    unit_disk_points,
)
from kohnspec.invariant import dim_invariant_dp
from kohnspec.sphere import dim_hpq


def test_constant_term_is_one():
    assert abs(genfunc_closed(make_lens_space(2, 1, [1, 1]), 0j, 0j) - 1) < 1e-15
    assert abs(genfunc_series(make_lens_space(2, 3, [1, 2]), 0j, 0j, 5) - 1) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_series_tail_bound_at_the_sample_radius(n):
    # 0 <= dim H^G <= dim H, so for |z|, |w| <= r the tail past the cutoff is
    # at most the sphere's whole sum (1 - r^2)/(1 - r)^(2n) minus its part
    # over p, q <= cutoff.  Exact at r = DISK_RADIUS and cutoff 60.
    r, cutoff = Fraction(DISK_RADIUS), 60
    powers = [r**j for j in range(2 * cutoff + 1)]
    kept = sum(dim_hpq(n, p, q) * powers[p + q]
               for p in range(cutoff + 1) for q in range(cutoff + 1))
    bound = (1 - r * r) / (1 - r) ** (2 * n) - kept
    assert 0 < bound < Fraction(1, 10**10)


def test_closed_matches_series():
    space = make_lens_space(2, 3, [1, 2])
    z, w = 0.3 + 0j, 0.2 + 0j
    assert abs(genfunc_closed(space, z, w) - genfunc_series(space, z, w, 60)) < 1e-9


@pytest.mark.parametrize(
    "space",
    [
        make_lens_space(2, 1, [1, 1]),  # the sphere
        make_lens_space(2, 7, [1, 3]),
        make_lens_space(2, 30, [1, 7]),  # d = gcd(30, 1 - 7) = 6
    ],
)
def test_n2_series_grid_takes_the_closed_form(monkeypatch, space):
    expected = tuple(
        tuple(dim_invariant_dp(space, p, q) for q in range(26)) for p in range(26)
    )

    def refuse(*args):
        raise AssertionError("the convolution ran for an n = 2 grid")

    # In every kohnspec module that holds the name, so no import escapes.
    for name, module in list(sys.modules.items()):
        if name.startswith("kohnspec") and hasattr(module, "dim_invariant_dp"):
            monkeypatch.setattr(module, "dim_invariant_dp", refuse)
    _series_grid.cache_clear()
    assert _series_grid(space, 25) == expected


def test_closed_real_on_real_diagonal():
    value = genfunc_closed(make_lens_space(2, 2, [1, 1]), 0.5 + 0j, 0.5 + 0j)
    assert abs(value.imag) < 1e-12


def test_trivial_group_reduces_to_product_form():
    space = make_lens_space(2, 1, [1, 1])
    z, w = 0.4 + 0.1j, -0.2 + 0.3j
    explicit = (1 - z * w) / ((1 - z) ** 2 * (1 - w) ** 2)
    assert abs(genfunc_closed(space, z, w) - explicit) < 1e-13
    assert abs(genfunc_series(space, z, w, 80) - explicit) < 1e-9


def test_higher_dimension_agreement():
    space = make_lens_space(3, 3, [1, 1, 2])
    for z, w in unit_disk_points(5, seed=99):
        assert abs(genfunc_closed(space, z, w) - genfunc_series(space, z, w, 60)) < 1e-9


def test_domain_enforced():
    space = make_lens_space(2, 3, [1, 2])
    with pytest.raises(DomainViolation):
        genfunc_closed(space, 0.95 + 0j, 0j)
    with pytest.raises(DomainViolation):
        genfunc_series(space, 0j, 1.2 + 0j, 10)


def test_coefficients_recovered_by_grid_interpolation():
    # Fourier inversion on a polar grid recovers the series coefficients.
    space = make_lens_space(2, 5, [1, 3])
    size, radius = 32, 0.5
    grid = [
        [
            genfunc_closed(
                space,
                radius * cmath.exp(2j * math.pi * a / size),
                radius * cmath.exp(2j * math.pi * b / size),
            )
            for b in range(size)
        ]
        for a in range(size)
    ]
    for p in range(6):
        for q in range(6):
            acc = 0j
            for a in range(size):
                for b in range(size):
                    acc += grid[a][b] * cmath.exp(-2j * math.pi * (p * a + q * b) / size)
            value = acc.real / (size * size * radius ** (p + q))
            assert abs(value - dim_invariant_dp(space, p, q)) < 0.5, (p, q)


def test_independence_ranks():
    assert independence_probe(3, unit_disk_points(12, seed=7)) == 6
    assert independence_probe(2, unit_disk_points(5, seed=7)) == 3


def test_independence_duplicate_points_rank_deficient():
    point = unit_disk_points(1, seed=3)[0]
    assert independence_probe(3, [point] * 8) < 6


def test_independence_needs_enough_points():
    with pytest.raises(InsufficientSamples):
        independence_probe(3, unit_disk_points(5, seed=1))


def test_unit_disk_points_deterministic_and_bounded():
    first = unit_disk_points(10, seed=42)
    second = unit_disk_points(10, seed=42)
    assert first == second
    assert all(abs(z) <= 0.5 and abs(w) <= 0.5 for z, w in first)


def test_max_deviation_small_for_matching_space():
    space = make_lens_space(2, 4, [1, 3])
    assert max_deviation(space, unit_disk_points(10, seed=5), 60) < 1e-9


def test_max_deviation_refuses_no_points():
    space = make_lens_space(2, 4, [1, 3])
    with pytest.raises(InsufficientSamples, match=r"^need at least 1 sample point, got 0$"):
        max_deviation(space, [], 60)
    with pytest.raises(ValueError, match=r"^cutoff must be nonnegative, got -3$"):
        max_deviation(space, [], -3)


def test_series_refuses_a_negative_cutoff():
    # A negative cutoff summed no term: the series read 0 and the deviation |closed form|.
    space = make_lens_space(2, 5, [1, 2])
    for call, args in ((genfunc_series, (0.1, 0.1)), (max_deviation, ([(0.1, 0.1)],))):
        with pytest.raises(ValueError, match=r"^cutoff must be nonnegative, got -3$"):
            call(space, *args, -3)
    assert genfunc_series(space, 0.1, 0.1, 0) == 1  # dim H^G_(0,0) = 1
