import time
from math import comb

import pytest
from hypothesis import given, strategies as st

from kohnspec.core import DimensionTooSmall, ResourceLimit
from kohnspec.spectrum import counting_grid_size
from kohnspec.sphere import dim_hpq, eigenvalue, sphere_counting


def dim_bigraded_polynomials(n, p, q):
    """Monomial count of the bidegree-(p, q) polynomial space."""
    if p < 0 or q < 0:
        return 0
    return comb(p + n - 1, n - 1) * comb(q + n - 1, n - 1)


def dim_oracle(n, p, q):
    """Independent route: harmonics are polynomials modulo the |z|^2 ladder."""
    return dim_bigraded_polynomials(n, p, q) - dim_bigraded_polynomials(n, p - 1, q - 1)


def test_dim_examples():
    assert dim_hpq(2, 1, 1) == 3
    assert dim_hpq(2, 0, 0) == 1
    assert dim_hpq(3, 2, 1) == 15
    assert dim_hpq(3, 2, 1) == dim_oracle(3, 2, 1)


def test_dim_matches_polynomial_ladder_oracle():
    for n in (2, 3, 4, 5):
        for p in range(12):
            for q in range(12):
                assert dim_hpq(n, p, q) == dim_oracle(n, p, q), (n, p, q)


def test_dim_integrality_grid():
    # dim_hpq asserts exact divisibility internally; sweep the full grid.
    for n in range(2, 9):
        for p in range(61):
            for q in range(61):
                assert dim_hpq(n, p, q) >= 1


@given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 40))
def test_dim_symmetric_in_p_q(n, p, q):
    assert dim_hpq(n, p, q) == dim_hpq(n, q, p)


def test_dim_rejects_small_dimension():
    with pytest.raises(DimensionTooSmall):
        dim_hpq(1, 0, 0)


def test_eigenvalue_examples():
    assert eigenvalue(2, 2, 1) == 6
    assert eigenvalue(2, 5, 0) == 0
    assert eigenvalue(4, 1, 2) == 16


def test_counting_examples():
    assert sphere_counting(2, 2) == 2
    assert sphere_counting(2, 4) == 8
    assert sphere_counting(2, 0) == 0


def test_counting_matches_exhaustive_scan():
    # Oracle: scan a generous (p, q) rectangle instead of the q-range form.
    for n in (2, 3):
        for lam in range(0, 61, 2):
            expected = sum(
                dim_hpq(n, p, q)
                for p in range(lam)
                for q in range(1, lam + 1)
                if 2 * q * (p + n - 1) <= lam
            )
            assert sphere_counting(n, lam) == expected


def test_counting_nondecreasing():
    values = [sphere_counting(3, lam) for lam in range(0, 200, 2)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_counting_is_charged_its_cells_before_the_walk():
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        sphere_counting(3, 10**7)  # 72.9M cells against the default 10M.
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        sphere_counting(2, 10**30)  # Its grid size alone takes O(10^15) steps.
    assert time.perf_counter() - start < 0.1
    work = counting_grid_size(3, 400)
    with pytest.raises(ResourceLimit):
        sphere_counting(3, 400, budget=work - 1)
    assert sphere_counting(3, 400, budget=work) == sphere_counting(3, 400, budget=None)
