"""Property tests of the (p, q) cell walker against independent routes.

The walker serves every sum over the cells q >= 1, 2q(p + n - 1) <= lam.
Its results are compared with divisor enumeration (`multiplicity`) and
with literal scans of the (p, q) rectangle.
"""
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from kohnspec import asymptotics, spectrum
from kohnspec.asymptotics import lemma_ratio_decay, weyl_ratio_series
from kohnspec.core import ResourceLimit, make_lens_space
from kohnspec.invariant import dim_invariant
from kohnspec.isospectral import c_matrix
from kohnspec.spectrum import (
    build_spectrum,
    counting_grid_size,
    multiplicity,
    multiplicity_table,
)
from kohnspec.sphere import _fold, dim_hpq


@st.composite
def lens_spaces(draw):
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 12))
    units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
    weights = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    return make_lens_space(n, k, weights)


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
@given(lens_spaces(), even_cutoffs)
def test_multi_cutoff_counts_are_cumulative_multiplicities(space, cutoffs):
    cutoffs = sorted(cutoffs)
    sphere = make_lens_space(space.n, 1, [1] * space.n)
    lens_counts, sphere_counts = _fold(
        space.n, cutoffs, partial(dim_invariant, space), partial(dim_hpq, space.n)
    )
    evens = range(2, cutoffs[-1] + 1, 2)
    lens_prefix = dict(zip(evens, accumulate(multiplicity(space, lam) for lam in evens)))
    sphere_prefix = dict(
        zip(evens, accumulate(multiplicity(sphere, lam) for lam in evens))
    )
    assert lens_counts == [lens_prefix.get(lam, 0) for lam in cutoffs]
    assert sphere_counts == [sphere_prefix.get(lam, 0) for lam in cutoffs]


@settings(max_examples=40, deadline=None)
@given(lens_spaces(), st.integers(0, 150).map(lambda h: 2 * h))
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(1, 150).map(lambda h: 2 * h))
def test_c_matrix_matches_rectangle_scan(k, lam):
    entries = [[0] * k for _ in range(k)]
    for p, q in cells(2, lam):
        if 2 * q * (p + 1) == lam:
            entries[p % k][q % k] += 1
    assert c_matrix(k, lam).rows() == entries


def test_budget_charges_each_evaluation_before_the_walk(monkeypatch):
    space = make_lens_space(2, 3, [1, 2])
    cells = counting_grid_size(2, 400)
    build_spectrum(space, 400, budget=cells)
    weyl_ratio_series(space, 400, 40, budget=2 * cells)
    calls = []
    for module in (spectrum, asymptotics):
        monkeypatch.setattr(module, "dim_invariant", lambda *args: calls.append(args))
    with pytest.raises(ResourceLimit):
        build_spectrum(space, 400, budget=cells - 1)
    with pytest.raises(ResourceLimit):
        weyl_ratio_series(space, 400, 40, budget=2 * cells - 1)
    assert calls == []
