"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they pass; every tolerance is pinned here, not configurable.
"""
import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from kohnspec.asymptotics import (
    BoundParams,
    check_lower_bound,
    check_upper_bound,
    universal_constant,
    weyl_constant_experiment,
)
from kohnspec.core import gcd_invariant, make_lens_space
from kohnspec.genfunc import independence_probe, max_deviation, unit_disk_points
from kohnspec.invariant import (
    base_dim_table,
    dim_invariant_bruteforce,
    dim_invariant_dp,
    dim_invariant_recurrence,
)
from kohnspec.isospectral import (
    c_matrix,
    classify_all,
    condition4_witness,
    span_dimension,
    t_inverse,
)
from kohnspec.spectrum import lens_counting, multiplicity_table
from kohnspec.sphere import sphere_counting


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def units_of(k):
    return [a for a in range(1, k) if math.gcd(a, k) == 1] or [1]


def weight_tuples_up_to_symmetry(k, n):
    """Canonical representatives of weight tuples modulo scaling and permutation."""
    units = units_of(k)
    seen, reps = set(), []
    for tup in product(units, repeat=n):
        if tup in seen:
            continue
        orbit = {
            tuple((a * tup[s]) % k for s in sigma)
            for a in units
            for sigma in permutations(range(n))
        }
        reps.append(min(orbit))
        seen |= orbit
    return reps


GRID_MAX = 15


def _sweep_spaces():
    for n in (2, 3):
        for k in range(1, 13):
            for weights in weight_tuples_up_to_symmetry(k, n):
                yield make_lens_space(n, k, weights)


def test_criterion_1_oracle_equivalence():
    checked = 0
    for space in _sweep_spaces():
        for p in range(GRID_MAX + 1):
            for q in range(GRID_MAX + 1):
                oracle = dim_invariant_bruteforce(space, p, q)
                assert dim_invariant_dp(space, p, q) == oracle, (space, p, q)
                if space.n == 2:
                    assert dim_invariant_recurrence(space, p, q) == oracle, (space, p, q)
                checked += 1
    _report(1, True, f"bruteforce = dp (= recurrence for n=2) at {checked} grid points")


def test_criterion_2_structural_lemmas():
    symmetry = vanishing = shifts = 0
    for space in _sweep_spaces():
        for p in range(GRID_MAX + 1):
            for q in range(p, GRID_MAX + 1):
                assert dim_invariant_dp(space, p, q) == dim_invariant_dp(space, q, p)
                symmetry += 1
        if space.n != 2:
            continue
        d = math.gcd(space.k, space.weights[0] - space.weights[1])
        for p in range(GRID_MAX + 1):
            for q in range(GRID_MAX + 1):
                value = dim_invariant_dp(space, p, q)
                if (p - q) % d != 0:
                    assert value == 0, (space, p, q)
                    vanishing += 1
                else:
                    assert dim_invariant_dp(space, p + space.k, q) == value + d
                    assert dim_invariant_dp(space, p, q + space.k) == value + d
                    shifts += 1
    _report(
        2,
        True,
        f"symmetry x{symmetry}, vanishing x{vanishing}, shift law x{shifts}",
    )


def test_criterion_3_weyl_ratio():
    worst = 0.0
    for k, weights in [(2, [1, 1]), (3, [1, 1]), (3, [1, 2]), (5, [1, 2])]:
        space = make_lens_space(2, k, weights)
        errors = {}
        for lam in (200, 2000):
            ratio = Fraction(lens_counting(space, lam), sphere_counting(2, lam))
            errors[lam] = abs(ratio - Fraction(1, k))
        assert errors[2000] < Fraction(2, 100), (space, float(errors[2000]))
        assert errors[2000] < errors[200], space
        worst = max(worst, float(errors[2000]))
    _report(3, True, f"max |ratio - 1/k| at lambda=2000 is {worst:.2e} < 0.02, decaying")


def test_criterion_4_universal_constant():
    u2 = universal_constant(2)
    quad_error = abs(u2 - 1.0 / 48.0)
    assert quad_error < 1e-9, quad_error
    empirical, predicted = weyl_constant_experiment(make_lens_space(2, 1, [1, 1]), 4000)
    rel = abs(empirical - predicted) / predicted
    assert abs(predicted - u2 * 2 * math.pi**2) < 1e-12
    assert rel < 0.10, rel
    _report(4, True, f"|u_2 - 1/48| = {quad_error:.2e}; sphere count off by {rel:.2%}")


def test_criterion_5_bound_lemmas():
    checked = 0
    for n in (3, 4, 5):
        for N in range(31):
            for m in range(1, 7):
                for d in range(1, 7):
                    params = BoundParams(N=N, m=m, d=d, n=n)
                    assert check_lower_bound(params).holds, params
                    assert check_upper_bound(params).holds, params
                    checked += 1
    _report(5, True, f"both inequalities exact on all {checked} parameter tuples")


@pytest.fixture(scope="module")
def equivalence_sweep():
    """Per prime k: spaces, spectral tables to 500, and dimension fingerprints."""
    data = {}
    for k in (3, 5, 7, 11):
        spaces = [
            make_lens_space(2, k, list(pair))
            for pair in product(units_of(k), repeat=2)
        ]
        tables = [multiplicity_table(space, 500) for space in spaces]
        fingerprints = [
            (gcd_invariant(space), base_dim_table(space)) for space in spaces
        ]
        data[k] = (spaces, tables, fingerprints)
    return data


def test_criterion_6_equivalence_theorem(equivalence_sweep):
    pairs = 0
    for k, (spaces, tables, fingerprints) in equivalence_sweep.items():
        for i in range(len(spaces)):
            for j in range(i, len(spaces)):
                has_witness = condition4_witness(spaces[i], spaces[j]) is not None
                dims_agree = fingerprints[i] == fingerprints[j]
                spectra_agree = tables[i] == tables[j]
                assert has_witness == dims_agree == spectra_agree, (
                    spaces[i],
                    spaces[j],
                    has_witness,
                    dims_agree,
                    spectra_agree,
                )
                pairs += 1
    _report(6, True, f"witness <=> dims <=> spectra on {pairs} pairs, k in {{3,5,7,11}}")


def test_criterion_7_span_theorem():
    ranks = {}
    for k, lam_max in [(3, 200), (5, 600), (7, 1200)]:
        lambdas = range(2, lam_max + 1, 2)
        for lam in lambdas:
            shifted = t_inverse(c_matrix(k, lam).rows())
            assert shifted == [list(col) for col in zip(*shifted)], (k, lam)
        ranks[k] = span_dimension(k, lambdas)
        assert ranks[k] == k * (k + 1) // 2, (k, ranks[k])
    _report(7, True, f"ranks {ranks} equal k(k+1)/2; all shifted matrices symmetric")


def test_criterion_8_c_matrix_anchors():
    for k in (3, 5, 7):
        single = [[0] * k for _ in range(k)]
        single[0][0] = 1
        single[k - 1][1] += 1
        assert c_matrix(k, 2 * k).rows() == single, k
        double = [[0] * k for _ in range(k)]
        double[0][0] = 1
        double[k - 1][0] += 1
        double[k - 1][1] += 1
        assert c_matrix(k, 2 * k * k).rows() == double, k
    _report(8, True, "C^(2k) and C^(2k^2) match the displayed unit-matrix sums, k in {3,5,7}")


def test_criterion_9_generating_function():
    points = unit_disk_points(20, seed=12345)
    spaces = [make_lens_space(2, 1, [1, 1])]
    for k in range(2, 8):
        spaces.extend(make_lens_space(2, k, rep) for rep in classify_all(k))
    spaces.append(make_lens_space(3, 3, [1, 1, 2]))
    worst = max(max_deviation(space, points, 60) for space in spaces)
    assert worst < 1e-9, worst
    ranks = {k: independence_probe(k, unit_disk_points(k * (k + 1), seed=2024)) for k in (2, 3, 5)}
    assert ranks == {2: 3, 3: 6, 5: 15}, ranks
    _report(
        9,
        True,
        f"max |closed - series| = {worst:.2e} over {len(spaces)} spaces; ranks {ranks}",
    )


def test_criterion_10_d_invariant(equivalence_sweep):
    equal_pairs = 0
    for k, (spaces, tables, _) in equivalence_sweep.items():
        for i in range(len(spaces)):
            for j in range(i, len(spaces)):
                if tables[i] == tables[j]:
                    assert gcd_invariant(spaces[i]) == gcd_invariant(spaces[j]), (
                        spaces[i],
                        spaces[j],
                    )
                    equal_pairs += 1
    # an unequal-d pair must be separated by an explicit multiplicity
    first = make_lens_space(2, 5, [1, 1])
    second = make_lens_space(2, 5, [1, 2])
    assert gcd_invariant(first) != gcd_invariant(second)
    table_first = multiplicity_table(first, 100)
    table_second = multiplicity_table(second, 100)
    witness_lam = next(
        lam
        for lam in range(2, 101, 2)
        if table_first.get(lam, 0) != table_second.get(lam, 0)
    )
    _report(
        10,
        True,
        f"d equal on {equal_pairs} spectrally-equal pairs; "
        f"d=5 vs d=1 separated at lambda={witness_lam}",
    )
