import csv
import io
import json

import pytest

from kohnspec.core import InvalidEigenvalue, ResourceLimit, make_lens_space
from kohnspec.invariant import dim_invariant_bruteforce
from kohnspec.spectrum import (
    build_spectrum,
    lens_counting,
    multiplicity,
    multiplicity_table,
    spectrum_to_csv,
    spectrum_to_json,
)
from kohnspec.sphere import dim_hpq, sphere_counting

SPHERE3 = make_lens_space(2, 1, [1, 1])


def test_sphere_table_small():
    table = build_spectrum(SPHERE3, 4)
    assert table.multiplicities() == {2: 2, 4: 6}
    assert [(c.p, c.q) for c in table.contributors(4)] == [(0, 2), (1, 1)]


def test_empty_table_at_zero():
    assert build_spectrum(make_lens_space(2, 3, [1, 2]), 0).multiplicities() == {}


def test_lens_table_cross_checked_against_enumeration():
    space = make_lens_space(2, 3, [1, 2])
    table = build_spectrum(space, 40)
    for lam in table.multiplicities():
        for c in table.contributors(lam):
            assert c.dim == dim_invariant_bruteforce(space, c.p, c.q) > 0
    assert table.total_count() == lens_counting(space, 40)


def test_multiplicity_examples():
    assert multiplicity(SPHERE3, 6) == dim_hpq(2, 2, 1) + dim_hpq(2, 0, 3) == 8
    assert multiplicity(make_lens_space(2, 5, [1, 2]), 2) == 0
    with pytest.raises(InvalidEigenvalue):
        multiplicity(SPHERE3, 7)
    with pytest.raises(InvalidEigenvalue):
        multiplicity(SPHERE3, 0)


def test_counting_examples():
    assert lens_counting(make_lens_space(2, 2, [1, 1]), 4) == 6
    assert lens_counting(make_lens_space(2, 3, [1, 2]), 0) == 0
    for lam in range(0, 60, 2):
        assert lens_counting(SPHERE3, lam) == sphere_counting(2, lam)


def test_counting_partitions_into_multiplicities():
    space = make_lens_space(2, 5, [1, 3])
    for lam in range(0, 80, 2):
        total = sum(multiplicity_table(space, lam).values())
        assert total == lens_counting(space, lam)


def test_lens_count_dominated_by_sphere_count():
    for k, weights in [(2, [1, 1]), (3, [1, 2]), (7, [2, 3])]:
        space = make_lens_space(2, k, weights)
        for lam in range(0, 100, 2):
            assert lens_counting(space, lam) <= sphere_counting(2, lam)


def test_trivial_group_reproduces_sphere_table():
    sphere5 = make_lens_space(3, 1, [1, 1, 1])
    table = build_spectrum(sphere5, 60)
    for lam, mult in table.multiplicities().items():
        assert mult == sum(
            dim_hpq(3, p, q)
            for p in range(lam)
            for q in range(1, lam + 1)
            if 2 * q * (p + 2) == lam
        )


def test_divisor_enumeration_complete():
    # Small-instance oracle: full rectangle scan of the eigenvalue relation.
    for n in (2, 3):
        space = make_lens_space(n, 4, [1] * n) if n == 3 else make_lens_space(2, 4, [1, 3])
        table = build_spectrum(space, 200)
        for lam in range(2, 201, 2):
            expected = {
                (p, q)
                for p in range(lam)
                for q in range(1, lam + 1)
                if 2 * q * (p + n - 1) == lam
            }
            got = {(c.p, c.q) for c in table.contributors(lam)}
            assert got <= expected
            missing = {
                pq
                for pq in expected - got
                if dim_invariant_bruteforce(space, *pq) > 0
            }
            assert not missing, (lam, missing)


def test_grid_budget():
    with pytest.raises(ResourceLimit):
        build_spectrum(make_lens_space(2, 3, [1, 2]), 2000, budget=50)


def test_csv_round_trip():
    space = make_lens_space(2, 3, [1, 2])
    table = build_spectrum(space, 30)
    rows = list(csv.DictReader(io.StringIO(spectrum_to_csv(table))))
    assert {int(r["lambda"]): int(r["multiplicity"]) for r in rows} == (
        table.multiplicities()
    )


def test_json_round_trip():
    space = make_lens_space(2, 5, [1, 2])
    table = build_spectrum(space, 30)
    payload = json.loads(spectrum_to_json(table, contributors=True))
    assert payload["lens"] == "5:1,2"
    assert payload["lambda_max"] == 30
    for row in payload["entries"]:
        assert row["multiplicity"] == sum(c["dim"] for c in row["contributors"])
