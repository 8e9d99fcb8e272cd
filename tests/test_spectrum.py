import csv
import io
import json
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from kohnspec.core import InvalidEigenvalue, ResourceLimit, make_lens_space
from kohnspec.invariant import base_dim_table, dim_invariant_bruteforce
from kohnspec.isospectral import spectra_equal_up_to
from kohnspec.spectrum import (
    SpectrumTable,
    build_spectrum,
    lens_counting,
    multiplicity,
    multiplicity_table,
    spectrum_to_csv,
    spectrum_to_json,
    spectrum_to_json_obj,
    write_json,
)
from kohnspec.sphere import dim_hpq, sphere_counting

SPHERE3 = make_lens_space(2, 1, [1, 1])


def test_sphere_table_small():
    table = build_spectrum(SPHERE3, 4)
    assert table.multiplicities() == {2: 2, 4: 6}
    assert [(c.p, c.q) for c in table.contributors(4)] == [(0, 2), (1, 1)]


def test_empty_table_at_zero():
    assert build_spectrum(make_lens_space(2, 3, [1, 2]), 0).multiplicities() == {}


def test_every_sieve_rejects_a_negative_cutoff():
    space, other = make_lens_space(2, 5, [1, 2]), make_lens_space(2, 5, [1, 3])
    with pytest.raises(ValueError, match="nonnegative"):
        build_spectrum(space, -4)
    with pytest.raises(ValueError, match="nonnegative"):
        multiplicity_table(space, -4)
    with pytest.raises(ValueError, match="nonnegative"):
        spectra_equal_up_to(space, other, -4)


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


@st.composite
def spaces(draw):
    n = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(1, 12))
    units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
    return make_lens_space(n, k, draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(spaces(), st.integers(0, 60).map(lambda h: 2 * h), st.booleans())
@example(SPHERE3, 0, False)
@example(SPHERE3, 0, True)
@example(make_lens_space(2, 5, [1, 2]), 2, True)  # no eigenvalue 2: no entries
@example(make_lens_space(3, 5, [1, 2, 3]), 2, False)
@example(make_lens_space(3, 1, [1, 1, 1]), 40, True)
def test_streamed_json_is_the_json_module_layout(space, lambda_max, contributors):
    table = build_spectrum(space, lambda_max)
    out = io.StringIO()
    write_json(table, out, contributors)
    assert out.getvalue() == json.dumps(spectrum_to_json_obj(table, contributors), indent=2)


def test_provenance_fills_no_base_table():
    # A k x k base table at k = 10007 would hold 1e8 entries.
    space = make_lens_space(2, 10007, [1, 2])
    table = SpectrumTable(space, 0, {})
    before = base_dim_table.cache_info().currsize
    assert table.contributors(2) == [] and multiplicity(space, 2) == 0
    cells = table.contributors(20014)
    assert [(c.p, c.q) for c in cells] == [(0, 10007), (10006, 1)]
    assert [c.dim for c in cells] == [
        dim_invariant_bruteforce(space, c.p, c.q) for c in cells
    ] == [2, 1]
    assert multiplicity(space, 20014) == 3
    assert base_dim_table.cache_info().currsize == before


def test_provenance_binds_the_dimension_once_per_table(monkeypatch):
    from kohnspec import spectrum

    calls = []
    bind = spectrum.dim_cell
    monkeypatch.setattr(spectrum, "dim_cell", lambda space: calls.append(space) or bind(space))
    table = build_spectrum(make_lens_space(2, 9, [1, 8]), 400)
    assert len(spectrum_to_json(table, contributors=True)) > 0
    assert len(calls) == 1 and len(table.by_eigenvalue) > 100
