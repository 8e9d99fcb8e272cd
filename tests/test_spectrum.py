import csv
import io
import json
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kohnspec.core import DEFAULT_BUDGET, InvalidEigenvalue, ResourceLimit, make_lens_space
from kohnspec.invariant import _profile_work, base_dim_table, dim_invariant_bruteforce
from kohnspec.isospectral import spectra_equal_up_to
from kohnspec.spectrum import (
    SpectrumTable,
    build_spectrum,
    lens_counting,
    multiplicity,
    multiplicity_table,
    spectrum_to_csv,
    write_json,
)
from kohnspec.sphere import dim_hpq, sphere_counting

SPHERE3 = make_lens_space(2, 1, [1, 1])


def spectrum_to_json_obj(table: SpectrumTable, contributors: bool = False):
    """The whole document `write_json` streams, as one JSON-serializable object."""
    rows = []
    for lam, m in table.by_eigenvalue.items():
        row = {"lambda": lam, "multiplicity": m}
        if contributors:
            row["contributors"] = [
                {"p": c.p, "q": c.q, "dim": c.dim} for c in table.contributors(lam)
            ]
        rows.append(row)
    return {"lens": str(table.space), "lambda_max": table.lambda_max, "entries": rows}


def spectrum_to_json(table: SpectrumTable, contributors: bool = False) -> str:
    """The text `write_json` writes."""
    buffer = io.StringIO()
    write_json(table, buffer, contributors)
    return buffer.getvalue()


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



@st.composite
def higher_spaces(draw):
    n = draw(st.sampled_from((3, 4)))
    k = draw(st.integers(1, 20))
    units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
    return make_lens_space(n, k, draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))


@pytest.mark.usefixtures("cold_caches")
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(higher_spaces(), st.integers(0, 1000).map(lambda h: 2 * h))
@example(make_lens_space(3, 12, [1, 5, 7]), 2000)  # g = 2
@example(make_lens_space(3, 7, [1, 1, 1]), 2000)  # g = 7
@example(make_lens_space(4, 20, [1, 3, 7, 9]), 2000)
def test_n3_sieve_price_covers_its_dot_products(monkeypatch, space, lambda_max):
    from kohnspec import invariant, spectrum

    dots, dot = [], invariant._dot
    monkeypatch.setattr(invariant, "_dot", lambda a, b: dots.append(1) or dot(a, b))
    spectrum._sieve(space, lambda_max)
    half = lambda_max // 2
    dot_work = spectrum._kernel(space).sieve_work(half) - _profile_work(space, half + 1)
    assert space.k * len(dots) <= dot_work <= 2 * space.k * len(dots)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(2, 5), st.integers(1, 12))
@example(200, 2, 3)
@example(3000, 5, 12)
def test_cells_are_the_cells_the_sieve_lists(half, n, g):
    from kohnspec import spectrum

    cells = spectrum._cells(half, n, g)
    assert cells == sum(len(ms) for _, _, ms, _ in spectrum._line_cells(half, n, g))
    assert cells == sum(1 for q in range(1, half + 1) for p in range(half // q - n + 2)
                        if (p - q) % g == 0)
    assert spectrum.counting_grid_size(n, 2 * half) == spectrum._cells(half, n, 1)


@pytest.mark.parametrize("k, weights, d", [(12, [1, 7], 6), (8, [1, 3], 2), (9, [1, 4], 3),
                                           (3, [1, 1], 3), (7, [1, 2], 1)])
def test_n2_sieve_price_is_its_sliced_cells_and_base_table(k, weights, d):
    from kohnspec import spectrum

    space = make_lens_space(2, k, weights)
    for half in (0, 1, 200, 20000):
        cells = sum(len(ms) for _, _, ms, _ in spectrum._line_cells(half, 2, d))
        assert spectrum._kernel(space).sieve_work(half) == cells + k * k


def test_csv_round_trip():
    space = make_lens_space(2, 3, [1, 2])
    table = build_spectrum(space, 30)
    rows = list(csv.DictReader(io.StringIO(spectrum_to_csv(table))))
    assert {int(r["lambda"]): int(r["multiplicity"]) for r in rows} == (
        table.multiplicities()
    )


@pytest.mark.parametrize("space, lam, entries", [
    (make_lens_space(2, 3, [1, 2]), 1, 0),  # no eigenvalue: the header alone
    (SPHERE3, 2, 1),
    (make_lens_space(2, 30, [1, 7]), 3000, None),  # d = 6
    (SPHERE3, 30000, 15000),  # every even eigenvalue has a cell on the sphere
])
def test_csv_is_the_per_entry_join(space, lam, entries):
    table = build_spectrum(space, lam)
    if entries is not None:
        assert len(table.by_eigenvalue) == entries
    expected = "lambda,multiplicity\n" + "".join(
        f"{lam},{m}\n" for lam, m in table.by_eigenvalue.items())
    assert spectrum_to_csv(table) == expected


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


@st.composite
def provenance_tables(draw):
    """A table whose cutoff is 0, 2, beside a block boundary of the writer, or below one."""
    from kohnspec.spectrum import _BLOCK

    n = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(1, 12 if n < 4 else 5))
    units = [u for u in range(1, k + 1) if gcd(u, k) == 1]
    space = make_lens_space(n, k, draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
    edge = 2 * _BLOCK * draw(st.integers(1, 3 if n == 2 else 1))
    lam = draw(st.one_of(st.sampled_from((0, 2, edge - 2, edge, edge + 2)),
                         st.integers(0, edge // 2).map(lambda h: 2 * h)))
    return build_spectrum(space, lam)


@settings(max_examples=60, deadline=None)
@given(provenance_tables())
@example(build_spectrum(SPHERE3, 514))
@example(build_spectrum(make_lens_space(2, 12, [1, 7]), 510))  # d = 6
@example(build_spectrum(make_lens_space(2, 12, [1, 7]), 512))
@example(build_spectrum(make_lens_space(2, 12, [1, 7]), 1150))  # isqrt(half) = 23 = 2k - 1
@example(build_spectrum(make_lens_space(2, 12, [1, 7]), 1152))  # isqrt(half) = 24 = 2k
@example(build_spectrum(make_lens_space(2, 12, [1, 7]), 60))  # residues 6-11 have no line
@example(build_spectrum(make_lens_space(3, 1, [1, 1, 1]), 2))
@example(build_spectrum(make_lens_space(3, 7, [1, 2, 4]), 514))
@example(build_spectrum(make_lens_space(4, 5, [1, 2, 3, 4]), 512))
@example(build_spectrum(make_lens_space(4, 3, [1, 1, 2, 2]), 0))
def test_provenance_is_the_per_eigenvalue_oracle(table):
    # The oracle lists each eigenvalue's divisors of lam/2 and calls dim per bidegree.
    expected = json.dumps(spectrum_to_json_obj(table, True), indent=2)
    assert spectrum_to_json(table, contributors=True) == expected


class _ByteCount:
    """A sink that keeps only the number of characters written."""

    size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def test_contributors_json_streams_one_entry_at_a_time():
    from kohnspec import clear_caches

    # 7,450 eigenvalues and 68k cells: a 6.06 MB document.  The writer
    # holds the kernel's line templates (35.6k entries, 290 KiB), one
    # entry's string and one block's cells: 743 KiB at peak, with the
    # entry templates.  One string per block of it peaked at 0.9-1.3 MiB.
    table = build_spectrum(make_lens_space(2, 25, [8, 24]), 14912)
    clear_caches()  # The entry templates are built, and counted, in the trace.
    out = _ByteCount()
    tracemalloc.start()
    try:
        write_json(table, out, contributors=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == 6_063_186
    assert peak < 3 * 2**18


def test_clear_caches_drops_the_entry_templates(monkeypatch):
    from kohnspec import clear_caches, spectrum

    write_json(build_spectrum(SPHERE3, 20), _ByteCount(), contributors=True)
    assert spectrum._entry.cache_info().currsize > 0
    # The count memo too: a count after clearing is computed again.
    count = lens_counting(SPHERE3, 20)
    kernel, calls = spectrum._kernel, []

    def recorded(space):
        built = kernel(space)
        return built._replace(prefix=lambda: calls.append(space) or built.prefix())

    monkeypatch.setattr(spectrum, "_kernel", recorded)
    assert lens_counting(SPHERE3, 20) == count and calls == []
    assert spectrum._count_memo.cache_info().currsize > 0
    clear_caches()
    assert spectrum._entry.cache_info().currsize == 0
    assert spectrum._count_memo.cache_info().currsize == 0
    assert lens_counting(SPHERE3, 20) == count and calls == [SPHERE3]


def test_provenance_fills_no_base_table():
    # A k x k base table at k = 10007 would hold 1e8 entries.
    space = make_lens_space(2, 10007, [1, 2])
    table = SpectrumTable(space, 0, {})
    before = base_dim_table.cache_info().misses
    assert table.contributors(2) == [] and multiplicity(space, 2) == 0
    cells = table.contributors(20014)
    assert [(c.p, c.q) for c in cells] == [(0, 10007), (10006, 1)]
    assert [c.dim for c in cells] == [
        dim_invariant_bruteforce(space, c.p, c.q) for c in cells
    ] == [2, 1]
    assert multiplicity(space, 20014) == 3
    assert base_dim_table.cache_info().misses == before


def test_one_eigenvalue_is_charged_its_trial_divisions():
    # isqrt(lam/2) trial divisions against the default budget, as `c_matrix`:
    # 1e8 at lam = 2e16 is refused at once, 1e7 at 2e14 is admitted.
    space = make_lens_space(2, 5, [1, 2])
    start = time.perf_counter()
    for refused in (lambda: multiplicity(space, 2 * 10**16),
                    lambda: SpectrumTable(space, 0, {}).contributors(2 * 10**16)):
        with pytest.raises(ResourceLimit, match=f"work {10**8} exceeds budget {DEFAULT_BUDGET}$"):
            refused()
    assert time.perf_counter() - start < 0.1
    assert multiplicity(space, 2 * 10**14) == 99_996_948_238_911


def _forbidden(*args):
    raise AssertionError("the n = 2 provenance walk must not call this")


def test_provenance_for_n2_calls_no_dim_and_enumerates_no_divisors(monkeypatch):
    from kohnspec import spectrum

    # Three blocks of halves each; d = 1 and d = 6.
    spaces = make_lens_space(2, 9, [1, 8]), make_lens_space(2, 12, [1, 7])
    tables = [build_spectrum(space, 4 * spectrum._BLOCK + 200) for space in spaces]
    expected = [json.dumps(spectrum_to_json_obj(table, True), indent=2) for table in tables]
    monkeypatch.setattr(spectrum, "dim_cell", _forbidden)
    monkeypatch.setattr(spectrum, "_bidegrees_for", _forbidden)
    assert [spectrum_to_json(table, contributors=True) for table in tables] == expected


def test_provenance_for_n3_calls_dim_only_where_g_divides_p_minus_q(monkeypatch):
    from kohnspec import spectrum

    # g = gcd(12, 4, 6) = 2: of the 2,068 cells under the cutoff, the
    # walk evaluates the 1,036 with p = q mod 2, and no others.
    table = build_spectrum(make_lens_space(3, 12, [1, 5, 7]), 800)
    expected = json.dumps(spectrum_to_json_obj(table, True), indent=2)
    calls, dim_cell = [], spectrum.dim_cell

    def counted(space):
        cell = dim_cell(space)
        return lambda p, q: calls.append((p, q)) or cell(p, q)

    monkeypatch.setattr(spectrum, "dim_cell", counted)
    assert spectrum_to_json(table, contributors=True) == expected
    assert all((p - q) % 2 == 0 for p, q in calls)
    assert len(calls) == 1036
