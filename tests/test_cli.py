import argparse
import csv
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kohnspec import isospectral, spectrum
from kohnspec.cli import build_parser, main
from kohnspec.core import DEFAULT_BUDGET, parse_lens_spec
from kohnspec.invariant import dim_invariant_dp
from test_spectrum import spectrum_to_json_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_subcommand(capsys):
    code, out, _ = run(capsys, "dim", "--lens", "3:1,2", "--p", "1", "--q", "1")
    assert code == 0
    assert out.strip() == "1"


def test_dim_methods_agree(capsys):
    results = set()
    for method in ("auto", "dp", "recurrence", "bruteforce"):
        code, out, _ = run(
            capsys, "dim", "--lens", "5:1,2", "--p", "7", "--q", "3", "--method", method
        )
        assert code == 0
        results.add(out.strip())
    assert len(results) == 1


def test_cmatrix_subcommand(capsys):
    code, out, _ = run(capsys, "cmatrix", "--k", "3", "--lambda", "6")
    assert code == 0
    assert json.loads(out) == [[1, 0, 0], [0, 0, 0], [0, 1, 0]]


def test_count_subcommand(capsys):
    code, out, _ = run(capsys, "count", "--lens", "1:1,1", "--lambda-max", "4")
    assert code == 0
    assert out.strip() == "8"


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--lens", "1:1,1", "--lambda-max", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["lambda"], r["multiplicity"]) for r in rows] == [("2", "2"), ("4", "6")]


def test_spectrum_contributors_json(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "--lens",
        "3:1,2",
        "--lambda-max",
        "20",
        "--contributors",
    )
    assert code == 0
    payload = json.loads(out)
    for entry in payload["entries"]:
        assert entry["multiplicity"] == sum(c["dim"] for c in entry["contributors"])


@pytest.mark.parametrize("flag", ["--out=json", "--contributors"])
def test_spectrum_json_is_the_json_module_layout(capsys, flag):
    code, out, _ = run(capsys, "spectrum", "--lens", "7:1,3", "--lambda-max", "60", flag)
    table = spectrum.build_spectrum(parse_lens_spec("7:1,3"), 60)
    obj = spectrum_to_json_obj(table, contributors=flag == "--contributors")
    assert code == 0 and out == json.dumps(obj, indent=2) + "\n"


def test_weyl_csv(capsys):
    code, out, _ = run(
        capsys, "weyl", "--lens", "2:1,1", "--lambda-max", "200", "--stride", "100"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,ratio"
    assert len(lines) == 3


def test_weyl_json_has_exact_ratio(capsys):
    code, out, _ = run(
        capsys,
        "weyl",
        "--lens",
        "1:1,1",
        "--lambda-max",
        "50",
        "--stride",
        "10",
        "--out",
        "json",
    )
    assert code == 0
    assert all(row["ratio_exact"] == "1" for row in json.loads(out))


@pytest.mark.parametrize("lens, lambda_max, stride", [
    ("1:1,1,1", 8, 2),  # N_S = 0 at lambda = 2: null ratios
    ("4:1,1,1,1", 12, 2),
    ("3:1,2", 4, 6),  # no sample
    ("7:1,3", 400, 40),
    ("31:1,3", 2000, 2),
])
def test_weyl_json_is_the_indent_2_dump(capsys, lens, lambda_max, stride):
    from kohnspec.asymptotics import weyl_ratio_series

    rows = [
        {
            "lambda": s.lam,
            "n_lens": s.n_lens,
            "n_sphere": s.n_sphere,
            "ratio": None if s.ratio is None else float(f"{s.ratio_float:.12g}"),
            "ratio_exact": None if s.ratio is None else str(s.ratio),
        }
        for s in weyl_ratio_series(parse_lens_spec(lens), lambda_max, stride)
    ]
    code, out, _ = run(capsys, "weyl", "--lens", lens, "--lambda-max", str(lambda_max),
                       "--stride", str(stride), "--out", "json")
    assert code == 0
    assert out == json.dumps(rows, indent=2) + "\n"


def test_bounds_check_exits_clean(capsys):
    code, out, _ = run(
        capsys, "bounds-check", "--n-max", "6", "--m-max", "3", "--d-max", "3"
    )
    assert code == 0
    assert "all bounds hold" in out


def test_bounds_check_walks_dims_then_N_m_d(capsys, monkeypatch):
    from kohnspec import asymptotics

    visited, lower = [], asymptotics.check_lower_bound
    monkeypatch.setattr(asymptotics, "check_lower_bound",
                        lambda params: visited.append(params) or lower(params))
    code, out, _ = run(capsys, "bounds-check", "--dims", "3,4", "--n-max", "1",
                       "--m-max", "2", "--d-max", "2")
    assert code == 0 and out == "checked 16 parameter tuples: all bounds hold\n"
    assert visited == [asymptotics.BoundParams(N=N, m=m, d=d, n=n)
                       for n in (3, 4) for N in range(2) for m in (1, 2) for d in (1, 2)]


def test_bounds_check_reports_the_first_violation(capsys, monkeypatch):
    from kohnspec import asymptotics

    failing = asymptotics.BoundCheck(lhs=1, rhs=0, holds=False)
    monkeypatch.setattr(asymptotics, "check_lower_bound", lambda params: failing)
    code, out, _ = run(capsys, "bounds-check")
    assert code == 3
    assert out == "violation: lower bound fails at N=0 m=1 d=1 n=3\n"

def test_isospec_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "isospec",
        "--lens",
        "5:1,2",
        "--lens",
        "5:1,3",
        "--lambda-max",
        "200",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == {"a": 3, "sigma": [2, 1]}
    assert payload["spectra_equal"] is True
    assert payload["d_equal"] is True


def test_isospec_distinct_spaces(capsys):
    code, out, _ = run(
        capsys, "isospec", "--lens", "5:1,1", "--lens", "5:1,2", "--lambda-max", "100"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] is None
    assert payload["spectra_equal"] is False
    assert payload["d_equal"] is False


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--k", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_equivalence_guaranteed"] is True
    assert [c["representative"] for c in payload["classes"]] == [[1, 1], [1, 2], [1, 4]]


def test_classify_composite_flagged(capsys):
    code, out, _ = run(capsys, "classify", "--k", "8")
    assert code == 0
    assert json.loads(out)["spectral_equivalence_guaranteed"] is False


def is_prime(k):
    """Trial division by every f <= sqrt(k): the oracle the CLI's prime test is held to."""
    return k > 1 and all(k % f for f in range(2, math.isqrt(k) + 1))


def test_the_cli_prime_test_agrees_with_trial_division():
    # classify and span call k prime when phi(k) = k - 1.
    assert all((isospectral._totient(k) == k - 1) == is_prime(k) for k in range(1, 10**4 + 1))


def classify_document(k):
    """The classify output as the json module lays it out, indent=2."""
    obj = {
        "k": k,
        "spectral_equivalence_guaranteed": k != 2 and is_prime(k),
        "classes": [
            {"representative": list(rep), "members": [list(m) for m in members]}
            for rep, members in isospectral.classify_all(k).items()
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def test_classify_is_the_json_module_layout(capsys):
    flags = set()
    for k in range(2, 61):
        code, out, _ = run(capsys, "classify", "--k", str(k))
        assert code == 0 and out == classify_document(k), k
        flags.add(json.loads(out)["spectral_equivalence_guaranteed"])
    assert flags == {True, False}


def test_classify_and_bounds_check_budget_flags(capsys, monkeypatch):
    code, out, err = run(capsys, "classify", "--k", "12", "--budget", "15")
    assert code == 2 and out == "" and "work 16 exceeds budget 15" in err
    code, out, _ = run(capsys, "classify", "--k", "12", "--budget", "16")
    assert code == 0 and out == classify_document(12)
    # 2 dims x 4 values of N x 2 x 3 tuples, each priced n_max + 2 = 5.
    argv = ["bounds-check", "--dims", "3,4", "--n-max", "3", "--m-max", "2", "--d-max", "3"]
    code, out, err = run(capsys, *argv, "--budget", "239")
    assert code == 2 and out == "" and "work 240 exceeds budget 239" in err
    monkeypatch.setenv("KOHN_LENS_BUDGET", "239")
    code, out, err = run(capsys, *argv)
    assert code == 2 and "work 240 exceeds budget 239" in err
    code, out, _ = run(capsys, *argv, "--budget", "240")
    assert code == 0 and out == "checked 48 parameter tuples: all bounds hold\n"
    # An empty m or d range would leave the N loop unpriced: refused instead.
    for flag in ("--m-max", "--d-max"):
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds-check", "--n-max", str(10**12), flag, "0"])
        assert exit_info.value.code == 2


def test_span_subcommand(capsys):
    code, out, _ = run(capsys, "span", "--k", "3", "--lambda-max", "200")
    assert code == 0
    assert out.strip() == "6"


def test_span_rejects_an_order_below_2(capsys):
    for k in ("0", "-7", "1"):
        code, out, err = run(capsys, "span", "--k", k, "--lambda-max", "0")
        assert code == 2 and out == ""
        assert f"group order must be >= 2, got {k}" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["classify", "--k", "1"], "group order must be >= 2, got 1", id="classify"),
    pytest.param(["dim", "--lens", "7:1,2,3", "--p", "1", "--q", "1", "--method", "recurrence"],
                 "dimension parameter must be 2, got 3", id="dim-recurrence"),
])
def test_refusals_print_the_rule_and_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, message", [
    pytest.param("6:2,3", "weight 2 is not coprime to k=6", id="not-coprime"),
    pytest.param("5:x", "malformed lens spec '5:x'", id="malformed"),
])
def test_a_rejected_lens_spec_exits_2_with_its_rule(capsys, spec, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["count", "--lens", spec, "--lambda-max", "10"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert f"argument --lens: {message}" in captured.err


def test_a_full_span_rank_runs_no_prime_test(capsys, monkeypatch):
    def untested(k):
        raise AssertionError(f"prime test run on k={k}")

    monkeypatch.setattr(isospectral, "_totient", untested)
    code, out, _ = run(capsys, "span", "--k", "3", "--lambda-max", "200")
    assert (code, out) == (0, "6\n")


def test_span_prices_its_prime_test_before_any_rank(capsys):
    # isqrt(10^16 + 61) = 10^8 trial divisions; the prime k is refused at once.
    start = time.perf_counter()
    code, out, err = run(capsys, "span", "--k", "10000000000000061", "--lambda-max", "2")
    assert time.perf_counter() - start < 0.1
    assert (code, out, err) == (2, "", "error: work 100000000 exceeds budget 10000000\n")


def test_span_flags_deficient_prime_rank(capsys):
    # only lambda = 2 available: rank 1 < 6
    code, out, err = run(capsys, "span", "--k", "3", "--lambda-max", "2")
    assert code == 3
    assert out.strip() == "1"
    assert "below predicted" in err


def test_genfunc_check_deterministic(capsys):
    args = (
        "genfunc-check",
        "--lens",
        "3:1,2",
        "--points",
        "5",
        "--cutoff",
        "40",
        "--seed",
        "7",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["max_deviation"] < 1e-9


def test_remainder_subcommand(capsys):
    code, out, _ = run(
        capsys, "remainder", "--lens", "1:1,1", "--lambda-max", "200", "--samples", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lambda,residual")
    assert len(lines) == 3


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "count", "--lens", "3:1,2", "--lambda-max", "-2")
    assert code == 2
    assert "error:" in err


def test_odd_lambda_rejected():
    # Odd or negative cutoffs, negative bidegrees and an empty point set
    # are refused by the parser.
    for argv in (
        ["spectrum", "--lens", "3:1,2", "--lambda-max", "7"],
        ["dim", "--lens", "3:1,2", "--p", "-1", "--q", "1"],
        ["dim", "--lens", "3:1,2", "--p", "1", "--q", "-1"],
        ["isospec", "--lens", "5:1,2", "--lens", "5:1,3", "--lambda-max", "-4"],
        ["weyl", "--lens", "3:1,2", "--lambda-max", "-4", "--stride", "2"],
        ["span", "--k", "3", "--lambda-max", "-4"],
        ["genfunc-check", "--lens", "3:1,2", "--points", "0"],
        ["genfunc-check", "--lens", "3:1,2", "--cutoff", "-1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("KOHN_LENS_BUDGET", "1")
    code, _, err = run(
        capsys, "dim", "--lens", "3:1,2", "--p", "6", "--q", "6", "--method", "bruteforce"
    )
    assert code == 2
    assert "budget" in err


def test_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("KOHN_LENS_BUDGET", "1")
    code, out, _ = run(
        capsys,
        "dim",
        "--lens",
        "3:1,2",
        "--p",
        "6",
        "--q",
        "6",
        "--method",
        "bruteforce",
        "--budget",
        "100000",
    )
    assert code == 0
    assert out.strip().isdigit()


@pytest.mark.usefixtures("cold_caches")
def test_count_budget_refuses_before_any_table(capsys):
    from kohnspec.invariant import _profile_rows

    code, out, err = run(
        capsys, "count", "--lens", "9:8,5,1", "--lambda-max", "20000000000"
    )
    assert code == 2 and out == ""
    assert "budget" in err
    assert _profile_rows.cache_info().currsize == 0


@pytest.mark.usefixtures("cold_caches")
def test_count_charges_the_base_table_fill_before_it(capsys, monkeypatch):
    from kohnspec import isospectral, spectrum

    calls, table = [], spectrum.base_dim_table
    monkeypatch.setattr(spectrum, "base_dim_table",
                        lambda *args: calls.append(args) or table(*args))
    code, out, err = run(capsys, "count", "--lens", "2237:1,2", "--lambda-max", "4")
    assert code == 2 and out == ""
    assert "budget" in err
    assert calls == []
    # The control: an admitted count fills the table through the same name.
    assert run(capsys, "count", "--lens", "7:1,2", "--lambda-max", "40")[0] == 0
    assert calls == [(parse_lens_spec("7:1,2"),)]
    # 2 k^2 (fill and prefix sums) plus 3 lines: k = 2236 is the largest
    # order counted under the default budget.
    below = spectrum._kernel(parse_lens_spec("2236:1,3")).count_work([2])
    assert below == 2 * 2236**2 + 3 <= DEFAULT_BUDGET


def test_spectrum_charges_the_base_table_fill_before_it(capsys, monkeypatch):
    from kohnspec import invariant, spectrum

    calls, table = [], invariant.base_dim_table
    # The sieve reaches the table through the name spectrum imports.
    for module in (invariant, spectrum):
        monkeypatch.setattr(module, "base_dim_table",
                            lambda *args: calls.append(args) or table(*args))
    argv = ["spectrum", "--lens", "4099:1,2", "--lambda-max", "4"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "budget" in err
    assert calls == []
    # The control: an admitted sieve fills the table through the same name.
    assert run(capsys, "spectrum", "--lens", "7:1,2", "--lambda-max", "40")[0] == 0
    assert calls == [(parse_lens_spec("7:1,2"),)]


def test_isospec_charges_both_sieves_before_either(capsys, monkeypatch):
    from kohnspec import isospectral, spectrum

    calls = []
    # What an n = 2 sieve builds first, and what any other one calls.
    for name in ("base_dim_table", "dim_cell"):
        monkeypatch.setattr(spectrum, name, lambda *args, route=getattr(spectrum, name):
                            calls.append((route.__name__, *args)) or route(*args))
    argv = ["isospec", "--lens", "7:1,2", "--lens", "7:1,3", "--lambda-max", "2000000"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "budget" in err
    assert calls == []
    # Each sieve alone walks more cells than the default budget allows.
    assert spectrum.counting_grid_size(2, 2_000_000) == 13_970_034
    monkeypatch.setenv("KOHN_LENS_BUDGET", "1")
    code, out, err = run(capsys, *argv[:-1], "100")
    assert code == 2 and out == "" and "budget" in err
    assert calls == []
    # The control: admitted sieves reach both routes through the same names.
    monkeypatch.delenv("KOHN_LENS_BUDGET")
    for lenses in (["7:1,2", "7:1,3"], ["7:1,2,3", "7:1,2,4"]):
        assert run(capsys, "isospec", "--lens", lenses[0], "--lens", lenses[1],
                   "--lambda-max", "100")[0] == 0
    assert calls == [("base_dim_table", parse_lens_spec("7:1,2")),
                     ("base_dim_table", parse_lens_spec("7:1,3")),
                     ("dim_cell", parse_lens_spec("7:1,2,3")),
                     ("dim_cell", parse_lens_spec("7:1,2,4"))]


def test_isospec_isometric_pair_is_not_charged_for_sieves(capsys):
    # Both sieves to 2e6 would cost 27,940,166; the witness settles the pair.
    argv = ["isospec", "--lens", "7:1,2", "--lens", "7:2,4", "--lambda-max", "2000000"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["spectra_equal"] is True


def test_isospec_searches_for_the_witness_once(capsys, monkeypatch):
    calls = []
    search = isospectral.condition4_witness
    monkeypatch.setattr(isospectral, "condition4_witness",
                        lambda *pair: calls.append(pair) or search(*pair))
    for other, witness in (("5:1,3", {"a": 3, "sigma": [2, 1]}), ("5:1,1", None)):
        calls.clear()
        code, out, _ = run(capsys, "isospec", "--lens", "5:1,2", "--lens", other)
        assert code == 0 and json.loads(out)["witness"] == witness
        assert len(calls) == 1


def test_isospec_budget_flag(capsys):
    argv = ["isospec", "--lens", "7:1,2", "--lens", "7:1,3", "--lambda-max", "100"]
    code, out, err = run(capsys, *argv, "--budget", "10")
    assert code == 2 and out == ""
    # Refused by the lower bound lambda_max // 2 per sieve, before the lines are summed.
    assert "work 100 exceeds budget 10" in err
    # Both sieves: their cells plus 7^2 each for the base tables.
    work = 2 * (spectrum.counting_grid_size(2, 100) + 49)
    code, out, err = run(capsys, *argv, "--budget", str(work - 1))
    assert code == 2 and f"work {work} exceeds budget {work - 1}" in err
    code, out, _ = run(capsys, *argv, "--budget", str(work))
    assert code == 0 and json.loads(out)["spectra_equal"] is False


def test_spectrum_at_d_above_one_is_charged_the_cells_it_slices(capsys):
    # L(12;1,7) has d = 6: its sieve slices the cells with 6 | p - q, 33,533
    # of the 201,177 under the hyperbola at lambda = 40000, plus 12^2.
    argv = ["spectrum", "--lens", "12:1,7", "--lambda-max", "40000"]
    code, out, err = run(capsys, *argv, "--budget", "33676")
    assert code == 2 and out == "" and "work 33677 exceeds budget 33676" in err
    code, out, err = run(capsys, *argv, "--budget", "33677")
    assert code == 0 and err == "" and out == run(capsys, *argv)[1]
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--lens", "12:1,7", "--lambda-max", "7825548")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "work 10000008 exceeds budget 10000000" in err


def test_dim_auto_builds_no_base_table(capsys, monkeypatch):
    from kohnspec import invariant

    calls = []
    monkeypatch.setattr(invariant, "base_dim_table", lambda *args: calls.append(args))
    start = time.perf_counter()
    code, out, _ = run(capsys, "dim", "--lens", "229:1,2", "--p", "1", "--q", "1")
    assert time.perf_counter() - start < 0.05
    assert code == 0 and calls == []
    assert int(out) == dim_invariant_dp(parse_lens_spec("229:1,2"), 1, 1)


def test_dim_recurrence_charges_the_base_table(capsys):
    argv = ["dim", "--lens", "229:1,2", "--p", "1", "--q", "1", "--method", "recurrence"]
    code, out, err = run(capsys, *argv, "--budget", str(229**2 - 1))
    assert code == 2 and out == ""
    assert "budget" in err
    code, out, _ = run(capsys, *argv, "--budget", str(229**2))
    assert code == 0 and out.strip() == "1"


def test_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as excinfo:
        main(["isospec", "--lens", "5:1,2"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "isospec", "--lens", "7:1,2", "--lens", "7:1,3")
    assert code == 0
    assert json.loads(out) == {"witness": None, "spectra_equal": False, "d_equal": True}


def test_subcommands_back_to_back_match_each_alone(capsys):
    jobs = [
        ["spectrum", "--lens", "5:1,2", "--lambda-max", "40", "--out", "json"],
        ["weyl", "--lens", "3:1,1", "--lambda-max", "200", "--stride", "50"],
    ]
    alone = []
    for argv in jobs:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [run(capsys, *argv) for argv in jobs] == alone


def test_count_reaches_large_cutoffs(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--lens", "19:13,2", "--lambda-max", "20000000")
    assert code == 0
    assert time.perf_counter() - start < 1.0
    # N_L(lam) ~ u_2 vol(S^3) / k * lam^2 = (1/48)(2 pi^2)/19 lam^2, with a
    # remainder of order lam log lam.
    predicted = 2 * math.pi**2 / (48 * 19) * 20000000**2
    assert abs(int(out) - predicted) / predicted < 1e-3


def test_remainder_budget_flag(capsys):
    argv = ["remainder", "--lens", "3:1,2", "--lambda-max", "2000", "--samples", "4"]
    code, _, err = run(capsys, *argv, "--budget", "100")
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, *argv, "--budget", "100000")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_remainder_refusal_runs_no_quadrature(capsys, monkeypatch):
    from kohnspec import asymptotics, clear_caches

    quad, calls = asymptotics._adaptive_simpson, []
    monkeypatch.setattr(asymptotics, "_adaptive_simpson",
                        lambda *args: calls.append(args) or quad(*args))
    clear_caches()
    # n = 9 raises NonConvergence once its quadrature runs; n = 8 reads the table.
    for weights in ("1,1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1"):
        code, out, err = run(capsys, "remainder", "--lens", "2:" + weights, "--lambda-max", "24",
                             "--samples", "1", "--budget", "1")
        assert (code, out) == (2, "")
        assert "work 3 exceeds budget 1" in err
    assert calls == []


def test_remainder_refuses_a_weyl_integrand_past_a_float(capsys):
    # From n = 176 the integrand's exponential overflows at x = -50.
    code, out, err = run(capsys, "remainder", "--lens", "2:" + ",".join(["1"] * 180),
                         "--lambda-max", "2", "--samples", "1")
    assert (code, out) == (2, "")
    assert "Weyl integrand overflows a float at n=180, x=-50.0" in err


def test_weyl_budget_flag(capsys):
    argv = ["weyl", "--lens", "3:1,2", "--lambda-max", "2000", "--stride", "500"]
    code, _, err = run(capsys, *argv, "--budget", "100")
    assert code == 2
    assert "budget" in err
    code, out, _ = run(capsys, *argv, "--budget", "100000")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_isospec_needs_two_spaces():
    with pytest.raises(SystemExit) as excinfo:
        main(["isospec", "--lens", "5:1,2"])
    assert excinfo.value.code == 2


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_process(*argv):
    """Run the CLI in a child process whose address space is capped at 512 MB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kohnspec.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=cap,
        timeout=20,
    )
    return proc, time.perf_counter() - start


def test_span_over_the_default_budget_exits_2_at_once():
    proc, elapsed = run_process("span", "--k", "211", "--lambda-max", "1000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0
    # 5e11 eigenvalues: refused without listing them all.
    proc, elapsed = run_process("span", "--k", "3", "--lambda-max", str(10**12))
    assert proc.returncode == 2 and "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0


def test_huge_spectrum_is_refused_and_huge_isospec_settled_at_once():
    # Each sieve's price is at least lambda_max // 2, charged before its lines are summed.
    proc, elapsed = run_process("spectrum", "--lens", "5:1,2", "--lambda-max", str(10**13))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0
    # A witness settles the pair before any sieve is priced.
    proc, elapsed = run_process("isospec", "--lens", "7:1,3", "--lens", "7:3,2",
                                "--lambda-max", str(10**13))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["spectra_equal"] is True and result["witness"] is not None
    assert elapsed < 1.0


def test_huge_weyl_and_remainder_sweeps_are_refused_before_listing_cutoffs():
    # Listing 10^8 cutoffs would exhaust the capped memory.
    for argv in (("weyl", "--lens", "5:1,2", "--lambda-max", "200000000", "--stride", "2"),
                 ("remainder", "--lens", "5:1,2", "--lambda-max", "200000000",
                  "--samples", "100000000")):
        proc, elapsed = run_process(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "exceeds budget 10000000" in proc.stderr
        assert elapsed < 1.0


def test_cmatrix_over_budget_allocates_nothing():
    # Without the charge, the k x k matrix would exhaust the capped memory.
    proc, elapsed = run_process("cmatrix", "--k", "100000", "--lambda", "2", "--budget", "1000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "work 10000000001 exceeds budget 1000" in proc.stderr
    assert elapsed < 1.0


def test_classify_and_bounds_check_over_the_default_budget_exit_2_at_once():
    proc, elapsed = run_process("classify", "--k", "1000003")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "work 1000004000004 exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0
    proc, elapsed = run_process("bounds-check", "--n-max", "100000", "--dims", "3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0


def test_isospec_witness_tries_n_units_at_most():
    # 10 weights: the old phi(k) n! scan visited 36M permutations.
    ramp, flat = "11:" + ",".join(map(str, range(1, 11))), "11:" + "1," * 9 + "2"
    proc, elapsed = run_process("isospec", "--lens", ramp, "--lens", flat, "--lambda-max", "4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["witness"] is None
    assert elapsed < 1.0
    # At k = 10000019 the witness is found at once; the sieve is then refused.
    proc, elapsed = run_process("isospec", "--lens", "10000019:1,2", "--lens", "10000019:1,3",
                                "--lambda-max", "4")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "kohnspec", "count", "--lens", "1:1,1",
                           "--lambda-max", "4"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8\n"  # Eigenvalue 2 twice and 4 six times on S^3.


def test_dim_and_genfunc_check_over_the_default_budget_exit_2_at_once():
    proc, elapsed = run_process("dim", "--lens", "10007:1,2,3", "--p", "100000", "--q", "100000",
                                "--method", "dp")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0
    proc, elapsed = run_process("genfunc-check", "--lens", "7:1,2", "--cutoff", "100000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0



def test_n3_spectrum_is_charged_for_its_dot_products(capsys):
    # 181,177 cells at 2 x 31 each, plus 20,001 profile rows at 3 (31 + 6).
    argv = ["spectrum", "--lens", "31:1,5,25", "--lambda-max", "40000"]
    proc, elapsed = run_process(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "work 13453085 exceeds budget 10000000" in proc.stderr
    assert elapsed < 1.0
    code, out, _ = run(capsys, *argv, "--budget", "13453085")
    top = spectrum.multiplicity(parse_lens_spec("31:1,5,25"), 40000)
    assert code == 0 and out.endswith(f"\n40000,{top}\n")

def test_dim_and_genfunc_check_charge_their_work(capsys, monkeypatch):
    # dp, and auto for n >= 3, price 3 (7 + 6) per profile row: 4 + 2 rows here.
    for method in ("dp", "auto"):
        argv = ["dim", "--lens", "7:1,2,3", "--p", "3", "--q", "1", "--method", method]
        code, out, err = run(capsys, *argv, "--budget", "233")
        assert code == 2 and out == "" and "work 234 exceeds budget 233" in err
        assert run(capsys, *argv, "--budget", "234")[:2] == (0, "3\n")
    # The n = 2 closed form builds no profile.
    code, out, _ = run(capsys, "dim", "--lens", "7:1,2", "--p", "3", "--q", "1",
                       "--budget", "0")
    assert (code, out) == (0, "0\n")
    # The grid's dot products of k entries: at g = 1 all 6 cells q >= p, at g = 2 the
    # 4 with g | q - p.  Its 3 profile rows at 3 (k + 6) each.  Per point, the series
    # over all (cutoff + 1)^2 cells and k n closed-form factors.
    for lens, work in (("7:1,2,3", 219), ("8:1,3,5", 224)):
        k = int(lens.split(":")[0])
        assert work == (6 if k == 7 else 4) * k + 3 * 3 * (k + 6) + 2 * (9 + k * 3)
        argv = ["genfunc-check", "--lens", lens, "--cutoff", "2", "--points", "2"]
        monkeypatch.setenv("KOHN_LENS_BUDGET", str(work - 1))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"work {work} exceeds budget {work - 1}" in err
        monkeypatch.setenv("KOHN_LENS_BUDGET", str(work))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["cutoff"] == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["weyl", "--lens", "5:1,2", "--lambda-max", str(10**20), "--stride", "2"],
                 id="weyl"),
    pytest.param(["remainder", "--lens", "5:1,2", "--lambda-max", str(10**30),
                  "--samples", str(10**20)], id="remainder"),
])
def test_sweeps_past_2_63_cutoffs_are_priced_not_listed(capsys, argv):
    # 3 * 10^20 work either way: 6 per cutoff of a sweep, 3 per sample.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: work 300000000000000000000 exceeds budget 10000000\n"


HUGE = str(10**30)
HUGE_REQUESTS = {
    "count": ["count", "--lens", "5:1,2", "--lambda-max", HUGE],
    "count-n3": ["count", "--lens", "7:1,2,3", "--lambda-max", HUGE],
    "spectrum": ["spectrum", "--lens", "5:1,2", "--lambda-max", HUGE],
    "weyl": ["weyl", "--lens", "5:1,2", "--lambda-max", HUGE, "--stride", "2"],
    "weyl-n3": ["weyl", "--lens", "7:1,2,3", "--lambda-max", HUGE, "--stride", str(10**20)],
    "isospec": ["isospec", "--lens", "5:1,2", "--lens", "5:1,3", "--lambda-max", HUGE],
    "isospec-n3": ["isospec", "--lens", "7:1,2,3", "--lens", "7:1,2,4", "--lambda-max", HUGE],
    "classify": ["classify", "--k", "10000000000000061"],
    "cmatrix-k": ["cmatrix", "--k", "10000000000000061", "--lambda", "2"],
    "cmatrix-lambda": ["cmatrix", "--k", "3", "--lambda", HUGE],
    "span-k": ["span", "--k", "10000000000000061", "--lambda-max", "2"],
    "span-lambda": ["span", "--k", "3", "--lambda-max", HUGE],
    "genfunc-cutoff": ["genfunc-check", "--lens", "5:1,2", "--cutoff", HUGE],
    "genfunc-points": ["genfunc-check", "--lens", "5:1,2", "--points", HUGE],
    "dim-n3": ["dim", "--lens", "7:1,2,3", "--p", HUGE, "--q", "1"],
    "bounds-check": ["bounds-check", "--n-max", HUGE],
    "remainder": ["remainder", "--lens", "5:1,2", "--lambda-max", HUGE, "--samples", str(10**20)],
    "remainder-one": ["remainder", "--lens", "5:1,2", "--lambda-max", HUGE, "--samples", "1"],
}


@pytest.mark.parametrize("argv", HUGE_REQUESTS.values(), ids=HUGE_REQUESTS.keys())
def test_every_subcommand_ends_at_once_on_a_huge_request(capsys, argv):
    # Answered or refused: never a traceback, never a loop over the huge number.
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2, 3)


def test_span_and_cmatrix_budget_flags(capsys):
    code, out, err = run(capsys, "span", "--k", "5", "--lambda-max", "150", "--budget", "10")
    assert code == 2 and out == "" and "exceeds budget 10" in err
    code, out, _ = run(capsys, "span", "--k", "5", "--lambda-max", "150")
    assert code == 0 and out == "15\n"
    code, out, err = run(capsys, "cmatrix", "--k", "3", "--lambda", "6", "--budget", "9")
    assert code == 2 and out == "" and "work 10 exceeds budget 9" in err


def test_building_the_parser_freezes_start_up_objects():
    build_parser.cache_clear()
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    build_parser()
    assert gc.get_freeze_count() > 0


def test_cli_import_leaves_numpy_out():
    code = "import sys, kohnspec.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=20,
    )
    assert proc.stdout == "False\n", proc.stderr


def test_cli_import_generates_no_dataclasses():
    # -S leaves out site, which may import either module itself.
    code = ("import sys, kohnspec.cli; kohnspec.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=20)
    assert proc.stdout == "[]\n", proc.stderr


# Per subcommand, each option string: (type, or choices, or action; required; default).
_LENS, _BUDGET = ("_lens", True, None), ("int", False, None)
_SURFACE = {
    "dim": {"--lens": _LENS, "--p": ("_nonnegative", True, None),
            "--q": ("_nonnegative", True, None),
            "--method": (("auto", "dp", "recurrence", "bruteforce"), False, "auto"),
            "--budget": _BUDGET},
    "spectrum": {"--lens": _LENS, "--lambda-max": ("_cutoff", True, None),
                 "--out": (("csv", "json"), False, "csv"),
                 "--contributors": ("store_true", False, False), "--budget": _BUDGET},
    "count": {"--lens": _LENS, "--lambda-max": ("_even", True, None), "--budget": _BUDGET},
    "weyl": {"--lens": _LENS, "--lambda-max": ("_cutoff", True, None),
             "--stride": ("_even", True, None), "--out": (("csv", "json"), False, "csv"),
             "--budget": _BUDGET},
    "bounds-check": {"--n-max": ("_nonnegative", False, 30), "--m-max": ("_positive", False, 6),
                     "--d-max": ("_positive", False, 6), "--dims": (None, False, "3,4,5"),
                     "--budget": _BUDGET},
    "isospec": {"--lens": ("append _lens", True, None), "--lambda-max": ("_cutoff", False, 500),
                "--budget": _BUDGET},
    "classify": {"--k": ("int", True, None), "--budget": _BUDGET},
    "cmatrix": {"--k": ("int", True, None), "--lambda": ("_cutoff", True, None),
                "--budget": _BUDGET},
    "span": {"--k": ("int", True, None), "--lambda-max": ("_cutoff", True, None),
             "--budget": _BUDGET},
    "genfunc-check": {"--lens": _LENS, "--points": ("_positive", False, 20),
                      "--cutoff": ("_nonnegative", False, 60), "--seed": ("int", False, 12345)},
    "remainder": {"--lens": _LENS, "--lambda-max": ("_cutoff", True, None),
                  "--samples": ("int", True, None), "--budget": _BUDGET},
}


def _describe(action):
    if action.nargs == 0:
        kind = "store_true"
    elif action.choices is not None:
        kind = tuple(action.choices)
    else:
        kind = getattr(action.type, "__name__", None)
        if isinstance(action, argparse._AppendAction):
            kind = f"append {kind}"
    return kind, action.required, action.default


def test_cli_surface_is_pinned(capsys):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(_SURFACE)
    for name, sub in subparsers.choices.items():
        surface = {action.option_strings[-1]: _describe(action) for action in sub._actions
                   if action.dest != "help"}
        assert surface == _SURFACE[name], name
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--help"])
        assert exit_info.value.code == 0 and capsys.readouterr().out.startswith("usage:")


# Per subcommand that takes --budget, a small job priced above 1.
_PRICED = {
    "dim": ["--lens", "7:1,2,3", "--p", "3", "--q", "1"],
    "spectrum": ["--lens", "5:1,2", "--lambda-max", "20"],
    "count": ["--lens", "5:1,2", "--lambda-max", "20"],
    "weyl": ["--lens", "5:1,2", "--lambda-max", "20", "--stride", "4"],
    "bounds-check": ["--dims", "3", "--n-max", "1", "--m-max", "1", "--d-max", "1"],
    "isospec": ["--lens", "7:1,2", "--lens", "7:1,3", "--lambda-max", "20"],
    "classify": ["--k", "12"],
    "cmatrix": ["--k", "3", "--lambda", "6"],
    "span": ["--k", "4", "--lambda-max", "20"],
    "remainder": ["--lens", "5:1,2", "--lambda-max", "20", "--samples", "2"],
}


@pytest.mark.parametrize("name", list(_PRICED))
def test_every_budget_flag_follows_one_rule(capsys, monkeypatch, name):
    argv = [name, *_PRICED[name]]
    monkeypatch.delenv("KOHN_LENS_BUDGET", raising=False)
    code, expected, _ = run(capsys, *argv)
    assert code == 0 and expected
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert (code, out) == (2, "") and "exceeds budget 1" in err
    monkeypatch.setenv("KOHN_LENS_BUDGET", "1")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "exceeds budget 1" in err
    assert run(capsys, *argv, "--budget", str(DEFAULT_BUDGET))[:2] == (0, expected)


# dim --method auto at n = 2 charges nothing, yet resolves the budget as well.
@pytest.mark.parametrize("argv", [[name, *job] for name, job in _PRICED.items()]
                         + [["genfunc-check", "--lens", "7:1,2", "--cutoff", "2"],
                            ["dim", "--lens", "5:1,2", "--p", "3", "--q", "2"]],
                         ids=[*_PRICED, "genfunc-check", "dim-auto-n2"])
def test_a_malformed_budget_variable_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("KOHN_LENS_BUDGET", "abc")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "KOHN_LENS_BUDGET must be an integer, got 'abc'" in err
