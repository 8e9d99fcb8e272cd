import csv
import io
import json

import pytest

from kohnspec.cli import main


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


def test_bounds_check_exits_clean(capsys):
    code, out, _ = run(
        capsys, "bounds-check", "--n-max", "6", "--m-max", "3", "--d-max", "3"
    )
    assert code == 0
    assert "all bounds hold" in out


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


def test_span_subcommand(capsys):
    code, out, _ = run(capsys, "span", "--k", "3", "--lambda-max", "200")
    assert code == 0
    assert out.strip() == "6"


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


def test_isospec_needs_two_spaces():
    with pytest.raises(SystemExit) as excinfo:
        main(["isospec", "--lens", "5:1,2"])
    assert excinfo.value.code == 2
