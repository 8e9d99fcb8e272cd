"""Command-line front end.

Subcommands map one-to-one onto the library: exact dimensions, spectrum
tables, eigenvalue counts, Weyl-ratio sweeps, bound-lemma validation,
isospectrality decisions, classification, residue-count matrices, span
ranks, generating-function checks, and the remainder experiment.

Exit codes: 0 success, 2 validation error, 3 a checked property failed
(bounds-check violation, or span rank below the predicted value for a
prime modulus).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import asymptotics, genfunc, isospectral, spectrum
from .core import DEFAULT_BUDGET, KohnSpecError, LensSpace, parse_lens_spec
from .invariant import (
    dim_invariant,
    dim_invariant_bruteforce,
    dim_invariant_dp,
    dim_invariant_recurrence,
)

BUDGET_ENV = "KOHN_LENS_BUDGET"


def _fmt(x: float) -> str:
    """Floats at 12 significant digits; integers verbatim."""
    return f"{x:.12g}"


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise KohnSpecError(f"{BUDGET_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_BUDGET


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % f for f in range(2, math.isqrt(k) + 1))


def _nonnegative(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"{number} is negative")
    return number


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"{number} is not positive")
    return number


def _even(value: str) -> int:
    lam = int(value)
    if lam % 2 != 0:
        raise argparse.ArgumentTypeError(f"{lam} is odd; eigenvalue cutoffs are even")
    return lam


def _cutoff(value: str) -> int:
    _nonnegative(value)
    return _even(value)


def _lens(value: str) -> LensSpace:
    try:
        return parse_lens_spec(value)
    except (KohnSpecError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit_json(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_dim(args) -> int:
    method = {
        "auto": dim_invariant,
        "dp": dim_invariant_dp,
        "recurrence": dim_invariant_recurrence,
    }.get(args.method)
    if method is not None:
        print(method(args.lens, args.p, args.q))
    else:
        print(dim_invariant_bruteforce(args.lens, args.p, args.q, _resolve_budget(args)))
    return 0


def cmd_spectrum(args) -> int:
    table = spectrum.build_spectrum(args.lens, args.lambda_max, _resolve_budget(args))
    if args.contributors or args.out == "json":
        _emit_json(spectrum.spectrum_to_json_obj(table, contributors=args.contributors))
    else:
        sys.stdout.write(spectrum.spectrum_to_csv(table))
    return 0


def cmd_count(args) -> int:
    print(spectrum.lens_counting(args.lens, args.lambda_max))
    return 0


def cmd_weyl(args) -> int:
    samples = asymptotics.weyl_ratio_series(
        args.lens, args.lambda_max, args.stride, budget=_resolve_budget(args)
    )
    if args.out == "json":
        _emit_json(
            [
                {
                    "lambda": s.lam,
                    "n_lens": s.n_lens,
                    "n_sphere": s.n_sphere,
                    "ratio": None if s.ratio is None else float(_fmt(s.ratio_float)),
                    "ratio_exact": None if s.ratio is None else str(s.ratio),
                }
                for s in samples
            ]
        )
    else:
        print("lambda,ratio")
        for s in samples:
            print(f"{s.lam},{_fmt(s.ratio_float)}")
    return 0


def cmd_bounds_check(args) -> int:
    dims = [int(part) for part in args.dims.split(",")]
    checked = 0
    for n in dims:
        for N in range(args.n_max + 1):
            for m in range(1, args.m_max + 1):
                for d in range(1, args.d_max + 1):
                    params = asymptotics.BoundParams(N=N, m=m, d=d, n=n)
                    lower = asymptotics.check_lower_bound(params)
                    upper = asymptotics.check_upper_bound(params)
                    checked += 1
                    if not (lower.holds and upper.holds):
                        side = "lower" if not lower.holds else "upper"
                        print(
                            f"violation: {side} bound fails at N={N} m={m} d={d} n={n}"
                        )
                        return 3
    print(f"checked {checked} parameter tuples: all bounds hold")
    return 0


def cmd_isospec(args) -> int:
    first, second = args.lens
    witness = None
    if first.k == second.k and first.n == second.n:
        found = isospectral.condition4_witness(first, second)
        if found is not None:
            witness = {"a": found.a, "sigma": list(found.sigma)}
    d_equal = None
    if first.n == 2 and second.n == 2 and first.k == second.k:
        d_equal = isospectral.d_invariant_check(first, second)
    _emit_json(
        {
            "witness": witness,
            "spectra_equal": isospectral.spectra_equal_up_to(
                first, second, args.lambda_max
            ),
            "d_equal": d_equal,
        }
    )
    return 0


def cmd_classify(args) -> int:
    classes = isospectral.classify_all(args.k)
    _emit_json(
        {
            "k": args.k,
            "spectral_equivalence_guaranteed": args.k != 2 and _is_prime(args.k),
            "classes": [
                {"representative": list(rep), "members": [list(m) for m in members]}
                for rep, members in classes.items()
            ],
        }
    )
    return 0


def cmd_cmatrix(args) -> int:
    print(json.dumps(isospectral.c_matrix(args.k, args.lam).rows()))
    return 0


def cmd_span(args) -> int:
    rank = isospectral.span_dimension(args.k, range(2, args.lambda_max + 1, 2))
    print(rank)
    k = args.k
    if _is_prime(k) and rank < k * (k + 1) // 2:
        print(
            f"span rank {rank} below predicted {k * (k + 1) // 2} for prime k={k}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_genfunc_check(args) -> int:
    points = genfunc.unit_disk_points(args.points, radius=0.5, seed=args.seed)
    deviation = genfunc.max_deviation(
        args.lens, points, p_max=args.cutoff, q_max=args.cutoff
    )
    _emit_json(
        {
            "lens": str(args.lens),
            "points": args.points,
            "cutoff": args.cutoff,
            "seed": args.seed,
            "max_deviation": float(_fmt(deviation)),
        }
    )
    return 0


def cmd_remainder(args) -> int:
    rows = asymptotics.remainder_experiment(args.lens, args.lambda_max, args.samples)
    print("lambda,residual,residual_per_lambda_nm1,residual_per_lambda_nm1_log")
    for row in rows:
        print(
            f"{row.lam},{_fmt(row.residual)},{_fmt(row.scaled)},{_fmt(row.scaled_log)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohnspec",
        description="Exact Kohn Laplacian spectra on odd spheres and lens spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("dim", cmd_dim, help="invariant eigenspace dimension at one bidegree")
    p.add_argument("--lens", type=_lens, required=True, metavar="k:l1,l2,...")
    p.add_argument("--p", type=_nonnegative, required=True)
    p.add_argument("--q", type=_nonnegative, required=True)
    p.add_argument(
        "--method",
        choices=["auto", "dp", "recurrence", "bruteforce"],
        default="auto",
    )
    p.add_argument("--budget", type=int)

    p = add("spectrum", cmd_spectrum, help="eigenvalue -> multiplicity table")
    p.add_argument("--lens", type=_lens, required=True)
    p.add_argument("--lambda-max", type=_cutoff, required=True)
    p.add_argument("--out", choices=["csv", "json"], default="csv")
    p.add_argument("--contributors", action="store_true")
    p.add_argument("--budget", type=int)

    p = add("count", cmd_count, help="eigenvalue counting function N_L")
    p.add_argument("--lens", type=_lens, required=True)
    # A negative cutoff is left to lens_counting, which rejects it (exit 2).
    p.add_argument("--lambda-max", type=_even, required=True)

    p = add("weyl", cmd_weyl, help="exact lens/sphere count-ratio sweep")
    p.add_argument("--lens", type=_lens, required=True)
    p.add_argument("--lambda-max", type=_cutoff, required=True)
    p.add_argument("--stride", type=_even, required=True)
    p.add_argument("--out", choices=["csv", "json"], default="csv")
    p.add_argument("--budget", type=int)

    p = add("bounds-check", cmd_bounds_check, help="validate the counting bounds grid")
    p.add_argument("--n-max", type=int, default=30, help="largest N in the sweep")
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--dims", default="3,4,5", help="comma list of dimension parameters")

    p = add("isospec", cmd_isospec, help="compare two lens spaces")
    p.add_argument(
        "--lens",
        type=_lens,
        action="append",
        required=True,
        help="given twice: the two spaces to compare",
    )
    p.add_argument("--lambda-max", type=_cutoff, default=500)

    p = add("classify", cmd_classify, help="isometry classes of weight pairs")
    p.add_argument("--k", type=int, required=True)

    p = add("cmatrix", cmd_cmatrix, help="residue-count matrix of one eigenvalue")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_cutoff, required=True)

    p = add("span", cmd_span, help="rank of the residue-count matrices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda-max", type=_cutoff, required=True)

    p = add("genfunc-check", cmd_genfunc_check, help="closed form vs series deviation")
    p.add_argument("--lens", type=_lens, required=True)
    p.add_argument("--points", type=_positive, default=20)
    p.add_argument("--cutoff", type=_nonnegative, default=60)
    p.add_argument("--seed", type=int, default=12345)

    p = add("remainder", cmd_remainder, help="Weyl remainder-term table")
    p.add_argument("--lens", type=_lens, required=True)
    p.add_argument("--lambda-max", type=_cutoff, required=True)
    p.add_argument("--samples", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "isospec" and len(args.lens) != 2:
        parser.error("isospec needs exactly two --lens arguments")
    try:
        return args.func(args)
    except (KohnSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
