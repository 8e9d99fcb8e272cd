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
import functools
import gc
import json
import math
import os
import sys
from itertools import chain, product, repeat

from . import asymptotics, genfunc, isospectral, spectrum
from .core import DEFAULT_BUDGET, KohnSpecError, LensSpace, charge, parse_lens_spec
from .invariant import (
    _grid_work,
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
    """--budget, else KOHN_LENS_BUDGET, else the default: resolved once per run, in `main`."""
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
    routes = {"auto": dim_invariant, "dp": dim_invariant_dp,
              "recurrence": dim_invariant_recurrence, "bruteforce": dim_invariant_bruteforce}
    print(routes[args.method](args.lens, args.p, args.q, args.budget))
    return 0


def cmd_spectrum(args) -> int:
    table = spectrum.build_spectrum(args.lens, args.lambda_max, args.budget)
    if args.contributors or args.out == "json":
        spectrum.write_json(table, sys.stdout, contributors=args.contributors)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(spectrum.spectrum_to_csv(table))
    return 0


def cmd_count(args) -> int:
    print(spectrum.lens_counting(args.lens, args.lambda_max, args.budget))
    return 0


_RATIO = ('  {\n    "lambda": %d,\n    "n_lens": %d,\n    "n_sphere": %d,\n'
          '    "ratio": %s,\n    "ratio_exact": %s\n  }')


def cmd_weyl(args) -> int:
    samples = asymptotics.weyl_ratio_series(args.lens, args.lambda_max, args.stride,
                                            budget=args.budget)
    if args.out == "json":  # `json.dumps` of the rows with indent=2, as one `%`.
        values = chain.from_iterable(
            (s.lam, s.n_lens, s.n_sphere, "null", "null") if s.ratio is None
            else (s.lam, s.n_lens, s.n_sphere, repr(float(_fmt(s.ratio_float))), f'"{s.ratio}"')
            for s in samples
        )
        rows = ",\n".join(repeat(_RATIO, len(samples))) % tuple(values)
        sys.stdout.write("[\n%s\n]\n" % rows if samples else "[]\n")
    else:
        print("lambda,ratio")
        for s in samples:
            print(f"{s.lam},{_fmt(s.ratio_float)}")
    return 0


def cmd_bounds_check(args) -> int:
    dims = [int(part) for part in args.dims.split(",")]
    tuples = len(dims) * (args.n_max + 1) * args.m_max * args.d_max
    # A tuple sums at most n_max + 1 terms a side, plus its binomials.
    charge(tuples * (args.n_max + 2), args.budget)
    for n, N, m, d in product(dims, range(args.n_max + 1), range(1, args.m_max + 1),
                              range(1, args.d_max + 1)):
        params = asymptotics.BoundParams(N=N, m=m, d=d, n=n)
        lower = asymptotics.check_lower_bound(params)
        upper = asymptotics.check_upper_bound(params)
        if not (lower.holds and upper.holds):
            side = "lower" if not lower.holds else "upper"
            print(f"violation: {side} bound fails at N={N} m={m} d={d} n={n}")
            return 3
    print(f"checked {tuples} parameter tuples: all bounds hold")
    return 0


def cmd_isospec(args) -> int:
    first, second = args.lens
    found, equal = isospectral._compare_spectra(first, second, args.lambda_max, args.budget)
    d_equal = None
    if first.n == 2 and first.k == second.k:
        d_equal = isospectral.d_invariant_check(first, second)
    _emit_json(
        {
            "witness": None if found is None else found._asdict(),
            "spectra_equal": equal,
            "d_equal": d_equal,
        }
    )
    return 0


_CLASS = '    {\n      "representative": [\n        %d,\n        %d\n      ],\n      "members": [\n'
_MEMBER = "        [\n          %d,\n          %d\n        ]"


def cmd_classify(args) -> int:
    """Print `json.dumps` of the classes with indent=2, one class at a time."""
    classes = isospectral.classify_all(args.k, args.budget)
    guaranteed = args.k != 2 and _is_prime(args.k)
    out = sys.stdout
    out.write('{\n  "k": %d,\n  "spectral_equivalence_guaranteed": %s,\n  "classes": [\n'
              % (args.k, "true" if guaranteed else "false"))
    sep = ""
    for rep, members in classes.items():  # Never empty, nor is any class.
        template = ",\n".join(repeat(_MEMBER, len(members)))
        out.write(sep + _CLASS % rep + template % tuple(chain.from_iterable(members)))
        sep = "\n      ]\n    },\n"
    out.write("\n      ]\n    }\n  ]\n}\n")
    return 0


def cmd_cmatrix(args) -> int:
    matrix = isospectral.c_matrix(args.k, args.lam, args.budget)
    print(json.dumps(matrix.rows()))
    return 0


def cmd_span(args) -> int:
    rank = isospectral.span_dimension(args.k, range(2, args.lambda_max + 1, 2), args.budget)
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
    space, point = args.lens, (args.cutoff + 1) ** 2 + args.lens.k * args.lens.n
    # The grid, then per point the series over all cells and kn closed-form factors.
    charge(_grid_work(space, args.cutoff) + args.points * point, args.budget)
    points = genfunc.unit_disk_points(args.points, seed=args.seed)
    deviation = genfunc.max_deviation(space, points, args.cutoff)
    _emit_json({"lens": str(args.lens), "points": args.points, "cutoff": args.cutoff,
                "seed": args.seed, "max_deviation": float(_fmt(deviation))})
    return 0


def cmd_remainder(args) -> int:
    rows = asymptotics.remainder_experiment(args.lens, args.lambda_max, args.samples,
                                            budget=args.budget)
    print("lambda,residual,residual_per_lambda_nm1,residual_per_lambda_nm1_log")
    for row in rows:
        print(f"{row.lam},{_fmt(row.residual)},{_fmt(row.scaled)},{_fmt(row.scaled_log)}")
    return 0


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parser that holds one option, for subcommands to list among their parents."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state.

    An option that several subcommands share is declared once, as a parent.
    """
    parser = argparse.ArgumentParser(
        prog="kohnspec",
        description="Exact Kohn Laplacian spectra on odd spheres and lens spaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    lens = _parent("--lens", type=_lens, required=True, metavar="k:l1,l2,...")
    cutoff = _parent("--lambda-max", type=_cutoff, required=True)
    out = _parent("--out", choices=["csv", "json"], default="csv")
    order = _parent("--k", type=int, required=True)
    budget = _parent("--budget", type=int)

    def add(name, func, parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("dim", cmd_dim, [lens, budget], help="invariant eigenspace dimension at one bidegree")
    p.add_argument("--p", type=_nonnegative, required=True)
    p.add_argument("--q", type=_nonnegative, required=True)
    p.add_argument(
        "--method",
        choices=["auto", "dp", "recurrence", "bruteforce"],
        default="auto",
    )

    p = add("spectrum", cmd_spectrum, [lens, cutoff, out, budget],
            help="eigenvalue -> multiplicity table")
    p.add_argument("--contributors", action="store_true")

    p = add("count", cmd_count, [lens, budget], help="eigenvalue counting function N_L")
    # A negative cutoff is left to lens_counting, which rejects it (exit 2).
    p.add_argument("--lambda-max", type=_even, required=True)

    p = add("weyl", cmd_weyl, [lens, cutoff, out, budget],
            help="exact lens/sphere count-ratio sweep")
    p.add_argument("--stride", type=_even, required=True)

    p = add("bounds-check", cmd_bounds_check, [budget], help="validate the counting bounds grid")
    p.add_argument("--n-max", type=_nonnegative, default=30, help="largest N in the sweep")
    p.add_argument("--m-max", type=_positive, default=6)
    p.add_argument("--d-max", type=_positive, default=6)
    p.add_argument("--dims", default="3,4,5", help="comma list of dimension parameters")

    p = add("isospec", cmd_isospec, [budget], help="compare two lens spaces")
    p.add_argument(
        "--lens",
        type=_lens,
        action="append",
        required=True,
        help="given twice: the two spaces to compare",
    )
    p.add_argument("--lambda-max", type=_cutoff, default=500)

    add("classify", cmd_classify, [order, budget], help="isometry classes of weight pairs")

    p = add("cmatrix", cmd_cmatrix, [order, budget], help="residue-count matrix of one eigenvalue")
    p.add_argument("--lambda", dest="lam", type=_cutoff, required=True)

    add("span", cmd_span, [order, cutoff, budget], help="rank of the residue-count matrices")

    # No --budget: the work is bounded by KOHN_LENS_BUDGET alone.
    p = add("genfunc-check", cmd_genfunc_check, [lens], help="closed form vs series deviation")
    p.add_argument("--points", type=_positive, default=20)
    p.add_argument("--cutoff", type=_nonnegative, default=60)
    p.add_argument("--seed", type=int, default=12345)

    p = add("remainder", cmd_remainder, [lens, cutoff, budget], help="Weyl remainder-term table")
    p.add_argument("--samples", type=int, required=True)

    # What is alive now (modules, the parser) lives as long as the process;
    # frozen, it is left out of every later collection's scan.
    gc.freeze()
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "isospec" and len(args.lens) != 2:
        parser.error("isospec needs exactly two --lens arguments")
    try:
        args.budget = _resolve_budget(args)
        return args.func(args)
    except (KohnSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
