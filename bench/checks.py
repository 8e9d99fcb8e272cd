"""Output checks for benchmark jobs.

Each job's stdout is checked in three independent ways:

- digests: for the committed seeds, the sha256 of every output recorded at
  the commit the benchmark was defined on (`digests.json`);
- per-job checks against references computed here, not by kohnspec: a
  closed-form congruence count of the n = 2 invariant dimensions, the
  hockey-stick closed form of the sphere counting function, the Weyl
  constant u_n by mpmath quadrature, direct divisor enumeration for the
  residue-count matrices, and the unit-multiple orbits of weight pairs;
- cross-job identities: N_L(lambda) must agree across `count`, `weyl` and
  `remainder` for the same space and cutoff, the dimension methods must
  agree on a cell, and a contributors table must agree with the CSV table
  of the same space.

`check_jobs` returns a map job index -> reason for every job whose output
failed a check.  Jobs that exited nonzero are not checked here.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from pathlib import Path

from jobs import in_orbit, is_prime, orbit, units

DIGESTS_PATH = Path(__file__).with_name("digests.json")
SPOT_CHECKS = 48  # eigenvalues spot-checked per spectrum table
ORACLE_LAMBDA = 3000  # n = 2 counts up to this cutoff are recomputed in full


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def job_key(argv) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}


# ---------------------------------------------------------------- references


def parse_lens(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, tail = text.partition(":")
    k = int(head)
    return k, tuple(int(w) % k if k > 1 else 0 for w in tail.split(","))


def n2_dim(k: int, weights, p: int, q: int) -> int:
    """Invariant dimension of a 3-d lens space by solving two congruences.

    dim = #{a in [0,p]: (l1-l2) a = -l2 (p-q)} + #{b in [0,q]: (l1-l2) b =
    l2 (p-q)} - [k | p-q], all mod k.  Each congruence has solutions iff
    g = gcd(l1-l2, k) divides p-q, and then they form one class mod k/g.
    """
    if k == 1:
        return p + q + 1
    l1, l2 = weights
    delta = (l1 - l2) % k
    g = gcd(delta, k)
    if (p - q) % g:
        return 0
    kk = k // g
    c = (-l2 * (p - q)) % k
    a0 = (c // g) * pow(delta // g, -1, kk) % kk if kk > 1 else 0
    b0 = -a0 % kk
    n_count = (p - a0) // kk + 1 if a0 <= p else 0
    m_count = (q - b0) // kk + 1 if b0 <= q else 0
    return n_count + m_count - (1 if (p - q) % k == 0 else 0)


def bidegrees(lam: int, n: int) -> list[tuple[int, int]]:
    """All (p, q) with 2q(p + n - 1) = lam."""
    half = lam // 2
    divisors = set()
    for d in range(1, isqrt(half) + 1):
        if half % d == 0:
            divisors.update((d, half // d))
    return sorted((half // q - (n - 1), q) for q in divisors if half // q >= n - 1)


def n2_count(k: int, weights, lam: int) -> int:
    half = lam // 2
    return sum(
        n2_dim(k, weights, p, q)
        for p in range(half)
        for q in range(1, half // (p + 1) + 1)
    )


def sphere_count(n: int, lam: int) -> int:
    """N(lam) on S^(2n-1) with the q-sum done by hockey-stick identities.

    For fixed p, sum_{q=1}^{Q} dim_hpq = C(p+n-2, n-2)/(n-1) *
    [(p+n-1)(C(Q+n-1, n-1) - 1) + (n-1) C(Q+n-1, n)].
    """
    half = lam // 2
    total = 0
    p = 0
    while p + n - 1 <= half:
        big_q = half // (p + n - 1)
        inner = (p + n - 1) * (comb(big_q + n - 1, n - 1) - 1) + (n - 1) * comb(
            big_q + n - 1, n
        )
        total += comb(p + n - 2, n - 2) * inner
        p += 1
    assert total % (n - 1) == 0
    return total // (n - 1)


@lru_cache(maxsize=None)
def weyl_constant(n: int) -> float:
    """u_n = (n-1)/(n (2 pi)^n n!) * integral of (x/sinh x)^n e^{-(n-2)x}."""
    import mpmath

    with mpmath.workdps(30):
        f = lambda x: (x / mpmath.sinh(x)) ** n * mpmath.exp(-(n - 2) * x)
        integral = mpmath.quad(f, [-mpmath.inf, -20, 0, 20, mpmath.inf])
        value = (n - 1) * integral / (n * (2 * mpmath.pi) ** n * mpmath.factorial(n))
        return float(value)


def sphere_volume(n: int) -> float:
    return 2.0 * math.pi**n / math.factorial(n - 1)


# ---------------------------------------------------------------- per job


def arg(argv, flag: str, default=None) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


class Checker:
    """Checks one job list's outputs; collects values for cross-job checks."""

    def __init__(self, jobs, outputs, digests=None):
        self.jobs = jobs
        self.outputs = outputs
        self.digests = load_digests() if digests is None else digests
        self.counts: dict[tuple[str, int], list[tuple[int, int]]] = {}
        self.dims: dict[tuple, list[tuple[int, int]]] = {}
        self.tables: dict[str, list[tuple[int, int, dict[int, int]]]] = {}
        self.remainders: list[tuple[int, str, list]] = []

    def note_count(self, i: int, lens: str, lam: int, value: int) -> None:
        self.counts.setdefault((lens, lam), []).append((i, value))

    def run(self) -> dict[int, str]:
        bad: dict[int, str] = {}
        for i, (argv, out) in enumerate(zip(self.jobs, self.outputs)):
            if out is None:
                continue
            try:
                expected = self.digests.get(job_key(argv))
                require(expected is None or sha(out) == expected,
                        "output differs from the recorded digest")
                getattr(self, "check_" + argv[0].replace("-", "_"))(i, argv, out)
            except CheckFailed as exc:
                bad[i] = str(exc)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                bad[i] = f"malformed output: {exc!r}"
        for i, reason in self.cross_checks():
            bad.setdefault(i, reason)
        return bad

    # Each check_<subcommand> raises CheckFailed on a wrong output.

    def check_count(self, i, argv, out):
        lens, lam = arg(argv, "--lens"), int(arg(argv, "--lambda-max"))
        value = int(out)
        require(value >= 0, "negative count")
        k, weights = parse_lens(lens)
        if k == 1:
            require(value == sphere_count(len(weights), lam),
                    "sphere count differs from the closed form")
        elif len(weights) == 2 and lam <= ORACLE_LAMBDA:
            require(value == n2_count(k, weights, lam),
                    "count differs from the congruence oracle")
        self.note_count(i, lens, lam, value)

    def check_weyl(self, i, argv, out):
        lens = arg(argv, "--lens")
        lam_max, stride = int(arg(argv, "--lambda-max")), int(arg(argv, "--stride"))
        k, weights = parse_lens(lens)
        n = len(weights)
        rows = json.loads(out)
        require([r["lambda"] for r in rows] == list(range(stride, lam_max + 1, stride)),
                "sample grid differs from the request")
        last = 0
        for r in rows:
            lam, n_lens, n_sphere = r["lambda"], r["n_lens"], r["n_sphere"]
            require(n_lens >= last, f"N_L decreases at lambda={lam}")
            last = n_lens
            require(n_sphere == sphere_count(n, lam),
                    f"n_sphere differs from the closed form at lambda={lam}")
            if k == 1:
                require(n_lens == n_sphere, f"k=1 count differs from sphere at {lam}")
            elif n == 2 and lam <= ORACLE_LAMBDA:
                require(n_lens == n2_count(k, weights, lam),
                        f"n_lens differs from the congruence oracle at {lam}")
            if n_sphere:
                ratio = Fraction(n_lens, n_sphere)
                require(r["ratio_exact"] == str(ratio), f"exact ratio wrong at {lam}")
                require(close(r["ratio"], float(ratio), 1e-11), f"ratio wrong at {lam}")
            self.note_count(i, lens, lam, n_lens)

    def check_remainder(self, i, argv, out):
        lens = arg(argv, "--lens")
        lam_max, samples = int(arg(argv, "--lambda-max")), int(arg(argv, "--samples"))
        lines = out.strip().split("\n")
        require(lines[0] == "lambda,residual,residual_per_lambda_nm1,"
                "residual_per_lambda_nm1_log", "bad header")
        rows = [line.split(",") for line in lines[1:]]
        stride = 2 * (lam_max // (2 * samples))
        require([int(r[0]) for r in rows] == [j * stride for j in range(1, samples + 1)],
                "sample grid differs from the request")
        n = len(parse_lens(lens)[1])
        for lam_s, residual_s, scaled_s, scaled_log_s in rows:
            lam, residual = int(lam_s), float(residual_s)
            scale = float(lam) ** (n - 1)
            require(close(float(scaled_s), residual / scale, 1e-10, 1e-300),
                    "scaled column inconsistent")
            require(close(float(scaled_log_s), residual / (scale * math.log(lam)),
                          1e-10, 1e-300), "scaled_log column inconsistent")
        self.remainders.append((i, lens, rows))

    def check_spectrum(self, i, argv, out):
        lens, lam_max = arg(argv, "--lens"), int(arg(argv, "--lambda-max"))
        k, weights = parse_lens(lens)
        n = len(weights)
        contributors = "--contributors" in argv
        if contributors:
            obj = json.loads(out)
            require(obj["lens"] == lens and obj["lambda_max"] == lam_max, "bad header")
            table = {}
            for e in obj["entries"]:
                lam = e["lambda"]
                cells = {(c["p"], c["q"]): c["dim"] for c in e["contributors"]}
                require(all(2 * q * (p + n - 1) == lam for p, q in cells),
                        f"contributor off eigenvalue {lam}")
                require(all(d > 0 for d in cells.values()), "zero contributor")
                require(sum(cells.values()) == e["multiplicity"],
                        f"multiplicity is not the contributor sum at {lam}")
                table[lam] = (e["multiplicity"], cells)
        else:
            lines = out.strip().split("\n")
            require(lines[0] == "lambda,multiplicity", "bad header")
            table = {}
            for line in lines[1:]:
                lam_s, mult_s = line.split(",")
                table[int(lam_s)] = (int(mult_s), None)
        lams = list(table)
        require(lams == sorted(lams) and all(
            lam % 2 == 0 and 0 < lam <= lam_max and table[lam][0] > 0 for lam in lams
        ), "eigenvalues not ascending, even, positive and within the cutoff")
        if n == 2:
            rng = random.Random(job_key(argv))
            for lam in rng.sample(range(2, lam_max + 1, 2), min(SPOT_CHECKS, lam_max // 2)):
                mult, cells = table.get(lam, (0, {}))
                dims = {
                    (p, q): d
                    for p, q in bidegrees(lam, 2)
                    if (d := n2_dim(k, weights, p, q)) > 0
                }
                require(mult == sum(dims.values()),
                        f"multiplicity differs from the congruence oracle at {lam}")
                require(cells is None or cells == dims,
                        f"contributors differ from the congruence oracle at {lam}")
        mults = {lam: m for lam, (m, _) in table.items()}
        self.tables.setdefault(lens, []).append((i, lam_max, mults))
        self.note_count(i, lens, lam_max, sum(mults.values()))

    def check_isospec(self, i, argv, out):
        specs = [argv[j + 1] for j, a in enumerate(argv) if a == "--lens"]
        (k, w1), (k2, w2) = parse_lens(specs[0]), parse_lens(specs[1])
        lam = int(arg(argv, "--lambda-max", "500"))
        obj = json.loads(out)
        witness, equal = obj["witness"], obj["spectra_equal"]
        isometric = k == k2 and len(w1) == len(w2) and len(w1) == 2 and in_orbit(
            k, w1, w2
        )
        if witness is not None:
            a, sigma = witness["a"], witness["sigma"]
            require(gcd(a, k) == 1 and all(
                w2[t] == (a * w1[s - 1]) % k for t, s in enumerate(sigma)
            ), "witness does not map the weights")
            require(equal, "isometric spaces reported with different spectra")
        if len(w1) == 2:
            require((witness is not None) == isometric, "witness search wrong")
            require(obj["d_equal"] == (gcd(k, w1[0] - w1[1]) == gcd(k, w2[0] - w2[1])),
                    "d invariant comparison wrong")
            # For prime k the truncated spectra decide isometry once the
            # cutoff reaches the base table; 4k^2 is that scale.
            if is_prime(k) and lam >= 4 * k * k:
                require(equal == isometric, "spectra equality disagrees with isometry")

    def check_classify(self, i, argv, out):
        k = int(arg(argv, "--k"))
        obj = json.loads(out)
        require(obj["k"] == k, "bad header")
        require(obj["spectral_equivalence_guaranteed"] == (k > 2 and is_prime(k)),
                "odd-prime flag wrong")
        seen = []
        for cls in obj["classes"]:
            rep = tuple(cls["representative"])
            members = [tuple(m) for m in cls["members"]]
            require(rep[0] == 1 and rep in members, "representative not normalized")
            require(set(members) == orbit(k, rep) and len(members) == len(set(members)),
                    f"class of {rep} is not its orbit")
            seen += members
        us = units(k)
        require(sorted(seen) == [(a, b) for a in us for b in us],
                "classes do not partition the unit pairs")

    def check_cmatrix(self, i, argv, out):
        k, lam = int(arg(argv, "--k")), int(arg(argv, "--lambda"))
        expected = [[0] * k for _ in range(k)]
        for p, q in bidegrees(lam, 2):
            expected[p % k][q % k] += 1
        require(json.loads(out) == expected, "matrix differs from divisor enumeration")

    def check_span(self, i, argv, out):
        k = int(arg(argv, "--k"))
        rank = int(out.strip().split("\n")[0])
        require(rank <= k * k, "rank above k^2")
        if is_prime(k):
            require(rank == k * (k + 1) // 2, "prime rank is not k(k+1)/2")

    def check_genfunc_check(self, i, argv, out):
        obj = json.loads(out)
        require(obj["lens"] == arg(argv, "--lens") and
                obj["points"] == int(arg(argv, "--points", "20")), "bad header")
        require(0 <= obj["max_deviation"] <= 1e-9, "deviation above 1e-9")

    def check_dim(self, i, argv, out):
        lens = arg(argv, "--lens")
        p, q = int(arg(argv, "--p")), int(arg(argv, "--q"))
        value = int(out)
        k, weights = parse_lens(lens)
        if len(weights) == 2:
            require(value == n2_dim(k, weights, p, q),
                    "dimension differs from the congruence oracle")
        self.dims.setdefault((lens, p, q), []).append((i, value))

    def check_bounds_check(self, i, argv, out):
        dims = arg(argv, "--dims", "3,4,5").split(",")
        grid = len(dims) * (int(arg(argv, "--n-max", "30")) + 1) * int(
            arg(argv, "--m-max", "6")
        ) * int(arg(argv, "--d-max", "6"))
        require(out == f"checked {grid} parameter tuples: all bounds hold\n",
                "tuple count does not match the grid")

    # ------------------------------------------------------------ cross-job

    def cross_checks(self):
        for group in list(self.counts.values()) + list(self.dims.values()):
            if len({v for _, v in group}) > 1:
                for i, _ in group:
                    yield i, "value disagrees with another job on the same input"
        for lens, tables in self.tables.items():
            for i, lam_a, a in tables:
                for _, lam_b, b in tables:
                    if lam_a < lam_b and a != {l: m for l, m in b.items() if l <= lam_a}:
                        yield i, f"spectrum table disagrees with a longer one of {lens}"
        for i, lens, rows in self.remainders:
            reason = self.remainder_reason(lens, rows)
            if reason:
                yield i, reason

    def remainder_reason(self, lens, rows):
        """(N_L - residual)/lam^n must match u_n vol/k, N_L from another job."""
        k, weights = parse_lens(lens)
        n = len(weights)
        predicted = weyl_constant(n) * sphere_volume(n) / k
        for lam_s, residual_s, _, _ in rows:
            lam = int(lam_s)
            exact = [v for _, v in self.counts.get((lens, lam), [])]
            if not exact:
                return f"no other job that passed its checks gives N_L at lambda={lam}"
            main = predicted * float(lam) ** n
            estimate = float(residual_s) + main
            if not close(estimate, exact[0], 1e-8, 1e-6 * abs(float(residual_s)) + 1.0):
                return f"residual inconsistent with N_L and u_n at lambda={lam}"
        return None


def check_jobs(jobs, outputs, digests=None) -> dict[int, str]:
    """Map job index -> reason for every output that fails a check.

    outputs[i] is the stdout of job i, or None for a job that failed to run.
    """
    return Checker(jobs, outputs, digests).run()
