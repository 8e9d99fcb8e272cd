"""Seeded job lists for the three benchmark workloads.

A job is the argv list of one `kohnspec` CLI call.  Every workload is a
function of its seed alone: the seed picks the spaces (group orders and
weights) and jitters the cutoffs by about 1%, while the amount of work
per job stays close to fixed, so different seeds cost about the same and
runs on different seeds can be compared.

`tiny=True` shrinks every cutoff for the self-tests; the job kinds and the
cross-job pairings stay the same.
"""
from __future__ import annotations

import hashlib
import json
import random
from itertools import permutations
from math import gcd

WORKLOADS = ("counting", "tables", "many-spaces")

SMALL_PRIMES = (5, 7, 11, 13)
# Odd orders in 7..29 whose d = 1 spaces fall in more than one isometry class.
ODD_PRIMES = (7, 11, 13, 17, 19, 23, 29)
ODD_COMPOSITES = (9, 15, 21, 25, 27)


def units(k: int) -> list[int]:
    return [a for a in range(1, k) if gcd(a, k) == 1] if k > 1 else [1]


def is_prime(k: int) -> bool:
    return k > 1 and all(k % f for f in range(2, int(k**0.5) + 1))


def phi(k: int) -> int:
    return len(units(k)) if k > 1 else 1


def spec(k: int, weights) -> str:
    return f"{k}:{','.join(str(w) for w in weights)}"


def even(x: float) -> int:
    return max(2, int(x) // 2 * 2)


class _Gen:
    """Random choices shared by the workload builders."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.rng = random.Random(f"kohnspec-bench/{workload}/{seed}")
        self.tiny = tiny

    def lam(self, full: float, tiny: float) -> int:
        """An even cutoff within 1% of `full` (or of `tiny` in tiny mode)."""
        base = tiny if self.tiny else full
        return even(base * self.rng.uniform(0.99, 1.01))

    def space(self, n: int, k: int) -> tuple[int, tuple[int, ...]]:
        return k, tuple(self.rng.choice(units(k)) for _ in range(n))

    def space_d1(self, k: int) -> tuple[int, tuple[int, int]]:
        """A 3-d lens space (odd k) with gcd(k, l1 - l2) = 1.

        The n = 2 dimension is zero off the cells with gcd(k, l1 - l2) | p - q,
        and the recurrence returns early there, so this gcd sets both the
        cost of a count and the size of a table; it is held at 1.
        """
        l1 = self.rng.choice(units(k))
        return k, (l1, self.rng.choice([l for l in units(k) if gcd(k, l1 - l) == 1]))

    def k_near(self, target: int, spread: int = 2, pred=lambda k: True) -> int:
        options = [
            k for k in range(max(2, target - spread), target + spread + 1) if pred(k)
        ]
        return self.rng.choice(options)


def sweep(space, lam_top: int, samples: int) -> list[list[str]]:
    """A weyl sweep, a remainder table on the same grid, and a count at the top.

    All three report N_L at lam_top (and weyl and remainder at every grid
    point), which the checks compare across jobs.
    """
    stride = lam_top // samples
    assert stride % 2 == 0 and stride * samples == lam_top
    lens = spec(*space)
    return [
        ["weyl", "--lens", lens, "--lambda-max", str(lam_top),
         "--stride", str(stride), "--out", "json"],
        ["remainder", "--lens", lens, "--lambda-max", str(lam_top),
         "--samples", str(samples)],
        ["count", "--lens", lens, "--lambda-max", str(lam_top)],
    ]


def grid_top(g: _Gen, full: float, tiny: float, samples: int) -> int:
    """A sweep cutoff near the target that is an even multiple of samples."""
    step = 2 * samples
    return max(step, round(g.lam(full, tiny) / step) * step)


def isometric_image(g: _Gen, space) -> tuple[int, tuple[int, ...]]:
    """A random unit multiple of the weights, possibly swapped."""
    k, (l1, l2) = space
    a = g.rng.choice(units(k))
    pair = ((a * l1) % k, (a * l2) % k)
    return k, pair if g.rng.random() < 0.5 else pair[::-1]


def orbit(k: int, pair) -> set[tuple[int, int]]:
    """All (a x, a y) and (a y, a x) mod k over units a: one isometry class."""
    return {((a * x) % k, (a * y) % k) for a in units(k) for x, y in (pair, pair[::-1])}


def in_orbit(k: int, pair, other) -> bool:
    return tuple(other) in orbit(k, pair)


def non_isometric_partner(g: _Gen, space):
    """A space of the same order, outside the orbit, with the same gcd(k, l1 - l2)."""
    k, pair = space
    d = gcd(k, pair[0] - pair[1])
    options = [
        (1, b) for b in units(k)
        if gcd(k, 1 - b) == d and not in_orbit(k, pair, (1, b))
    ]
    return k, g.rng.choice(options)


def isospec(a, b, lam: int) -> list[str]:
    return ["isospec", "--lens", spec(*a), "--lens", spec(*b),
            "--lambda-max", str(lam)]


def tail(g: _Gen) -> list[list[str]]:
    """One small job per layer, so that every layer runs in every workload.

    Together these cost about 2% of a pass; they keep each layer's
    traced time a measured number on every workload rather than a constant
    zero, and every cross-job check path in use.
    """
    small = g.space(2, g.rng.randint(3, 9))
    lens = spec(*small)
    k = small[0]
    return sweep(small, 400, 10) + [
        ["count", "--lens", "1:1,1", "--lambda-max", "400"],
        ["spectrum", "--lens", lens, "--lambda-max", "200"],
        ["spectrum", "--lens", lens, "--lambda-max", "100", "--contributors"],
        isospec(small, isometric_image(g, small), 100),
        ["classify", "--k", str(g.rng.randint(5, 12))],
        ["cmatrix", "--k", str(k), "--lambda", str(even(g.rng.randint(2, 400)))],
        ["span", "--k", "5", "--lambda-max", "150"],
        ["dim", "--lens", lens, "--p", "3", "--q", "2"],
        ["dim", "--lens", lens, "--p", "3", "--q", "2", "--method", "bruteforce"],
        ["genfunc-check", "--lens", lens, "--points", "1",
         "--seed", str(g.rng.randint(0, 10**6))],
        ["bounds-check", "--dims", "3", "--n-max", "3", "--m-max", "2", "--d-max", "2"],
    ]


def counting(g: _Gen) -> list[list[str]]:
    jobs = []
    # Two 3-d lens spaces: one large count each plus a long sweep.
    for count_lam, sweep_lam, samples in ((2e5, 5e3, 25), (5e4, 3e3, 30)):
        space = g.space_d1(g.rng.randrange(3, 32, 2))
        jobs.append(["count", "--lens", spec(*space),
                     "--lambda-max", str(g.lam(count_lam, 2000))])
        jobs += sweep(space, grid_top(g, sweep_lam, 400, samples), samples)
    # One 5-d lens space (residue convolution per cell).  Its profile tables
    # hold about k * lambda integers, and weights that all agree mod 3 leave
    # two thirds of them zero, so k is fixed and such weights are skipped.
    triples = [w for w in permutations(units(9), 3) if len({x % 3 for x in w}) > 1]
    space = (9, g.rng.choice(triples))
    jobs.append(["count", "--lens", spec(*space),
                 "--lambda-max", str(g.lam(1e4, 300))])
    jobs += sweep(space, grid_top(g, 1200, 120, 12), 12)
    # The sphere S^3 (k = 1).
    jobs.append(["count", "--lens", "1:1,1", "--lambda-max", str(g.lam(1e5, 2000))])
    return jobs


def tables(g: _Gen) -> list[list[str]]:
    jobs = []
    space = g.space_d1(g.rng.choice((9, 15, 21, 25, 27, 29, 31)))
    lens = spec(*space)
    jobs.append(["spectrum", "--lens", lens, "--lambda-max", str(g.lam(4e4, 1000))])
    jobs.append(["spectrum", "--lens", lens, "--lambda-max", str(g.lam(1.5e4, 400)),
                 "--contributors"])
    jobs.append(["spectrum", "--lens", "1:1,1", "--lambda-max", str(g.lam(2e4, 600))])
    # Equal-k pairs of odd order, prime and composite, isometric and not.
    for orders in (ODD_PRIMES, ODD_COMPOSITES):
        for isometric in (True, False):
            a = g.space_d1(g.rng.choice(orders))
            b = isometric_image(g, a) if isometric else non_isometric_partner(g, a)
            jobs.append(isospec(a, b, g.lam(1.2e4, 300)))
    # Rank elimination costs grow steeply with k, so the large prime is fixed.
    for p in (g.rng.choice(SMALL_PRIMES), 23):
        jobs.append(["span", "--k", str(p), "--lambda-max", str(even(5 * p * p))])
    for _ in range(4):
        jobs.append(["cmatrix", "--k", str(g.rng.randint(2, 31)),
                     "--lambda", str(g.lam(g.rng.uniform(1e3, 1e5), 400))])
    return jobs


# Group orders with a fixed totient each: classify costs about phi(k)^3, so
# drawing k among orders with the same totient varies the output, not the cost.
CLASSIFY_TOTIENTS = (2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 60, 72, 96)


def many_spaces(g: _Gen) -> list[list[str]]:
    jobs, dim_spaces = [], []
    top = 30 if g.tiny else 128
    # dim: auto, dp and bruteforce on one cell of each space.  For n = 2 the
    # auto route fills a k x k base table, whose cost grows like k^3, so the
    # orders are spread over fixed targets; with gcd(k, l1 - l2) = 1 the
    # fill happens for every cell.
    for target in (9, 17, 31, 47, 61, 79, 97, 113, 127):
        dim_spaces.append(g.space_d1(g.k_near(min(target, top), 2, lambda k: k % 2)))
    for n, target in ((3, 7), (3, 19), (3, 33), (3, 41), (4, 5), (4, 11), (4, 17)):
        dim_spaces.append(g.space(n, g.k_near(min(target, top))))
    # The bruteforce cost is C(p+n-1, n-1) C(q+n-1, n-1): fixed up to a swap.
    for space in dim_spaces:
        p, q = g.rng.choice(((4, 3), (3, 4)))
        cell = ["--lens", spec(*space), "--p", str(p), "--q", str(q)]
        for method in ("auto", "dp", "bruteforce"):
            jobs.append(["dim", *cell, "--method", method])
    for t in CLASSIFY_TOTIENTS:
        options = [k for k in range(3, top + 1) if phi(k) == t]
        if options:
            jobs.append(["classify", "--k", str(g.rng.choice(options))])
    for target in range(5, 65, 5):
        k = g.k_near(min(target, top))
        a = g.space(2, k)
        b = isometric_image(g, a) if g.rng.random() < 0.5 else g.space(2, k)
        jobs.append(isospec(a, b, g.lam(450, 100)))
    # The series side costs about k per coefficient, so k is drawn near targets.
    for n, target in ((2, 4), (2, 8), (2, 12), (3, 4), (3, 8), (3, 12)):
        space = g.space(n, g.k_near(target, 1))
        jobs.append(["genfunc-check", "--lens", spec(*space), "--points", "4",
                     "--seed", str(g.rng.randint(0, 10**6))])
    # The Weyl remainder for n = 2..10, each paired with a count at its cutoff.
    # n >= 9 fails today: the quadrature for u_n raises NonConvergence.
    remainder_lam = {2: 2000, 3: 500, 4: 200, 5: 80, 6: 60, 7: 40, 8: 30, 9: 24, 10: 24}
    for n, lam in remainder_lam.items():
        space = g.space(n, g.rng.randint(2, 7))
        lam = even(lam / 4) if g.tiny else lam
        jobs.append(["remainder", "--lens", spec(*space), "--lambda-max", str(lam),
                     "--samples", "1"])
        jobs.append(["count", "--lens", spec(*space), "--lambda-max", str(lam)])
    dims = sorted(g.rng.sample((3, 4, 5, 6), 2))
    jobs.append(["bounds-check", "--dims", ",".join(map(str, dims)),
                 "--n-max", str(g.rng.randint(8, 12)),
                 "--m-max", str(g.rng.randint(2, 4)), "--d-max", str(g.rng.randint(2, 4))])
    return jobs


BUILDERS = {"counting": counting, "tables": tables, "many-spaces": many_spaces}


def generate(workload: str, seed: int, tiny: bool = False) -> tuple[list, int]:
    """The job list of one workload for one seed, and how many come before the tail."""
    g = _Gen(workload, seed, tiny)
    main = BUILDERS[workload](g)
    return main + tail(g), len(main)


def digest(jobs) -> str:
    return hashlib.sha256(json.dumps(jobs).encode()).hexdigest()
