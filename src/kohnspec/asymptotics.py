"""Numerical checks of the Weyl-law results and the counting-bound lemmas.

The counting function of a lens space grows like 1/k times the sphere's;
this module samples that ratio exactly, evaluates the universal Weyl
constant by quadrature, validates the floor/ceiling bound inequalities in
exact rational arithmetic, and tabulates the remainder-term experiment.
The bound checks sum in closed form: the hockey-stick identity
sum_(j<=m) C(j, r) = C(m+1, r+1) collapses each left side's double sum
to O(N/m) terms and each right side to three binomials.
The sphere's counts are those of the trivial group L(1; 1, ..., 1).
"""
from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from .core import (
    DEFAULT_BUDGET, LensSpace, NonConvergence, UnsupportedDimension, charge, check_cutoff,
    check_dimension, make_lens_space,
)
from .spectrum import _counts, _sum_lines, lens_counting


class _BoundFields(NamedTuple):
    N: int
    m: int
    d: int
    n: int


class BoundParams(_BoundFields):
    """Parameters (N, m, d, n) of the floor/ceiling counting bounds.

    Here m and d come from the congruence structure (m = gcd(k, l1 - l2),
    d = k/m), not from the base-table reduction, which uses the letter d
    for the gcd itself.  The two never mix.
    """

    __slots__ = ()

    def __new__(cls, N: int, m: int, d: int, n: int):
        # A NamedTuple body may not define __new__, hence the subclass.
        if N < 0 or m < 1 or d < 1:
            raise ValueError("need N >= 0, m >= 1, d >= 1")
        return super().__new__(cls, N, m, d, n)

    @classmethod
    def _make(cls, iterable):  # Through the check; `_replace` calls `_make`.
        return cls(*iterable)


class BoundCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


class RatioSample(NamedTuple):
    """One exact sample of the lens/sphere eigenvalue-count ratio."""

    lam: int
    n_lens: int
    n_sphere: int
    ratio: Fraction | None

    @property
    def ratio_float(self) -> float:
        return float(self.ratio) if self.ratio is not None else math.nan


def weyl_ratio_series(
    space: LensSpace,
    lambda_max: int,
    stride: int,
    budget: int | None = DEFAULT_BUDGET,
) -> list[RatioSample]:
    """Exact N_L/N ratio samples at lam = stride, 2*stride, ..., lambda_max.

    A negative lambda_max raises ValueError (`check_cutoff`).  The budget
    (None: unbounded) caps the work of both series' counts together;
    exceeding it raises ResourceLimit before any is done.
    """
    if stride < 2 or stride % 2 != 0:
        raise ValueError("stride must be a positive even integer")
    check_cutoff(lambda_max)
    lams = range(stride, lambda_max + 1, stride)
    # Each cutoff >= 2 costs a space 3 line evaluations at least: charged before any is listed.
    charge(6 * len(lams), budget)
    sphere = make_lens_space(space.n, 1, [1] * space.n)
    counts = _counts([space, sphere], lams, budget)
    return [
        RatioSample(lam, nl, ns, Fraction(nl, ns) if ns else None)
        for lam, nl, ns in zip(lams, *counts)
    ]


def _weyl_integrand(n: int) -> Callable[[float], float]:
    """(x/sinh x)^n * exp(-(n-2)x), with the removable singularity filled.

    Evaluated through logs so that the underflowing (x/sinh x)^n factor
    and the overflowing exponential never meet as floats.  sinh is a float
    for |x| <= 710; `universal_constant` reads |x| <= T = 50.
    """
    log, sinh, exp, shift = math.log, math.sinh, math.exp, n - 2

    def f(x: float) -> float:
        if x == 0.0:
            return 1.0
        ax = abs(x)
        exponent = n * log(ax / sinh(ax)) - shift * x
        if exponent < -745.0:
            return 0.0
        try:
            return exp(exponent)
        except OverflowError:  # n >= 176 at x = -50: e^(4.6n - 100) is past a float.
            raise NonConvergence(f"Weyl integrand overflows a float at n={n}, x={x}") from None

    return f


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float, max_depth: int
) -> float:
    """Recursive adaptive Simpson with the standard |S2 - S1| <= 15 tol test.

    Keep the result bit-identical (the same float operations in the same order;
    15 tol / 2^j is exact): `bench/digests.json` pins `remainder`'s last digits.
    """

    def recurse(x0, f0, x1, f1, xm, fm, whole, limit, depth):
        flm, frm = f(lm := 0.5 * (x0 + xm)), f(rm := 0.5 * (xm + x1))
        left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
        right = (x1 - xm) / 6.0 * (fm + 4.0 * frm + f1)
        delta = left + right - whole
        if -limit <= delta <= limit:
            return left + right + delta / 15.0
        if depth <= 0:
            raise NonConvergence(f"refinement limit reached on [{x0}, {x1}] with error "
                                 f"{abs(delta):.3e}")
        return (recurse(x0, f0, xm, fm, lm, flm, left, limit / 2.0, depth - 1)
                + recurse(xm, fm, x1, f1, rm, frm, right, limit / 2.0, depth - 1))

    m = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, fa, b, fb, m, fm, whole, 15.0 * tol, max_depth)


# `universal_constant` integrates over [-T, T], T = 50, to tolerance 1e-10
# with at most 48 halvings.
_TRUNCATION, _TOLERANCE, _MAX_REFINEMENTS = 50.0, 1e-10, 48


# u_2 ... u_8 as the adaptive Simpson above returns them, bit for bit (the test
# suite re-derives each one): `bench/digests.json` pins `remainder`'s last digits.
_SIMPSON_U = {
    2: float.fromhex("0x1.5555555555851p-6"),
    3: float.fromhex("0x1.21bb945252689p-9"),
    4: float.fromhex("0x1.4061b2c170322p-12"),
    5: float.fromhex("0x1.82ec3ae2810f6p-15"),
    6: float.fromhex("0x1.e450914c08a7ap-18"),
    7: float.fromhex("0x1.33d3574687608p-20"),
    8: float.fromhex("0x1.89de3f60bb7d4p-23"),
}


def universal_constant(n: int) -> float:
    """The dimension-dependent constant of the Weyl asymptotic.

    (n-1) / (n (2 pi)^n Gamma(n+1)) times the integral over the real line
    of (x/sinh x)^n e^{-(n-2)x}, by adaptive Simpson on the truncated
    interval [-T, T].  The result depends on n alone, so for n <= 8 it is
    read from `_SIMPSON_U`, the quadrature's own floats, instead of being
    recomputed in every process; the table keeps `remainder`'s digits.
    For n >= 9 the quadrature runs (it raises NonConvergence at every n
    tried, 9 to 199, which a table cannot express).  For n = 2 the closed
    form is 1/48.
    """
    check_dimension(n)
    if n in _SIMPSON_U:
        return _SIMPSON_U[n]
    integral = _adaptive_simpson(
        _weyl_integrand(n), -_TRUNCATION, _TRUNCATION, _TOLERANCE, _MAX_REFINEMENTS
    )
    prefactor = (n - 1) / (n * (2.0 * math.pi) ** n * math.factorial(n))
    return prefactor * integral


def sphere_volume(n: int) -> float:
    """Volume of the unit sphere S^(2n-1), i.e. 2 pi^n / Gamma(n), 0.0 from n = 228.

    n below 2 raises DimensionTooSmall (`check_dimension`).
    """
    check_dimension(n)
    if n <= 171:  # Past this, (n - 1)! overflows a float: logs, 3e-13 relative to n = 219.
        return 2.0 * math.pi**n / math.factorial(n - 1)
    return math.exp(math.log(2.0) + n * math.log(math.pi) - math.lgamma(n))


class WeylConstants(NamedTuple):
    empirical: float
    predicted: float


def _predicted_constant(space: LensSpace) -> float:
    """The Weyl-law prediction u_n vol(S^{2n-1})/k for N_L(lam)/lam^n."""
    return universal_constant(space.n) * sphere_volume(space.n) / space.k


def weyl_constant_experiment(space: LensSpace, lambda_max: int) -> WeylConstants:
    """Compare N_L(lam)/lam^n at the cutoff with the predicted Weyl constant.

    The prediction is u_n vol(S^{2n-1})/k.  Reporting only; no verdict.
    """
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    empirical = lens_counting(space, lambda_max) / float(lambda_max) ** space.n
    return WeylConstants(empirical=empirical, predicted=_predicted_constant(space))


def _term_sums(params: BoundParams) -> tuple[int, int, int]:
    """sum_i = sum over q <= N of C(q+n-i, n-i), for i = 1, 2, 3.

    Both bounds compare against sum_q t(q) C(q+n-2, n-2) / (md), with t(q)
    built from 1, (q+n-1)/(n-1) and (n-2)/(q+n-2).  As
    (q+n-1)/(n-1) C(q+n-2, n-2) = C(q+n-1, n-1) and
    (n-2)/(q+n-2) C(q+n-2, n-2) = C(q+n-3, n-3), each right-hand side is a
    combination of these three sums, each one binomial by the hockey-stick
    identity sum_(q<=N) C(q+r, r) = C(N+r+1, r+1).
    """
    N, n = params.N, params.n
    if n < 3:
        raise UnsupportedDimension(f"bound lemmas need n >= 3, got n={n}")
    return comb(N + n, n), comb(N + n - 1, n - 1), comb(N + n - 2, n - 2)


def check_lower_bound(params: BoundParams) -> BoundCheck:
    """Exact test of the floor-sum lower bound inequality.

    lhs = sum_r C(r+n-3, n-3) sum_{j=0}^{floor((N-r+1)/m)-1} floor((jm+1)/d)
    over 0 <= r <= N, empty inner sums (upper index -1) contributing zero,
    against rhs = sum_{q<=N} [(q+n-1)/(n-1) - M - M(n-2)/(q+n-2)]
    C(q+n-2, n-2) / (md), M = d + 3m/2.  Term j of the inner sum appears
    for r <= R = N+1-(j+1)m, and sum_(r<=R) C(r+n-3, n-3) = C(R+n-2, n-2)
    (hockey stick), so lhs = sum_j floor((jm+1)/d) C(R+n-2, n-2): O(N/m)
    integer terms.  rhs is three binomials over 2md (`_term_sums`).
    """
    N, m, d, n = params.N, params.m, params.d, params.n
    sum1, sum2, sum3 = _term_sums(params)
    lhs = Fraction(sum(
        (j * m + 1) // d * comb(N + 1 - (j + 1) * m + n - 2, n - 2)
        for j in range((N + 1) // m)
    ))
    rhs = Fraction(2 * sum1 - (2 * d + 3 * m) * (sum2 + sum3), 2 * m * d)
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def check_upper_bound(params: BoundParams) -> BoundCheck:
    """Exact test of the ceiling-sum upper bound inequality.

    lhs = sum_r C(r+n-3, n-3) sum_{j=1}^{ceil((N-r+1)/m)} ceil(jm/d) over
    0 <= r <= N, against rhs = sum_{q<=N} [(q+n-1)/(n-1) + M
    + (m^2 + md)(n-2)/(q+n-2)] C(q+n-2, n-2) / (md), M = d + 3m/2.  Term j
    appears for r <= R = N-(j-1)m, so by the hockey-stick identity
    lhs = sum_j ceil(jm/d) C(R+n-2, n-2): O(N/m) integer terms.  rhs is
    three binomials over 2md (`_term_sums`).
    """
    N, m, d, n = params.N, params.m, params.d, params.n
    sum1, sum2, sum3 = _term_sums(params)
    lhs = Fraction(sum(
        -(j * m // -d) * comb(N - (j - 1) * m + n - 2, n - 2)
        for j in range(1, N // m + 2)
    ))
    rhs = Fraction(
        2 * sum1 + (2 * d + 3 * m) * sum2 + 2 * (m * m + m * d) * sum3, 2 * m * d
    )
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def lemma_ratio_decay(n: int, lambda_list: list[int]) -> list[Fraction]:
    """Exact A/B ratios whose decay to zero drives the 1/k limit.

    A sums C(p+n-2, n-2) C(q+n-2, n-2) over the counting index set at each
    half-eigenvalue cutoff; B sums the full dimension terms, so it is the
    sphere count at twice the cutoff.  A is summed line by line, each line
    in closed form by the hockey-stick identity sum_(j<=m) C(j, r) = C(m+1, r+1),
    all cutoffs in one `_sum_lines`.  A negative cutoff raises ValueError
    (`check_cutoff`); B's counts are charged against the default budget
    (`ResourceLimit`).
    """
    check_dimension(n)
    check_cutoff(min(lambda_list, default=0))

    sphere = make_lens_space(n, 1, [1] * n)
    (b_sums,) = _counts([sphere], [2 * h for h in lambda_list], DEFAULT_BUDGET)
    a_sums = _sum_lines(lambda_list, n,
                        lambda f, x: comb(f + n - 2, n - 2) * comb(x + n - 2, n - 1))
    # Below the first eigenvalue A = B = 0; the ratio is taken as 0.
    return [Fraction(a, b or 1) for a, b in zip(a_sums, b_sums)]


class RemainderSample(NamedTuple):
    lam: int
    residual: float
    scaled: float  # residual / lam^(n-1)
    scaled_log: float  # residual / (lam^(n-1) log lam)


def remainder_experiment(
    space: LensSpace, lambda_max: int, samples: int, budget: int | None = DEFAULT_BUDGET
) -> list[RemainderSample]:
    """Tabulate N_L(lam) - predicted*lam^n at evenly spaced cutoffs.

    Normalized columns let the conjectured lam^(n-1) log lam remainder
    growth be eyeballed; nothing is asserted.  The budget (None: unbounded)
    caps the counts' work; over it raises ResourceLimit before any is done.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if lambda_max < 2 * samples:
        raise ValueError("lambda_max must be at least 2*samples")
    n = space.n
    stride = 2 * (lambda_max // (2 * samples))
    lams = range(stride, samples * stride + 1, stride)
    charge(3 * len(lams), budget)  # The lower bound of `weyl_ratio_series`.
    (counts,) = _counts([space], lams, budget)
    predicted = _predicted_constant(space)  # After the charge: a refusal spends no quadrature.
    rows = []
    for lam, count in zip(lams, counts):
        residual = count - predicted * float(lam) ** n
        scale = float(lam) ** (n - 1)
        rows.append(RemainderSample(lam=lam, residual=residual, scaled=residual / scale,
                                    scaled_log=residual / (scale * math.log(lam))))
    return rows
