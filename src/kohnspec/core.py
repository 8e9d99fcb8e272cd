"""Shared domain types: lens-space parameters, validation, text format.

Each input rule is decided here once, with one message: n >= 2
(`check_dimension`), n = 2 (`check_n2`), k >= 2 (`check_order`), a
nonnegative cutoff (`check_cutoff`) and bidegree (`check_bidegree`), and a
positive even eigenvalue (`check_eigenvalue`).  So is the congruence gcd
(`_congruence_gcd`), which at n = 2 is the paper's d (`gcd_invariant`).
"""
from __future__ import annotations

import math
from typing import NamedTuple


class KohnSpecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrder(KohnSpecError):
    """Group order k is not a positive integer (or is too small for the op)."""


class InvalidWeight(KohnSpecError):
    """A rotation weight is not coprime to the group order."""


class DimensionTooSmall(KohnSpecError):
    """The dimension parameter n is below 2."""


class UnsupportedDimension(KohnSpecError):
    """Operation only defined for a specific dimension (usually n = 2)."""


class ResourceLimit(KohnSpecError):
    """An enumeration exceeded its configured budget."""


# Cap on enumeration work: oracle candidate pairs, or (p, q) grid cells.
DEFAULT_BUDGET = 10**7


def charge(work: int, budget: int | None) -> None:
    """Refuse `work` over `budget` before it starts; None is unbounded."""
    if budget is not None and work > budget:
        raise ResourceLimit(f"work {work} exceeds budget {budget}")


def check_dimension(n: int) -> None:
    """Reject a dimension parameter n below 2."""
    if n < 2:
        raise DimensionTooSmall(f"dimension parameter must be >= 2, got {n}")


def check_bidegree(p: int, q: int) -> None:
    """Reject a bidegree (p, q) with a negative component."""
    if p < 0 or q < 0:
        raise ValueError("bidegree components must be nonnegative")


def check_cutoff(value: int) -> None:
    """Reject a negative eigenvalue cutoff (a table's, a count's or a series')."""
    if value < 0:
        raise ValueError(f"cutoff must be nonnegative, got {value}")


def check_order(k: int) -> None:
    """Reject a group order k below 2 given without a space (C^lam, classes, probes)."""
    if k < 2:
        raise InvalidOrder(f"group order must be >= 2, got {k}")


class InvalidEigenvalue(KohnSpecError):
    """Eigenvalues of the Kohn Laplacian are positive even integers."""


def check_eigenvalue(lam: int) -> None:
    """Reject an eigenvalue that is not positive and even."""
    if lam < 2 or lam % 2 != 0:
        raise InvalidEigenvalue(f"eigenvalues are positive even integers, got {lam}")


class MismatchedSpaces(KohnSpecError):
    """Two lens spaces disagree in k or n where the operation needs them equal."""


class DomainViolation(KohnSpecError):
    """A complex argument lies outside the allowed disk."""


class NonConvergence(KohnSpecError):
    """Adaptive quadrature hit its refinement limit before the tolerance."""


class InsufficientSamples(KohnSpecError):
    """Too few sample points for the requested rank probe."""


class LensSpace(NamedTuple):
    """Parameters (n, k, weights) of the lens space L(k; l_1, ..., l_n).

    The quotient of the unit sphere in C^n by the cyclic group of order k
    acting by coordinate rotations with the given weights.  Weights are
    stored as canonical residues in [0, k); every l_i is coprime to k.
    Instances are immutable and hashable, so they key memo tables safely.
    """

    n: int
    k: int
    weights: tuple[int, ...]

    def __str__(self) -> str:
        return format_lens_spec(self)


def make_lens_space(n: int, k: int, weights) -> LensSpace:
    """Validate and canonicalize a lens-space parameter tuple.

    Weights are reduced mod k into [0, k).  Raises InvalidOrder for k < 1,
    DimensionTooSmall for n < 2, InvalidWeight if any weight shares a
    factor with k, and ValueError if the weight list length is not n.
    """
    if k < 1:
        raise InvalidOrder(f"group order must be >= 1, got {k}")
    check_dimension(n)
    ws = tuple(int(w) for w in weights)
    if len(ws) != n:
        raise ValueError(f"expected {n} weights, got {len(ws)}")
    for w in ws:
        if math.gcd(w, k) != 1:
            raise InvalidWeight(f"weight {w} is not coprime to k={k}")
    return LensSpace(n=n, k=k, weights=tuple(w % k for w in ws))


def check_n2(space: LensSpace) -> None:
    """Reject a space that is not a 3-d lens space (n = 2)."""
    if space.n != 2:
        raise UnsupportedDimension(f"dimension parameter must be 2, got {space.n}")


def _congruence_gcd(space: LensSpace) -> int:
    """g = gcd(k, l_2 - l_1, ..., l_n - l_1): dim(p, q) = N(p, q) = 0 unless g | p - q.

    Each l_i = l_1 mod g, so sum l_i (alpha_i - beta_i) = l_1 (p - q) mod g.
    An invariant monomial makes that 0 mod k, hence mod g, as g | k, and
    l_1 is a unit, so g | p - q.  For n = 2, g is `gcd_invariant`.
    """
    return math.gcd(space.k, *(l - space.weights[0] for l in space.weights))


def gcd_invariant(space: LensSpace) -> int:
    """gcd(k, l_1 - l_2), the basic congruence invariant of a 3-d lens space.

    Only defined for n = 2 (`check_n2`).  Uses the convention gcd(k, 0) = k,
    so equal weights give the full group order.
    """
    check_n2(space)
    return _congruence_gcd(space)


def parse_lens_spec(text: str) -> LensSpace:
    """Parse the `k:l1,l2,...,ln` text form, inferring n from the list."""
    try:
        head, _, tail = text.partition(":")
        k = int(head)
        weights = [int(part) for part in tail.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed lens spec {text!r}; expected k:l1,l2,...") from exc
    return make_lens_space(len(weights), k, weights)


def format_lens_spec(space: LensSpace) -> str:
    """Render a LensSpace in the `k:l1,l2,...,ln` text form."""
    return f"{space.k}:{','.join(str(w) for w in space.weights)}"
