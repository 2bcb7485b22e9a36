"""Correlation between measured and counterfactual (unmeasured) outcomes.

Given a local measurement along `a` whose complementary alternative `a'`
was never performed, the outcomes of the unperformed measurement can still
be constrained once a remote measurement along `theta` is known to have
happened. This module computes:

* the assumption-free lower bound on the measured/unmeasured correlation
  (an overlap bound on match rates against the shared remote outcomes),
* the conditional-independence (CI) product value of that correlation,
* the information, in bits, that a measured outcome leaks about the
  unmeasured one.

A chsh run decides its nonlocality verdicts from the rows that show these
values (see `scenarios`).
"""
from __future__ import annotations

import math

from .errors import DomainError, NotOrthogonalError
from .spin import Direction, correlation

ORTHOGONALITY_TOL = 1e-12
#: Two CI correlations are "different" if they differ by more than this.
CI_DIFFERENCE_TOL = 1e-12


def _pair(r1: float, r2: float, c1: float, c2: float) -> tuple[float, float]:
    """Floor and CI product of one measured/unmeasured pair against one
    remote option, from the two outcomes' match (or target) rates r1, r2
    with the remote outcome and their correlations c1, c2 with it.

    The two outcomes match each other at a rate of at least r1 + r2 - 1,
    so they correlate at least 2 (r1 + r2) - 3, floored at -1 (also for a
    nan sum). Under conditional independence they correlate c1 * c2.
    """
    floor = 2.0 * (r1 + r2) - 3.0
    return floor if floor > -1.0 else -1.0, c1 * c2


def _spin_pair(x: float, y: float) -> tuple[float, float, float]:
    """:func:`_pair` of a spin pair a, a' from their correlations x, y with
    one remote direction, and the pair's agreement rate under conditional
    independence: at the match rates p1, p2 that the floor reads, two copies
    of a fair source agree at p1 p2 + (1 - p1)(1 - p2)."""
    p1, p2 = 0.5 * (1.0 + x), 0.5 * (1.0 + y)
    floor, rho_ci = _pair(p1, p2, x, y)
    return floor, rho_ci, p1 * p2 + (1.0 - p1) * (1.0 - p2)


def rho_conditional_independence(
    theta: Direction, a: Direction, a_prime: Direction
) -> float:
    """Measured/unmeasured correlation under conditional independence.

    If the two local outcome sets correlate only through the remote
    outcomes, their correlation is the product of the individual
    remote-local correlations.
    """
    return correlation(theta, a) * correlation(theta, a_prime)


def binary_entropy(x: float) -> float:
    """Shannon binary entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def info_leakage(p: float) -> float:
    """Bits of information about the unmeasured outcome per measured one,
    given their mutual match rate p: 1 - H(p)."""
    return 1.0 - binary_entropy(p)


def _require_orthogonal(a: Direction, a_prime: Direction) -> None:
    if abs(correlation(a, a_prime)) > ORTHOGONALITY_TOL:
        raise NotOrthogonalError(
            f"directions must be orthogonal, got dot = {correlation(a, a_prime)!r}"
        )


def max_info_direction(a: Direction, a_prime: Direction) -> tuple[Direction, float]:
    """Remote direction maximizing the CI information leakage, with its bits.

    The maximum sits at the bisector of a and a' (CI correlation 0.5,
    match rate 0.75).
    """
    _require_orthogonal(a, a_prime)
    arc = (a_prime.angle - a.angle + math.pi) % (2.0 * math.pi) - math.pi
    bisector = Direction(a.angle + 0.5 * arc)
    rho = rho_conditional_independence(bisector, a, a_prime)
    return bisector, info_leakage(0.5 * (1.0 + rho))
