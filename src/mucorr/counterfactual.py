"""Correlation between measured and counterfactual (unmeasured) outcomes.

Given a local measurement along `a` whose complementary alternative `a'`
was never performed, the outcomes of the unperformed measurement can still
be constrained once a remote measurement along `theta` is known to have
happened. This module computes:

* the empirical Pearson coefficient between two +/-1 outcome sequences,
* the assumption-free lower bound on the measured/unmeasured correlation
  (an overlap bound on match rates against the shared remote outcomes),
* the conditional-independence (CI) product value of that correlation,
* the information, in bits, that a measured outcome leaks about the
  unmeasured one, and
* a nonlocality verdict over a set of remote-measurement options.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSequenceError,
    DomainError,
    LengthMismatchError,
    NotOrthogonalError,
)
from .spin import Direction, correlation, match_probability, dot

ORTHOGONALITY_TOL = 1e-12
#: Two CI correlations are "different" if they differ by more than this.
CI_DIFFERENCE_TOL = 1e-12


def as_outcomes(values) -> np.ndarray:
    """Validate and convert a +/-1 outcome sequence to an int8 array."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("outcome sequence must be a non-empty 1-d sequence")
    if not np.all(np.isin(arr, (-1, 1))):
        raise DomainError("outcome sequence entries must be +1 or -1")
    return arr.astype(np.int8)


def pearson_pm1(m, u) -> float:
    """Full empirical Pearson coefficient of two +/-1 sequences.

    Means and deviations are estimated from the data rather than assumed
    to be 0 and 1, so finite samples of fair coins are handled correctly.

    Raises LengthMismatchError for unequal lengths and
    DegenerateSequenceError when either sequence is constant (zero
    variance), which includes any length-1 sequence.
    """
    m_arr = as_outcomes(m)
    u_arr = as_outcomes(u)
    if m_arr.size != u_arr.size:
        raise LengthMismatchError(
            f"sequence lengths differ: {m_arr.size} vs {u_arr.size}"
        )
    m_c = m_arr - m_arr.mean()
    u_c = u_arr - u_arr.mean()
    m_ss = float(np.dot(m_c, m_c))
    u_ss = float(np.dot(u_c, u_c))
    if m_ss == 0.0 or u_ss == 0.0:
        raise DegenerateSequenceError("constant sequence has no correlation")
    return float(np.dot(m_c, u_c)) / math.sqrt(m_ss * u_ss)


def overlap_lower_bound(p1: float, p2: float) -> float:
    """Minimum overlap of two events with match rates p1, p2 against a
    common reference: max(0, p1 + p2 - 1).

    The raw two-event bound can go negative, which carries no constraint,
    so it is clamped at 0.
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise DomainError(f"match rates must lie in [0, 1], got {p1!r}, {p2!r}")
    return max(0.0, p1 + p2 - 1.0)


def rho_min_quantum(theta: Direction, a: Direction, a_prime: Direction) -> float:
    """Assumption-free lower bound on the measured/unmeasured correlation.

    Both local outcome sets must match the remote `theta` outcomes at
    their quantum match rates; the overlap bound on those rates forces a
    minimum mutual match rate, hence a minimum correlation. Vacuous
    bounds floor at -1.
    """
    p1 = match_probability(theta, a)
    p2 = match_probability(theta, a_prime)
    return 2.0 * overlap_lower_bound(p1, p2) - 1.0


def rho_conditional_independence(
    theta: Direction, a: Direction, a_prime: Direction
) -> float:
    """Measured/unmeasured correlation under conditional independence.

    If the two local outcome sets correlate only through the remote
    outcomes, their correlation is the product of the individual
    remote-local correlations.
    """
    return correlation(theta, a) * correlation(theta, a_prime)


def rho_ci_general_direction(c_dot_a: float) -> float:
    """CI correlation for a remote direction with given dot product onto `a`,
    assuming a' orthogonal to a and all directions coplanar.

    Equals x*sqrt(1 - x^2); maximal value 0.5 at x = 1/sqrt(2).
    """
    if not -1.0 <= c_dot_a <= 1.0:
        raise DomainError(f"dot product must lie in [-1, 1], got {c_dot_a!r}")
    return c_dot_a * math.sqrt(1.0 - c_dot_a * c_dot_a)


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
    if abs(dot(a, a_prime)) > ORTHOGONALITY_TOL:
        raise NotOrthogonalError(
            f"directions must be orthogonal, got dot = {dot(a, a_prime)!r}"
        )


def _info_at(theta: Direction, a: Direction, a_prime: Direction) -> float:
    rho = rho_conditional_independence(theta, a, a_prime)
    return info_leakage(0.5 * (1.0 + rho))


def info_scan(
    a: Direction, a_prime: Direction, step_degrees: float = 0.01
) -> list[tuple[float, float]]:
    """CI information leakage on a grid of remote angles between a and a'.

    Returns (theta_degrees, info_bits) pairs; theta runs from a to a'
    along the shorter arc, inclusive.
    """
    if step_degrees <= 0.0:
        raise DomainError("step_degrees must be positive")
    arc = math.degrees(
        (a_prime.angle - a.angle + math.pi) % (2.0 * math.pi) - math.pi
    )
    n_steps = max(1, round(abs(arc) / step_degrees))
    start = a.degrees
    out = []
    for i in range(n_steps + 1):
        offset = math.copysign(min(i * step_degrees, abs(arc)), arc)
        theta_deg = start + offset
        theta = Direction.from_degrees(theta_deg)
        out.append((theta_deg, _info_at(theta, a, a_prime)))
    return out


def max_info_direction(a: Direction, a_prime: Direction) -> tuple[Direction, float]:
    """Remote direction maximizing the CI information leakage, with its bits.

    The maximum sits at the bisector of a and a' (CI correlation 0.5,
    match rate 0.75); :func:`info_scan` gives the grid to check it against.
    """
    _require_orthogonal(a, a_prime)
    arc = (a_prime.angle - a.angle + math.pi) % (2.0 * math.pi) - math.pi
    bisector = Direction(a.angle + 0.5 * arc)
    return bisector, _info_at(bisector, a, a_prime)


@dataclass(frozen=True)
class CounterfactualReport:
    """Per-remote-option analytics for one measured/unmeasured pair.

    `remote_setting` of None means no remote measurement was performed,
    in which case both correlations are 0 and nothing is leaked.
    `nonlocal_flag` records the assumption-free signature rho_min > 0 for
    this option alone.
    """

    remote_setting: Direction | None
    rho_min: float
    rho_ci: float
    info_bits: float
    total_bits: float
    nonlocal_flag: bool


@dataclass(frozen=True)
class NonlocalityVerdict:
    """Outcome of comparing the correlation across remote options.

    The two inference routes are reported separately: `rho_min_route` is
    assumption-free (some option forces a positive minimum correlation);
    `ci_route` holds when the CI values differ across options.
    `is_nonlocal` combines whichever routes were enabled.
    """

    reports: tuple[CounterfactualReport, ...]
    rho_min_route: bool
    ci_route: bool
    is_nonlocal: bool


def report_for_option(
    option: Direction | None, a: Direction, a_prime: Direction
) -> CounterfactualReport:
    """Build the per-option report; no remote measurement means zero
    correlation by assumption."""
    if option is None:
        return CounterfactualReport(
            remote_setting=None,
            rho_min=0.0,
            rho_ci=0.0,
            info_bits=0.0,
            total_bits=1.0,
            nonlocal_flag=False,
        )
    rho_min = rho_min_quantum(option, a, a_prime)
    rho_ci = rho_conditional_independence(option, a, a_prime)
    info = info_leakage(0.5 * (1.0 + rho_ci))
    return CounterfactualReport(
        remote_setting=option,
        rho_min=rho_min,
        rho_ci=rho_ci,
        info_bits=info,
        total_bits=1.0 + info,
        nonlocal_flag=rho_min > 0.0,
    )


def nonlocality_verdict(
    a: Direction,
    a_prime: Direction,
    remote_options: list[Direction | None],
    assume_conditional_independence: bool = True,
) -> NonlocalityVerdict:
    """Decide whether the measured/unmeasured correlation must depend on
    the remote choice, which is the nonlocality signature.

    Route (i), assumption-free: some option forces rho_min > 0. Route
    (ii), active only under the CI assumption: the CI correlation is not
    the same for every option (tolerance 1e-12).
    """
    _require_orthogonal(a, a_prime)
    reports = tuple(report_for_option(opt, a, a_prime) for opt in remote_options)
    rho_min_route = any(r.rho_min > 0.0 for r in reports)
    ci_values = [r.rho_ci for r in reports]
    ci_route = bool(ci_values) and (
        max(ci_values) - min(ci_values) > CI_DIFFERENCE_TOL
    )
    nonlocal_overall = rho_min_route or (
        assume_conditional_independence and ci_route
    )
    return NonlocalityVerdict(
        reports=reports,
        rho_min_route=rho_min_route,
        ci_route=ci_route,
        is_nonlocal=nonlocal_overall,
    )
