"""Seeded Monte Carlo cross-checks for the analytic results.

Every sampled quantity is a pair of two-valued outcomes whose 2x2 joint
table is known exactly, so a run of n samples is fully described by the
four cell counts: one multinomial draw gives them in O(1) time and
memory, and the estimators are closed forms of the counts.

All randomness flows from numpy's PCG64. A run is identified by
(seed, stream index): independent quantities inside one run draw from
substreams derived via SeedSequence(seed, spawn_key=(index,)), so adding
or reordering estimates never changes any other estimate. numpy is
imported by the first draw, so code that only builds a SampleConfig (the
CLI does for every `run`) does not load it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DegenerateSequenceError, DomainError
from .spin import Direction, match_probability

if TYPE_CHECKING:
    import numpy as np

    from .nsbox import NsBox

#: The largest sample count numpy's multinomial accepts.
MAX_SAMPLES = 2**63 - 1


class _SampleFields(NamedTuple):
    n_samples: int
    seed: int


class SampleConfig(_SampleFields):
    """Size and seed of one Monte Carlo run."""

    __slots__ = ()

    def __new__(cls, n_samples: int = 1_000_000, seed: int = 42) -> SampleConfig:
        # bool is an int subclass, but true is neither a count nor a seed.
        n = n_samples
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_SAMPLES:
            raise DomainError(
                f"n_samples must be an integer in [1, {MAX_SAMPLES}], got {n!r}"
            )
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
        return tuple.__new__(cls, (n_samples, seed))

    @classmethod
    def _make(cls, iterable) -> SampleConfig:
        # _replace builds through _make, so it validates too.
        return cls(*iterable)


class EmpiricalEstimate(NamedTuple):
    """Point estimate with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def within_band(self, expected: float, width: float = 4.0) -> bool:
        """Whether expected lies inside value +/- width * std_error."""
        return abs(self.value - expected) <= width * self.std_error


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for one independent quantity within a seeded run."""
    import numpy as np

    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def sample_counts(
    table, cfg: SampleConfig, stream_index: int = 0
) -> tuple[int, int, int, int]:
    """Cell counts (n00, n01, n10, n11) of cfg.n_samples draws from a 2x2
    joint table of two outcomes, from substream `stream_index`."""
    import numpy as np

    flat = np.asarray(table, dtype=float).reshape(4)
    if not (flat >= 0.0).all():
        raise DomainError("cannot sample a table with negative entries")
    total = float(flat.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError("cannot sample a table that is not normalized")
    rng = substream(cfg.seed, stream_index)
    return tuple(int(c) for c in rng.multinomial(cfg.n_samples, flat / total))


def estimate_correlation(counts: tuple[int, int, int, int]) -> EmpiricalEstimate:
    """Pearson (phi) coefficient of the two outcomes of a 2x2 count table,
    with its delta-method standard error.

    The asymptotic variance of phi (Bishop, Fienberg & Holland, Discrete
    Multivariate Analysis, ch. 11) is, with row sums r0, r1 and column
    sums c0, c1,

        n var = 1 - phi^2 + (phi + phi^3 / 2) (r0 - r1)(c0 - c1) / sqrt(r0 r1 c0 c1)
                - 3/4 phi^2 ((r0 - r1)^2 / (r0 r1) + (c0 - c1)^2 / (c0 c1)),

    which is (1 - phi^2) / n for fair marginals. Counts stay Python ints,
    so the products cannot overflow at any sample count.
    """
    n00, n01, n10, n11 = counts
    n = n00 + n01 + n10 + n11
    r0, r1, c0, c1 = n00 + n01, n10 + n11, n00 + n10, n01 + n11
    if 0 in (r0, r1, c0, c1):
        raise DegenerateSequenceError(
            f"one outcome is constant over all n_samples={n} draws, so the "
            "correlation is undefined; raise n_samples"
        )
    root = math.sqrt(r0 * r1 * c0 * c1)
    phi = (n00 * n11 - n01 * n10) / root
    n_var = (
        1.0 - phi ** 2
        + (phi + phi ** 3 / 2.0) * (r0 - r1) * (c0 - c1) / root
        - 0.75 * phi ** 2 * ((r0 - r1) ** 2 / (r0 * r1) + (c0 - c1) ** 2 / (c0 * c1))
    )
    # Rounding can take a zero variance (|phi| = 1) a hair below 0.
    return EmpiricalEstimate(phi, math.sqrt(max(n_var, 0.0) / n), n)


def estimate_event_rate(hits: int, n: int) -> EmpiricalEstimate:
    """Empirical event probability hits / n with the binomial standard error."""
    if n < 1:
        raise DomainError("cannot estimate a rate from zero samples")
    p = hits / n
    return EmpiricalEstimate(p, math.sqrt(p * (1.0 - p) / n), n)


def _match_table(p_match: float) -> list[float]:
    """Two fair +/-1 outcomes that agree with probability p_match."""
    return [p_match / 2.0, (1.0 - p_match) / 2.0, (1.0 - p_match) / 2.0, p_match / 2.0]


def shapes_rho(red_given_cube: float = 0.75, blue_given_sphere: float = 0.75) -> float:
    """Analytic shape/color correlation for :func:`estimate_shapes_correlation`."""
    cov = red_given_cube + blue_given_sphere - 1.0
    mean_color = red_given_cube - blue_given_sphere
    sd_color = math.sqrt(1.0 - mean_color ** 2)
    if sd_color == 0.0:
        raise DomainError("color is deterministic, correlation undefined")
    return cov / sd_color


def estimate_pair_correlation(
    alpha: Direction, beta: Direction, cfg: SampleConfig, stream_index: int = 0
) -> EmpiricalEstimate:
    """Spin outcomes along two directions: fair marginals that agree with
    probability (1 + cos(alpha - beta)) / 2, correlation cos(alpha - beta)."""
    table = _match_table(match_probability(alpha, beta))
    return estimate_correlation(sample_counts(table, cfg, stream_index))


def estimate_ci_correlation(
    theta: Direction,
    a: Direction,
    a_prime: Direction,
    cfg: SampleConfig,
    stream_index: int = 0,
) -> EmpiricalEstimate:
    """Measured and unmeasured outcomes under conditional independence.

    Both outcomes copy a shared fair source aligned with theta, each with
    its own match rate p1, p2, and are otherwise independent. They then
    agree with probability p1 p2 + (1 - p1)(1 - p2), so their correlation
    is the product cos(theta - a) * cos(theta - a_prime).
    """
    p1 = match_probability(theta, a)
    p2 = match_probability(theta, a_prime)
    table = _match_table(p1 * p2 + (1.0 - p1) * (1.0 - p2))
    return estimate_correlation(sample_counts(table, cfg, stream_index))


def estimate_coin_correlation(
    cfg: SampleConfig, stream_index: int = 0
) -> EmpiricalEstimate:
    """Fair coin tosses against the counterfactual re-toss of the same coins.

    Nothing ties a toss to its alternative, so the two are independent
    fair outcomes and the correlation is 0.
    """
    return estimate_correlation(sample_counts(_match_table(0.5), cfg, stream_index))


def estimate_shapes_correlation(
    cfg: SampleConfig,
    stream_index: int = 0,
    red_given_cube: float = 0.75,
    blue_given_sphere: float = 0.75,
) -> EmpiricalEstimate:
    """Object drawn from a box: shape is observed, color is not.

    Shape (cube, sphere) is a fair coin; color (red, blue) depends on
    shape through the two conditional rates.
    """
    table = [
        red_given_cube / 2.0, (1.0 - red_given_cube) / 2.0,
        (1.0 - blue_given_sphere) / 2.0, blue_given_sphere / 2.0,
    ]
    return estimate_correlation(sample_counts(table, cfg, stream_index))


def estimate_ns_pair(
    box: NsBox, a_in: int, b_in: int, cfg: SampleConfig, stream_index: int = 0
) -> tuple[EmpiricalEstimate, EmpiricalEstimate]:
    """(target rate, correlator) estimates from one shared sample.

    The target rate is P(A xor B = ab); the correlator estimate is its
    linear image 2 * P(A = B) - 1.
    """
    table = [box.prob(A, B, a_in, b_in) for A in (0, 1) for B in (0, 1)]
    n00, n01, n10, n11 = sample_counts(table, cfg, stream_index)
    n = cfg.n_samples
    same = estimate_event_rate(n00 + n11, n)
    rate = same if a_in * b_in == 0 else estimate_event_rate(n01 + n10, n)
    correlator = EmpiricalEstimate(
        2.0 * same.value - 1.0, 2.0 * same.std_error, n
    )
    return rate, correlator
