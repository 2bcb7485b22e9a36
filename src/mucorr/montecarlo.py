"""Seeded Monte Carlo cross-checks for the analytic results.

Every sampled quantity is a pair of two-valued outcomes whose 2x2 joint
table is known exactly, so a run of n samples is fully described by the
four cell counts: one multinomial draw gives them in O(1) expected time
and memory, and the estimators are closed forms of the counts. Callers
build the tables: this module knows no physical model.

A run is identified by (seed, stream index): each quantity draws from its
own MT19937 stream, `random.Random(seed << 64 | index)`, which Python keeps
the same across versions, so adding or reordering estimates never changes
any other. A multinomial draw is three conditional binomials, drawn by
geometric skips when n p < 10 and by Hörmann's BTRS (J. Statist. Comput.
Simul. 46, 101 (1993)) otherwise.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import DegenerateSequenceError, DomainError

#: The largest sample count; the sampler's error is tested up to it.
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


def substream(seed: int, index: int) -> random.Random:
    """Generator for one independent quantity within a seeded run."""
    return random.Random(seed << 64 | index)


def sample_counts(
    table, cfg: SampleConfig, stream_index: int = 0
) -> tuple[int, int, int, int]:
    """Cell counts (n00, n01, n10, n11) of cfg.n_samples draws from the
    cells (p00, p01, p10, p11) of a 2x2 table, from substream `stream_index`."""
    p00, p01, p10, p11 = cells = [float(x) for x in table]
    if not all(x >= 0.0 for x in cells):  # nan fails too
        raise DomainError("cannot sample a table with negative entries")
    # A sum is never below its first term, so each share below is in [0, 1].
    tail10 = p10 + p11
    tail01 = p01 + tail10
    total = p00 + tail01
    if abs(total - 1.0) > 1e-9:
        raise DomainError("cannot sample a table that is not normalized")
    rng, n = substream(cfg.seed, stream_index), cfg.n_samples
    n00 = _binomial(rng, n, p00 / total)
    n01 = _binomial(rng, n - n00, p01 / tail01 if p01 else 0.0)
    n10 = _binomial(rng, n - n00 - n01, p10 / tail10 if p10 else 0.0)
    return n00, n01, n10, n - n00 - n01 - n10


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw, for an int n >= 0 and 0 <= p <= 1."""
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:  # geometric skips over the failures before each success
        if p == 0.0:
            return 0
        log_q = math.log1p(-p)
        k = used = 0
        while True:
            # 1 - random() is in (0, 1]; the skip may be inf for a tiny p.
            skip = math.log(1.0 - rng.random()) / log_q
            if skip >= n - used:
                return k
            used += int(skip) + 1
            k += 1
    # BTRS: transformed rejection with squeeze, around the mode m.
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    m = math.floor((n + 1) * p)  # the mode
    # c - m for BTRS's centre c = n p + 1/2, so that m + d keeps unit steps at any n.
    shift = (n + 1) * p - m + 0.5 - p
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() returned 0.0
            continue
        d = math.floor((2.0 * a / us + b) * u + shift)
        if not -m <= d <= n - m:
            continue
        v = 1.0 - rng.random()  # in (0, 1], so its log is finite
        if us >= 0.07 and v <= 0.92 - 4.2 / b:  # the squeeze
            return m + d
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf_ratio(n, p, m, d):
            return m + d


def _log_pmf_ratio(n: int, p: float, m: int, d: int) -> float:
    """ln f(m + d) / f(m) for the Binomial(n, p) pmf f, by Stirling's series
    for each ln j!: its -(j + 1) terms cancel exactly and its logs pair into
    logs of ratios near 1, so no two lgamma-sized numbers (near 2e20 at
    n = 2^62, where an ulp is 32768) are subtracted."""
    k = m + d
    x, y = d / (m + 1), -d / (n - m + 1)
    if x <= -1.0 or y <= -1.0:
        # -1 after rounding: k or n - k is under 2^-53 of m or n - m; f(k) underflows.
        return -math.inf
    return (
        _stirling_tail(m) + _stirling_tail(n - m)
        - _stirling_tail(k) - _stirling_tail(n - k)
        - (m + 0.5) * math.log1p(x) - (n - m + 0.5) * math.log1p(y)
        + d * math.log((n - k + 1) * p / ((k + 1) * (1.0 - p)))
    )


def _stirling_tail(j: int) -> float:
    """ln j! - (j + 1/2) ln(j + 1) + (j + 1) - ln(2 pi) / 2."""
    z = j + 1.0
    if j < 10:
        return math.lgamma(z) - (j + 0.5) * math.log(z) + z - 0.9189385332046727
    return (1 / 12 - (1 / 360 - 1 / 1260 / (z * z)) / (z * z)) / z


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
        1.0 - phi * phi
        + (phi + phi ** 3 / 2.0) * (r0 - r1) * (c0 - c1) / root
        - 0.75 * (phi * phi) * ((r0 - r1) ** 2 / (r0 * r1) + (c0 - c1) ** 2 / (c0 * c1))
    )
    # Rounding can take a zero variance (|phi| = 1) a hair below 0.
    return EmpiricalEstimate(phi, math.sqrt(max(n_var, 0.0) / n), n)


def estimate_event_rate(hits: int, n: int) -> EmpiricalEstimate:
    """Empirical event probability hits / n with the binomial standard error."""
    if n < 1:
        raise DomainError("cannot estimate a rate from zero samples")
    p = hits / n
    return EmpiricalEstimate(p, math.sqrt(p * (1.0 - p) / n), n)


def match_table(p_match: float) -> list[float]:
    """The 2x2 table of two fair +/-1 outcomes that agree with probability
    p_match, (1 + E) / 2 for their correlation E."""
    return [p_match / 2.0, (1.0 - p_match) / 2.0, (1.0 - p_match) / 2.0, p_match / 2.0]


def shapes_rho(red_given_cube: float = 0.75, blue_given_sphere: float = 0.75) -> float:
    """Analytic shape/color correlation: shape is a fair coin, and color
    follows it at the two conditional rates, as in the table
    [rc / 2, (1 - rc) / 2, (1 - bs) / 2, bs / 2]."""
    cov = red_given_cube + blue_given_sphere - 1.0
    mean_color = red_given_cube - blue_given_sphere
    sd_color = math.sqrt(1.0 - mean_color * mean_color)
    if sd_color == 0.0:
        raise DomainError("color is deterministic, correlation undefined")
    return cov / sd_color


def estimate_table(table, cfg: SampleConfig, stream_index: int = 0) -> EmpiricalEstimate:
    """Phi of cfg.n_samples draws from the cells (p00, p01, p10, p11) of a
    2x2 table, from substream `stream_index`."""
    return estimate_correlation(sample_counts(table, cfg, stream_index))


def estimate_parity_rate(
    table, cfg: SampleConfig, stream_index: int = 0, parity: int = 0
) -> tuple[EmpiricalEstimate, EmpiricalEstimate]:
    """(rate, correlator) estimates from one draw of a 2x2 table's cell
    counts: the rate of A xor B = parity, and 2 * P(A = B) - 1."""
    n00, n01, n10, n11 = sample_counts(table, cfg, stream_index)
    n = cfg.n_samples
    same = estimate_event_rate(n00 + n11, n)
    rate = same if parity == 0 else estimate_event_rate(n01 + n10, n)
    correlator = EmpiricalEstimate(
        2.0 * same.value - 1.0, 2.0 * same.std_error, n
    )
    return rate, correlator
