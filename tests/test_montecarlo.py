import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucorr.errors import DegenerateSequenceError, DomainError
from mucorr.montecarlo import (
    MAX_SAMPLES,
    EmpiricalEstimate,
    SampleConfig,
    _binomial,
    _log_pmf_ratio,
    estimate_correlation,
    estimate_event_rate,
    estimate_parity_rate,
    estimate_table,
    match_table,
    sample_counts,
    shapes_rho,
    substream,
)
from mucorr.nsbox import NsBox, make_isotropic
from mucorr.spin import Direction, correlation

from references import box_pair_table, ci_table, shapes_table
from test_derived import CLASSICAL_PARAMETERS, chsh_parameters, run_json

A0 = Direction.from_degrees(0.0)
A90 = Direction.from_degrees(90.0)
B45 = Direction.from_degrees(45.0)
D30 = Direction.from_degrees(30.0)

CFG = SampleConfig(n_samples=50_000, seed=7)


def pearson_pm1(m, u) -> float:
    """Reference: the full empirical Pearson coefficient of two equally long
    +/-1 sequences, means and deviations estimated from the data."""
    m_c, u_c = (np.asarray(x, dtype=float) - np.mean(x) for x in (m, u))
    return float(m_c @ u_c) / math.sqrt(float(m_c @ m_c) * float(u_c @ u_c))


class TestConfig:
    def test_defaults(self):
        cfg = SampleConfig()
        assert cfg.n_samples == 1_000_000
        assert cfg.seed == 42

    def test_validation(self):
        with pytest.raises(DomainError):
            SampleConfig(n_samples=0)
        with pytest.raises(DomainError):
            SampleConfig(n_samples=10, seed=-1)
        with pytest.raises(DomainError):
            SampleConfig(n_samples=2.5)
        # bool is an int subclass, but neither flag is a count or a seed
        with pytest.raises(DomainError, match="n_samples"):
            SampleConfig(n_samples=True)
        for seed in (True, False):
            with pytest.raises(DomainError, match="seed"):
                SampleConfig(n_samples=10, seed=seed)
        with pytest.raises(DomainError, match="n_samples"):
            SampleConfig(n_samples=MAX_SAMPLES + 1)
        assert SampleConfig(n_samples=MAX_SAMPLES).n_samples == 2**63 - 1

    def test_replace_and_make_validate(self):
        cfg = SampleConfig(10, 1)
        assert cfg._replace(seed=5) == SampleConfig(10, 5)
        with pytest.raises(DomainError, match="n_samples"):
            cfg._replace(n_samples=0)
        with pytest.raises(DomainError, match="seed"):
            SampleConfig._make([10, -1])
        assert repr(SampleConfig()) == "SampleConfig(n_samples=1000000, seed=42)"


def eight_draws(seed: int, index: int) -> list[float]:
    rng = substream(seed, index)
    return [rng.random() for _ in range(8)]


class TestStreams:
    def test_same_seed_same_draws(self):
        assert eight_draws(42, 3) == eight_draws(42, 3)

    def test_different_indices_differ(self):
        assert eight_draws(42, 0) != eight_draws(42, 1)

    def test_different_seeds_differ(self):
        assert eight_draws(1, 0) != eight_draws(2, 0)

    def test_estimates_are_deterministic(self):
        table = match_table(0.5 * (1.0 + correlation(A0, B45)))
        e1 = estimate_table(table, CFG, 2)
        e2 = estimate_table(table, CFG, 2)
        assert e1 == e2  # bit-exact, not approximate

    def test_counts_are_one_multinomial_draw_of_the_substream(self):
        # Three conditional binomials in turn from the one substream, each
        # cell against the cells from it on; the last cell takes the rest.
        counts = sample_counts([0.4, 0.1, 0.2, 0.3], CFG, 5)
        rng, n = substream(CFG.seed, 5), CFG.n_samples
        n00 = _binomial(rng, n, 0.4 / (0.4 + (0.1 + (0.2 + 0.3))))
        n01 = _binomial(rng, n - n00, 0.1 / (0.1 + (0.2 + 0.3)))
        n10 = _binomial(rng, n - n00 - n01, 0.2 / (0.2 + 0.3))
        assert counts == (n00, n01, n10, n - n00 - n01 - n10)
        assert all(type(c) is int for c in counts)


class TestSamplers:
    def test_signs_are_pm1_and_fair(self):
        n = 100_000
        counts = sample_counts(match_table(0.5), SampleConfig(n, seed=0))
        assert len(counts) == 4 and sum(counts) == n
        assert all(isinstance(c, int) and c >= 0 for c in counts)
        n00, n01, n10, n11 = counts
        for plus in (n00 + n01, n00 + n10):  # first and second outcome
            assert abs(2 * plus / n - 1.0) < 4.0 / math.sqrt(n)

    def test_pair_marginals_are_fair(self):
        n = 100_000
        table = match_table(0.5 * (1.0 + correlation(A0, B45)))
        n00, n01, n10, n11 = sample_counts(table, SampleConfig(n, seed=3))
        bound = 4.0 / math.sqrt(n)
        assert abs(2 * (n00 + n01) / n - 1.0) < bound
        assert abs(2 * (n00 + n10) / n - 1.0) < bound

    def test_pair_correlation_matches_analytic(self):
        est = estimate_table(match_table(0.5 * (1.0 + correlation(A0, D30))), CFG)
        assert est.within_band(correlation(A0, D30))

    def test_ci_sampler_matches_product(self):
        est = estimate_table(ci_table(correlation(B45, A0), correlation(B45, A90)), CFG)
        assert est.within_band(0.5)

    def test_coin_uncorrelated(self):
        est = estimate_table(match_table(0.5), CFG)
        assert est.within_band(0.0)

    def test_shapes_default(self):
        est = estimate_table(shapes_table(), CFG)
        assert est.within_band(0.5)

    def test_shapes_asymmetric_rates(self):
        expected = shapes_rho(0.9, 0.6)
        assert expected == pytest.approx(0.5 / math.sqrt(1.0 - 0.09), abs=1e-12)
        est = estimate_table(shapes_table(0.9, 0.6), CFG, 0)
        assert est.within_band(expected)

    def test_shapes_rate_domain(self):
        with pytest.raises(DomainError):
            estimate_table(shapes_table(red_given_cube=1.3), CFG, 0)
        with pytest.raises(DomainError):
            shapes_rho(1.0, 0.0)  # deterministic color

    def test_nsbox_sampler_rates(self):
        rate, corr = estimate_parity_rate(box_pair_table(make_isotropic(0.8), 1, 1), CFG, 0, 1)
        assert rate.within_band(0.8)
        assert corr.within_band(-0.6)  # E11 = 1 - 2p

    def test_nsbox_sampler_rejects_bad_tables(self):
        bad = np.full((2, 2, 2, 2), 0.3)  # normalization broken
        with pytest.raises(DomainError):
            estimate_parity_rate(box_pair_table(NsBox(bad), 0, 0), CFG, 0, 0)
        negative = np.full((2, 2, 2, 2), 0.25)
        negative[0, 0, 0, 0] = -0.25
        negative[1, 1, 0, 0] = 0.75
        with pytest.raises(DomainError):
            estimate_parity_rate(box_pair_table(NsBox(negative), 0, 0), CFG, 0, 0)
        with pytest.raises(DomainError):
            sample_counts([0.25, 0.25, 0.25, float("nan")], CFG)


def binomial_pmf(n: int, p: float) -> list[float]:
    """Reference: the exact Binomial(n, p) pmf, term by term."""
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


#: The sample counts at which the standardized error is checked: up to the
#: cap, where ln n! is near 4e20 and a difference of lgammas cancels.
LARGE_NS = (10**6, 10**12, 2**53, 2**62, MAX_SAMPLES)


class _ZerosFirst(random.Random):
    """A stream whose 1st, 3rd and 4th random() are exactly 0.0: in BTRS a
    proposal with us == 0, then a v from 0.0, then us == 0 again."""

    calls = 0

    def random(self):
        self.calls += 1
        return 0.0 if self.calls in (1, 3, 4) else super().random()


class TestBinomial:
    @pytest.mark.parametrize("n, p", [
        (20, 0.3), (20, 0.8),  # geometric skips, n p = 6 and 4
        (60, 0.3), (60, 0.7),  # BTRS, n p = 18
        (1000, 0.3), (1000, 0.5),
    ])
    def test_draws_follow_the_exact_pmf(self, n, p):
        draws = 20_000
        rng = random.Random(n + int(100 * p))
        observed = [0] * (n + 1)
        for _ in range(draws):
            observed[_binomial(rng, n, p)] += 1
        # Pearson's chi-square over cells of at least 5 expected draws, the
        # two tails pooled into the first and last of them.
        expected = [draws * f for f in binomial_pmf(n, p)]
        cells = [k for k in range(n + 1) if expected[k] >= 5.0]
        lo, hi = cells[0], cells[-1]
        obs = [sum(observed[:lo + 1]), *observed[lo + 1:hi], sum(observed[hi:])]
        exp = [sum(expected[:lo + 1]), *expected[lo + 1:hi], sum(expected[hi:])]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
        df = len(obs) - 1
        assert chi2 < df + 5.0 * math.sqrt(2.0 * df), (chi2, df)

    @pytest.mark.parametrize("n", [20, 60, 1000, 100_000])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5])
    def test_log_pmf_ratio_equals_the_lgamma_form(self, n, p):
        m = math.floor((n + 1) * p)
        h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
        for k in sorted({*range(0, n + 1, max(1, n // 97)), n, m + 1, max(m - 1, 0)}):
            want = (h - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + (k - m) * math.log(p / (1.0 - p)))
            assert _log_pmf_ratio(n, p, m, k - m) == pytest.approx(want, rel=1e-9, abs=1e-8)

    def test_edges(self):
        rng = random.Random(3)
        for n in (0, 1, 10**6, MAX_SAMPLES):
            assert _binomial(rng, n, 0.0) == 0
            assert _binomial(rng, n, 1.0) == n
        assert _binomial(rng, 0, 0.5) == 0
        ones = sum(_binomial(rng, 1, 0.3) for _ in range(10_000))
        assert abs(ones - 3_000) < 4 * math.sqrt(10_000 * 0.21)
        # Tiny p at huge n: the skip overflows to inf, or n p is a few.
        assert _binomial(rng, MAX_SAMPLES, 5e-324) == 0
        assert _binomial(rng, MAX_SAMPLES, 1.0 - 5e-324) == MAX_SAMPLES
        few = [_binomial(rng, MAX_SAMPLES, 1e-18) for _ in range(2_000)]
        assert abs(sum(few) / 2_000 - MAX_SAMPLES * 1e-18) < 0.5
        # Far tails at the cap stay finite or -inf, never a domain error.
        m = math.floor((MAX_SAMPLES + 1) * 0.5)
        for d in (-m, -m + 1, MAX_SAMPLES - m - 1, MAX_SAMPLES - m):
            assert _log_pmf_ratio(MAX_SAMPLES, 0.5, m, d) < -1e6

    @pytest.mark.parametrize("n, p", [(8, 0.3), (10**6, 0.3), (MAX_SAMPLES, 0.5)])
    def test_a_zero_from_random_is_drawn_safely(self, n, p):
        # random() can return 0.0: no log(0.0) and no division by us == 0.
        for seed in range(50):
            assert 0 <= _binomial(_ZerosFirst(seed), n, p) <= n

    def test_standardized_error_has_unit_variance_up_to_the_cap(self):
        draws, seeds = 40_000, 4_000
        target = math.cos(math.radians(45.0))
        table = match_table(0.5 * (1.0 + correlation(A0, B45)))
        for i, n in enumerate(LARGE_NS):
            rng = random.Random(1000 + i)
            mean, sd = n * 0.3, math.sqrt(n * 0.3 * 0.7)
            z = [(_binomial(rng, n, 0.3) - mean) / sd for _ in range(draws)]
            assert abs(sum(z) / draws) < 5.0 / math.sqrt(draws), n
            assert abs(sum(x * x for x in z) / draws - 1.0) < 5.0 * math.sqrt(2.0 / draws), n
            z = []
            for seed in range(seeds):
                est = estimate_table(table, SampleConfig(n, seed))
                z.append((est.value - target) / est.std_error)
            mean = sum(z) / seeds
            var = sum((x - mean) ** 2 for x in z) / (seeds - 1)
            assert abs(mean) < 5.0 / math.sqrt(seeds), n
            assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / seeds), (n, var)


class TestEstimators:
    def test_correlation_estimate_and_error(self):
        # m = [1, 1, -1, -1], u = [1, 1, -1, 1] as cells (++, +-, -+, --)
        est = estimate_correlation((2, 0, 1, 1))
        assert est.value == pytest.approx(0.5773502691896258)
        assert est.value == pytest.approx(pearson_pm1([1, 1, -1, -1], [1, 1, -1, 1]))
        assert est.std_error == pytest.approx(math.sqrt(1.0 / 12.0))
        assert est.n_samples == 4
        fair = estimate_correlation((40, 10, 10, 40))
        assert fair.value == pytest.approx(0.6)
        assert fair.std_error == pytest.approx(math.sqrt((1.0 - 0.36) / 100.0))
        # |phi| = 1: zero variance, which rounds a hair below 0 at (1, 0, 0, 5)
        perfect = estimate_correlation((1, 0, 0, 5))
        assert perfect.value == pytest.approx(1.0)
        assert perfect.std_error < 1e-7

    def test_correlation_error_is_the_delta_method(self):
        # Reference: the gradient of phi in the cell probabilities, taken
        # numerically, against the multinomial covariance of the cells.
        def phi(p):
            rows = (p[0] + p[1]) * (p[2] + p[3])
            cols = (p[0] + p[2]) * (p[1] + p[3])
            return (p[0] * p[3] - p[1] * p[2]) / math.sqrt(rows * cols)

        for counts in ((450, 50, 200, 300), (10, 30, 25, 935), (1, 2, 3, 4)):
            n = sum(counts)
            p = np.array(counts, dtype=float) / n
            grad = np.array([
                (phi(p + h) - phi(p - h)) / 2e-7 for h in np.eye(4) * 1e-7
            ])
            var = grad @ (np.diag(p) - np.outer(p, p)) @ grad / n
            est = estimate_correlation(counts)
            assert est.value == pytest.approx(phi(p), abs=1e-12)
            assert est.std_error == pytest.approx(math.sqrt(var), rel=1e-6)

    def test_constant_outcome_names_the_sample_count(self):
        for counts in ((1, 0, 0, 0), (3, 4, 0, 0), (2, 0, 5, 0)):
            with pytest.raises(DegenerateSequenceError, match="n_samples"):
                estimate_correlation(counts)

    def test_event_rate_estimate(self):
        est = estimate_event_rate(3, 4)
        assert est.value == 0.75
        assert est.std_error == pytest.approx(math.sqrt(0.75 * 0.25 / 4.0))
        with pytest.raises(DomainError):
            estimate_event_rate(0, 0)

    def test_within_band(self):
        est = EmpiricalEstimate(value=0.5, std_error=0.01, n_samples=100)
        assert est.within_band(0.52)
        assert not est.within_band(0.55)


class TestBandCoverage:
    def test_pair_estimates_cover_analytic_value(self):
        # a cheap version of the full 100-seed oracle in the acceptance suite
        target = correlation(A0, D30)
        table = match_table(0.5 * (1.0 + correlation(A0, D30)))
        misses = 0
        for seed in range(20):
            cfg = SampleConfig(n_samples=5_000, seed=seed)
            if not estimate_table(table, cfg).within_band(target):
                misses += 1
        assert misses <= 1


class TestRowsFromPrintedRows:
    """A run's Monte Carlo fields follow from its printed rows: each is
    estimate_table of the table that the printed analytic value gives, at
    the row's substream, as README's reproducibility section states."""

    @settings(max_examples=40, deadline=None)
    @given(chsh_parameters(), st.integers(0, 2**64))
    def test_chsh_pair_rows(self, params, seed):
        records = run_json("chsh", params, "--mc", "--samples", "10000", "--seed", str(seed))
        cfg = SampleConfig(10_000, seed)
        pairs = [r for r in records if r["quantity"].startswith("E(")]
        assert len(pairs) == 4
        for k, row in enumerate(pairs):
            est = estimate_table(match_table(0.5 * (1.0 + row["analytic"])), cfg, k)
            assert (row["mc_value"], row["mc_std_error"]) == (est.value, est.std_error)

    @settings(max_examples=40, deadline=None)
    @given(chsh_parameters(), st.integers(0, 2**64))
    def test_chsh_ci_rows(self, params, seed):
        # Remote option b reads the E rows E1 = E(a,b) and E3 = E(a',b),
        # option b_prime the rows E2 = E(a,b') and E4 = E(a',b').
        records = run_json("chsh", params, "--mc", "--samples", "10000", "--seed", str(seed))
        cfg = SampleConfig(10_000, seed)
        e = [r["analytic"] for r in records if r["quantity"].startswith("E(")]
        remote = {"b": (e[0], e[2]), "b_prime": (e[1], e[3])}
        cis = [r for r in records if r["quantity"].startswith("rho_ci[")]
        for k, row in enumerate(cis):
            name = row["quantity"][len("rho_ci[remote="):-1]
            if name not in remote:  # no remote measurement, nothing sampled
                assert (row["mc_value"], row["mc_std_error"]) == (None, None)
                continue
            est = estimate_table(ci_table(*remote[name]), cfg, 4 + k)
            assert (row["mc_value"], row["mc_std_error"]) == (est.value, est.std_error)

    @settings(max_examples=30, deadline=None)
    # Color must vary in 10^4 draws for its correlation to be defined.
    @given(CLASSICAL_PARAMETERS.filter(
        lambda p: abs(p.get("red_given_cube", 0.75) - p.get("blue_given_sphere", 0.75)) <= 0.99
    ), st.integers(0, 2**64))
    def test_classical_rho_rows(self, params, seed):
        records = run_json("classical", params, "--mc", "--samples", "10000", "--seed", str(seed))
        [row] = records
        analytic, fields = row["analytic"], (row["mc_value"], row["mc_std_error"])
        if params["variant"] == "coin":
            table = match_table(0.5 * (1.0 + analytic))
        else:  # rho does not fix the shapes table: its two rates do
            table = shapes_table(
                params.get("red_given_cube", 0.75), params.get("blue_given_sphere", 0.75)
            )
        est = estimate_table(table, SampleConfig(10_000, seed), 0)
        assert fields == (est.value, est.std_error)
