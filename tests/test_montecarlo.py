import math

import numpy as np
import pytest

from mucorr.counterfactual import pearson_pm1
from mucorr.errors import DegenerateSequenceError, DomainError
from mucorr.montecarlo import (
    MAX_SAMPLES,
    EmpiricalEstimate,
    SampleConfig,
    _match_table,
    estimate_ci_correlation,
    estimate_coin_correlation,
    estimate_correlation,
    estimate_event_rate,
    estimate_ns_pair,
    estimate_pair_correlation,
    estimate_shapes_correlation,
    sample_counts,
    shapes_rho,
    substream,
)
from mucorr.nsbox import NsBox, make_isotropic
from mucorr.spin import Direction, correlation, match_probability

A0 = Direction.from_degrees(0.0)
A90 = Direction.from_degrees(90.0)
B45 = Direction.from_degrees(45.0)
D30 = Direction.from_degrees(30.0)

CFG = SampleConfig(n_samples=50_000, seed=7)


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


class TestStreams:
    def test_same_seed_same_draws(self):
        a = substream(42, 3).random(8)
        b = substream(42, 3).random(8)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = substream(42, 0).random(8)
        b = substream(42, 1).random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(1, 0).random(8)
        b = substream(2, 0).random(8)
        assert not np.array_equal(a, b)

    def test_estimates_are_deterministic(self):
        e1 = estimate_pair_correlation(A0, B45, CFG, 2)
        e2 = estimate_pair_correlation(A0, B45, CFG, 2)
        assert e1 == e2  # bit-exact, not approximate

    def test_counts_are_one_multinomial_draw_of_the_substream(self):
        table = [0.4, 0.1, 0.2, 0.3]
        counts = sample_counts(table, CFG, 5)
        expected = substream(CFG.seed, 5).multinomial(CFG.n_samples, table)
        assert counts == tuple(int(c) for c in expected)


class TestSamplers:
    def test_signs_are_pm1_and_fair(self):
        n = 100_000
        counts = sample_counts(_match_table(0.5), SampleConfig(n, seed=0))
        assert len(counts) == 4 and sum(counts) == n
        assert all(isinstance(c, int) and c >= 0 for c in counts)
        n00, n01, n10, n11 = counts
        for plus in (n00 + n01, n00 + n10):  # first and second outcome
            assert abs(2 * plus / n - 1.0) < 4.0 / math.sqrt(n)

    def test_pair_marginals_are_fair(self):
        n = 100_000
        table = _match_table(match_probability(A0, B45))
        n00, n01, n10, n11 = sample_counts(table, SampleConfig(n, seed=3))
        bound = 4.0 / math.sqrt(n)
        assert abs(2 * (n00 + n01) / n - 1.0) < bound
        assert abs(2 * (n00 + n10) / n - 1.0) < bound

    def test_pair_correlation_matches_analytic(self):
        est = estimate_pair_correlation(A0, D30, CFG)
        assert est.within_band(correlation(A0, D30))

    def test_ci_sampler_matches_product(self):
        est = estimate_ci_correlation(B45, A0, A90, CFG)
        assert est.within_band(0.5)

    def test_coin_uncorrelated(self):
        est = estimate_coin_correlation(CFG)
        assert est.within_band(0.0)

    def test_shapes_default(self):
        est = estimate_shapes_correlation(CFG)
        assert est.within_band(0.5)

    def test_shapes_asymmetric_rates(self):
        expected = shapes_rho(0.9, 0.6)
        assert expected == pytest.approx(0.5 / math.sqrt(1.0 - 0.09), abs=1e-12)
        est = estimate_shapes_correlation(CFG, 0, 0.9, 0.6)
        assert est.within_band(expected)

    def test_shapes_rate_domain(self):
        with pytest.raises(DomainError):
            estimate_shapes_correlation(CFG, 0, red_given_cube=1.3)
        with pytest.raises(DomainError):
            shapes_rho(1.0, 0.0)  # deterministic color

    def test_nsbox_sampler_rates(self):
        rate, corr = estimate_ns_pair(make_isotropic(0.8), 1, 1, CFG)
        assert rate.within_band(0.8)
        assert corr.within_band(-0.6)  # E11 = 1 - 2p

    def test_nsbox_sampler_rejects_bad_tables(self):
        bad = np.full((2, 2, 2, 2), 0.3)  # normalization broken
        with pytest.raises(DomainError):
            estimate_ns_pair(NsBox(bad), 0, 0, CFG)
        negative = np.full((2, 2, 2, 2), 0.25)
        negative[0, 0, 0, 0] = -0.25
        negative[1, 1, 0, 0] = 0.75
        with pytest.raises(DomainError):
            sample_counts(NsBox(negative).joint(0, 0), CFG)
        with pytest.raises(DomainError):
            sample_counts([0.25, 0.25, 0.25, float("nan")], CFG)


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
        misses = 0
        for seed in range(20):
            cfg = SampleConfig(n_samples=5_000, seed=seed)
            if not estimate_pair_correlation(A0, D30, cfg).within_band(target):
                misses += 1
        assert misses <= 1
