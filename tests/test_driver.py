"""Tests for the jump-driver layer: cumulants, densities, samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp, norminvgauss

from levylibor import (
    CumulantDomainError,
    NigParams,
    nig_cumulant,
    nig_density,
    nig_jump_cumulant,
    nig_levy_density,
    nig_mean_rate,
    sample_inverse_gaussian,
    SimulationEngine,
    block_rng,
    build_grid,
    bundled_setup,
    sample_nig_increment,
)

from helpers import nig_variance_rate

BENCH = NigParams(alpha=1.5, beta=0.0, delta=1.5, mu=0.0)


def nig_fourth_cumulant_rate(p):
    """Fourth cumulant of the NIG law per unit time,
    3 delta alpha^2 (alpha^2 + 4 beta^2) / gamma^7."""
    return (3.0 * p.delta * p.alpha**2 * (p.alpha**2 + 4.0 * p.beta**2)
            / p.gamma**7)


class TestCumulant:
    def test_symmetric_case_closed_form(self):
        # beta = mu = 0: kappa(u) = delta*(alpha - sqrt(alpha^2 - u^2))
        assert nig_cumulant(1.5, BENCH) == 2.25
        assert nig_cumulant(0.0, BENCH) == 0.0

    def test_frozen_value_small_argument(self):
        assert nig_cumulant(0.12, BENCH) == 0.00721155701211984

    def test_value_at_summed_loading_is_exact_rationally(self):
        # With alpha = delta = 3/2 and u = 36/25 the radicand is (21/50)^2,
        # so the cumulant is exactly 81/50 = 1.62 in rational arithmetic.
        alpha = Fraction(3, 2)
        u = Fraction(36, 25)
        root = Fraction(21, 50)
        assert root * root == alpha * alpha - u * u
        assert Fraction(3, 2) * (alpha - root) == Fraction(81, 50)
        # float evaluation rounds each intermediate, landing within 2 ulp
        assert abs(nig_cumulant(1.44, BENCH) - 1.62) <= 2 * np.spacing(1.62)

    def test_domain_is_closed_and_violations_raise(self):
        nig_cumulant(1.5, BENCH)
        nig_cumulant(-1.5, BENCH)
        with pytest.raises(CumulantDomainError) as err:
            nig_cumulant(1.5 + 1e-9, BENCH)
        assert "1.5000000" in str(err.value)
        with pytest.raises(CumulantDomainError):
            nig_cumulant(-1.6, BENCH)

    def test_skewed_parameters_match_direct_formula(self):
        p = NigParams(alpha=2.0, beta=0.4, delta=0.8, mu=0.1)
        u = 0.9
        gamma = math.sqrt(p.alpha ** 2 - p.beta ** 2)
        direct = p.mu * u + p.delta * (
            gamma - math.sqrt(p.alpha ** 2 - (p.beta + u) ** 2))
        assert nig_cumulant(u, p) == pytest.approx(direct, rel=1e-15)

    def test_jump_cumulant_is_mu_free_and_compensated(self):
        p1 = NigParams(alpha=2.0, beta=0.4, delta=0.8, mu=0.1)
        p2 = NigParams(alpha=2.0, beta=0.4, delta=0.8, mu=-3.0)
        assert nig_jump_cumulant(0.7, p1) == nig_jump_cumulant(0.7, p2)
        # symmetric driftless case: jump cumulant equals the full cumulant
        assert nig_jump_cumulant(0.7, BENCH) == nig_cumulant(0.7, BENCH)

    def test_mean_rate(self):
        assert nig_mean_rate(BENCH) == 0.0
        p = NigParams(alpha=2.0, beta=0.4, delta=0.8, mu=0.1)
        gamma = math.sqrt(4.0 - 0.16)
        assert nig_mean_rate(p) == pytest.approx(0.1 + 0.8 * 0.4 / gamma,
                                                 rel=1e-15)


class TestDensity:
    @pytest.mark.parametrize("p,t", [
        (BENCH, 0.5), (BENCH, 4.5),
        (NigParams(alpha=2.0, beta=0.2, delta=1.2, mu=-0.12), 20.0),
        (NigParams(alpha=2.0, beta=-0.5, delta=0.3, mu=0.4), 1.0),
        (NigParams(alpha=3.0, beta=1.0, delta=0.05, mu=0.2), 0.5),
    ])
    def test_matches_scipy_norminvgauss(self, p, t):
        # scipy's law in its standard form: a = alpha s, b = beta s with
        # the spread s = delta t as scale, mu t as location
        spread = p.delta * t
        law = norminvgauss(a=p.alpha * spread, b=p.beta * spread,
                           loc=p.mu * t, scale=spread)
        x = p.mu * t + np.linspace(-40.0, 40.0, 801)
        expected = law.pdf(x)
        assert np.all(expected > 0.0)
        np.testing.assert_allclose(nig_density(x, t, p), expected,
                                   rtol=1e-13, atol=0.0)

    def test_scalar_in_scalar_out(self):
        value = nig_density(0.3, 2.0, BENCH)
        assert isinstance(value, float)
        assert value == nig_density(np.array([0.3]), 2.0, BENCH)[0]


class TestLevyDensity:
    def test_symmetric_when_beta_zero(self):
        for x in (0.05, 0.3, 1.7):
            assert nig_levy_density(x, BENCH) == nig_levy_density(-x, BENCH)

    def test_positive_and_decaying(self):
        xs = np.array([0.1, 0.5, 1.0, 3.0, 8.0])
        vals = np.array([nig_levy_density(x, BENCH) for x in xs])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_second_moment_matches_variance_rate(self):
        # independent moment identity: integral of x^2 against the density
        # equals the variance per unit time (the process has no Gaussian
        # part), tying the Bessel-form density to the cumulant derivatives
        half = quad(lambda x: x * x * nig_levy_density(x, BENCH),
                    0.0, 1.0, limit=200)[0]
        half += quad(lambda x: x * x * nig_levy_density(x, BENCH),
                     1.0, np.inf, limit=200)[0]
        assert 2.0 * half == pytest.approx(nig_variance_rate(BENCH), rel=1e-9)
        assert nig_variance_rate(BENCH) == 1.0


class TestSamplers:
    def test_inverse_gaussian_moments(self):
        n = 1_000_000
        rng = np.random.default_rng(12345)
        z = sample_inverse_gaussian(1.0, 2.0, rng, size=n)
        assert np.all(z > 0)
        # IG(mean, shape): var = mean^3 / shape and fourth cumulant
        # 15 mean^7 / shape^3; mean and sample variance within 4 standard
        # errors, sqrt(var / n) and sqrt((kappa4 + 2 var^2) / n)
        var, kappa4 = 0.5, 15.0 / 8.0
        var_se = math.sqrt((kappa4 + 2.0 * var**2) / n)
        assert abs(z.mean() - 1.0) < 4.0 * math.sqrt(var / n)
        assert abs(z.var() - var) < 4.0 * var_se

    def test_nig_increment_moments(self):
        n, dt = 1_000_000, 0.5
        rng = np.random.default_rng(12345)
        x = sample_nig_increment(dt, BENCH, rng, size=n)
        se = x.std() / 1000.0
        assert abs(x.mean()) <= 4.0 * se
        # var over dt = variance rate; the sample variance within 4 standard
        # errors, with the fourth cumulant of the law over dt
        var = nig_variance_rate(BENCH) * dt
        kappa4 = nig_fourth_cumulant_rate(BENCH) * dt
        var_se = math.sqrt((kappa4 + 2.0 * var**2) / n)
        assert abs(x.var() - var) < 4.0 * var_se

    def test_moment_generating_function(self):
        # E[exp(u H_1)] = exp(kappa(u)); checked at a pinned seed within
        # four standard errors of the empirical mean
        rng = np.random.default_rng(12345)
        x = sample_nig_increment(1.0, BENCH, rng, size=1_000_000)
        for u in (0.5, 1.0):
            g = np.exp(u * x)
            dev = g.mean() - math.exp(nig_cumulant(u, BENCH))
            assert abs(dev) <= 4.0 * g.std(ddof=1) / 1000.0

    def test_increments_add_in_law(self):
        # sum of two quarter-period draws matches one half-period draw;
        # two-sample Kolmogorov-Smirnov at the 1% level, pinned seed
        rng = np.random.default_rng(777)
        a = (sample_nig_increment(0.25, BENCH, rng, size=100_000)
             + sample_nig_increment(0.25, BENCH, rng, size=100_000))
        b = sample_nig_increment(0.5, BENCH, rng, size=100_000)
        assert ks_2samp(a, b).pvalue > 0.01

    @pytest.fixture(scope="class")
    def engine(self):
        setup = bundled_setup()
        return SimulationEngine(setup, build_grid(setup.tenor, 1))

    @pytest.mark.parametrize("seed, index", [
        (-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
    def test_path_rng_rejects_keys_outside_64_bits(self, engine, seed, index):
        # a path's draws are keyed by (seed, path index), its block's
        # stream by (seed, block); both are pairs of 64-bit words
        with pytest.raises(ValueError):
            block_rng(seed, index)
        with pytest.raises(ValueError):
            engine.path_increments(seed, index, 1)

    def test_path_rng_accepts_the_largest_key(self, engine):
        top = (1 << 64) - 1
        assert np.isfinite(block_rng(top, top).standard_normal())
        assert np.isfinite(engine.path_increments(top, top, 1)).all()

    def test_path_rng_substreams(self, engine):
        a1 = engine.path_increments(42, 7, 1)
        a2 = engine.path_increments(42, 7, 1)
        b = engine.path_increments(42, 8, 1)
        c = engine.path_increments(43, 7, 1)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_block_rng_streams(self):
        a1 = block_rng(42, 7).standard_normal(8)
        a2 = block_rng(42, 7).standard_normal(8)
        b = block_rng(42, 8).standard_normal(8)
        c = block_rng(43, 7).standard_normal(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)
        assert not np.array_equal(a1, c)

    def test_symmetric_increments_have_vanishing_skewness(self):
        rng = np.random.default_rng(4242)
        x = sample_nig_increment(0.5, BENCH, rng, size=1_000_000)
        m = x.mean()
        s2 = ((x - m) ** 2).mean()
        skew = ((x - m) ** 3).mean() / s2 ** 1.5
        assert abs(skew) < 0.05

    def test_inverse_gaussian_concentrates_at_large_shape(self):
        # var = mean^3 / shape, so a huge shape pins the draws to the mean
        rng = np.random.default_rng(99)
        z = sample_inverse_gaussian(1.0, 1e12, rng, size=100_000)
        assert z.var() < 1e-9
        assert abs(z.mean() - 1.0) < 1e-6


class TestTripletIncrements:
    def test_variance_over_full_horizon(self):
        # summed increments over [0, 4.5] carry variance rate * horizon; the
        # bundled driver is BENCH and its grid has 36 steps up to T_9 = 4.5
        setup = bundled_setup()
        assert setup.nig == BENCH
        engine = SimulationEngine(setup, build_grid(setup.tenor, 4))
        assert engine.grid.n_steps == 36
        n = 4000
        totals = engine.path_increments(314, 0, n).sum(axis=1)
        horizon = 4.5 * nig_variance_rate(BENCH)
        # sample variance within 4 standard errors, as in the sampler tests
        kappa4 = 4.5 * nig_fourth_cumulant_rate(BENCH)
        assert abs(totals.var() - horizon) < 4.0 * np.sqrt(
            (kappa4 + 2.0 * horizon**2) / n)
        assert abs(totals.mean()) < 4.0 * np.sqrt(horizon / n)

