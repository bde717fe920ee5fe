import math

import numpy as np
import pytest

from ineqbridge import (
    DiscreteDist,
    GammaParams,
    GHypoParams,
    gamma_sample,
    ghypo_cdf,
    reg_gamma_q,
)
from ineqbridge.distributions import _ghypo_cdf_convolution

from helpers import hypoexp_cdf


class TestParams:
    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -2.0)
        with pytest.raises(ValueError):
            GammaParams(math.inf, 1.0)

    def test_ghypo_validation(self):
        with pytest.raises(ValueError):
            GHypoParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            GHypoParams(1.0, 1.0, 1.0, math.nan)


class TestGammaSample:
    def test_deterministic_given_seed(self):
        p = GammaParams(0.7, 2.0)
        a = gamma_sample(p, np.random.default_rng(123), 50)
        b = gamma_sample(p, np.random.default_rng(123), 50)
        assert np.array_equal(a, b)

    def test_mean_large_shape(self):
        x = gamma_sample(GammaParams(5.0, 1.0), np.random.default_rng(7), 10 ** 6)
        assert abs(x.mean() - 5.0) <= 5.0 * math.sqrt(5.0 / 10 ** 6)

    def test_variance_small_shape(self):
        x = gamma_sample(GammaParams(0.5, 1.0), np.random.default_rng(8), 10 ** 6)
        assert x.var(ddof=1) == pytest.approx(0.5, rel=0.01)
        assert (x >= 0).all()

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gamma_sample(GammaParams(1.0, 1.0), np.random.default_rng(0), 0)

    def test_tilted_distribution_identity(self):
        # E[1{X <= t} e^(-zX)] / L(z) must match the gamma law with rate beta + z
        p = GammaParams(2.0, 1.5)
        z = 0.8
        rng = np.random.default_rng(42)
        x = gamma_sample(p, rng, 400_000)
        lap = (p.beta / (p.beta + z)) ** p.alpha
        tilted = GammaParams(p.alpha, p.beta + z)
        for t in (0.3, 0.9, 1.8):
            w = np.exp(-z * x) * (x <= t)
            est = w.mean() / lap
            se = w.std(ddof=1) / (lap * math.sqrt(x.size))
            assert abs(est - (1.0 - reg_gamma_q(tilted.alpha, tilted.beta * t))) <= 4.0 * se


class TestGHypoCdf:
    def test_gamma_case_when_rates_match(self):
        got = ghypo_cdf(GHypoParams(1.0, 1.0, 1.0, 1.0), 2.0)
        assert got == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)

    def test_two_exponential_oracle(self):
        got = ghypo_cdf(GHypoParams(1.0, 1.0, 1.0, 2.0), 1.0)
        oracle = hypoexp_cdf(1.0, 2.0, 1.0)
        assert oracle == pytest.approx(0.3995764008937280, abs=1e-15)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_at_zero(self):
        assert ghypo_cdf(GHypoParams(3.0, 0.5, 1.2, 4.0), 0.0) == 0.0

    def test_component_order_is_irrelevant(self):
        a = ghypo_cdf(GHypoParams(2.0, 0.8, 1.0, 1.5), 1.3)
        b = ghypo_cdf(GHypoParams(1.0, 1.5, 2.0, 0.8), 1.3)
        assert a == pytest.approx(b, rel=1e-13)

    def test_gamma_reduction_general_shapes(self):
        g = GHypoParams(2.5, 1.7, 1.5, 1.7)
        for t in (0.2, 1.0, 3.0, 8.0):
            assert ghypo_cdf(g, t) == pytest.approx(
                1.0 - reg_gamma_q(4.0, 1.7 * t), abs=1e-10)

    def test_monotone_and_reaches_one(self):
        g = GHypoParams(2.0, 0.8, 1.0, 1.5)
        ts = np.linspace(0.0, 10.0 * g.mean, 300)
        vals = ghypo_cdf(g, ts)
        assert (np.diff(vals) >= -1e-12).all()
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_convolution_route_matches_series(self):
        # straddle the series budget so both evaluation routes are exercised
        g = GHypoParams(5.0, 300.0, 2.0, 1.0)
        for t in (0.5, 2.0, 9.0):
            series_val = ghypo_cdf(g, t)
            conv_val = _ghypo_cdf_convolution(g, t)
            assert conv_val == pytest.approx(series_val, abs=2e-9)

    def test_empirical_cdf_within_dkw_bound(self):
        rng = np.random.default_rng(31)
        n = 10 ** 5
        g = GHypoParams(2.0, 0.8, 1.0, 1.5)
        draws = (gamma_sample(GammaParams(g.alpha1, g.beta1), rng, n)
                 + gamma_sample(GammaParams(g.alpha2, g.beta2), rng, n))
        draws.sort()
        grid = np.quantile(draws, np.linspace(0.005, 0.995, 200))
        ecdf = np.searchsorted(draws, grid, side="right") / n
        model = ghypo_cdf(g, grid)
        bound = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        assert np.max(np.abs(ecdf - model)) <= bound

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match=r"got t=-1\.0 for GHypoParams\(alpha1=1\.0, beta1=1\.0, "
                                             r"alpha2=1\.0, beta2=2\.0\)"):
            ghypo_cdf(GHypoParams(1.0, 1.0, 1.0, 2.0), -1.0)
        with pytest.raises(ValueError, match=r"got t=inf for GHypoParams\(alpha1=3\.0"):
            ghypo_cdf(GHypoParams(3.0, 0.5, 1.2, 4.0), np.array([1.0, np.inf]))


class TestDiscreteDist:
    def test_canonicalization_merges_equal_values(self):
        d = DiscreteDist([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert d.atoms == ((1.0, 0.5), (2.0, 0.5))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteDist([(1.0, 0.5), (2.0, 0.4)])
        with pytest.raises(ValueError):
            DiscreteDist([])
        with pytest.raises(ValueError):
            DiscreteDist([(-1.0, 1.0)])

    def test_survival_uses_closed_left_limit(self):
        d = DiscreteDist([(1.0, 0.25), (3.0, 0.75)])
        assert d.survival(1.0) == 1.0          # P(X >= 1) includes the atom at 1
        assert d.survival(1.0 + 1e-12) == 0.75
        assert d.survival(3.0) == 0.75
        assert d.survival(3.5) == 0.0
        assert d.survival(0.0) == 1.0

    def test_mean(self):
        d = DiscreteDist([(0.0, 0.5), (2.0, 0.5)])
        assert d.mean() == 1.0
