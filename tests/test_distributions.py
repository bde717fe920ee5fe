import math

import numpy as np
import pytest
from scipy import special, stats

from ineqbridge import (
    DiscreteDist,
    GammaParams,
    GHypoParams,
    distributions,
    gamma_sample,
    ghypo_cdf,
    reg_gamma_q,
)
from ineqbridge.distributions import _ghypo_cdf_convolution
from ineqbridge.specfun import _gamma_bulk

from helpers import hypoexp_cdf, mp_ghypo_cdf, quad_ghypo_cdf
import reference_values

# (a1, b1, a2, b2, t) past the series budget, where ghypo_cdf conditions on the first component,
# of shape between 1 and 2; make_reference_values.py stores their 25-digit helpers.mp_ghypo_cdf
# values in reference_values.GHYPO_CDF_ORACLE
CORNER_CASES = ([(1.18, 1000.0, 0.01, 0.008, t) for t in (30.0, 200.0, 600.0)]
                + [(1.56, 100.0, 0.02, 0.0125, t) for t in (300.0, 600.0)])


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

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.999, 1.0])
    def test_law_at_small_and_unit_shapes(self, alpha):
        # numpy's own sampler at every shape; at 0.01 about 6e-4 of the draws underflow to 0
        p = GammaParams(alpha, 2.5)
        x = gamma_sample(p, np.random.default_rng(2024), 20_000)
        result = stats.kstest(x, stats.gamma(alpha, scale=1.0 / p.beta).cdf)
        assert result.pvalue > 1e-3, result

    def test_tiny_shape_zeros_and_log_scale(self):
        # at alpha = 1e-3 about half the draws lie below the least positive double and come
        # out as exact 0s: their share is P(alpha, 5e-324) = e^(alpha ln 5e-324)/Gamma(1+alpha);
        # the positive ones, spread over ln x in (-745, 2), follow P(alpha, e^t) on that scale
        alpha, size = 1e-3, 200_000
        x = gamma_sample(GammaParams(alpha, 1.0), np.random.default_rng(1003), size)
        assert (x >= 0.0).all()

        def within_4_se(share, p):
            return abs(share - p) <= 4.0 * math.sqrt(p * (1.0 - p) / size)

        p_zero = math.exp(alpha * math.log(5e-324) - math.lgamma(1.0 + alpha))
        assert within_4_se(np.mean(x == 0.0), p_zero), (np.mean(x == 0.0), p_zero)
        log_x = np.log(x[x > 0.0])
        for t in (-700.0, -500.0, -300.0, -100.0, -20.0, -3.0, 0.0):
            share = np.mean(x == 0.0) + np.count_nonzero(log_x <= t) / size
            assert within_4_se(share, special.gammainc(alpha, math.exp(t))), t

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

    @pytest.mark.parametrize("g", [
        GHypoParams(2.0, 0.8, 1.0, 1.5),  # the series just below the cut
        GHypoParams(5.0, 300.0, 2.0, 1.0),
        GHypoParams(8e-3, 1000.0, 1e-3, 1.0 / 9.991),
        GHypoParams(118.0, 4.0, 1.0, 1.0 / 90.25),  # the gamma sum of the bias cell (1, 0.75, 120)
        GHypoParams(1.18e6, 2.0, 1e4, 1.0 / 60.5),
    ])
    def test_exactly_one_past_the_joint_cut(self, g, monkeypatch):
        # past U1/b1 + U2/b2, 1 - F <= Q(a1, U1) + Q(a2, U2) < 1e-22 rounds to exactly 1
        cut = _gamma_bulk(g.alpha1)[0] / g.beta1 + _gamma_bulk(g.alpha2)[0] / g.beta2
        below = ghypo_cdf(g, np.nextafter(cut, 0.0))
        assert 1.0 - 1e-14 <= below <= 1.0
        def unexpected(*args):
            raise AssertionError("no series or convolution past the cut")
        monkeypatch.setattr(distributions, "log_humbert_phi2", unexpected)
        monkeypatch.setattr(distributions, "_ghypo_cdf_convolution", unexpected)
        assert ghypo_cdf(g, cut) == 1.0
        assert ghypo_cdf(g, np.array([cut, np.nextafter(cut, np.inf), 2.0 * cut, 1e300])).tolist() == [1.0] * 4

    def test_convolution_route_matches_series(self):
        # straddle the series budget so both evaluation routes are exercised; the
        # convolution conditions on shape 5, and on shape 0.5 in v = (b u)^a
        for g in (GHypoParams(5.0, 300.0, 2.0, 1.0), GHypoParams(0.5, 300.0, 2.0, 1.0)):
            for t in (0.5, 2.0, 9.0):
                series_val = ghypo_cdf(g, t)
                conv_val = _ghypo_cdf_convolution(g, t)
                assert conv_val == pytest.approx(series_val, abs=2e-9)

    @pytest.mark.parametrize("a1, b1, a2, b2, t", CORNER_CASES)
    def test_convolution_grades_the_corner_between_shapes_one_and_two(self, a1, b1, a2, b2, t, monkeypatch):
        # the conditioned density u^(a-1) e^(-b u) has unbounded curvature at 0: an ungraded
        # first mesh left these points 3.2e-11 to 5.1e-11 off
        calls = []
        monkeypatch.setattr(distributions, "_ghypo_cdf_convolution",
                            lambda *args, f=_ghypo_cdf_convolution: calls.append(args) or f(*args))
        got = ghypo_cdf(GHypoParams(a1, b1, a2, b2), t)
        assert len(calls) == 1
        assert abs(got - reference_values.GHYPO_CDF_ORACLE[a1, b1, a2, b2, t]) <= 1e-13

    def test_stored_oracle_holds_exactly_the_cases(self):
        # a case added, dropped or moved needs make_reference_values.py run again
        assert sorted(reference_values.GHYPO_CDF_ORACLE) == sorted(CORNER_CASES)
        assert len(CORNER_CASES) == len(set(CORNER_CASES)) == 5

    def test_convolution_below_shape_one(self):
        # the convolution conditions on the component whose mass ends first; below shape 1
        # its density u^(a-1) overflows at subnormal u, and (8e-3, 1000) is such a component
        g = GHypoParams(8e-3, 1000.0, 1e-3, 1.0 / 9.991)
        assert abs(ghypo_cdf(g, 50.0) - mp_ghypo_cdf(g.alpha1, g.beta1, g.alpha2, g.beta2, 50.0)) <= 1e-12

    @pytest.mark.parametrize("alpha, lam, n", [(400.0, 0.5, 40), (1e3, 0.5, 40), (1e4, 0.5, 120),
                                               (50.0, 0.9, 120)])
    def test_large_shape_gamma_sums_match_quadrature_oracle(self, alpha, lam, n):
        # the gamma sum of the bias integral: a density spike far from 0 that the
        # convolution route must not step over, and the series route below its budget
        g = GHypoParams((n - 2) * alpha, 1.0 / (1.0 - lam), alpha, 1.0 / (1.0 + (n - 1) * lam))
        sd = math.sqrt(g.alpha1 / g.beta1 ** 2 + g.alpha2 / g.beta2 ** 2)
        for k in range(-6, 7):
            t = g.mean + k * sd
            oracle = quad_ghypo_cdf(g.alpha1, g.beta1, g.alpha2, g.beta2, t)
            assert abs(ghypo_cdf(g, t) - oracle) <= 1e-11, k

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 0.999])
    def test_quadrature_oracle_at_small_shapes(self, alpha, lam):
        # the bias integral's gamma sum at n = 3, whose narrower component has shape alpha:
        # the quadrature oracle's density meets 1 + sigma = 0 next to u = 0 unless it takes
        # ln(b u / a) there, and both it and ghypo_cdf agree with the mixture oracle
        g = GHypoParams(alpha, 1.0 / (1.0 - lam), alpha, 1.0 / (1.0 + 2.0 * lam))
        sd = math.sqrt(g.alpha1 / g.beta1 ** 2 + g.alpha2 / g.beta2 ** 2)
        for k in range(0, 9, 2):
            t = g.mean + k * sd
            oracle = mp_ghypo_cdf(g.alpha1, g.beta1, g.alpha2, g.beta2, t)
            assert abs(quad_ghypo_cdf(g.alpha1, g.beta1, g.alpha2, g.beta2, t) - oracle) <= 1e-13, k
            assert abs(ghypo_cdf(g, t) - oracle) <= 1e-11, k

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

    def test_series_above_one_is_an_error(self, monkeypatch):
        # a Phi2 value that puts F above 1 + 1e-9 is a fault of the series, named with its parameters
        monkeypatch.setattr(distributions, "log_humbert_phi2", lambda a, c, x, y: np.full(np.shape(y), 50.0))
        with pytest.raises(RuntimeError, match=r"^GHypo distribution function exceeded 1 \(\d.*\) for parameters "
                                               r"GHypoParams\(alpha1=2\.0, beta1=0\.8, alpha2=1\.0, beta2=1\.5\)$"):
            ghypo_cdf(GHypoParams(2.0, 0.8, 1.0, 1.5), [0.5, 1.3])

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got -1\.0 at g=GHypoParams\(alpha1=1\.0, beta1=1\.0, "
                                             r"alpha2=1\.0, beta2=2\.0\)"):
            ghypo_cdf(GHypoParams(1.0, 1.0, 1.0, 2.0), -1.0)
        with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got inf at g=GHypoParams\(alpha1=3\.0"):
            ghypo_cdf(GHypoParams(3.0, 0.5, 1.2, 4.0), np.array([1.0, np.inf]))


class TestDiscreteDist:
    def test_canonicalization_merges_equal_values(self):
        d = DiscreteDist([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
        assert d.atoms == ((1.0, 0.5), (2.0, 0.5))
        assert repr(d) == "DiscreteDist([(1.0, 0.5), (2.0, 0.5)])"

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

    def test_survival_refuses_nan(self):
        d = DiscreteDist([(1.0, 0.5), (3.0, 0.5)])
        for t in (math.nan, [math.nan, 2.0]):
            with pytest.raises(ValueError, match="^t must not be nan$"):
                d.survival(t)
        # below every atom and past the top one, the infinities included
        assert d.survival(-1.0) == d.survival(-math.inf) == 1.0
        assert d.survival(math.inf) == 0.0
        assert d.survival([-math.inf, 2.0, math.inf]).tolist() == [1.0, 0.5, 0.0]

    def test_mean(self):
        d = DiscreteDist([(0.0, 0.5), (2.0, 0.5)])
        assert d.mean() == 1.0
