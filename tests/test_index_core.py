import math

import numpy as np
import pytest

from ineqbridge import (
    DiscreteDist,
    GammaParams,
    discrete_index,
    gamma_gini,
    gamma_hoover,
    gamma_index,
    gamma_sample,
    integral_index,
    j_index,
    reg_gamma_q,
)

from ineqbridge import index_core

from helpers import mp_gamma_index, random_discrete

import mpmath as mp


def _discrete_integral(d: DiscreteDist, lam: float) -> float:
    return integral_index(d.survival, d.mean(), lam,
                          x_breakpoints=d.values, x_upper=d.max_value)


class TestDiscreteIndex:
    def test_degenerate_distribution_is_zero(self):
        d = DiscreteDist([(4.2, 1.0)])
        for lam in (0.0, 0.3, 1.0):
            assert discrete_index(d, lam) == 0.0

    def test_two_point_gini(self):
        d = DiscreteDist([(0.0, 0.5), (2.0, 0.5)])
        assert discrete_index(d, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_two_point_hoover(self):
        d = DiscreteDist([(0.0, 0.5), (2.0, 0.5)])
        assert discrete_index(d, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_mean_rejected(self):
        d = DiscreteDist([(0.0, 1.0)])
        with pytest.raises(ValueError):
            discrete_index(d, 0.5)

    def test_lambda_domain(self):
        d = DiscreteDist([(1.0, 1.0)])
        with pytest.raises(ValueError):
            discrete_index(d, 1.5)


class TestIntegralIndex:
    def test_exponential_gini(self):
        got = integral_index(lambda t: reg_gamma_q(1.0, t), 1.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_gamma_tabulated_value(self):
        got = integral_index(lambda t: reg_gamma_q(2.0, t), 2.0, 0.5)
        assert got == pytest.approx(0.2998, abs=5e-5)

    def test_matches_discrete_oracle(self):
        d = DiscreteDist([(0.5, 0.2), (1.5, 0.3), (2.5, 0.25), (4.0, 0.15), (7.0, 0.1)])
        assert _discrete_integral(d, 0.37) == pytest.approx(discrete_index(d, 0.37), abs=1e-8)

    def test_hoover_branch_matches_discrete(self):
        d = DiscreteDist([(0.0, 0.4), (1.0, 0.3), (5.0, 0.3)])
        assert _discrete_integral(d, 0.0) == pytest.approx(discrete_index(d, 0.0), abs=1e-8)

    def test_mean_validation(self):
        with pytest.raises(ValueError):
            integral_index(lambda t: 1.0, 0.0, 0.5)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            d = random_discrete(rng, int(rng.integers(3, 9)))
            if d.mean() == 0.0:
                continue
            lam = float(rng.uniform(0.0, 1.0))
            assert _discrete_integral(d, lam) == pytest.approx(
                discrete_index(d, lam), abs=1e-7)


class TestGammaClosedForms:
    def test_tabulated_values_sample(self):
        assert gamma_index(0.5, 0.25) == pytest.approx(0.4959, abs=5e-5)
        assert gamma_index(10.0, 0.75) == pytest.approx(0.1558, abs=5e-5)
        assert gamma_index(5.0, 0.5) == pytest.approx(0.1954, abs=5e-5)

    def test_gamma_consistency_with_integral_route(self):
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
            for lam in (1e-4, 1e-3, 0.01, 0.25, 0.5, 0.75, 1.0):
                via_integral = integral_index(lambda t: reg_gamma_q(alpha, t), alpha, lam)
                assert gamma_index(alpha, lam) == pytest.approx(via_integral, abs=1e-8)

    def test_hoover_values(self):
        assert gamma_hoover(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert gamma_hoover(2.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-14)
        ref = float(mp.exp(-mp.mpf("0.5")) / (mp.sqrt(mp.mpf("0.5")) * mp.gamma(mp.mpf("0.5"))))
        assert gamma_hoover(0.5) == pytest.approx(ref, rel=1e-14)

    def test_hoover_is_small_lambda_limit(self):
        assert gamma_index(2.0, 1e-4) == pytest.approx(gamma_hoover(2.0), abs=1e-8)

    def test_small_weights_match_oracle(self):
        # at 15 digits the oracle is within 2.2e-16 of its 25-digit value at all 25
        # points and takes about half the time
        for alpha in (1e-3, 0.5, 2.0, 50.0, 1e3):
            for lam in (1e-8, 1e-6, 1e-4, 1e-3, 0.01):
                ref = mp_gamma_index(alpha, lam, dps=15)
                assert gamma_index(alpha, lam) == pytest.approx(ref, abs=1e-10)

    def test_both_sides_of_the_grading_switch_match_oracle(self):
        # below shape 1 the first mesh is graded toward s = 0, from shape 1 on it is not
        for alpha in (0.999, 1.001):
            for lam in (0.05, 0.5, 0.95):
                ref = mp_gamma_index(alpha, lam, dps=15)
                assert gamma_index(alpha, lam) == pytest.approx(ref, abs=1e-10)

    def test_each_value_takes_few_q_calls(self, monkeypatch):
        # the first mesh resolves the integrand, so the adaptive loop seldom splits;
        # a value that bisects toward a feature one interval per call made up to 59
        calls = []

        def counting_q(s, x):
            calls.append(s)
            return reg_gamma_q(s, x)

        monkeypatch.setattr(index_core, "reg_gamma_q", counting_q)
        most = (0, ())
        for alpha in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1e3, 1e4):
            for lam in index_core.lambda_grid(21):
                calls.clear()
                gamma_index(alpha, lam)
                most = max(most, (len(calls), (alpha, lam)))
        assert most[0] <= 10, most

    def test_large_shape_matches_oracle(self):
        for lam in (0.01, 0.5):
            assert gamma_index(1e4, lam) == pytest.approx(mp_gamma_index(1e4, lam), abs=1e-10)

    @pytest.mark.parametrize("alpha", [3e8, 1e9, 1e10])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_huge_shape_meets_normal_limit(self, alpha, lam):
        # the index tends to E|Z1 + lam Z2| / 2 / sqrt(alpha) for standard normal
        # Z1, Z2; the first correction is of relative order 1/alpha
        limit = math.sqrt((1.0 + lam * lam) / (2.0 * math.pi * alpha))
        assert gamma_index(alpha, lam) == pytest.approx(limit, rel=1e-8)

    def test_non_decreasing_in_weight(self):
        # I(lam) = E|A + lam B| / (2 mu) with A, B independent and centred is
        # convex in lam with zero slope at 0, so it never decreases
        lams = (0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.02, 0.05, 0.25, 0.5, 1.0)
        for alpha in (0.5, 2.0, 10.0, 50.0, 1e3):
            vals = [gamma_index(alpha, lam) for lam in lams]
            assert vals == sorted(vals), alpha

    def test_gini_values(self):
        assert gamma_gini(1.0) == pytest.approx(0.5, abs=1e-15)
        assert gamma_gini(0.5) == pytest.approx(2.0 / math.pi, abs=1e-15)
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert gamma_index(alpha, 1.0) == gamma_gini(alpha)
            # the closed form's own approach to the Gini end
            assert abs(gamma_index(alpha, 1.0 - 1e-9) - gamma_gini(alpha)) <= 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_index(0.0, 0.5)
        with pytest.raises(ValueError):
            gamma_index(1.0, -0.1)
        with pytest.raises(ValueError):
            gamma_hoover(-1.0)
        with pytest.raises(ValueError):
            gamma_gini(0.0)


class TestJIndex:
    def test_endpoints_and_midpoint(self):
        assert j_index(0.2, 0.4, 0.0) == 0.2
        assert j_index(0.2, 0.4, 1.0) == 0.4
        assert j_index(0.2, 0.4, 0.5) == pytest.approx(0.3, abs=1e-15)


class TestIndexProperties:
    def test_bounds_zero_index_gini_one(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            d = random_discrete(rng, int(rng.integers(2, 8)))
            if d.mean() == 0.0:
                continue
            lam = float(rng.uniform(0.0, 1.0))
            val = discrete_index(d, lam)
            gini = discrete_index(d, 1.0)
            assert -1e-15 <= val <= gini + 1e-12 <= 1.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(78)
        d = random_discrete(rng, 6)
        for a in (0.5, 3.0, 100.0):
            scaled = DiscreteDist([(a * v, p) for v, p in d.atoms])
            for lam in (0.0, 0.4, 1.0):
                assert discrete_index(scaled, lam) == pytest.approx(
                    discrete_index(d, lam), abs=1e-12)

    def test_translation_rule(self):
        rng = np.random.default_rng(79)
        d = random_discrete(rng, 5)
        mu = d.mean()
        for c in (0.5, 2.0, 10.0):
            shifted = DiscreteDist([(v + c, p) for v, p in d.atoms])
            for lam in (0.0, 0.6, 1.0):
                assert discrete_index(shifted, lam) == pytest.approx(
                    mu / (mu + c) * discrete_index(d, lam), abs=1e-10)

    def test_convex_combination_upper_bound(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            d = random_discrete(rng, int(rng.integers(2, 8)))
            lam = float(rng.uniform(0.0, 1.0))
            h = discrete_index(d, 0.0)
            g = discrete_index(d, 1.0)
            assert discrete_index(d, lam) <= j_index(h, g, lam) + 1e-12

    def test_continuity_in_lambda(self):
        rng = np.random.default_rng(81)
        for _ in range(15):
            vals = rng.uniform(0.0, 100.0, size=5)
            probs = rng.uniform(0.1, 1.0, size=5)
            probs /= math.fsum(probs.tolist())
            d = DiscreteDist(list(zip(vals.tolist(), probs.tolist())))
            if d.mean() < 1.0:
                continue
            lam = float(rng.uniform(0.0, 1.0 - 1e-6))
            assert abs(discrete_index(d, lam) - discrete_index(d, lam + 1e-6)) <= 1e-4

    def test_progressive_transfer_never_increases_index(self):
        third = 1.0 / 3.0
        base = (1.0, 4.0, 11.0)
        for lam in (0.0, 0.3, 0.7, 1.0):
            prev = None
            for eps in np.linspace(0.0, 1.5, 7):
                d = DiscreteDist([(base[0] + eps, third), (base[1], third), (base[2] - eps, third)])
                val = discrete_index(d, lam)
                if prev is not None:
                    assert val <= prev + 1e-12
                prev = val

    def test_covariance_representation(self):
        # index equals Cov(Y, 1{Y>0})/mu with Y the centered mixture of deviations
        rng = np.random.default_rng(82)
        n = 10 ** 6
        for alpha, lam in ((2.0, 0.4), (0.5, 0.75)):
            p = GammaParams(alpha, 1.0)
            x1 = gamma_sample(p, rng, n)
            x2 = gamma_sample(p, rng, n)
            y = (1.0 - lam) * (x1 - alpha) + lam * (x1 - x2)
            ind = (y > 0).astype(float)
            prod = (y - y.mean()) * (ind - ind.mean())
            est = prod.mean() / alpha
            se = prod.std(ddof=1) / (alpha * math.sqrt(n))
            assert abs(est - gamma_index(alpha, lam)) <= 4.0 * se
