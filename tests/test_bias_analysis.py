import math

import mpmath as mp
import pytest

from ineqbridge import (
    BiasQuery,
    GammaParams,
    bias,
    bias_analysis,
    distributions,
    expected_i_hat,
    gamma_gini,
    gamma_hoover,
    specfun,
    tilting_lemma_check,
)

from helpers import analytic_bias_table, mix_expected_i_hat, mp_beta_expect, mp_expected_i_hat, tilting_agrees
from reference_values import MC_REFERENCE


class TestBiasQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            BiasQuery(alpha=0.0, lam=0.5, n=10)
        with pytest.raises(ValueError):
            BiasQuery(alpha=1.0, lam=1.5, n=10)
        with pytest.raises(ValueError):
            BiasQuery(alpha=1.0, lam=0.5, n=1)


class TestExpectedIHat:
    def test_matches_reference_mean(self):
        # reference mean carries its own MC error: compare within 4 SE
        got = expected_i_hat(BiasQuery(alpha=2.0, lam=0.5, n=40))
        assert abs(got - 0.3001) <= 4.0 * math.sqrt(0.0010 / 1000.0)
        assert got == pytest.approx(0.2998, abs=0.004)

    def test_gini_weight_is_exact(self):
        for alpha in (0.5, 1.0, 3.3):
            assert expected_i_hat(BiasQuery(alpha=alpha, lam=1.0, n=12)) == gamma_gini(alpha)

    def test_pair_hoover_matches_beta_oracle(self):
        # n = 2, lam = 0: B = X1/(X1+X2) is Beta(alpha, alpha) and H_hat = |B - 1/2|,
        # so E[H_hat] = Gamma(2 alpha) / (alpha 4^alpha Gamma(alpha)^2)
        for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
            oracle = math.exp(math.lgamma(2.0 * alpha) - math.log(alpha) - alpha * math.log(4.0)
                              - 2.0 * math.lgamma(alpha))
            got = expected_i_hat(BiasQuery(alpha=alpha, lam=0.0, n=2))
            assert abs(got - oracle) <= 1e-9, alpha

    def test_pair_sample_degenerate_component(self):
        # n = 2: (1 + lam)/2 times the Gini coefficient, 0.375 at shape 2
        assert expected_i_hat(BiasQuery(alpha=2.0, lam=0.5, n=2)) == pytest.approx(0.28125, abs=1e-6)

    @pytest.mark.parametrize("alpha, lam", [(1e-3, 0.0), (0.5, 0.3), (2.0, 0.9), (20.0, 0.5),
                                            (50.0, 0.2), (200.0, 0.7), (1e3, 0.5)])
    def test_pair_is_a_multiple_of_the_gini_estimator(self, alpha, lam):
        # at n = 2 the estimator is (1+lam)/2 |X1 - X2|/(X1 + X2), and B = X1/(X1 + X2) is
        # Beta(alpha, alpha)
        with mp.workdps(30):
            oracle = (1 + mp.mpf(lam)) / 2 * mp_beta_expect(alpha, alpha, lambda b, omb: abs(b - omb))
        got = expected_i_hat(BiasQuery(alpha=alpha, lam=lam, n=2))
        assert abs(got - float(oracle)) <= 1e-14 * float(oracle)

    @pytest.mark.parametrize("alpha, lam, n, builds, convolutions", [
        (1.0, 0.75, 120, 1, 3), (0.5, 0.75, 120, 2, 2), (10.0, 0.75, 120, 1, 17), (2.0, 0.999, 40, 1, 100),
        (1e-3, 0.99, 10, 5, 26), (1e-3, 0.5, 40, 6, 0), (400.0, 0.5, 40, 1, 137), (1e3, 0.5, 40, 1, 151),
        (1e4, 0.5, 120, 1, 156), (50.0, 0.9, 120, 1, 123), (0.5, 0.9, 40, 1, 3),
    ])
    def test_work_per_cell(self, alpha, lam, n, builds, convolutions, monkeypatch):
        # one Phi2 call, so one table, per rule call of the bias integral, no convolution past
        # the gamma sum's mass, where its CDF is exactly 1, and one quadrature rule call per
        # convolution that conditions on a shape >= 1, at (0.5, 0.9, 40) too, where the first
        # mesh's upper-tail points spare two splits; (1e-3, 0.99, 10) conditions on a shape
        # below 1, in v = (b u)^a, and takes 6 per convolution.  The bias integral's first mesh
        # resolves it in one rule call at these cells from shape 1 on, and in 2 to 6 below
        rules = {(1e-3, 0.99, 10): 156}.get((alpha, lam, n), convolutions)
        counts = {"_phi2_table": 0, "_ghypo_cdf_convolution": 0, "rules": 0, "bias_rules": 0}
        for module, name in ((specfun, "_phi2_table"), (distributions, "_ghypo_cdf_convolution")):
            def counted(*args, name=name, f=getattr(module, name)):
                counts[name] += 1
                return f(*args)
            monkeypatch.setattr(module, name, counted)

        for module, key in ((distributions, "rules"), (bias_analysis, "bias_rules")):
            def integrate_counted(f, *args, integrate=module.integrate_finite, key=key, **kwargs):
                def rule_call(x):  # each rule call evaluates the integrand once, at all its nodes
                    counts[key] += 1
                    return f(x)
                return integrate(rule_call, *args, **kwargs)
            monkeypatch.setattr(module, "integrate_finite", integrate_counted)

        expected_i_hat(BiasQuery(alpha=alpha, lam=lam, n=n))
        got = (counts["_phi2_table"], counts["_ghypo_cdf_convolution"], counts["rules"], counts["bias_rules"])
        assert got == (builds, convolutions, rules, builds)

    @pytest.mark.parametrize("alpha, lam, n, oracle", [
        (400.0, 0.5, 40, 0.022239867300),
        (1e3, 0.5, 40, 0.014067950758),
        (1e4, 0.5, 120, 0.004456545062),
        (50.0, 0.9, 120, 0.075713715724),
    ])
    def test_large_shapes_match_mixture_oracle(self, alpha, lam, n, oracle):
        # the gamma-sum density is a spike at these shapes; the oracle sums over
        # Beta nodes and needs no quadrature in t
        ref = mix_expected_i_hat(alpha, lam, n)
        assert abs(ref - oracle) <= 5e-13
        assert abs(expected_i_hat(BiasQuery(alpha=alpha, lam=lam, n=n)) - ref) <= 1e-10

    @pytest.mark.parametrize("alpha, lam, n, oracle", [
        # each value from mp_expected_i_hat(alpha, lam, n) (tests/helpers.py, dps 25), rounded to 13 digits;
        # below shape 1, Q(alpha, t/s_q) has an infinite slope at t = 0
        (0.5, 0.9, 40, 0.6076474444334),
        (0.01, 0.999, 3, 0.9860387512545),
        (1e-3, 0.5, 40, 0.9840274790772),
        (1e-3, 0.99, 10, 0.9975606100295),
        (0.1, 0.999, 120, 0.8827846513481),
        # the sum's density rises over the first component's narrow width, from a jump at shape 1
        # and a kink at shape 2
        (2.0, 0.999, 40, 0.3748125594047),
        (1.0, 0.999, 40, 0.4997501187322),
        (1.0, 0.99, 120, 0.4975122719626),
        (2.0, 0.75, 80, 0.3323373903217),
    ])
    def test_matches_stored_oracle(self, alpha, lam, n, oracle):
        assert abs(expected_i_hat(BiasQuery(alpha=alpha, lam=lam, n=n)) - oracle) <= 2e-12

    @pytest.mark.parametrize("alpha, lam, n", [(1e-3, 0.99, 10), (1e-3, 0.5, 3)])
    def test_small_shapes_match_substitution_oracle(self, alpha, lam, n):
        # (1e-3, 0.99, 10) needs the gamma-sum convolution below shape 1; at (1e-3, 0.5, 3)
        # E[I_hat] is the integral divided by n*alpha = 3e-3, so the quadrature's tolerance
        # must be scaled by it
        got = expected_i_hat(BiasQuery(alpha=alpha, lam=lam, n=n))
        assert abs(got - mp_expected_i_hat(alpha, lam, n)) <= 1e-10


class TestBetaOracle:
    @pytest.mark.parametrize("alpha", [5.0, 20.0, 50.0, 200.0])
    def test_against_closed_form(self, alpha):
        # E|2B - 1| = Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha + 1)) for B ~ Beta(alpha, alpha);
        # an unnormalized, unsplit quadrature was 5.5e-10 relative off at alpha = 50
        with mp.workdps(30):
            a = mp.mpf(alpha)
            exact = mp.gamma(a + mp.mpf(1) / 2) / (mp.sqrt(mp.pi) * mp.gamma(a + 1))
            got = mp_beta_expect(alpha, alpha, lambda b, omb: abs(b - omb))
            assert abs(got / exact - 1) <= mp.mpf("1e-24")


class TestExpectedHHat:
    @pytest.mark.parametrize("alpha", [1e-3, 2e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1e3, 1e4])
    def test_closed_form_against_mpmath(self, alpha):
        # S = X1/sum X is Beta(alpha, (n-1) alpha), and E[H_hat] = E(1 - nS)^+ is
        # x^a (1-x)^b / (a B(a, b)) at x = 1/n, a = alpha, b = (n-1) alpha (DLMF 8.17.20);
        # a quadrature of the single-gamma survival, whose Q((n-1) alpha, .) has a corner at 0,
        # missed the three frozen small-shape cells by 1.1e-10 to 4.5e-9
        frozen = {(1e-3, 40): 0.970511777987736, (1e-3, 50): 0.975283695167826, (2e-3, 40): 0.966158136832221}
        for n in (2, 3, 10, 40, 50, 120, 250, 4000):
            with mp.workdps(40):
                a, b, x = mp.mpf(alpha), (n - 1) * mp.mpf(alpha), mp.mpf(1) / n
                oracle = float(x ** a * (1 - x) ** b / (a * mp.beta(a, b)))
            if (alpha, n) in frozen:
                assert oracle == pytest.approx(frozen[alpha, n], rel=0.0, abs=1e-15)  # 15 digits
            got = expected_i_hat(BiasQuery(alpha=alpha, lam=0.0, n=n))
            assert abs(got - oracle) <= 1e-14 * oracle, (alpha, n, got, oracle)

    def test_exponential_pair_closed_form(self):
        assert expected_i_hat(BiasQuery(alpha=1.0, lam=0.0, n=2)) == pytest.approx(0.25, abs=1e-9)

    def test_large_sample_approaches_population_value(self):
        got = expected_i_hat(BiasQuery(alpha=1.0, lam=0.0, n=4000))
        assert got == pytest.approx(gamma_hoover(1.0), abs=2e-3)

    def test_continuity_from_interior_weights(self):
        got = expected_i_hat(BiasQuery(alpha=2.0, lam=1e-6, n=10))
        assert got == pytest.approx(expected_i_hat(BiasQuery(alpha=2.0, lam=0.0, n=10)), abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_i_hat(BiasQuery(alpha=-1.0, lam=0.0, n=10))
        with pytest.raises(ValueError):
            expected_i_hat(BiasQuery(alpha=1.0, lam=0.0, n=1))


class TestBias:
    def test_small_sample_skewed_population(self):
        assert bias(BiasQuery(alpha=0.5, lam=0.25, n=10)) == pytest.approx(-0.0156, abs=0.009)

    def test_gini_weight_unbiased(self):
        assert bias(BiasQuery(alpha=2.0, lam=1.0, n=25)) == 0.0

    def test_large_sample_reference_cell(self):
        got = bias(BiasQuery(alpha=1.0, lam=0.75, n=120))
        assert abs(got - 0.0004) <= 4.0 * math.sqrt(0.0005 / 1000.0)

    def test_continuity_at_gini_end(self):
        for alpha in (0.5, 2.0):
            for n in (10, 40):
                got = expected_i_hat(BiasQuery(alpha=alpha, lam=1.0 - 1e-4, n=n))
                assert abs(got - gamma_gini(alpha)) <= 1e-3

    def test_continuity_at_hoover_end(self):
        for alpha in (0.5, 2.0):
            for n in (10, 40):
                got = expected_i_hat(BiasQuery(alpha=alpha, lam=1e-4, n=n))
                assert abs(got - expected_i_hat(BiasQuery(alpha=alpha, lam=0.0, n=n))) <= 1e-3

    def test_bias_magnitude_shrinks_with_sample_size(self):
        table = analytic_bias_table()
        pairs = sorted({(row[0], row[1]) for row in MC_REFERENCE})
        sizes = sorted({row[2] for row in MC_REFERENCE})
        for alpha, lam in pairs:
            mags = [abs(table[(alpha, lam, n)]) for n in sizes]
            for smaller, larger in zip(mags, mags[1:]):
                assert larger <= smaller + 1e-4


class TestTiltingLemma:
    def test_single_component_matches_laplace_derivative(self):
        # a = b = 0, c = 1: both routes estimate L_W L_Y E[Z e^(-zZ)]
        w = GammaParams(2.0, 1.0)
        y = GammaParams(1.5, 2.0)
        zz = GammaParams(1.2, 0.9)
        z = 0.7
        chk = tilting_lemma_check(0.0, 0.0, 1.0, z, w, y, zz, draws=400_000, seed=21)
        lap_wy = ((w.beta / (w.beta + z)) ** w.alpha) * ((y.beta / (y.beta + z)) ** y.alpha)
        exact = lap_wy * zz.alpha * zz.beta ** zz.alpha / (zz.beta + z) ** (zz.alpha + 1.0)
        assert abs(chk.lhs_mc - exact) <= 4.0 * chk.lhs_se
        assert abs(chk.rhs_analytic - exact) <= 4.0 * chk.rhs_se
        assert tilting_agrees(chk)

    def test_heavy_tilt_agreement(self):
        e = GammaParams(1.0, 1.0)
        chk = tilting_lemma_check(1.0, 1.0, 1.0, 50.0, e, e, e, draws=400_000, seed=22)
        assert tilting_agrees(chk)
        assert chk.lhs_mc < 1e-3  # both sides collapse together under heavy tilting

    def test_symmetric_pair_reduces_to_gini(self):
        # a = 0, b = c = 1 with iid inputs: the normalized difference term is the
        # Gini coefficient of the tilted law, which shares the original shape
        g = GammaParams(2.5, 1.3)
        z = 0.6
        chk = tilting_lemma_check(0.0, 1.0, 1.0, z, g, g, g, draws=400_000, seed=23)
        lap = (g.beta / (g.beta + z)) ** (3.0 * g.alpha)
        mean_tilted = g.alpha / (g.beta + z)
        exact = lap * 2.0 * mean_tilted * gamma_gini(g.alpha)
        assert abs(chk.rhs_analytic - exact) <= 4.0 * chk.rhs_se
        assert tilting_agrees(chk)

    def test_validation(self):
        e = GammaParams(1.0, 1.0)
        with pytest.raises(ValueError):
            tilting_lemma_check(-1.0, 0.0, 1.0, 1.0, e, e, e, draws=100)
        with pytest.raises(ValueError):
            tilting_lemma_check(1.0, 0.0, 1.0, 0.0, e, e, e, draws=100)
