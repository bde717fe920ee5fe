import math

import numpy as np
import pytest

from ineqbridge import (
    BiasQuery,
    GammaParams,
    bias,
    expected_i_hat,
    gamma_gini,
    gamma_hoover,
    tilting_lemma_check,
)
from ineqbridge.bias_analysis import _upper_cut

from helpers import analytic_bias_table, tilting_agrees
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
        # n = 2 collapses the two-gamma sum to a single gamma survival
        assert expected_i_hat(BiasQuery(alpha=2.0, lam=0.5, n=2)) == pytest.approx(0.28125, abs=1e-6)

    def test_tail_search_failure_names_the_query(self):
        # an integrand that never decays: the search doubles its cut 60 times from 10
        with pytest.raises(RuntimeError, match=r"alpha=2\.0, lam=0\.5, n=40 \(last cut tried "
                                               r"t=5\.764607523034235e\+18\)"):
            _upper_cut(np.ones_like, 10.0, BiasQuery(alpha=2.0, lam=0.5, n=40))


class TestExpectedHHat:
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
