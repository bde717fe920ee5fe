import math

import mpmath as mp
import numpy as np
import pytest

from ineqbridge import log_humbert_phi2, reg_gamma_q
from ineqbridge.specfun import _TEMME_D

from helpers import erfc_series, mp_phi2_unit, mp_reg_q, mp_temme_coefficients

# frozen oracle outputs (recomputed below to guard the freeze itself)
ERFC_1 = 0.15729920705028513


class TestRegGammaQ:
    def test_exponential_case(self):
        assert reg_gamma_q(1.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-14)

    def test_zero_argument(self):
        for s in (0.3, 1.0, 7.5, 900.0):
            assert reg_gamma_q(s, 0.0) == 1.0

    def test_half_shape_vs_erfc_oracle(self):
        oracle = erfc_series(1.0)
        assert oracle == pytest.approx(ERFC_1, abs=1e-15)
        assert reg_gamma_q(0.5, 1.0) == pytest.approx(oracle, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_q(-2.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_q(1.0, -0.1)
        with pytest.raises(ValueError):
            reg_gamma_q(1.0, math.nan)

    def test_array_input_matches_scalar(self):
        xs = np.array([0.0, 0.3, 2.0, 11.0, 250.0])
        got = reg_gamma_q(3.2, xs)
        assert got.shape == xs.shape
        for x, g in zip(xs, got):
            assert g == reg_gamma_q(3.2, float(x))

    def test_against_extended_precision_grid(self):
        # covers both series and continued-fraction branches up to large shapes
        for s in (0.01, 0.5, 1.0, 3.7, 48.0, 1000.0, 1200.0):
            for x in (0.01, 0.5, s * 0.5 + 0.1, s, s + 5.0, s * 2.0, 1e4):
                assert reg_gamma_q(s, x) == pytest.approx(mp_reg_q(s, x), abs=1e-12)

    def test_monotone_in_x_and_s(self):
        xs = np.linspace(0.0, 40.0, 200)
        for s in (0.4, 1.0, 6.0, 60.0):
            q = reg_gamma_q(s, xs)
            assert (np.diff(q) <= 1e-15).all()
        ss = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        for x in (0.3, 2.0, 9.0):
            vals = [reg_gamma_q(s, x) for s in ss]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_recurrence(self):
        # Q(s+1,x) = Q(s,x) + x^s e^(-x) / Gamma(s+1)
        for s in (0.25, 1.0, 3.0, 17.0, 400.0):
            for x in (0.1, 1.0, s * 0.8 + 0.2, s + 3.0, 2.0 * s + 10.0):
                step = math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
                assert reg_gamma_q(s + 1.0, x) == pytest.approx(
                    reg_gamma_q(s, x) + step, abs=1e-11)

    def test_temme_table_matches_derivation(self):
        derived = mp_temme_coefficients(*_TEMME_D.shape)
        for k, row in enumerate(derived):
            for n, d in enumerate(row):
                assert abs(_TEMME_D[k, n] - float(d)) <= 1e-15 * abs(float(d)), (k, n)

    def test_both_sides_of_every_switch(self):
        # Temme's expansion serves s >= 20 and |x/s - 1| <= 0.3; the series and the
        # continued fraction serve every other point
        inside, outside = 0.3 * (1.0 - 1e-9), 0.3 * (1.0 + 1e-9)
        for s in (19.999, 20.0, 20.001, 50.0, 1e3, 1e4, 1e6):
            temme = s >= 20.0
            for sigma in (-outside, -inside, 0.0, inside, outside):
                x = s * (1.0 + sigma)
                tol = 5e-16 if temme and abs(sigma) < 0.3 else 1e-14
                assert reg_gamma_q(s, x) == pytest.approx(mp_reg_q(s, x), abs=tol), (s, sigma)
            for x in (s - 3.0 * math.sqrt(s), s + 0.5 * math.sqrt(s), s + 3.0 * math.sqrt(s)):
                tol = 5e-16 if temme else 1e-14
                assert reg_gamma_q(s, x) == pytest.approx(mp_reg_q(s, x), abs=tol), (s, x)

    def test_huge_shapes(self):
        # near x = s the P series would need more terms than its cap allows at s = 1e10
        for s in (1e6, 1e8, 1e10):
            for x in (s - 3.0 * math.sqrt(s), s, s + 3.0 * math.sqrt(s)):
                assert reg_gamma_q(s, x) == pytest.approx(mp_reg_q(s, x), abs=5e-16), (s, x)

    def test_monotone_across_temme_switches(self):
        for s in (20.0, 1e3, 1e4):
            for edge in (0.7, 1.3):
                xs = s * np.linspace(edge - 0.01, edge + 0.01, 401)
                assert np.any(np.abs(xs - s) <= 0.3 * s) and np.any(np.abs(xs - s) > 0.3 * s)
                assert (np.diff(reg_gamma_q(s, xs)) <= 1e-15).all(), (s, edge)


class TestHumbertPhi2:
    def test_matches_reference_series(self):
        for a, c, x, y in [(1.0, 3.0, 1.0, 2.0), (2.5, 7.0, 0.0, 4.0),
                           (4.0, 12.5, 3.3, 9.9), (0.7, 2.1, 8.0, 0.0)]:
            ref = float(mp_phi2_unit(a, c, x, y))
            assert math.exp(log_humbert_phi2(a, c, x, y)) == pytest.approx(ref, rel=1e-12)

    def test_reduces_to_1f1_when_x_is_zero(self):
        for c, y in [(4.0, 2.0), (11.0, 30.0)]:
            assert log_humbert_phi2(5.0, c, 0.0, y) == pytest.approx(
                float(mp.log(mp.hyp1f1(1, c, y))), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_humbert_phi2(-1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_humbert_phi2(1.0, 2.0, -1.0, 1.0)
