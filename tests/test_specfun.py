import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from ineqbridge import reg_gamma_q, specfun
from ineqbridge.specfun import _BLOCK, _TEMME_D, log_humbert_phi2

from helpers import (erfc_series, gamma_series_stop_term, mp_phi2_unit, mp_reg_q, mp_temme_coefficients,
                     phi2_stop_term)

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
        with pytest.raises(ValueError, match=r"got x=-0\.1 at s=1\.5"):
            reg_gamma_q(1.5, -0.1)
        with pytest.raises(ValueError, match=r"got x=nan at s=2\.0"):
            reg_gamma_q(2.0, np.array([1.0, math.nan]))

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

    def test_both_sides_of_the_series_switch(self, monkeypatch):
        # below Temme's shapes the power series serves x < max(s + 1, 5), the continued
        # fraction the rest; both sides of x = 5 and of x = s + 1
        routes = []
        for name in ("_gamma_p_series", "_gamma_q_contfrac"):
            def traced(s, x, name=name, f=getattr(specfun, name)):
                routes.append(name)
                return f(s, x)
            monkeypatch.setattr(specfun, name, traced)
        for s in (1e-3, 0.1, 0.5, 1.5, 3.9, 4.0, 4.1):
            for edge in (5.0, s + 1.0):
                for x in (edge * (1.0 - 1e-9), edge, edge * (1.0 + 1e-9)):
                    routes.clear()
                    assert reg_gamma_q(s, x) == pytest.approx(mp_reg_q(s, x), abs=1e-14), (s, x)
                    series = x < max(s + 1.0, 5.0)
                    assert routes == ["_gamma_p_series" if series else "_gamma_q_contfrac"], (s, x)

    def test_monotone_across_the_series_switch(self):
        xs = np.linspace(4.9, 5.1, 401)
        for s in (1e-3, 0.1, 0.5, 1.5, 3.9):
            assert (np.diff(reg_gamma_q(s, xs)) <= 1e-15).all(), s

    def test_series_points_do_not_depend_on_their_batch(self):
        for s in (1e-3, 0.5, 3.9, 12.0):
            x = np.array([1e-6, 0.02, 0.7, 2.0, 4.9, s + 0.9, 0.3 * s])
            assert (x < max(s + 1.0, 5.0)).all()
            together = reg_gamma_q(s, x)
            for xi, got in zip(x, together):
                assert got == reg_gamma_q(s, xi), (s, xi)
            assert np.array_equal(reg_gamma_q(s, x[::-1]), together[::-1])

    def test_fraction_points_do_not_depend_on_their_batch(self):
        for s in (1e-3, 0.5, 3.9, 12.0, 50.0, 1e4):
            x = np.array([1.0, 0.01, 2.0, 9.0, 100.0]) * s + max(s + 1.0, 5.0) + 0.3 * s
            together = reg_gamma_q(s, x)
            for xi, got in zip(x, together):
                assert got == reg_gamma_q(s, xi), (s, xi)
            assert np.array_equal(reg_gamma_q(s, x[::-1]), together[::-1])

    def test_series_stops_within_one_pass(self):
        # the series serves x < max(s + 1, 5), and at s >= 20 only x < 0.7 s; its largest x
        # stops last and sizes the one pass, which must end within _BLOCK rows everywhere
        worst = 0
        for s in np.geomspace(1e-6, 1e12, 73):
            reach = max(s + 1.0, 5.0) if s < 20.0 else 0.7 * s
            xs = reach * np.concatenate((np.linspace(0.01, 0.99, 50), 1.0 - np.geomspace(1e-2, 1e-12, 11)))
            stops = [gamma_series_stop_term(s, x) for x in xs]
            assert all(a <= b for a, b in zip(stops, stops[1:])), s
            worst = max(worst, stops[-1])
            got = specfun._gamma_p_series(s, xs)
            ref = ([float(mp.gammainc(s, 0, x, regularized=True)) for x in xs[-3:]] if s < 1e4
                   else gammainc(s, xs[-3:]))
            assert got[-3:] == pytest.approx(ref, rel=0.0, abs=1e-14), s
        assert worst == 102 < _BLOCK

    def test_series_kernel_raises_outside_its_domain(self):
        # at x = 0.9 s the series needs more than _BLOCK terms; reg_gamma_q never sends it there
        assert gamma_series_stop_term(500.0, 450.0) > _BLOCK
        with pytest.raises(RuntimeError, match=r"within 128 terms \(s=500\.0, max x=450\.0\)"):
            specfun._gamma_p_series(500.0, np.array([1.0, 450.0, 20.0]))

    def test_fraction_on_both_sides_of_its_switches(self):
        # the fraction serves x >= max(s + 1, 5) and, at s >= 20, x > 1.3 s; at each
        # switch both routes are within 1e-14 of the oracle, mpmath below s = 1e4 and scipy above
        for s in (1e-6, 1e-3, 0.5, 3.9, 4.0, 4.1, 19.99, 20.0, 100.0, 1e3, 1e4, 1e6, 1e9, 1e12):
            edges = (5.0, s + 1.0) if s < 20.0 else (1.3 * s,)
            for edge in edges:
                for x in (edge * (1.0 - 1e-9), edge, edge * (1.0 + 1e-9), edge * 1.5, edge + 60.0):
                    got = reg_gamma_q(s, x)
                    ref = mp_reg_q(s, x) if s < 1e4 else float(gammaincc(s, x))
                    assert got == pytest.approx(ref, rel=0.0, abs=1e-14), (s, x)


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

    def test_blocked_series_against_mpmath(self):
        # shapes a in {0.5, 10} and c up to 1,191 as the bias table meets them, up to the
        # x + y = 4e4 budget of ghypo_cdf; (1, 1, 2e3, 1e-3) has x >> y, where the shifted
        # block sums underflow and the block accumulates in log space
        for a, c, x, y in [(0.5, 5.5, 0.003, 0.0032), (0.5, 20.5, 5.6, 5.62), (10.0, 791.0, 459.6, 465.3),
                           (2.0, 79.0, 362.0, 389.0), (0.5, 20.5, 1.9e4, 2.0e4),
                           (10.0, 1191.0, 1.988e4, 1.994e4), (1.0, 1.0, 2.0e3, 1e-3)]:
            ref = float(mp.log(mp_phi2_unit(a, c, x, y, terms=30_000)))
            got = log_humbert_phi2(a, c, x, y)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (a, c, x, y, got, ref)

    def test_stop_on_both_sides_of_a_block_boundary(self):
        # the series stops at its third consecutive term below 1e-16 of the running sum;
        # that term falls just before, on and just after the end of the first block
        ys = np.arange(40.0, 80.0, 0.25)
        stops = [phi2_stop_term(2.5, 7.0, 0.9 * y, y) for y in ys]
        for target in range(_BLOCK - 1, _BLOCK + 3):
            y = float(ys[stops.index(target)])
            ref = float(mp.log(mp_phi2_unit(2.5, 7.0, 0.9 * y, y)))
            assert log_humbert_phi2(2.5, 7.0, 0.9 * y, y) == pytest.approx(ref, rel=1e-13), target

    def test_points_do_not_depend_on_their_batch(self):
        x = np.array([0.0, 0.3, 2.0, 40.0, 52.0, 140.0, 300.0, 480.0, 5.0])
        y = np.array([0.5, 0.4, 2.5, 45.0, 58.5, 150.0, 320.0, 520.0, 0.0])
        blocks = {(phi2_stop_term(3.0, 9.0, xi, yi) - 1) // _BLOCK for xi, yi in zip(x, y)}
        assert len(blocks) >= 4
        together = log_humbert_phi2(3.0, 9.0, x, y)
        for xi, yi, got in zip(x, y, together):
            alone = log_humbert_phi2(3.0, 9.0, xi, yi)
            assert abs(got - alone) <= 1e-15 * abs(alone), (xi, yi)
        assert np.array_equal(log_humbert_phi2(3.0, 9.0, x[::-1], y[::-1]), together[::-1])

    def test_term_cap_names_the_arguments(self, monkeypatch):
        # the last block before a 200-term cap is short; a series that stops inside it is kept
        assert _BLOCK < phi2_stop_term(2.5, 7.0, 72.0, 80.0) < 200
        uncapped = log_humbert_phi2(2.5, 7.0, 72.0, 80.0)
        monkeypatch.setattr(specfun, "_TERM_CAP", 200)
        assert log_humbert_phi2(2.5, 7.0, 72.0, 80.0) == uncapped
        with pytest.raises(RuntimeError, match=r"200-term cap \(a=2\.5, c=7\.0, max x=900\.0, max y=1000\.0\)"):
            log_humbert_phi2(2.5, 7.0, [1.0, 900.0], [1.0, 1000.0])
