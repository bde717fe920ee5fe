import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc, gammaincc

from ineqbridge import reg_gamma_q, specfun
from ineqbridge.specfun import _BLOCK, _TEMME_D, _gamma_bulk, _phi2_windows, log_humbert_phi2

from helpers import erfc_series, gamma_series_stop_term, mp_phi2_unit, mp_reg_q, mp_temme_coefficients

# frozen oracle outputs (recomputed below to guard the freeze itself)
ERFC_1 = 0.15729920705028513


class TestLogGammaPrefactor:
    @pytest.mark.parametrize("s", [1e-3, 0.5, 3.0, 20.0, 100.0, 1e4, 1e6])
    def test_against_mpmath(self, s):
        # x/s from 1e-300 to 1e3, and both sides of |u| = 0.5, u = x/s - 1, where ln(x/s)
        # switches between log1p(u) and log(x/s)
        edges = [0.5 * (1.0 - 1e-9), 0.5 * (1.0 + 1e-9), 1.5 * (1.0 - 1e-9), 1.5 * (1.0 + 1e-9)]
        x = s * np.concatenate((np.logspace(-300.0, 3.0, 61), edges, [0.75, 1.0, 1.25, 2.0]))
        got = specfun._log_gamma_prefactor(s, x)
        with mp.workdps(40):
            for g, xv in zip(got.tolist(), x.tolist()):
                ref = float(mp.mpf(s) * mp.log(xv) - xv - mp.loggamma(s))
                assert abs(g - ref) <= 3e-15 * max(1.0, abs(ref)), (s, xv / s)

    def test_extreme_ratios_under_warnings_as_errors(self):
        # x/s below 2^-53 rounds u to -1, and x/s below the least double rounds to 0: neither
        # may reach a logarithm, where it would raise under this suite's warnings-as-errors;
        # an x/s that overflows must not leave inf - inf
        assert reg_gamma_q(5.0, 1e-300) == 1.0
        assert reg_gamma_q(0.5, [1e-20, 1e-300]) == pytest.approx([math.erfc(1e-10), 1.0], rel=1e-15)
        assert reg_gamma_q(2.0, 5e-324) == 1.0
        assert reg_gamma_q(1e30, 1e-300) == 1.0
        assert reg_gamma_q(1e-10, [1e300, 1.7e308]).tolist() == [0.0, 0.0]  # x/s overflows

    def test_overflowing_ratio_warns_nothing(self):
        # x/s and (x - s)/s past the largest double: Q is 0, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg_gamma_q(1e-300, [1e10, 1e300]).tolist() == [0.0, 0.0]


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
        with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got -0\.1 at s=1\.5$"):
            reg_gamma_q(1.5, -0.1)
        with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got nan at s=2\.0$"):
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


class TestGammaBulk:
    def test_q_at_the_cut_is_below_1e_22(self):
        # ghypo_cdf returns exactly 1 past U1/b1 + U2/b2, as 1 - F <= Q(a1, U1) + Q(a2, U2) there
        for s in np.geomspace(1e-10, 1e10, 2001):
            cut, _ = _gamma_bulk(float(s))
            assert gammaincc(s, cut) < 1e-22, s


class TestHumbertPhi2:
    def test_matches_reference_series(self):
        for a, c, p, y in [(1.0, 3.0, 0.5, 2.0), (2.5, 7.0, 1.0, 4.0), (4.0, 12.5, 2.0 / 3.0, 9.9)]:
            ref = float(mp_phi2_unit(a, c, p, y))
            assert math.exp(log_humbert_phi2(a, c, p, y)) == pytest.approx(ref, rel=1e-12)

    def test_reduces_to_1f1_when_x_is_zero(self):
        # p = 1 puts x = (1 - p) y at 0, where the series is 1F1(1; c; y)
        for c, y in [(4.0, 2.0), (11.0, 30.0), (20.5, 500.0)]:
            assert log_humbert_phi2(5.0, c, 1.0, y) == pytest.approx(
                float(mp.log(mp.hyp1f1(1, c, y))), rel=1e-12)

    def test_zero_y_gives_exactly_zero(self):
        assert log_humbert_phi2(2.5, 7.0, 0.3, 0.0) == 0.0
        got = log_humbert_phi2(2.5, 7.0, 0.3, np.array([[0.0, 1.5], [0.0, 40.0]]))
        assert got.shape == (2, 2) and got[0, 0] == 0.0 and got[1, 0] == 0.0 and (got[:, 1] > 0).all()

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_humbert_phi2(-1.0, 2.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got -1\.0$"):
            log_humbert_phi2(1.0, 2.0, -1.0, 1.0)
        with pytest.raises(ValueError, match=r"^p must be in \(0, 1\], got 1\.5$"):
            log_humbert_phi2(1.0, 2.0, 1.5, 1.0)
        with pytest.raises(ValueError, match=r"^y must be finite and >= 0, got -1\.0 at a=1\.0, c=2\.0, p=0\.5$"):
            log_humbert_phi2(1.0, 2.0, 0.5, [1.0, -1.0])

    def test_series_against_mpmath(self):
        # shapes a in {0.5, 10} and c up to 1,191 as the bias table meets them, up to the
        # x + y = 4e4 budget of ghypo_cdf; then a = 400, where p^a = 41^-400 underflows
        # (ln Phi2 = 832.0850505474268 at 40 digits), and a = 1e3 at c = a + 2, where the
        # NB(a, p) mass lies far past y - c and the window reaches past its usual 22 sqrt(y) + 40;
        # last, two points on each side of the window's clamp at diagonal 0 (test_window_sizes)
        cases = [(0.5, 5.5, 1.0 / 16.0, 0.0032), (0.5, 20.5, 0.02 / 5.62, 5.62), (10.0, 791.0, 5.7 / 465.3, 465.3),
                 (2.0, 79.0, 27.0 / 389.0, 389.0), (0.5, 20.5, 0.05, 2.0e4), (10.0, 1191.0, 0.06 / 1.994e4, 1.994e4),
                 (400.0, 15601.0, 1.0 / 41.0, 1.5e4), (1e3, 1002.0, 1e-6, 2e3)]
        cases += [(2.0, 20.5, 0.3, y) for y in (150.0, 190.0, 200.0, 260.0)]
        for a, c, p, y in cases:
            ref = float(mp.log(mp_phi2_unit(a, c, p, y, terms=30_000)))
            if a == 400.0:
                assert ref == pytest.approx(832.0850505474268, abs=1e-12)
            got = log_humbert_phi2(a, c, p, y)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (a, c, p, y, got, ref)
        lo, count = _phi2_windows(1e3, 1002.0, 1e-6, np.array([2e3]))
        assert lo[0] + count[0] > 2e3 - 1002.0 + 11.0 * math.sqrt(2e3) + 20.0

    def test_window_sizes(self):
        # a window starts at y - c - 11 sqrt(y) - 20, or at diagonal 0 where that is negative, and
        # holds 22 sqrt(y) + 40 diagonals unless the NB(a, p) mass lies far past y - c
        ys = np.array([150.0, 190.0, 200.0, 260.0])
        lo, count = _phi2_windows(2.0, 20.5, 0.3, ys)
        assert lo.tolist()[:2] == [0, 0] and (lo[2:] > 0).all()
        assert (count == np.ceil(22.0 * np.sqrt(ys) + 40.0)).all()
        # at the gamma sums of the bias table (shape a = alpha <= 10, c = (n-1) alpha + 1) a window
        # is extended by at most 26 diagonals
        for alpha, lam, n in [(0.5, 0.25, 10), (10.0, 0.25, 120), (10.0, 0.999, 120), (2.0, 0.999, 40)]:
            b_hi, b_lo = 1.0 / (1.0 - lam), 1.0 / (1.0 + (n - 1) * lam)
            y = np.geomspace(1e-4, 4e4 * b_hi / (2.0 * b_hi - b_lo), 200)
            _, count = _phi2_windows(alpha, (n - 1) * alpha + 1.0, b_lo / b_hi, y)
            assert (count <= np.ceil(22.0 * np.sqrt(y) + 40.0) + 26).all(), (alpha, lam, n)

    def test_points_do_not_depend_on_their_batch(self, monkeypatch):
        # clamped and unclamped windows of different lengths, y = 0, and several chunks
        y = np.array([0.5, 0.4, 2.5, 45.0, 58.5, 150.0, 320.0, 520.0, 0.0, 2e4, 1.3e4])
        together = log_humbert_phi2(3.0, 9.0, 0.15, y)
        for yi, got in zip(y, together):
            assert got == log_humbert_phi2(3.0, 9.0, 0.15, yi), yi
        assert np.array_equal(log_humbert_phi2(3.0, 9.0, 0.15, y[::-1]), together[::-1])
        monkeypatch.setattr(specfun, "_CHUNK", 4000)
        assert np.array_equal(log_humbert_phi2(3.0, 9.0, 0.15, y), together)
