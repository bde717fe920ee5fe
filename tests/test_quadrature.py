import math

import numpy as np
import pytest

import ineqbridge.quadrature as quadrature
from ineqbridge import QuadratureError, reg_gamma_q
from ineqbridge.quadrature import QuadResult, integrate_finite, integrate_semi_infinite

from helpers import mp_kronrod_rule


class TestRule:
    def test_constants_match_derivation(self):
        for frozen, derived in zip((quadrature._XK, quadrature._WK, quadrature._WG), mp_kronrod_rule()):
            assert frozen.tolist() == [float(d) for d in derived]

    def test_exact_on_polynomials(self):
        # the Kronrod rule integrates x^k over [-1, 1] exactly to degree 22, the Gauss rule to 13,
        # up to the rounding of the constants, which x^k multiplies by about k; with 15-digit
        # constants the Kronrod weights summed to 2 (1 - 3.0e-15)
        for weights, degree in ((quadrature._WEIGHTS_K, 22), (quadrature._WEIGHTS_G, 13)):
            for k in range(0, degree + 1, 2):
                exact = 2.0 / (k + 1)
                got = math.fsum((weights * quadrature._NODES ** k).tolist())
                assert abs(got - exact) <= (k + 2) * 1.2e-16 * exact, (degree, k)


class TestFinite:
    def test_constant(self):
        r = integrate_finite(lambda t: np.ones_like(t), 0.0, 1.0)
        assert isinstance(r, QuadResult)
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert r.abs_error_estimate >= 0.0
        assert r.evaluations >= 15

    def test_exponential_decay(self):
        r = integrate_finite(lambda t: np.exp(-t), 0.0, 50.0)
        assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_gamma_mass_identity(self):
        # int_0^inf Q(s, t) dt = s; the tail beyond 200 is negligible for s = 2
        r = integrate_finite(lambda t: reg_gamma_q(2.0, t), 0.0, 200.0)
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_scalar_integrand_rejected(self):
        with pytest.raises(ValueError, match=r"one value per node: got shape \(\) for \(15,\)"):
            integrate_finite(lambda t: 1.0, 0.0, 50.0)

    def test_degenerate_interval(self):
        r = integrate_finite(lambda t: np.exp(t), 3.0, 3.0)
        assert r.value == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda t: t, 1.0, 0.0)
        for bad_tol in (0.0, math.nan):
            with pytest.raises(ValueError, match="abs_tol must be finite and > 0"):
                integrate_finite(lambda t: t, 0.0, 1.0, abs_tol=bad_tol)
        with pytest.raises(ValueError):
            integrate_finite(lambda t: np.full_like(t, np.nan), 0.0, 1.0)

    def test_breakpoints_handle_jumps_exactly(self):
        def step(t):
            return np.where(np.asarray(t) < 0.3, 2.0, np.where(np.asarray(t) < 0.7, 5.0, 1.0))

        r = integrate_finite(step, 0.0, 1.0, breakpoints=[0.3, 0.7])
        assert r.value == pytest.approx(0.3 * 2 + 0.4 * 5 + 0.3 * 1, abs=1e-13)

    def test_budget_exhaustion_carries_estimate(self, monkeypatch):
        def spike(t):
            return 1.0 / np.sqrt(np.abs(np.asarray(t) - 1.0 / 3.0) + 1e-14)

        monkeypatch.setattr(quadrature, "MAX_INTERVALS", 40)
        with pytest.raises(QuadratureError, match="within 40 subintervals") as exc:
            integrate_finite(spike, 0.0, 1.0, abs_tol=1e-13)
        err = exc.value
        assert math.isfinite(err.estimate)
        assert err.error_bound > 0.0
        assert err.evaluations > 0

    @pytest.mark.parametrize("power", [1.0, 0.5])
    def test_no_result_above_its_tolerance(self, power):
        # a clamped pole's error estimates near 1e300 are added to and taken from the running
        # sum, which cancels to 0 while the pieces' own estimates sum to far above the tolerance
        def pole(t):
            return np.maximum(np.abs(t - 0.1), 1e-300) ** -power

        with pytest.raises(QuadratureError) as exc:
            integrate_finite(pole, 0.0, 1.0)
        err = exc.value
        assert err.error_bound > max(quadrature.DEFAULT_ABS_TOL, quadrature.REL_TOL * abs(err.estimate))
        assert err.evaluations > 0

    def test_one_integrand_call_per_step(self):
        # one call on the nodes of every initial piece, then one per bisection
        sizes = []

        def spike(t):
            sizes.append(t.size)
            return 1.0 / np.sqrt(np.abs(t - 1.0 / 3.0) + 1e-6)

        r = integrate_finite(spike, 0.0, 1.0, breakpoints=[0.2, 0.5, 0.8])
        assert sizes[0] == 4 * 15
        assert sizes[1:] and set(sizes[1:]) == {30}
        assert len(sizes) == 1 + (r.evaluations - 4 * 15) // 30

    def test_batched_rule_equals_rule_per_piece(self):
        # one call on many pieces gives each piece the value it gets alone
        def f(t):
            return np.exp(-t) * np.sin(3.0 * t) + t ** 3

        edges = [0.0, 0.1, 0.35, 0.6, 1.0, 2.5]
        vals, errs = quadrature._apply_rule(f, edges)
        for i, piece in enumerate(zip(edges[:-1], edges[1:])):
            assert quadrature._apply_rule(f, list(piece)) == ([vals[i]], [errs[i]])


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda t: np.exp(-t))
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_survival_square(self):
        r = integrate_semi_infinite(lambda t: reg_gamma_q(1.0, t) ** 2)
        assert r.value == pytest.approx(0.5, abs=1e-10)

    def test_gaussian_moment(self):
        r = integrate_semi_infinite(lambda t: t * np.exp(-t * t))
        assert r.value == pytest.approx(0.5, abs=1e-10)

    def test_scalar_integrand_rejected(self):
        # the Jacobian array must not broadcast a scalar to every node
        with pytest.raises(ValueError, match=r"one value per node: got shape \(\) for \(15,\)"):
            integrate_semi_infinite(lambda t: float(np.exp(-t).mean()))


class TestErrorBoundAndSplitting:
    CASES = [
        (lambda t: t ** 3, 0.0, 2.0, 4.0),
        (lambda t: np.sin(t), 0.0, math.pi, 2.0),
        (lambda t: np.exp(t), 0.0, 1.0, math.e - 1.0),
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
        (lambda t: np.exp(-t * t), 0.0, 6.0, math.sqrt(math.pi) / 2.0),
    ]

    def test_reported_bound_covers_true_error(self):
        for f, lo, hi, truth in self.CASES:
            r = integrate_finite(f, lo, hi)
            assert abs(r.value - truth) <= max(r.abs_error_estimate, 1e-13)

    def test_splitting_is_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            coeffs = rng.normal(size=4)
            freq = rng.uniform(0.5, 3.0)

            def f(t, c=coeffs, w=freq):
                t = np.asarray(t, dtype=float)
                return c[0] + c[1] * t + c[2] * np.sin(w * t) + c[3] * np.exp(-t)

            a, b, c2 = sorted(rng.uniform(0.0, 5.0, size=3))
            whole = integrate_finite(f, a, c2)
            left = integrate_finite(f, a, b)
            right = integrate_finite(f, b, c2)
            tol = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
            assert abs(whole.value - (left.value + right.value)) <= tol + 1e-12
