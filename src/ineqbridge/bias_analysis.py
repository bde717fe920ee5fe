"""Analytic expectation and bias of the plug-in estimator under gamma
populations, plus a stochastic oracle for the exponential-tilting identity
that the expectation formula rests on.

For a gamma population with shape alpha and a sample of size n, the
estimator's expectation at weight lam in [0, 1) is

    E = (1 + (lam-1)/n) - (1/(n*alpha)) * int_0^inf S(t) Q(alpha, t/(n-1+lam)) dt,

where S is the survival function of the sum of two independent gammas with
shapes (n-2)*alpha and alpha and rates 1/(1-lam) and 1/(1+(n-1)*lam),
evaluated elementwise on the ndarray of quadrature nodes.  lam = 0 gives
the Hoover estimator.  At lam = 1 the estimator is exactly unbiased for the
Gini coefficient.  None of this depends on the population rate parameter
(the estimator is scale invariant), so only the shape appears below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._checks import check_count, check_lambda, check_points, check_positive, check_seed
from .distributions import GammaParams, GHypoParams, gamma_sample, ghypo_cdf
from .index_core import gamma_gini, gamma_hoover, gamma_index
from .quadrature import integrate_finite
from .specfun import _gamma_bulk, reg_gamma_q

__all__ = [
    "BiasQuery",
    "expected_i_hat",
    "bias",
    "tilting_lemma_check",
    "TiltingCheck",
]

_BIAS_ABS_TOL = 1e-10  # n*alpha times this on the integral, which stops at max(that, 1e-9 of itself)


@dataclass(frozen=True)
class BiasQuery:
    """One (shape, weight, sample size) point of the bias analysis, stored as float, float, int."""

    alpha: float
    lam: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_positive("shape", self.alpha))
        object.__setattr__(self, "lam", check_lambda(self.lam))
        object.__setattr__(self, "n", check_count("sample size", self.n, 2))


def expected_i_hat(q: BiasQuery) -> float:
    """Expectation of the plug-in estimator under a gamma population.

    Closed forms: G(alpha) at lam = 1; (1+lam) G(alpha)/2 at n = 2, where the
    estimator is (1+lam)/2 times the unbiased Gini estimator; at lam = 0
    (Hoover), E(1 - nS)^+ for a Beta(alpha, (n-1) alpha) share S (Lukacs
    1955; DLMF 8.17.20), H(alpha) H((n-1) alpha)/H(n alpha) (n-1)/n with H =
    gamma_hoover, within 3.2e-15 relative of 50-digit mpmath for alpha from
    1e-300 to 1e10 and n from 2 to 4000.  Otherwise the
    integral over [0, U*s_q], s_q = n-1+lam, U the cut of Q(alpha, .) from
    specfun._gamma_bulk, is taken to max(1e-10, 1e-9 |integral|/(n alpha))
    on E, about 5e-10 at (1, 0.75, 120), from a first mesh that resolves
    most integrals in one rule call (87 for the 78 of a seed-1 perfbench
    bias_table pass): Q(alpha, t/s_q)'s fall at s_q*(alpha -+ 8 sqrt(alpha));
    the sum's mean alpha*s_q + k sd, k = -8, -4, -2, 0, 2, 4, 8, 16; the first
    component's mean (n-2) alpha (1-lam) + k sd_1, k = -8, -4, 0, 4, 8, above
    the sum's lower fence; and s_q times specfun._gamma_bulk's corner points,
    as in gamma_index.  Within 4.1e-12 of 25-digit mpmath
    (tests/helpers.mp_expected_i_hat) on those 78 cells, and within 2.6e-12
    on 176 cells of shapes 1e-3 to 20, weights 0.25 to 0.999 and n 3 to 120;
    within 2.2e-13 of a 128-node gamma-beta mixture oracle on the 84 cells
    alpha in {20, 50, 100, 200, 400, 1e3, 1e4} x lam in {0.1, 0.5, 0.9} x n
    in {3, 10, 40, 120}.
    """
    alpha, lam, n = q.alpha, q.lam, q.n
    if lam == 1.0:
        return gamma_gini(alpha)
    if n == 2:
        return (1.0 + lam) * gamma_gini(alpha) / 2.0
    if lam == 0.0:
        return gamma_hoover(alpha) * gamma_hoover((n - 1) * alpha) / gamma_hoover(n * alpha) * (n - 1) / n
    scale_q = n - 1.0 + lam
    scale_sum = 1.0 + (n - 1) * lam
    g = GHypoParams((n - 2) * alpha, 1.0 / (1.0 - lam), alpha, 1.0 / scale_sum)

    def integrand(t):
        return (1.0 - ghypo_cdf(g, t)) * reg_gamma_q(alpha, np.asarray(t, dtype=float) / scale_q)

    # each split costs a Phi2 and a Q call.  At weights near 1 the sum's density rises over
    # the first component's narrow width, from the second's density at its origin (a spike
    # below shape 1, a jump at 1, a kink at 2); below the sum's lower fence S is 1, and each
    # node past the series budget costs a convolution.  +16 sd splits the upper tail, where
    # Q(alpha, t/s_q) decays slowly at small shapes
    cut, w, corner = _gamma_bulk(alpha)
    sd_sum = math.sqrt((n - 2) * alpha * (1.0 - lam) ** 2 + alpha * scale_sum ** 2)
    mean1, sd1 = (n - 2) * alpha * (1.0 - lam), math.sqrt((n - 2) * alpha) * (1.0 - lam)
    lo_sum = alpha * scale_q - 8.0 * sd_sum
    falls = [scale_q * (alpha - w), scale_q * (alpha + w)]
    falls += [alpha * scale_q + k * sd_sum for k in (-8, -4, -2, 0, 2, 4, 8, 16)]
    falls += [f for f in (mean1 + k * sd1 for k in (-8, -4, 0, 4, 8)) if f > lo_sum]
    falls += [scale_q * x for x in corner]
    res = integrate_finite(integrand, 0.0, cut * scale_q, abs_tol=_BIAS_ABS_TOL * n * alpha,
                           breakpoints=falls)
    return (1.0 + (lam - 1.0) / n) - res.value / (n * alpha)


def bias(q: BiasQuery) -> float:
    """Analytic bias of the plug-in estimator: E[estimate] - true index.

    Exactly 0 at lam = 1, where both terms are the Gini closed form (the
    Gini estimator is unbiased for gamma populations).
    """
    return expected_i_hat(q) - gamma_index(q.alpha, q.lam)


class TiltingCheck(NamedTuple):
    lhs_mc: float
    rhs_analytic: float
    lhs_se: float
    rhs_se: float


def tilting_lemma_check(a: float, b: float, c: float, z: float,
                        w: GammaParams, y: GammaParams, zz: GammaParams,
                        draws: int, seed: int = 0) -> TiltingCheck:
    """Two-route Monte Carlo check of the exponential-tilting identity.

    Left side: direct MC of E[|aW + bY - cZ| exp(-z(W+Y+Z))].  Right side:
    the product of Laplace transforms times E[|aW_z + bY_z - cZ_z|], estimated
    by a second MC over tilted gammas (a tilted gamma keeps its shape and has
    its rate increased by z).  This is the tilted first moments times the
    normalized mean absolute difference, with the moments cancelled.
    """
    a, b, c = (check_points(v, name, ndim=0).item() for name, v in (("a", a), ("b", b), ("c", c)))
    z = check_positive("z", z)
    draws = check_count("draws", draws, 2)

    rng = np.random.default_rng(check_seed(seed))
    pops = (w, y, zz)
    plain = [gamma_sample(p, rng, draws) for p in pops]  # every plain draw precedes the tilted ones
    mix = tilted_mix = total = log_lap = 0.0
    for signed, p, x in zip((a, b, -c), pops, plain):
        tilted = GammaParams(p.alpha, p.beta + z)
        mix += signed * x
        total += x
        log_lap += p.alpha * (math.log(p.beta) - math.log(tilted.beta))
        tilted_mix += signed * gamma_sample(tilted, rng, draws)
    vals = np.abs(mix) * np.exp(-z * total)
    lhs = float(vals.mean())
    lhs_se = float(vals.std(ddof=1) / math.sqrt(draws))
    lap = math.exp(log_lap)
    diffs = np.abs(tilted_mix)
    mean_abs = float(diffs.mean())
    se_abs = float(diffs.std(ddof=1) / math.sqrt(draws))
    rhs = lap * mean_abs
    rhs_se = lap * se_abs
    return TiltingCheck(lhs_mc=lhs, rhs_analytic=rhs, lhs_se=lhs_se, rhs_se=rhs_se)
