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

from ._checks import check_count, check_lambda, check_points, check_positive, check_shape
from .distributions import GammaParams, GHypoParams, gamma_sample, ghypo_cdf
from .index_core import gamma_gini, gamma_index
from .quadrature import integrate_finite
from .specfun import _gamma_bulk, _stirling_defect, reg_gamma_q

__all__ = [
    "BiasQuery",
    "expected_i_hat",
    "bias",
    "tilting_lemma_check",
    "TiltingCheck",
]

_BIAS_ABS_TOL = 1e-10  # on E[I_hat], so on the integral it is n*alpha times this


@dataclass(frozen=True)
class BiasQuery:
    """One (shape, weight, sample size) point of the bias analysis, stored as float, float, int."""

    alpha: float
    lam: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_shape(self.alpha))
        object.__setattr__(self, "lam", check_lambda(self.lam))
        object.__setattr__(self, "n", check_count("sample size", self.n, 2))


def expected_i_hat(q: BiasQuery) -> float:
    """Expectation of the plug-in estimator under a gamma population.

    Closed forms: G(alpha) at lam = 1; (1+lam) G(alpha)/2 at n = 2, where the
    estimator is (1+lam)/2 times the unbiased Gini estimator; at lam = 0
    (Hoover), E(1 - nS)^+ for a Beta(alpha, (n-1) alpha) share S (Lukacs
    1955; DLMF 8.17.20), exp(D(alpha) + D((n-1) alpha) - D(n alpha))/alpha
    with D = specfun._stirling_defect, within 1e-14 relative of 40-digit
    mpmath for alpha from 1e-3 to 1e4 and n from 2 to 4000.  Otherwise the
    integral runs over [0, U*s_q], s_q = n-1+lam, with U the cut of
    Q(alpha, .) from specfun._gamma_bulk, and breakpoints fence in the falls
    of its two factors near the gamma sum's mean alpha*s_q: Q(alpha, t/s_q)
    over s_q*(alpha -+ 8 sqrt(alpha)) and S over 8 of the sum's standard
    deviations.  Within 5.3e-13 of a 128-node gamma-beta mixture oracle on
    the 84 cells alpha in {20, 50, 100, 200, 400, 1e3, 1e4} x lam in
    {0.1, 0.5, 0.9} x n in {3, 10, 40, 120}.
    """
    alpha, lam, n = q.alpha, q.lam, q.n
    if lam == 1.0:
        return gamma_gini(alpha)
    if n == 2:
        return (1.0 + lam) * gamma_gini(alpha) / 2.0
    if lam == 0.0:
        return math.exp(_stirling_defect(alpha) + _stirling_defect((n - 1) * alpha)
                        - _stirling_defect(n * alpha)) / alpha
    scale_q = n - 1.0 + lam
    scale_sum = 1.0 + (n - 1) * lam
    g = GHypoParams((n - 2) * alpha, 1.0 / (1.0 - lam), alpha, 1.0 / scale_sum)

    def integrand(t):
        return (1.0 - ghypo_cdf(g, t)) * reg_gamma_q(alpha, np.asarray(t, dtype=float) / scale_q)

    cut, w = _gamma_bulk(alpha)
    sd_sum = math.sqrt((n - 2) * alpha * (1.0 - lam) ** 2 + alpha * scale_sum ** 2)
    falls = (scale_q * (alpha - w), scale_q * (alpha + w),
             alpha * scale_q - 8.0 * sd_sum, alpha * scale_q + 8.0 * sd_sum)
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
    a, b, c = (check_points(v, name).item() for name, v in (("a", a), ("b", b), ("c", c)))
    z = check_positive("z", z)
    draws = check_count("draws", draws, 2)

    rng = np.random.default_rng(seed)
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
