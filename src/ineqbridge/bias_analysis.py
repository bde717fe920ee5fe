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

from .distributions import GammaParams, GHypoParams, gamma_sample, ghypo_cdf
from .index_core import check_lambda, check_sample_size, check_shape, gamma_gini, gamma_index
from .quadrature import integrate_finite
from .specfun import reg_gamma_q

__all__ = [
    "BiasQuery",
    "expected_i_hat",
    "bias",
    "tilting_lemma_check",
    "TiltingCheck",
]

_BIAS_ABS_TOL = 1e-9   # relaxed inner tolerance; final comparisons need ~1e-4
_ENVELOPE_DROP = 1e-14


@dataclass(frozen=True)
class BiasQuery:
    """One (shape, weight, sample size) point of the bias analysis."""

    alpha: float
    lam: float
    n: int

    def __post_init__(self):
        check_shape(self.alpha)
        check_lambda(self.lam)
        check_sample_size(self.n)


def _upper_cut(integrand, start: float, q: BiasQuery) -> float:
    # smallest grid point past the peak where the unimodal integrand has
    # dropped below _ENVELOPE_DROP of its maximum
    t_hi = max(start, 1.0)
    for _ in range(60):
        grid = np.linspace(0.0, t_hi, 129)[1:]
        vals = np.asarray(integrand(grid), dtype=float)
        peak = vals.max()
        if peak > 0.0 and vals[-1] <= _ENVELOPE_DROP * peak:
            i_pk = int(vals.argmax())
            rel = np.nonzero(vals[i_pk:] <= _ENVELOPE_DROP * peak)[0]
            return float(grid[i_pk + rel[0]])
        t_hi *= 2.0
    raise RuntimeError(f"could not locate the decayed tail of the bias integrand at alpha={q.alpha}, "
                       f"lam={q.lam}, n={q.n} (last cut tried t={t_hi / 2.0!r})")


def expected_i_hat(q: BiasQuery) -> float:
    """Expectation of the plug-in estimator under a gamma population.

    lam = 0 is the Hoover estimator and lam = 1 returns the Gini coefficient
    exactly.  At n = 2 (first shape 0) or lam = 0 (equal rates) the
    gamma-sum law is a single gamma with shape (n-1)*alpha and rate
    1/(1+(n-1)*lam).
    """
    alpha, lam, n = q.alpha, q.lam, int(q.n)
    if lam == 1.0:
        return gamma_gini(alpha)
    scale_q = n - 1.0 + lam
    scale_sum = 1.0 + (n - 1) * lam
    if n == 2 or lam == 0.0:
        shape_sum = (n - 1) * alpha
        def survival(t):
            return reg_gamma_q(shape_sum, np.asarray(t, dtype=float) / scale_sum)
        mean_sum = shape_sum * scale_sum
        sd_sum = math.sqrt(shape_sum) * scale_sum
    else:
        g = GHypoParams((n - 2) * alpha, 1.0 / (1.0 - lam), alpha, 1.0 / scale_sum)
        def survival(t):
            return 1.0 - ghypo_cdf(g, t)
        mean_sum = g.mean
        sd_sum = math.sqrt((n - 2) * alpha * (1.0 - lam) ** 2 + alpha * scale_sum ** 2)

    def integrand(t):
        return survival(t) * reg_gamma_q(alpha, np.asarray(t, dtype=float) / scale_q)

    start = max(mean_sum + 10.0 * sd_sum, scale_q * (alpha + 10.0 * math.sqrt(alpha)), 10.0)
    upper = _upper_cut(integrand, start, q)
    res = integrate_finite(integrand, 0.0, upper, abs_tol=_BIAS_ABS_TOL)
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
    the product of Laplace transforms times the tilted first moments times
    the normalized mean absolute difference of (aW_z + bY_z, cZ_z), with the
    difference term estimated by a second MC over tilted gammas (a tilted
    gamma keeps its shape and has its rate increased by z).
    """
    a, b, c, z = float(a), float(b), float(c), float(z)
    if min(a, b, c) < 0.0 or z <= 0.0:
        raise ValueError("need a, b, c >= 0 and z > 0")
    draws = int(draws)
    if draws < 2:
        raise ValueError("draws must be >= 2")

    rng = np.random.default_rng(seed)
    ws = gamma_sample(w, rng, draws)
    ys = gamma_sample(y, rng, draws)
    zs = gamma_sample(zz, rng, draws)
    vals = np.abs(a * ws + b * ys - c * zs) * np.exp(-z * (ws + ys + zs))
    lhs = float(vals.mean())
    lhs_se = float(vals.std(ddof=1) / math.sqrt(draws))

    lap = math.exp(w.alpha * (math.log(w.beta) - math.log(w.beta + z))
                   + y.alpha * (math.log(y.beta) - math.log(y.beta + z))
                   + zz.alpha * (math.log(zz.beta) - math.log(zz.beta + z)))
    mw = w.alpha / (w.beta + z)
    my = y.alpha / (y.beta + z)
    mz = zz.alpha / (zz.beta + z)

    wt = gamma_sample(GammaParams(w.alpha, w.beta + z), rng, draws)
    yt = gamma_sample(GammaParams(y.alpha, y.beta + z), rng, draws)
    zt = gamma_sample(GammaParams(zz.alpha, zz.beta + z), rng, draws)
    diffs = np.abs(a * wt + b * yt - c * zt)
    mean_abs = float(diffs.mean())
    se_abs = float(diffs.std(ddof=1) / math.sqrt(draws))

    moment_sum = a * mw + b * my + c * mz
    nmad = mean_abs / moment_sum if moment_sum > 0.0 else 0.0
    rhs = lap * moment_sum * nmad
    rhs_se = lap * se_abs
    return TiltingCheck(lhs_mc=lhs, rhs_analytic=rhs, lhs_se=lhs_se, rhs_se=rhs_se)
