"""Population value of the bridging inequality index.

For an interpolation weight lam in [0, 1] the index is

    I(lam) = E|(1-lam)(X1 - mu) + lam(X1 - X2)| / (2 mu),

which equals the Hoover index at lam = 0 and the Gini coefficient at
lam = 1.  This module evaluates it three ways: an exact double sum for
finite discrete distributions, a survival-function integral for arbitrary
non-negative distributions, and a closed form for gamma populations built
from regularized incomplete gamma functions.  Every argument passes a check
from `_checks`, which this module shares with every other entry point.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import check_count, check_lambda, check_points, check_positive
from .distributions import DiscreteDist
from .quadrature import integrate_finite, integrate_semi_infinite
from .specfun import _gamma_bulk, _stirling_defect, reg_gamma_q

__all__ = [
    "discrete_index",
    "integral_index",
    "gamma_index",
    "gamma_hoover",
    "gamma_gini",
    "j_index",
]


def discrete_index(d: DiscreteDist, lam: float) -> float:
    """Exact index of a finite discrete distribution by direct double sum.

    This is the brute-force oracle the integral and closed-form routes are
    checked against.
    """
    lam = check_lambda(lam)
    mu = d.mean()
    if mu <= 0.0:
        raise ValueError("index undefined: the distribution has mean 0")
    v = d.values
    terms = np.abs((1.0 - lam) * (v - mu)[:, None] + lam * (v[:, None] - v[None, :]))
    weighted = (d.probs[:, None] * d.probs[None, :]) * terms
    return math.fsum(weighted.ravel().tolist()) / (2.0 * mu)


def integral_index(survival, mean: float, lam: float, *,
                   x_breakpoints=(), x_upper=None) -> float:
    """Index from the survival function of a non-negative distribution.

    `survival(t)` is called elementwise on an ndarray t and must return
    P(X >= t) (the left limit, so that discrete atoms are counted on the
    closed side).  `x_breakpoints` lists atom locations of X so integration
    never straddles a jump, and `x_upper` bounds the support when it is
    finite; both stay None/empty for continuous unbounded distributions.

    Evaluates (1/mu) * int_0^inf F(t) * S_Y(t) dt where Y = lam*X2 +
    (1-lam)*mu, S_Y(t) = 1 below c = (1-lam)*mu and survival((t-c)/lam)
    above.  At lam = 0, Y is the constant mu, so the integral stops at c.
    Above c it is taken in s = (t-c)/lam, as lam * int_0^inf F(c + lam*s) *
    survival(s) ds, so the scale of the integrand does not shrink with lam;
    a jump of F at an atom b sits at s = (b-c)/lam.
    """
    lam = check_lambda(lam)
    mean = check_positive("mean", mean)
    bps = check_points(x_breakpoints, "x_breakpoints", ndim=1).tolist()
    x_upper = None if x_upper is None else check_positive("x_upper", x_upper)

    def cdf_left(t):
        return 1.0 - survival(t)

    c = (1.0 - lam) * mean
    part1 = 0.0
    if c > 0.0:
        part1 = integrate_finite(cdf_left, 0.0, c, breakpoints=bps).value
    if lam == 0.0:
        return part1 / mean

    def tail_integrand(s):
        return cdf_left(c + lam * s) * survival(s)

    if x_upper is None:
        res2 = integrate_semi_infinite(tail_integrand)
    else:
        cuts = set(bps) | {(b - c) / lam for b in bps}
        res2 = integrate_finite(tail_integrand, 0.0, x_upper, breakpoints=cuts)
    return (part1 + lam * res2.value) / mean


def gamma_index(alpha: float, lam: float) -> float:
    """Closed-form index of a gamma population with shape alpha.

    Scale free, so no rate parameter appears.  The ends lam = 0 and lam = 1
    are the Hoover and Gini closed forms.  In between, with c = (1-lam)*alpha,

        I = H(alpha) (1-lam)^alpha e^(lam alpha)
            + (lam/alpha) int_0^U [Q(alpha, c) - Q(alpha, c + lam*s)] Q(alpha, s) ds,

    with H the Hoover closed form and the term lam*Q(alpha, c) taken inside through
    int_0^inf Q(alpha, s) ds = alpha, so the integrand is non-negative.  It falls on
    the scale of the shape whatever lam is, so it stops at the fixed cut U = alpha +
    40 sqrt(alpha) + 40, past which int_U^inf Q(alpha, s) ds is below 1e-22 at every
    shape.  The first mesh splits the falls alpha -+ w (w = 8 sqrt(alpha)) in steps of w/4 and
    alpha -+ w/lam in steps of w/(2 lam), halves [0, alpha], cuts [alpha + w, U] at (k/8)^2 of
    its length, k = 1..7, and grades [0, 1] toward the s^alpha corner at 0 by specfun._gamma_bulk's
    corner points, 4^-k, k = 0..15, below shape 2 except at 1; over the 10 shapes 1e-3 to 1e4 and
    21 weights of `index --grid 21` each value then takes one Q call, 190 in all, as do five values
    at shapes 1.05 to 1.778, within 8.3e-16 of 30-digit references.  Checked against a 25-digit
    oracle within 1e-10: worst 2.2e-16 for shapes 1e-3 to 1e3 and weights 1e-8 to 0.01, and
    1.2e-17 at shape 1e4 for weights 0.01 and 0.5; those 210 grid values are within 1.2e-14 of
    30-digit references.  At shapes 3e8, 1e9 and 1e10 and weights 0, 0.1, 0.5, 0.9 and 1 it is
    within 4.2e-10 relative of the normal limit sqrt((1+lam^2)/(2 pi alpha)).
    """
    alpha = check_positive("shape", alpha)
    lam = check_lambda(lam)
    if lam == 0.0:
        return gamma_hoover(alpha)
    if lam == 1.0:
        return gamma_gini(alpha)

    c = (1.0 - lam) * alpha
    term1 = gamma_hoover(alpha) * math.exp(alpha * (math.log1p(-lam) + lam))

    def integrand(s):
        # every factor shares the shape, so one Q call serves them: each call costs
        # mostly its fixed overhead, not its points
        m = s.size
        q = reg_gamma_q(alpha, np.concatenate(([c], c + lam * s, s)))
        return (q[0] - q[1:m + 1]) * q[m + 1:]

    # the first call should resolve the integrand, as each split costs a call: both factors
    # fall from 1 to 0 near s = alpha, over widths sqrt(alpha) and sqrt(alpha)/lam, where at
    # large shapes a rule on [0, U] has no node, a fall wider than alpha fills [0, alpha], and
    # bisection walks down the tail one call at a time; specfun._gamma_bulk grades the corner at 0
    cut, w, corner = _gamma_bulk(alpha)
    mesh = [alpha / 2.0] + [alpha + k * w / 4.0 for k in range(-4, 5)]
    mesh += [alpha + k * w / (2.0 * lam) for k in range(-2, 3)]
    mesh += [alpha + w + (cut - alpha - w) * (k / 8.0) ** 2 for k in range(1, 8)] + corner
    # the tolerance is on the index, not the O(lam) smaller integral: 1e-9 of its bound alpha
    res = integrate_finite(integrand, 0.0, cut, max(1e-11, 1e-9 * alpha), breakpoints=mesh)
    return term1 + lam * res.value / alpha


def gamma_hoover(alpha: float) -> float:
    """Hoover index of a gamma population: alpha^(alpha-1) e^(-alpha) / Gamma(alpha).

    Taken below shape 8 as alpha^alpha e^(-alpha) / Gamma(alpha + 1), whose factors tend to 1 as alpha -> 0,
    and from 8 on as exp(D(alpha))/alpha with specfun's Stirling defect D(s) = s ln s - s - ln Gamma(s),
    which does not cancel at large shapes: within 2.5e-15 relative of mpmath, shapes 1e-3 to 1e14.
    """
    alpha = check_positive("shape", alpha)
    if alpha < 8.0:
        return math.pow(alpha, alpha) * math.exp(-alpha) / math.gamma(alpha + 1.0)
    return math.exp(_stirling_defect(alpha)) / alpha


def gamma_gini(alpha: float) -> float:
    """Gini coefficient of a gamma population: Gamma(alpha + 1/2) / (sqrt(pi) alpha Gamma(alpha)).

    Taken below shape 8 as Gamma(alpha + 1/2) / (Gamma(1/2) Gamma(alpha + 1)), exactly 1 as alpha -> 0, and
    from 8 on as exp(alpha ln(1 + 1/(2 alpha)) - 1/2 + D(alpha) - D(alpha + 1/2)) sqrt(alpha + 1/2) /
    (sqrt(pi) alpha) with D as in gamma_hoover: within 3.3e-15 relative of mpmath, shapes 1e-3 to 1e14.
    """
    alpha = check_positive("shape", alpha)
    if alpha < 8.0:
        return math.gamma(alpha + 0.5) / (math.gamma(0.5) * math.gamma(alpha + 1.0))
    log_ratio = alpha * math.log1p(0.5 / alpha) - 0.5 + _stirling_defect(alpha) - _stirling_defect(alpha + 0.5)
    return math.exp(log_ratio) * math.sqrt(alpha + 0.5) / (math.sqrt(math.pi) * alpha)


def j_index(hoover: float, gini: float, lam: float) -> float:
    """Convex combination (1-lam)*H + lam*G, the triangle-inequality upper bound."""
    lam = check_lambda(lam)
    return (1.0 - lam) * float(hoover) + lam * float(gini)


def lambda_grid(grid_size: int) -> list[float]:
    """The weights i / (grid_size - 1), a uniform grid over [0, 1] inclusive."""
    grid_size = check_count("grid_size", grid_size, 2)
    return [i / (grid_size - 1) for i in range(grid_size)]
