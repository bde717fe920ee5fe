"""Population value of the bridging inequality index.

For an interpolation weight lam in [0, 1] the index is

    I(lam) = E|(1-lam)(X1 - mu) + lam(X1 - X2)| / (2 mu),

which equals the Hoover index at lam = 0 and the Gini coefficient at
lam = 1.  This module evaluates it three ways: an exact double sum for
finite discrete distributions, a survival-function integral for arbitrary
non-negative distributions, and a closed form for gamma populations built
from regularized incomplete gamma functions.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DiscreteDist
from .quadrature import integrate_finite, integrate_semi_infinite
from .specfun import _gamma_bulk, reg_gamma_q

__all__ = [
    "discrete_index",
    "integral_index",
    "gamma_index",
    "gamma_hoover",
    "gamma_gini",
    "j_index",
]


# Parameter checks shared by every public entry point.

def check_shape(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"shape must be finite and > 0, got {alpha!r}")
    return alpha


def check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 <= lam <= 1.0):
        raise ValueError(f"interpolation weight must lie in [0, 1], got {lam!r}")
    return lam


def check_sample_size(n) -> int:
    if not (math.isfinite(n) and n == int(n) and n >= 2):
        raise ValueError(f"sample size must be an integer >= 2, got {n!r}")
    return int(n)


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
    mean = float(mean)
    if not (math.isfinite(mean) and mean > 0.0):
        raise ValueError(f"mean must be finite and > 0, got {mean!r}")

    def cdf_left(t):
        return 1.0 - survival(t)

    bps = [float(b) for b in x_breakpoints]
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
        res2 = integrate_finite(tail_integrand, 0.0, float(x_upper), breakpoints=cuts)
    return (part1 + lam * res2.value) / mean


def gamma_index(alpha: float, lam: float) -> float:
    """Closed-form index of a gamma population with shape alpha.

    Scale free, so no rate parameter appears.  The ends lam = 0 and lam = 1
    are the Hoover and Gini closed forms.  In between, with c = (1-lam)*alpha,

        I = (1-lam)^alpha alpha^(alpha-1) e^-c / Gamma(alpha) + lam*Q(alpha, c)
            - (1/alpha) int_c^inf Q(alpha, t) Q(alpha, (t-c)/lam) dt,

    and the integral is taken in s = (t-c)/lam as lam * int_0^U Q(alpha, c +
    lam*s) Q(alpha, s) ds.  Its integrand falls on the scale of the shape
    whatever lam is, so it stops at the fixed cut U = alpha + 40 sqrt(alpha)
    + 40, past which int_U^inf Q(alpha, s) ds is below 1e-22 at every shape.
    Both Q factors of an integrand evaluation come from one reg_gamma_q call.
    The first mesh fences in the falls at alpha -+ w and alpha -+ w/lam
    (w = 8 sqrt(alpha)), splits alpha -+ w in steps of w/4 and, below shape
    1, grades [0, 1] by the powers 4^-k, k = 0..15, toward the s^alpha
    corner at 0; over the 10 shapes 1e-3 to 1e4 and 21 weights of `index
    --grid 21` a value then takes at most 8 Q calls.
    Checked against a 25-digit oracle within 1e-10: worst 5.9e-15 for
    shapes 1e-3 to 1e3 and weights 1e-8 to 0.01, and 2.8e-14 at shape 1e4
    for weights 0.01 and 0.5; those 210 grid values are within 2.3e-12 of
    30-digit references.  At shapes 3e8, 1e9 and 1e10 and weights 0.1,
    0.5 and 0.9 it is within 5.2e-10 relative of the normal limit
    sqrt((1+lam^2)/(2 pi alpha)).
    """
    alpha = check_shape(alpha)
    lam = check_lambda(lam)
    if lam == 0.0:
        return gamma_hoover(alpha)
    if lam == 1.0:
        return gamma_gini(alpha)

    c = (1.0 - lam) * alpha
    term1 = math.exp(alpha * math.log1p(-lam) + (alpha - 1.0) * math.log(alpha)
                     - c - math.lgamma(alpha))
    term2 = lam * reg_gamma_q(alpha, c)

    def integrand(s):
        # both factors share the shape, so one Q call serves them: each call costs
        # mostly its fixed overhead, not its points
        m = s.size
        q = reg_gamma_q(alpha, np.concatenate((c + lam * s, s)))
        return q[:m] * q[m:]

    # the first call should resolve the integrand, as each split costs a call: both
    # factors fall from 1 to 0 near s = alpha, over widths sqrt(alpha) and
    # sqrt(alpha)/lam, where at large shapes a rule on [0, U] has no node; below
    # shape 1, Q(alpha, s) ~ 1 - s^alpha/Gamma(alpha+1) has an infinite slope at 0,
    # which bisection approaches one interval per call (Q(1, s) = e^-s is smooth)
    cut, w = _gamma_bulk(alpha)
    mesh = [alpha - w / lam, alpha + w / lam] + [alpha + k * w / 4.0 for k in range(-4, 5)]
    if alpha < 1.0:
        mesh += [4.0 ** -k for k in range(16)]
    res = integrate_finite(integrand, 0.0, cut, breakpoints=mesh)
    return term1 + term2 - lam * res.value / alpha


def gamma_hoover(alpha: float) -> float:
    """Hoover index of a gamma population: alpha^(alpha-1) e^(-alpha) / Gamma(alpha)."""
    alpha = check_shape(alpha)
    return math.exp((alpha - 1.0) * math.log(alpha) - alpha - math.lgamma(alpha))


def gamma_gini(alpha: float) -> float:
    """Gini coefficient of a gamma population: Gamma(alpha + 1/2) / (sqrt(pi) alpha Gamma(alpha))."""
    alpha = check_shape(alpha)
    return math.exp(math.lgamma(alpha + 0.5) - math.lgamma(alpha)) / (math.sqrt(math.pi) * alpha)


def j_index(hoover: float, gini: float, lam: float) -> float:
    """Convex combination (1-lam)*H + lam*G, the triangle-inequality upper bound."""
    lam = check_lambda(lam)
    return (1.0 - lam) * float(hoover) + lam * float(gini)


def lambda_grid(grid_size: int) -> list[float]:
    """The weights i / (grid_size - 1), a uniform grid over [0, 1] inclusive."""
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    return [i / (grid_size - 1) for i in range(grid_size)]
