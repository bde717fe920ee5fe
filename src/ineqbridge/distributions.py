"""Gamma, exponentially tilted gamma, generalized hypoexponential, and
finite discrete distributions.

The generalized hypoexponential (GHypo) is the law of a sum of two
independent gamma variables with distinct rates; its distribution function
is a log-space prefactor times a confluent series of closed-form diagonals,
with a convolution fallback where the series' table and log grow large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_fraction, check_points, check_positive
from .quadrature import integrate_finite
from .specfun import _gamma_bulk, _log_gamma_prefactor, log_humbert_phi2, reg_gamma_q

__all__ = [
    "GammaParams",
    "GHypoParams",
    "DiscreteDist",
    "gamma_sample",
    "ghypo_cdf",
]

_PHI2_BUDGET = 4.0e4  # x + y past which the convolution takes over (see ghypo_cdf)


@dataclass(frozen=True)
class GammaParams:
    """Shape alpha > 0 and rate beta > 0 of a gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_positive("gamma shape", self.alpha))
        object.__setattr__(self, "beta", check_positive("gamma rate", self.beta))


@dataclass(frozen=True)
class GHypoParams:
    """Parameters of a sum of two independent gammas (shape1, rate1, shape2, rate2)."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            object.__setattr__(self, name, check_positive(f"GHypo parameter {name}", getattr(self, name)))

    @property
    def mean(self) -> float:
        return self.alpha1 / self.beta1 + self.alpha2 / self.beta2


class DiscreteDist:
    """Finite distribution on non-negative values.

    Atoms with equal values are merged on construction and the result is
    sorted by value, the order `survival` searches.
    """

    def __init__(self, atoms):
        atoms = list(atoms)
        values = check_points([v for v, _ in atoms], "atom value", ndim=1).tolist()
        merged: dict[float, float] = {}
        for v, (_, p) in zip(values, atoms):
            merged[v] = merged.get(v, 0.0) + check_fraction("atom probability", p)
        if not merged:
            raise ValueError("a discrete distribution needs at least one atom")
        total = math.fsum(merged.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        pairs = sorted(merged.items())
        self.atoms: tuple[tuple[float, float], ...] = tuple(pairs)
        self.values = np.array([v for v, _ in pairs])
        self.probs = np.array([p for _, p in pairs])
        # P(X >= values[k]) for each k, then 0 past the top atom
        self._tail = np.concatenate((np.cumsum(self.probs[::-1])[::-1], [0.0]))

    def __repr__(self):
        return f"DiscreteDist({list(self.atoms)!r})"

    def mean(self) -> float:
        return float(math.fsum(v * p for v, p in self.atoms))

    @property
    def max_value(self) -> float:
        return float(self.values[-1])

    def survival(self, t):
        """P(X >= t), the left limit of the usual survival function; a nan t is refused."""
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError("t must not be nan")
        idx = np.searchsorted(self.values, t, side="left")
        out = self._tail[idx]
        return float(out) if out.ndim == 0 else out


def gamma_sample(p: GammaParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` independent gamma variates using the supplied generator.

    One `rng.gamma` call at every shape (numpy's own rejection samplers on
    either side of shape 1); at tiny shapes the draws below the least positive
    double come out as exact 0s, as they should: about half at alpha = 1e-3.
    """
    return rng.gamma(p.alpha, 1.0 / p.beta, size=check_count("count", count, 1))


def _ghypo_cdf_convolution(g: GHypoParams, t: float) -> float:
    # condition on the component whose mass ends first; the other contributes its gamma CDF
    (ac, bc), (ao, bo) = sorted(((g.alpha1, g.beta1), (g.alpha2, g.beta2)),
                                key=lambda comp: _gamma_bulk(comp[0])[0] / comp[1])
    cut, w = _gamma_bulk(ac)
    # a first mesh over the conditioned density's bulk and upper tail, at rate 1: each split
    # would cost a Q call
    hi = min(t, cut / bc)
    mesh = [max(ac + k * w / 8.0, 0.0) for k in range(-8, 9)]
    mesh += [ac + w + k * (cut - ac - w) / 4.0 for k in range(1, 4)]

    def cdf_rest(u):
        return 1.0 - reg_gamma_q(ao, np.maximum(bo * (t - u), 0.0))

    if ac >= 1.0:
        def integrand(u):
            return np.exp(_log_gamma_prefactor(ac, bc * u)) / u * cdf_rest(u)
        res = integrate_finite(integrand, 0.0, hi, abs_tol=1e-9, breakpoints=[f / bc for f in mesh])
    else:  # in v = (b u)^a the density times du is e^(-b u)/Gamma(a+1) dv
        def integrand(v):
            x = v ** (1.0 / ac)
            return np.exp(-x) / math.gamma(ac + 1.0) * cdf_rest(x / bc)
        res = integrate_finite(integrand, 0.0, (bc * hi) ** ac, abs_tol=1e-9,
                               breakpoints=[f ** ac for f in mesh])
    return min(max(res.value, 0.0), 1.0)


def ghypo_cdf(g: GHypoParams, t):
    """Distribution function of the two-gamma sum at t >= 0.

    Exactly 1 at t >= U1/b1 + U2/b2 (U, w from specfun._gamma_bulk), where
    1 - F <= Q(a1, U1) + Q(a2, U2) < 1e-22.  Below, computed as
    (b_lo/b_hi)^a_lo (b_hi t)^nu e^(-b_hi t) / Gamma(nu+1), in logs by
    specfun's prefactor route, times the confluent series at rate ratio
    p = b_lo/b_hi (as is: 1 - x/y would lose its digits as p -> 0), with
    nu = a1 + a2.  Past x + y = (2*rate_hi - rate_lo)*t = 4e4, where the
    series' O(y) table of ln V and the ulp of ln Phi2 (error in F) keep
    growing, it conditions on the component (a, b) whose mass ends first and
    integrates its density times the other's CDF over [0, min(t, U/b)] from
    a first mesh (a + k w/8)/b, k = -8..8, across the density's bulk and
    (a + w + k (U - a - w)/4)/b, k = 1..3, across its upper tail, so most
    integrals at shapes >= 1 take one rule call (steps of w/4 left 1 - F =
    1.7e-14 below the joint cut), and in v = (b u)^a below shape 1, where
    u^(a-1) would overflow: within 4.5e-14 of a scipy quadrature oracle at
    the 635 points it takes among t = mean + k sd, k = -6..8, of the bias
    integral's gamma sums at shapes {0.5, 1, 2, 5, 10, 50, 400, 1e4}, weights
    {0.1, 0.5, 0.9, 0.999} and n {3, 10, 40, 120}, 613 of them in one rule call.
    A float for a scalar or 0-d t, otherwise an array of t's shape.
    """
    t = check_points(t, "t", {"g": g})
    # b_hi is the larger rate, so the series arguments stay non-negative
    (_, b_hi), (a_lo, b_lo) = sorted(((g.alpha1, g.beta1), (g.alpha2, g.beta2)),
                                     key=lambda comp: -comp[1])
    nu = g.alpha1 + g.alpha2
    ends = _gamma_bulk(g.alpha1)[0] / g.beta1 + _gamma_bulk(g.alpha2)[0] / g.beta2
    out = np.where(t >= ends, 1.0, 0.0)
    within = (2.0 * b_hi - b_lo) * t <= _PHI2_BUDGET
    series = within & (t > 0) & (t < ends)
    if series.any():
        ts = t[series]
        lp = a_lo * math.log(b_lo / b_hi) + _log_gamma_prefactor(nu, b_hi * ts) - math.log(nu)
        logf = lp + log_humbert_phi2(a_lo, nu + 1.0, b_lo / b_hi, b_hi * ts)
        f = np.exp(logf)
        if (f > 1.0 + 1e-9).any():
            bad = float(f.max())
            raise RuntimeError(
                f"GHypo distribution function exceeded 1 ({bad!r}) for parameters {g}"
            )
        out[series] = np.minimum(f, 1.0)
    for i in np.flatnonzero(~within & (t < ends)):
        out.flat[i] = _ghypo_cdf_convolution(g, float(t.flat[i]))
    return float(out) if out.ndim == 0 else out
