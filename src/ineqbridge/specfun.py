"""Scalar special functions behind the closed forms.

Provides the regularized upper incomplete gamma function
Q(s, x) = Gamma(s, x)/Gamma(s) and the two-variable confluent (Humbert)
series needed by the gamma-sum distribution function.

Everything is arranged so that summed series have non-negative terms and
large prefactors live in log space: shape parameters beyond a thousand are
routine.  All functions are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reg_gamma_q",
    "log_humbert_phi2",
]

_TERM_CAP = 100_000
_REL_EPS = 1e-16        # a term this small relative to the sum is negligible
_STREAK = 3             # consecutive negligible terms required to stop
_RESCALE_LIMIT = 1e250


def _stirling_defect(s: float) -> float:
    # s*ln(s) - s - lgamma(s) without cancellation for large s
    if s < 18.0:
        return s * math.log(s) - s - math.lgamma(s)
    r = 1.0 / s
    r2 = r * r
    corr = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 / 1188.0))))
    return 0.5 * math.log(s / (2.0 * math.pi)) - corr


def _log_gamma_prefactor(s: float, x: np.ndarray) -> np.ndarray:
    # ln(x^s e^{-x} / Gamma(s)), stable near x ~ s where the direct form cancels
    out = np.empty_like(x)
    u = (x - s) / s
    near = np.abs(u) <= 0.5
    if near.any():
        un = u[near]
        out[near] = _stirling_defect(s) + s * (np.log1p(un) - un)
    far = ~near
    if far.any():
        xf = x[far]
        out[far] = s * np.log(xf) - xf - math.lgamma(s)
    return out


def _gamma_p_series(s: float, x: np.ndarray) -> np.ndarray:
    # lower regularized P(s,x) for x < s+1; terms decrease monotonically
    ax = _log_gamma_prefactor(s, x)
    term = np.full(x.shape, 1.0 / s)
    total = term.copy()
    streak = np.zeros(x.shape, dtype=np.int64)
    for k in range(1, _TERM_CAP):
        term = term * x / (s + k)
        total += term
        streak = np.where(term < _REL_EPS * total, streak + 1, 0)
        if (streak >= _STREAK).all():
            return np.exp(ax) * total
    raise RuntimeError(f"incomplete gamma series hit the {_TERM_CAP}-term cap at s={s}")


def _gamma_q_contfrac(s: float, x: np.ndarray) -> np.ndarray:
    # upper regularized Q(s,x) for x >= s+1 by the modified Lentz continued fraction
    ax = _log_gamma_prefactor(s, x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = np.full(x.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _TERM_CAP):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        c = b + an / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            return np.exp(ax) * h
    raise RuntimeError(f"incomplete gamma continued fraction hit the {_TERM_CAP}-term cap at s={s}")


def reg_gamma_q(s: float, x):
    """Regularized upper incomplete gamma Q(s, x) for s > 0, x >= 0.

    Accepts a scalar or an ndarray for x.  Power series for x < s+1,
    continued fraction otherwise, both with a log-space prefactor.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"reg_gamma_q requires finite s > 0, got {s!r}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    flat = np.atleast_1d(xa).ravel().copy()
    if not np.isfinite(flat).all() or (flat < 0).any():
        raise ValueError("reg_gamma_q requires finite x >= 0")
    out = np.ones_like(flat)
    lo = flat > 0
    series = lo & (flat < s + 1.0)
    if series.any():
        out[series] = 1.0 - _gamma_p_series(s, flat[series])
    cf = lo & ~series
    if cf.any():
        out[cf] = _gamma_q_contfrac(s, flat[cf])
    if scalar:
        return float(out[0])
    return out.reshape(xa.shape)


def log_humbert_phi2(a: float, c: float, x, y):
    """Log of the two-variable confluent series with unit second parameter.

    Evaluates ln sum_{k,m>=0} (a)_k x^k y^m / ((c)_{k+m} k! m!) for a > 0,
    c > 0 and x, y >= 0 (elementwise over matching arrays).  This is the
    Humbert Phi2 series specialized to second numerator parameter 1; it is
    the reduced form taken by the distribution function of a sum of two
    independent gamma variables with distinct rates.
    """
    a = float(a)
    c = float(c)
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(c) and c > 0.0):
        raise ValueError(f"log_humbert_phi2 requires a > 0 and c > 0, got a={a!r}, c={c!r}")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    scalar = xa.ndim == 0 and ya.ndim == 0
    xf, yf = np.broadcast_arrays(np.atleast_1d(xa).astype(float), np.atleast_1d(ya).astype(float))
    xf = xf.ravel().copy()
    yf = yf.ravel().copy()
    if (xf < 0).any() or (yf < 0).any() or not np.isfinite(xf).all() or not np.isfinite(yf).all():
        raise ValueError("log_humbert_phi2 requires finite x >= 0 and y >= 0")
    # diagonal recursion: v_s carries the pure-x term, r_s the full degree-s layer
    v = np.ones_like(xf)
    r = np.ones_like(xf)
    total = np.ones_like(xf)
    logscale = np.zeros_like(xf)
    streak = np.zeros(xf.shape, dtype=np.int64)
    for s in range(1, _TERM_CAP):
        v = v * (a + s - 1.0) * xf / (s * (c + s - 1.0))
        r = yf * r / (c + s - 1.0) + v
        total = total + r
        big = total > _RESCALE_LIMIT
        if big.any():
            f = total[big]
            logscale[big] += np.log(f)
            r[big] /= f
            v[big] /= f
            total[big] = 1.0
        streak = np.where(r < _REL_EPS * total, streak + 1, 0)
        if (streak >= _STREAK).all():
            out = logscale + np.log(total)
            if scalar:
                return float(out[0])
            return out.reshape(np.broadcast_shapes(xa.shape, ya.shape))
    raise RuntimeError(
        f"two-variable confluent series hit the {_TERM_CAP}-term cap "
        f"(a={a}, c={c}, max x={float(np.max(xf))}, max y={float(np.max(yf))})"
    )
