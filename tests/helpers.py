"""Shared test oracles and cached heavy computations.

Oracles here are deliberately independent of the package internals: erfc by
its Taylor series, hypergeometric sums in 50-digit arithmetic, closed-form
densities, and brute-force enumeration.
"""

from __future__ import annotations

import math
from functools import cache

import mpmath as mp
import numpy as np

from ineqbridge import BiasQuery, DiscreteDist, bias

from reference_values import MC_REFERENCE

mp.mp.dps = 50


def erfc_series(x: float, terms: int = 80) -> float:
    """erfc by the Maclaurin series of erf in extended precision."""
    xm = mp.mpf(x)
    s = mp.mpf(0)
    for k in range(terms):
        s += (-1) ** k * xm ** (2 * k + 1) / (mp.factorial(k) * (2 * k + 1))
    return float(1 - 2 / mp.sqrt(mp.pi) * s)


def mp_reg_q(s, x) -> float:
    """Q(s, x) in 50-digit arithmetic, as 1 - P(s, x) below x = 0.9 s.

    mpmath's upper integral takes tens of seconds at x = 0.7 s for s = 1e6,
    and its lower series fails to converge at x = s - 3 sqrt(s) for s = 1e10.
    Below x = 0.9 s, Q is above 1/2, so 1 - P loses nothing at 50 digits.
    """
    sm, xm = mp.mpf(s), mp.mpf(x)
    if xm < 0.9 * sm:
        return float(1 - mp.gammainc(sm, 0, xm, regularized=True))
    return float(mp.gammainc(sm, xm, mp.inf, regularized=True))


def mp_temme_coefficients(k_count: int, n_count: int) -> list[list[mp.mpf]]:
    """Coefficients d[k][n] of c_k(eta) = sum_n d[k][n] eta^n (DLMF 8.12.12-13).

    lam - 1 = u(eta) with eta^2/2 = u - ln(1 + u) is reverted as a power
    series from u u' = eta (1 + u); c_0 = 1/u - 1/eta gives d[0][n]; the
    Stirling coefficients g_k of Gamma*(z) ~ sum g_k z^-k come from the
    exponential of the Bernoulli-number series of ln Gamma*; and
    d[k][n] = (-1)^k g_k d[0][n] + (n + 2) d[k-1][n+2].
    """
    m = n_count + 2 * (k_count - 1)        # d[0][n] is needed for n < m
    a = [mp.mpf(0), mp.mpf(1)]             # u = sum a[j] eta^j
    for j in range(2, m + 2):
        cross = mp.fsum((j - i + 1) * a[i] * a[j - i + 1] for i in range(2, j))
        a.append((a[j - 1] - cross) / (j + 1))
    w = [mp.mpf(1)]                        # eta/u = sum w[j] eta^j
    for j in range(1, m + 1):
        w.append(-mp.fsum(a[i + 1] * w[j - i] for i in range(1, j + 1)))
    d0 = w[1:]
    log_g = [mp.mpf(0)] * k_count          # ln Gamma*(z) = sum log_g[j] z^-j
    for j in range(1, k_count, 2):
        log_g[j] = mp.bernoulli(j + 1) / (j * (j + 1))
    g = [mp.mpf(1)]
    for j in range(1, k_count):
        g.append(mp.fsum(i * log_g[i] * g[j - i] for i in range(1, j + 1)) / j)
    rows = [d0]
    for k in range(1, k_count):
        prev = rows[-1]
        rows.append([(-1) ** k * g[k] * d0[n] + (n + 2) * prev[n + 2] for n in range(len(prev) - 2)])
    return [row[:n_count] for row in rows]


def mp_gamma_index(alpha: float, lam: float) -> float:
    """Gamma index E_{X2}[g(lam*X2 + c)] / (2 alpha) in 25-digit arithmetic.

    g(y) = E|X1 - y| = alpha - y + 2[y P(alpha, y) - alpha P(alpha+1, y)] and
    c = (1-lam) alpha.  With h(x) = e^-x g(lam x + c) / Gamma(alpha), the
    part on [0, 1] integrates x^(alpha-1) (h(x) - h(0)) and adds h(0)/alpha,
    which takes the x^(alpha-1) singularity out of the quadrature; the rest
    is split around the mode so the peak at large alpha is resolved.
    """
    with mp.workdps(25):
        a = mp.mpf(alpha)
        lm = mp.mpf(lam)
        c = (1 - lm) * a
        ga = mp.gamma(a)

        def h(x):
            y = lm * x + c
            g = a - y + 2 * (y * mp.gammainc(a, 0, y, regularized=True)
                             - a * mp.gammainc(a + 1, 0, y, regularized=True))
            return mp.exp(-x) * g / ga

        h0 = h(0)
        near = mp.quad(lambda x: x ** (a - 1) * (h(x) - h0), [0, 1]) + h0 / a
        sd = mp.sqrt(a)
        cuts = [1] + [x for x in (a - 12 * sd, a, a + 12 * sd) if x > 1] + [mp.inf]
        far = mp.quad(lambda x: x ** (a - 1) * h(x), cuts)
        return float((near + far) / (2 * a))


def mp_phi2_unit(a, c, x, y, terms: int = 5000) -> mp.mpf:
    """Reference evaluation of the two-variable confluent series.

    Sums the diagonals r_s until one falls below 1e-40 of the sum, and
    raises when that takes more than `terms` diagonals.
    """
    S = mp.mpf(1)
    r = mp.mpf(1)
    v = mp.mpf(1)
    for s in range(1, terms):
        v = v * (mp.mpf(a) + s - 1) * mp.mpf(x) / (s * (mp.mpf(c) + s - 1))
        r = mp.mpf(y) * r / (mp.mpf(c) + s - 1) + v
        S += r
        if abs(r) < mp.mpf("1e-40") * abs(S):
            return S
    raise RuntimeError(f"mp_phi2_unit did not converge in {terms} terms at a={a}, c={c}, x={x}, y={y}")


def phi2_stop_term(a, c, x, y) -> int:
    """Diagonal at which the float64 series stops, summed one term at a time.

    The stop is the third consecutive diagonal r_s below 1e-16 of the sum so far.
    """
    v = r = total = 1.0
    streak = 0
    for s in range(1, 100_000):
        v *= (a + s - 1) * x / (s * (c + s - 1))
        r = y * r / (c + s - 1) + v
        total += r
        streak = streak + 1 if r < 1e-16 * total else 0
        if streak == 3:
            return s
    raise RuntimeError(f"phi2_stop_term did not stop at a={a}, c={c}, x={x}, y={y}")


def hypoexp_cdf(b1: float, b2: float, t: float) -> float:
    """Closed-form distribution function of Exp(b1) + Exp(b2), b1 != b2."""
    return 1.0 - (b2 * math.exp(-b1 * t) - b1 * math.exp(-b2 * t)) / (b2 - b1)


def random_discrete(rng: np.random.Generator, n_atoms: int) -> DiscreteDist:
    """Random discrete distribution with distinct non-negative atom values."""
    values = np.unique(np.round(rng.uniform(0.0, 20.0, size=n_atoms), 6))
    while values.size < n_atoms:
        values = np.unique(np.concatenate([values, rng.uniform(0.0, 20.0, size=n_atoms)]))
    values = values[:n_atoms]
    raw = rng.uniform(0.1, 1.0, size=n_atoms)
    probs = raw / math.fsum(raw.tolist())
    return DiscreteDist(list(zip(values.tolist(), probs.tolist())))


@cache
def analytic_bias_table() -> dict[tuple[float, float, int], float]:
    """Analytic estimator bias at every reference design point (cached)."""
    out: dict[tuple[float, float, int], float] = {}
    for alpha, lam, n, *_ in MC_REFERENCE:
        out[(alpha, lam, n)] = bias(BiasQuery(alpha=alpha, lam=lam, n=n))
    return out


def tilting_agrees(check, k: float = 4.0) -> bool:
    """Both Monte Carlo routes agree within k combined standard errors."""
    return abs(check.lhs_mc - check.rhs_analytic) <= k * math.hypot(check.lhs_se, check.rhs_se)
