"""Shared test oracles and cached heavy computations.

Oracles here are deliberately independent of the package internals: erfc by
its Taylor series, hypergeometric sums in 50-digit arithmetic, closed-form
densities, brute-force enumeration, and scipy's quadrature and incomplete
beta function.
"""

from __future__ import annotations

import math
from functools import cache

import mpmath as mp
import numpy as np

from ineqbridge import BiasQuery, DiscreteDist, bias, quadrature

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


def mp_kronrod_rule():
    """Gauss-Kronrod 7/15 constants by Newton's method on the exactness conditions.

    The rules are symmetric, so only even moments constrain them: a rule
    with center weight w0 and weights w_i at +-x_i integrates x^(2j) over
    [-1, 1] exactly when w0 [j = 0] + 2 sum_i w_i x_i^(2j) = 2/(2j+1).  The
    Gauss rule's 3 positive nodes and 4 weights meet j = 0..6 (degree 13);
    the Kronrod rule keeps those nodes and adds 4, whose 8 weights with the
    new nodes meet j = 0..11 (degree 23).  Newton starts from
    `quadrature`'s constants and stops when a step is below 1e-45.  Returns
    (xk, wk, wg) ordered as `quadrature._XK`, `_WK` and `_WG`.
    """
    def solve(nodes, free, weights):
        # the positive nodes at the indices `free` and every weight (one per positive node,
        # then the center's) as unknowns, one condition each
        nodes, weights = [mp.mpf(z) for z in nodes], [mp.mpf(z) for z in weights]
        size = len(free) + len(weights)
        for _ in range(100):
            f, jac = mp.matrix(size, 1), mp.matrix(size, size)
            for j in range(size):
                f[j] = 2 * mp.fsum(w * x ** (2 * j) for w, x in zip(weights, nodes)) - mp.mpf(2) / (2 * j + 1)
                for col, i in enumerate(free):
                    jac[j, col] = 4 * j * weights[i] * nodes[i] ** (2 * j - 1)
                for i, x in enumerate(nodes):
                    jac[j, len(free) + i] = 2 * x ** (2 * j)
            f[0] += weights[-1]
            jac[0, size - 1] = 1
            step = mp.lu_solve(jac, f)
            for col, i in enumerate(free):
                nodes[i] -= step[col]
            weights = [w - step[len(free) + i] for i, w in enumerate(weights)]
            if mp.norm(step, mp.inf) < mp.mpf(10) ** -45:
                return nodes, weights
        raise RuntimeError("Newton's method on the Gauss-Kronrod conditions did not converge")

    xk = quadrature._XK[:7].tolist()  # the Gauss nodes at odd indices, the Kronrod ones at even
    xk[1::2], wg = solve(xk[1::2], range(3), quadrature._WG)
    xk, wk = solve(xk, range(0, 7, 2), quadrature._WK)
    return xk + [mp.mpf(0)], wk, wg


def mp_gamma_index(alpha: float, lam: float, dps: int = 25) -> float:
    """Gamma index E_{X2}[g(lam*X2 + c)] / (2 alpha) in `dps`-digit arithmetic.

    g(y) = E|X1 - y| = alpha - y + 2[y P(alpha, y) - alpha P(alpha+1, y)] and
    c = (1-lam) alpha.  With h(x) = e^-x g(lam x + c) / Gamma(alpha), the
    part on [0, 1] integrates x^(alpha-1) (h(x) - h(0)) and adds h(0)/alpha,
    which takes the x^(alpha-1) singularity out of the quadrature; the rest
    is split around the mode so the peak at large alpha is resolved.
    """
    with mp.workdps(dps):
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


def mp_phi2_unit(a, c, p, y, terms: int = 5000) -> mp.mpf:
    """Reference evaluation of the two-variable confluent series at x = (1-p) y.

    Sums the diagonals r_s by the recurrence r_s = y r_(s-1)/(c+s-1) + v_s,
    with v_s the pure-x terms, until one falls below 1e-40 of the sum, and
    raises when that takes more than `terms` diagonals.
    """
    am, cm, ym = mp.mpf(a), mp.mpf(c), mp.mpf(y)
    xm = (1 - mp.mpf(p)) * ym
    S = mp.mpf(1)
    r = mp.mpf(1)
    v = mp.mpf(1)
    for s in range(1, terms):
        v = v * (am + s - 1) * xm / (s * (cm + s - 1))
        r = ym * r / (cm + s - 1) + v
        S += r
        if abs(r) < mp.mpf("1e-40") * abs(S):
            return S
    raise RuntimeError(f"mp_phi2_unit did not converge in {terms} terms at a={a}, c={c}, p={p}, y={y}")


def gamma_series_stop_term(s, x) -> int:
    """Term at which the float64 series of P(s, x) stops, summed one term at a time.

    The terms are x^k/(s(s+1)...(s+k)); the stop is the third consecutive term
    below 1e-16 of the sum so far.
    """
    term = total = 1.0 / s
    streak = 0
    for k in range(1, 100_000):
        term *= x / (s + k)
        total += term
        streak = streak + 1 if term < 1e-16 * total else 0
        if streak == 3:
            return k
    raise RuntimeError(f"gamma_series_stop_term did not stop at s={s}, x={x}")


def beta_gauss_nodes(a: float, b: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights (summing to 1) of Beta(a, b) on [0, 1] by Golub-Welsch.

    The Jacobi matrix of the monic Jacobi polynomials with weight
    (1-x)^(b-1) (1+x)^(a-1) on [-1, 1], mapped to [0, 1], is diagonalized by
    numpy.linalg.eigh; scipy's roots_jacobi overflows at shapes in the
    thousands.  The first off-diagonal is written with its 0/0 at a + b = 1
    cancelled.
    """
    al, be = b - 1.0, a - 1.0
    k = np.arange(count, dtype=float)
    s = 2.0 * k + al + be
    diag = np.empty(count)
    diag[0] = (be - al) / (al + be + 2.0)
    diag[1:] = (be * be - al * al) / (s[1:] * (s[1:] + 2.0))
    k = k[2:]
    s = s[2:]
    first = 4.0 * (1.0 + al) * (1.0 + be) / ((2.0 + al + be) ** 2 * (3.0 + al + be))
    rest = 4.0 * k * (k + al) * (k + be) * (k + al + be) / (s * s * (s + 1.0) * (s - 1.0))
    off = 0.5 * np.sqrt(np.concatenate(([first], rest)))
    jac = np.diag(0.5 * (1.0 + diag)) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = vecs[0] ** 2
    return nodes, weights / weights.sum()


def mix_expected_i_hat(alpha: float, lam: float, n: int, nodes: int = 128) -> float:
    """E[I_hat] under a gamma population from the gamma-beta mixture of the gamma sum.

    The sum (1-lam) G1 + (1+(n-1)lam) G2, G1 ~ Gamma((n-2) alpha), G2 ~
    Gamma(alpha), is T w(B) with T ~ Gamma(K), K = (n-1) alpha, B ~
    Beta((n-2) alpha, alpha) and w(B) = (1-lam) B + (1+(n-1)lam)(1-B).  With
    s_q = n-1+lam and c = w(B)/s_q, the survival integral is
    s_q E_B[E_T h(cT)], where h(x) = x Q(alpha, x) + alpha P(alpha+1, x) and
    E_T h(cT) = cK (1 - I_z(alpha, K+1)) + alpha I_z(alpha+1, K), z = c/(1+c).
    The outer expectation is a Gauss sum over B, so n >= 3.
    """
    from scipy.special import betainc

    s_q = n - 1.0 + lam
    w2 = 1.0 + (n - 1) * lam
    b_nodes, b_weights = beta_gauss_nodes((n - 2) * alpha, alpha, nodes)
    big_k = (n - 1) * alpha
    c = ((1.0 - lam) * b_nodes + w2 * (1.0 - b_nodes)) / s_q
    z = c / (1.0 + c)
    inner = c * big_k * (1.0 - betainc(alpha, big_k + 1.0, z)) + alpha * betainc(alpha + 1.0, big_k, z)
    return (1.0 + (lam - 1.0) / n) - s_q * float(b_weights @ inner) / (n * alpha)


def mp_beta_expect(a: float, b: float, f) -> mp.mpf:
    """E f(B) for B ~ Beta(a, b), with f called as f(B, 1 - B), by mp.quad.

    On [0, 1/2] it integrates in u = B^a and on [1/2, 1] in v = (1 - B)^b,
    where the density's end singularities B^(a-1) and (1 - B)^(b-1) become
    the constants 1/a and 1/b; 1 - B is passed exactly, as v^(1/b), near 1.
    Two things keep large shapes exact.  The integrands carry 1/B(a, b), so
    they are densities: mp.quad stops at an absolute error of 10^-dps, and
    unnormalized integrals of ~B(a, b) (1e-31 at a = b = 50) stopped early.
    Both ranges are split at the Beta's mean + k sd, k = -10..10, mapped into
    u and v, where the substitutions squeeze the bulk into the top of the
    range.  At 30 digits E|2B - 1| for Beta(alpha, alpha) is within 1e-25
    relative of its closed form for alpha from 5 to 1e3, and 5e-6 off at
    1e4.  With neither it was 5.5e-10 off at alpha = 50; without the splits
    1.7e-10 off at 200 and 3e-3 at 1e3.
    """
    a, b = mp.mpf(a), mp.mpf(b)
    half = mp.mpf(1) / 2
    norm = mp.beta(a, b)
    mean, sd = a / (a + b), mp.sqrt(a * b / (a + b + 1)) / (a + b)
    cuts = [mean + k * sd for k in range(-10, 11)]
    lower_cuts = [0] + sorted(x ** a for x in cuts if 0 < x < half) + [half ** a]
    upper_cuts = [0] + sorted((1 - x) ** b for x in cuts if half < x < 1) + [half ** b]

    def lower(u):
        x = u ** (1 / a)
        return (1 - x) ** (b - 1) * f(x, 1 - x) / (a * norm)

    def upper(v):
        y = v ** (1 / b)
        return (1 - y) ** (a - 1) * f(1 - y, y) / (b * norm)

    return mp.quad(lower, lower_cuts) + mp.quad(upper, upper_cuts)


def mp_expected_i_hat(alpha: float, lam: float, n: int, dps: int = 25) -> float:
    """E[I_hat] under a gamma population from the gamma-beta mixture, in `dps`-digit arithmetic.

    The mixture of mix_expected_i_hat, with its expectation over B ~
    Beta((n-2) alpha, alpha) taken by mp_beta_expect and I_z by mp.betainc,
    so n >= 3.
    """
    with mp.workdps(dps):
        a, lm = mp.mpf(alpha), mp.mpf(lam)
        s_q = n - 1 + lm
        w2 = 1 + (n - 1) * lm
        big_k = (n - 1) * a

        def inner(bv, one_minus_b):
            c = ((1 - lm) * bv + w2 * one_minus_b) / s_q
            z = c / (1 + c)
            return (c * big_k * mp.betainc(a, big_k + 1, z, 1, regularized=True)
                    + a * mp.betainc(a + 1, big_k, 0, z, regularized=True))

        e_b = mp_beta_expect((n - 2) * a, a, inner)
        return float(1 + (lm - 1) / n - s_q * e_b / (n * a))


def mp_ghypo_cdf(a1: float, b1: float, a2: float, b2: float, t: float, dps: int = 25) -> float:
    """Gamma-sum CDF at t from its gamma-beta mixture, in `dps`-digit arithmetic.

    Gamma(a1, rate b1) + Gamma(a2, rate b2) is T w(B), T ~ Gamma(a1 + a2),
    B ~ Beta(a1, a2) and w(B) = B/b1 + (1 - B)/b2, so the CDF is
    1 - E_B[Q(a1 + a2, t/w(B))], the expectation by mp_beta_expect.
    """
    with mp.workdps(dps):
        nu, tm = mp.mpf(a1) + mp.mpf(a2), mp.mpf(t)

        def q(bv, one_minus_b):
            return mp.gammainc(nu, tm / (bv / b1 + one_minus_b / b2), mp.inf, regularized=True)

        return float(1 - mp_beta_expect(a1, a2, q))


def quad_ghypo_cdf(a1: float, b1: float, a2: float, b2: float, t: float) -> float:
    """Gamma-sum CDF at t: scipy quad of the narrower component's density times the other's CDF.

    The density b x^(a-1) e^-x / Gamma(a) at x = b u = a (1 + sigma) is
    taken as exp(C + a (ln(1 + sigma) - sigma) - ln(1 + sigma)), with C =
    ln b + (a-1) ln a - a - lnGamma(a) in 50-digit arithmetic: the direct
    form loses ~1e-10 to cancellation at shape 1.18e6.  ln(1 + sigma) is
    log1p(sigma) where |sigma| <= 0.5 and ln(b u / a) elsewhere, as in
    specfun._log_gamma_prefactor: next to u = 0, 1 + sigma rounds to 0.  The
    range stops at the density's upper 1e-20 quantile, and the quadrature
    gets points at its lower 1e-20 quantile and its median, so a narrow spike
    is not stepped over.  Checked against mp_ghypo_cdf to 1e-13 at narrower
    shapes 0.5 and 1; Tier-1 takes it as the oracle at narrower shapes up to
    1.18e6.
    """
    from scipy.integrate import quad
    from scipy.special import gammainc
    from scipy.stats import gamma

    if math.sqrt(a1) / b1 > math.sqrt(a2) / b2:
        a1, b1, a2, b2 = a2, b2, a1, b1
    am = mp.mpf(a1)
    log_const = float(mp.log(b1) + (am - 1) * mp.log(am) - am - mp.loggamma(am))

    def integrand(u):
        sigma = b1 * u / a1 - 1.0
        log_ratio = math.log1p(sigma) if abs(sigma) <= 0.5 else math.log(b1 * u / a1)
        dens = math.exp(log_const + a1 * (log_ratio - sigma) - log_ratio)
        return dens * gammainc(a2, b2 * (t - u))

    narrow = gamma(a1, scale=1.0 / b1)
    hi = min(t, narrow.isf(1e-20))
    points = [p for p in (narrow.ppf(1e-20), narrow.median()) if 0.0 < p < hi]
    val, _ = quad(integrand, 0.0, hi, points=points or None, epsabs=1e-14, epsrel=1e-13, limit=500)
    return val


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


def sorted_route_by_row(row: np.ndarray, lam: float) -> float:
    """The sort-based plug-in index of one sample as the per-row route computes
    it: math.fsum over each row's Python list, and one np.searchsorted of the
    splits a_i/lam into the sorted sample.  The block estimator does the same
    arithmetic and must equal this bit for bit."""
    n = len(row)
    xbar = math.fsum(row.tolist()) / n
    if xbar == 0.0:
        return 0.0
    xs = np.sort(row)
    dev = math.fsum(np.abs(row - xbar).tolist())
    if lam == 0.0:
        return dev / (2.0 * n * xbar)
    if lam == 1.0:
        return math.fsum(((2.0 * np.arange(n) - (n - 1)) * xs).tolist()) / (n * (n - 1) * xbar)
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    a = xs - (1.0 - lam) * xbar
    with np.errstate(over="ignore"):
        split = a / lam
    k = np.searchsorted(xs, split, side="right")
    inner = a * (2 * k - n) + lam * (prefix[n] - 2.0 * prefix[k])
    return (math.fsum(inner.tolist()) - (1.0 - lam) * dev) / (2.0 * n * (n - 1) * xbar)
