"""Scalar special functions behind the closed forms.

Provides the regularized upper incomplete gamma function
Q(s, x) = Gamma(s, x)/Gamma(s), and the two-variable confluent (Humbert
Phi2) series `log_humbert_phi2`, the kernel of `distributions.ghypo_cdf`
and not part of the public surface.

Everything is arranged so that summed series have non-negative terms and
large prefactors live in log space: shape parameters beyond a thousand are
routine, and near x = s at large shapes Q takes a uniform asymptotic
expansion whose cost does not grow with s.  Each of Q's routes is one
bounded pass, so a value depends only on (s, x).  All functions are pure
and safe for concurrent callers.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reg_gamma_q",
]

_TERM_CAP = 100_000     # Phi2 diagonals before its series gives up
_REL_EPS = 1e-16        # a term this small relative to the sum is negligible
_STREAK = 3             # consecutive negligible terms required to stop
_BLOCK = 128            # Phi2 diagonals per numpy pass, and the most terms Q's P series may take
_COLUMNS = 1024         # Phi2 points per pass, which bounds its (_BLOCK, _COLUMNS) arrays
_SHIFT_RANGE = 650.0    # ln of the widest spread that one shifted cumsum keeps exact

# Temme's uniform expansion serves s >= 20 and |x/s - 1| <= 0.3 (see reg_gamma_q).
_TEMME_MIN_SHAPE = 20.0
_TEMME_MAX_SIGMA = 0.3
# elsewhere the power series serves x < max(s + 1, 5), and the continued fraction the rest:
# below x = 5 the fraction would need up to 81 levels at small s, and at x >= 5 a fixed
# _CF_DEPTH levels reach 3.3e-16 relative at every shape
_SERIES_MIN_REACH = 5.0
_CF_DEPTH = 26
# d[k, n] of c_k(eta) = sum_n d[k, n] eta^n (DLMF 8.12.12-13): k < 10 powers of 1/s, n < 22
# powers of eta, rounded from a 50-digit derivation that tests/helpers.py repeats
_TEMME_D = np.array([
    [-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
     -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
     -5.830772132550426e-11, 2.4361948020667415e-11, -5.0276692801141755e-12, 1.1004392031956135e-13,
     3.371763262400985e-13, -1.392388722418162e-13],
    [-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
     -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09, 4.162792991842583e-10,
     -8.56390702649298e-11, 6.067215101604758e-14, 7.1624989648114856e-12, -2.933186643771437e-12,
     5.996696365683689e-13, -2.1671786527323313e-16],
    [0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
     1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09, 9.428356159014678e-13,
     1.2872252400089318e-10, -5.5645956134363323e-11, 1.197593554636698e-11, -4.1689782251838634e-15,
     -1.0940640427884595e-12, 4.662239946390136e-13],
    [0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
     -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
     1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09, -9.460496661855133e-10,
     2.1541049775774907e-10, -1.388823336813903e-14, -2.1894761681963938e-11, 9.790998951171684e-12,
     -2.178219188018096e-12, 6.208819573407901e-17],
    [-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06,
     6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10,
     -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09, -2.3024517174528067e-13,
     -3.9409233028046403e-10, 1.86023389685045e-10, -4.356323005056618e-11, 1.278600101629623e-15,
     4.67927502665792e-12, -2.149246470613483e-12],
    [-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847,
     6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06,
     -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09, 3.162417628774568e-09,
     -7.840924253697429e-10, 5.192679165254041e-15, 9.358944242306784e-11, -4.513426216163278e-11,
     1.0799129993116828e-11, -3.661886712685252e-17],
    [0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
     -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09,
     3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
     -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08, 8.649648858010293e-14,
     1.6846058979264062e-09, -8.575492823577594e-10, 2.1598224929232125e-10, -7.613230520476153e-16,
     -2.6639822008536144e-11, 1.3065700536611057e-11],
    [0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237,
     -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05,
     5.7876949497350525e-06, 4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
     -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08, -1.4578352908731272e-08,
     3.887645959386175e-09, -3.881002251019412e-17, -5.327994173877286e-10, 2.7437977643314844e-10,
     -6.995796092070568e-11, 2.589986387486848e-17],
    [-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
     0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05, 4.557909867922708e-09,
     -1.0595271125805195e-05, 6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
     3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16,
     -9.590386497425686e-09, 5.213214492280807e-09, -1.3991589583935709e-09, 5.382058999060575e-16,
     1.9484714275467745e-10, -1.0127287556389682e-10],
    [-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328, -0.0006401475260262758,
     0.00027750107634328704, 1.819700838046515e-07, -8.479507117068503e-05, 6.105192082501531e-05,
     -2.1073920183404862e-05, -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
     8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07, 8.862466778790695e-08,
     -2.5184812301826817e-08, -1.0225912098215092e-14, 3.896947075815478e-09, -2.1267304792235634e-09,
     5.737013552805138e-10, -1.8877498501697116e-19],
])
_TEMME_D.flags.writeable = False
_ATANH_TAIL = 1.0 / (2.0 * np.arange(12.0) + 3.0)


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


def _block_stops(streak: np.ndarray, negligible: np.ndarray) -> tuple[np.ndarray, ...]:
    # stops in one block of series terms, a row per term and a column per point: the points
    # that reach their _STREAK-th consecutive negligible term (counting the `streak` of them
    # that ended the previous block), the row of each stop, and the streak ending this block
    flags = np.vstack((streak >= np.arange(_STREAK - 1, 0, -1)[:, None], negligible))
    stop = np.logical_and.reduce([flags[d:d + len(negligible)] for d in range(_STREAK)])
    done = stop.any(axis=0)
    trailing = np.logical_and.accumulate(flags[:-_STREAK:-1], axis=0).sum(axis=0)
    return done, stop[:, done].argmax(axis=0), trailing


def _gamma_p_series(s: float, x: np.ndarray) -> np.ndarray:
    # lower regularized P(s,x) = e^-x x^s/Gamma(s) sum_k x^k/(s)_(k+1) (DLMF 8.7.1) in one numpy
    # pass, a row per term; a point stops at its third consecutive term below _REL_EPS of its sum.
    # Term k's share of the sum up to k, 1/sum_{j<=k} prod_{j<i<=k} (s+i)/x, grows with x, so the
    # largest x stops last: its stop row, found with the same arithmetic, sizes the pass, which on
    # the series domain (x < max(s+1, 5), and x < 0.7s at s >= 20) needs at most 102 rows
    def partial_sums(xs, rows):
        k = np.arange(1.0, rows + 1.0)[:, None]
        first = np.full(xs.shape, 1.0 / s)
        terms = first * np.cumprod(xs / (s + k), axis=0)
        totals = np.cumsum(np.vstack((first, terms)), axis=0)[1:]
        done, row, _ = _block_stops(np.zeros(xs.shape), terms < _REL_EPS * totals)
        return totals, done, row

    top = x.max(keepdims=True)
    _, done, row = partial_sums(top, _BLOCK)
    if done.all():
        totals, done, row = partial_sums(x, int(row[0]) + 1)
    if not done.all():
        raise RuntimeError(
            f"incomplete gamma series did not stop within {_BLOCK} terms (s={s}, max x={float(top[0])})"
        )
    return np.exp(_log_gamma_prefactor(s, x)) * totals[row, np.arange(x.size)]


def _gamma_q_contfrac(s: float, x: np.ndarray) -> np.ndarray:
    # upper regularized Q(s,x) for x >= max(s+1, 5) by Legendre's continued fraction
    # Gamma(s,x) = e^-x x^s / (b_0 + a_1/(b_1 + a_2/(b_2 + ...))), a_i = i(s-i), b_i = x+1-s+2i
    # (DLMF 8.9.2), evaluated backward from the fixed depth _CF_DEPTH; every backward denominator
    # stays above 0.7 of its b_i there, so none comes near 0
    h = x + (1.0 + 2.0 * _CF_DEPTH - s)
    for i in range(_CF_DEPTH, 0, -1):
        h = (x + (2.0 * i - 1.0 - s)) + i * (s - i) / h
    return np.exp(_log_gamma_prefactor(s, x)) / h


def _log1pmx(u: np.ndarray) -> np.ndarray:
    # ln(1+u) - u for |u| <= 0.3 to full relative accuracy: with t = u/(2+u),
    # ln(1+u) = 2 atanh(t) = 2t + 2 sum_j t^(2j+3)/(2j+3) and 2t - u = -u t, so nothing cancels
    t = u / (2.0 + u)
    t2 = t * t
    return 2.0 * t * t2 * (np.vander(t2, _ATANH_TAIL.size, increasing=True) @ _ATANH_TAIL) - u * t


def _gamma_q_temme(s: float, x: np.ndarray) -> np.ndarray:
    # Q = erfc(eta sqrt(s/2))/2 + e^(-s eta^2/2)/sqrt(2 pi s) sum_k c_k(eta) s^-k (DLMF 8.12),
    # with the 1/s series collapsed once into one polynomial in eta, so the cost does not grow with s
    sigma = (x - s) / s
    eta = np.sign(sigma) * np.sqrt(-2.0 * _log1pmx(sigma))
    k_count, n_count = _TEMME_D.shape
    coef = s ** -np.arange(float(k_count)) @ _TEMME_D
    series = np.vander(eta, n_count, increasing=True) @ coef
    erfc = np.array([math.erfc(v) for v in (eta * math.sqrt(0.5 * s)).tolist()])
    return 0.5 * erfc + np.exp(-0.5 * s * eta * eta) / math.sqrt(2.0 * math.pi * s) * series


def reg_gamma_q(s: float, x):
    """Regularized upper incomplete gamma Q(s, x) for s > 0, x >= 0.

    Accepts a scalar or an ndarray for x.  Three routes, with their absolute
    error against 30- to 50-digit mpmath:

    - s >= 20 and |x/s - 1| <= 0.3: Temme's uniform expansion (DLMF
      8.12.3-4 with a frozen 10 x 22 table of the 8.12.12 coefficients),
      whose cost does not grow with s; within 5e-16 (worst seen 1.1e-16)
      for s from 20 to 1e10.
    - any other x < max(s+1, 5): the power series of P = 1 - Q (DLMF
      8.7.1), summed in one numpy pass of at most 102 terms, each point
      stopping at three terms below 1e-16 of its sum;
    - any other x >= max(s+1, 5): Legendre's continued fraction (DLMF
      8.9.2), evaluated backward from a fixed depth of 26, within 3.3e-16
      relative of the fraction's limit at every shape.

    The last two carry a log-space prefactor and are within 1e-14 (worst
    seen 4.2e-15, near x = s at s = 10); at s >= 20 they only meet
    |x/s - 1| > 0.3, where they are within 1e-16.  Below s = 4 the series
    also serves s+1 <= x < 5, where 1 - P is within 2.4e-15 absolute but
    only 1e-9 relative where Q is small (worst seen 8.6e-10 at s = 1e-3
    near x = 5, where Q = 1.2e-6).  Each route computes a point with
    arithmetic that does not depend on the rest of the batch, so a value is
    the same alone as in any batch.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"reg_gamma_q requires finite s > 0, got {s!r}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    flat = np.atleast_1d(xa).ravel().copy()
    bad = ~np.isfinite(flat) | (flat < 0)
    if bad.any():
        raise ValueError(f"reg_gamma_q requires finite x >= 0, got x={float(flat[bad][0])!r} at s={s!r}")
    out = np.ones_like(flat)
    lo = flat > 0
    temme = lo & (s >= _TEMME_MIN_SHAPE) & (np.abs(flat - s) <= _TEMME_MAX_SIGMA * s)
    if temme.any():
        out[temme] = _gamma_q_temme(s, flat[temme])
    series = lo & ~temme & (flat < max(s + 1.0, _SERIES_MIN_REACH))
    if series.any():
        out[series] = 1.0 - _gamma_p_series(s, flat[series])
    cf = lo & ~temme & ~series
    if cf.any():
        out[cf] = _gamma_q_contfrac(s, flat[cf])
    if scalar:
        return float(out[0])
    return out.reshape(xa.shape)


def _gamma_bulk(s: float) -> tuple[float, float]:
    # (U, w), where a Gamma(s) has its mass: Q(s, x) falls from 1 to 0 within s -+ w,
    # and int_U^inf Q(s, x) dx < 1e-22 at every shape; at rate b they scale to U/b and w/b
    root = math.sqrt(s)
    return s + 40.0 * root + 40.0, 8.0 * root


def _log_phi2_columns(a: float, c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the series at each (x, y), _BLOCK diagonals r_s per pass; see log_humbert_phi2
    out = np.empty_like(x)
    y0 = y == 0.0
    y = np.where(y0, 1.0, y)  # a finite stand-in: those columns take r_s = v_s
    col = np.arange(x.size)
    # after the previous block: an integer offset that keeps the logs small, ln r - base,
    # ln(sum) - base, ln(v/r), and the count of trailing negligible terms
    base, lr, lt, u, streak = np.zeros((5, x.size))
    with np.errstate(divide="ignore"):  # ln 0 at x = 0 and where a shifted sum underflows
        for s0 in range(1, _TERM_CAP, _BLOCK):
            i = np.arange(s0, min(s0 + _BLOCK, _TERM_CAP), dtype=float)[:, None]
            # r_s = P_s (r_{s0-1} + sum_{s0<=j<=s} v_j/P_j) with P_s = prod_{s0<=i<=s} y/(c+i-1)
            log_p = np.cumsum(np.log(y / (c + i - 1.0)), axis=0)
            log_v = u + np.cumsum(np.log((a + i - 1.0) / (i * (c + i - 1.0)) * x), axis=0)
            w = log_v - log_p  # ln(v_s/(P_s r_{s0-1}))
            m = np.maximum(w.max(axis=0), 0.0)
            log_r = (lr + m) + log_p + np.log(np.cumsum(np.exp(w - m), axis=0) + np.exp(-m))
            deep = m > _SHIFT_RANGE  # the shifted sums may underflow: accumulate in log space
            if deep.any():
                acc = np.logaddexp.accumulate(np.vstack((np.zeros(deep.sum()), w[:, deep])), axis=0)[1:]
                log_r[:, deep] = lr[deep] + log_p[:, deep] + acc
            log_r[:, y0] = lr[y0] + log_v[:, y0]
            mt = np.maximum(log_r.max(axis=0), lt)  # the running sums, shifted by their largest term
            term = np.exp(log_r - mt)
            total = np.cumsum(term, axis=0) + np.exp(lt - mt)
            done, row, streak = _block_stops(streak, term < _REL_EPS * total)
            out[col[done]] = base[done] + mt[done] + np.log(total[row, done])
            keep = ~done
            col, base, lr, mt, x, y, y0, streak = (v[keep] for v in (col, base, lr, mt, x, y, y0, streak))
            u = lr + log_v[-1, keep] - log_r[-1, keep]
            lt = mt + np.log(total[-1, keep])
            shift = np.floor(lt)
            base, lr, lt = base + shift, log_r[-1, keep] - shift, lt - shift
            if not col.size:
                return out
    raise RuntimeError(
        f"two-variable confluent series hit the {_TERM_CAP}-term cap "
        f"(a={a}, c={c}, max x={float(np.max(x))}, max y={float(np.max(y))})"
    )


# not public, as only ghypo_cdf calls it; the name stays because perfbench/tracer.py wraps it
def log_humbert_phi2(a: float, c: float, x, y):
    """Log of the two-variable confluent series with unit second parameter.

    Evaluates ln sum_{k,m>=0} (a)_k x^k y^m / ((c)_{k+m} k! m!) for a > 0,
    c > 0 and x, y >= 0 (elementwise over matching arrays).  This is the
    Humbert Phi2 series specialized to second numerator parameter 1; it is
    the reduced form taken by the distribution function of a sum of two
    independent gamma variables with distinct rates.

    Each numpy pass sums a block of 128 diagonals r_s (the terms with k + m
    = s) in logs: cumulative sums give the pure-x terms v_s and the products
    P_s of y/(c+s-1), and r_s = P_s (r_{s0-1} + sum_{j<=s} v_j/P_j) is summed
    with a shift per point (by np.logaddexp where that shift could underflow,
    as at x >> y).  A point stops at the third consecutive diagonal below
    1e-16 of its running sum and leaves the batch, so its value does not
    depend on the other points.  Against 40-digit mpmath at the bias table's
    arguments (a 0.5 to 10, c up to 1,191, x + y up to 4e4) the log is within
    1e-13 of max(1, |log|), worst seen 6e-16; at x > y, which the gamma-sum
    distribution never passes, the worst seen is 5.5e-14 (at c = 1e-3).
    """
    a = float(a)
    c = float(c)
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(c) and c > 0.0):
        raise ValueError(f"log_humbert_phi2 requires a > 0 and c > 0, got a={a!r}, c={c!r}")
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xf, yf = xa.ravel(), ya.ravel()
    if not (np.isfinite(xf) & np.isfinite(yf) & (xf >= 0) & (yf >= 0)).all():
        raise ValueError("log_humbert_phi2 requires finite x >= 0 and y >= 0")
    out = np.empty_like(xf)
    for k in range(0, xf.size, _COLUMNS):
        out[k:k + _COLUMNS] = _log_phi2_columns(a, c, xf[k:k + _COLUMNS], yf[k:k + _COLUMNS])
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)
