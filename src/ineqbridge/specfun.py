"""Scalar special functions behind the closed forms.

Provides the regularized upper incomplete gamma function
Q(s, x) = Gamma(s, x)/Gamma(s), and the two-variable confluent (Humbert
Phi2) series `log_humbert_phi2`, the kernel of `distributions.ghypo_cdf`
and not part of the public surface.

Everything is arranged so that summed series have non-negative terms and
large prefactors live in log space: shape parameters beyond a thousand are
routine, and near x = s at large shapes Q takes a uniform asymptotic
expansion whose cost does not grow with s.  Each of Q's routes is one
bounded pass, the power series one per group of up to 256 points taken in
order of x, as is each Phi2 point's window of O(sqrt(y)) closed-form
diagonals, so a value depends only on its own arguments.  All functions are
pure, so safe for concurrent callers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._checks import check_fraction, check_points, check_positive

__all__ = [
    "reg_gamma_q",
]

_REL_EPS = 1e-16        # a term this small relative to the sum is negligible
_STREAK = 3             # consecutive negligible terms required to stop
_BLOCK = 128            # the most terms Q's P series may take
_GROUP = 256            # the most P series points in one numpy pass, sized by their largest x
_WINDOW_SDS = 11.0      # a Phi2 window reaches this many sqrt(y), plus _WINDOW_PAD diagonals,
_WINDOW_PAD = 20.0      # to each side of its Poisson weight's peak, where the weight's log has fallen by 60
_CHUNK = 1 << 16        # Phi2 window elements per numpy pass, which bounds its flat arrays

# Temme's uniform expansion serves s >= 20 and |x/s - 1| <= 0.3 (see reg_gamma_q).
_TEMME_MIN_SHAPE = 20.0
_TEMME_MAX_SIGMA = 0.3
# elsewhere the power series serves x < max(s + 1, 5), and the continued fraction the rest:
# below x = 5 the fraction would need up to 81 levels at small s, and at x >= 5 a fixed
# _CF_DEPTH levels reach 3.3e-16 relative at every shape
_SERIES_MIN_REACH = 5.0
_CF_DEPTH = 26
# d[k, n] of c_k(eta) = sum_n d[k, n] eta^n (DLMF 8.12.12-13): k < 10 powers of 1/s, n < 16 powers of
# eta (more move no Q on the route), rounded from a 50-digit derivation that tests/helpers.py repeats
_TEMME_D = np.array([
    [-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
     -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11],
    [-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
     -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09, 4.162792991842583e-10],
    [0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
     1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09, 9.428356159014678e-13],
    [0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
     -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
     1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09, -9.460496661855133e-10],
    [-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902, -1.4638452578843418e-06,
     6.641498215465122e-05, -3.968365047179435e-05, 1.1375726970678419e-05, 2.507497226237533e-10,
     -1.6954149536558305e-06, 8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09, -2.3024517174528067e-13],
    [-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392, -0.00019932570516188847,
     6.797780477937208e-05, 1.419062920643967e-07, -1.3594048189768693e-05, 8.018470256334202e-06,
     -2.291481176508095e-06, -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
     4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09, 3.162417628774568e-09],
    [0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045, 7.902353232660328e-07,
     -8.153969367561969e-05, 5.61168275310625e-05, -1.8329116582843375e-05, -3.0796134506033047e-09,
     3.465155368803609e-06, -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
     -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08, 8.649648858010293e-14],
    [0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234, 0.0002812695154763237,
     -0.00010976582244684731, -1.2741009095484485e-07, 2.7744451511563645e-05, -1.8263488805711332e-05,
     5.7876949497350525e-06, 4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
     -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08, -1.4578352908731272e-08],
    [-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721, -6.969091458420552e-07,
     0.00016644846642067547, -0.00012783517679769218, 4.629953263691304e-05, 4.557909867922708e-09,
     -1.0595271125805195e-05, 6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
     3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08, 6.597703826733e-16],
    [-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328, -0.0006401475260262758,
     0.00027750107634328704, 1.819700838046515e-07, -8.479507117068503e-05, 6.105192082501531e-05,
     -2.1073920183404862e-05, -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
     8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07, 8.862466778790695e-08],
])
_TEMME_D.flags.writeable = False
_ATANH_TAIL = 1.0 / (2.0 * np.arange(12.0) + 3.0)


def _stirling_series(s):
    # the Stirling series of _stirling_defect to s^-13 (DLMF 5.11.1), for a float or an ndarray
    r = 1.0 / s
    r2 = r * r
    return r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 * (
        1.0 / 1188.0 - r2 * (691.0 / 360360.0 - r2 / 156.0))))))


def _stirling_defect(s: float) -> float:
    # s*ln(s) - s - lgamma(s) without cancellation: from s = 8 on by the Stirling series, whose
    # first omitted term is below 1e-15 there, and below 8 directly
    if s < 8.0:
        return s * math.log(s) - s - math.lgamma(s)
    return 0.5 * math.log(s / (2.0 * math.pi)) - _stirling_series(s)


@np.errstate(over="ignore")  # an x/s past the largest double is inf, u with it: see the cap
def _log_gamma_prefactor(s: float, x: np.ndarray) -> np.ndarray:
    # ln(x^s e^-x / Gamma(s)), x > 0, as D(s) + s (ln(x/s) - u), u = (x - s)/s, D = _stirling_defect;
    # ln(x/s) is log1p(u) where |u| <= 0.5. The floors keep the unused log1p off u = -1 (x/s < 2^-53)
    # and log off an x/s that rounds to 0 (s >= 2); the cap keeps an x/s that overflows (u = inf)
    # off inf - inf, so the prefactor is -inf. Both act only where the prefactor's exponential
    # underflows to 0 anyway
    u = (x - s) / s
    ratio = np.minimum(np.maximum(x / s, 5e-324), 1.7976931348623157e308)  # the extreme doubles
    log_ratio = np.where(np.abs(u) <= 0.5, np.log1p(np.maximum(u, -0.5)), np.log(ratio))
    return _stirling_defect(s) + s * (log_ratio - u)


def _series_partial_sums(s: float, x: np.ndarray, rows: int):
    # P's series at each x to `rows` terms, a row per term: the partial sums, whether each point
    # stopped, and (meaningful where it did) the row ending its _STREAK-th consecutive negligible term
    k = np.arange(1.0, rows + 1.0)[:, None]
    first = np.full(x.shape, 1.0 / s)
    terms = first * np.cumprod(x / (s + k), axis=0)
    totals = np.cumsum(np.vstack((first, terms)), axis=0)[1:]
    negligible = terms < _REL_EPS * totals
    stop = functools.reduce(np.logical_and, [negligible[d:rows - _STREAK + 1 + d] for d in range(_STREAK)])
    return totals, stop.any(axis=0), stop.argmax(axis=0) + (_STREAK - 1)


def _gamma_p_series(s: float, x: np.ndarray) -> np.ndarray:
    # lower regularized P(s,x) = e^-x x^s/Gamma(s) sum_k x^k/(s)_(k+1) (DLMF 8.7.1); a point stops
    # at its third consecutive term below _REL_EPS of its sum. Term k's share of the sum up to k,
    # 1/sum_{j<=k} prod_{j<i<=k} (s+i)/x, grows with x, so a larger x stops later: the points, sorted
    # by x, run in groups of at most _GROUP, each in one pass sized by the stop row of its largest x,
    # which one probe pass finds for all groups. A point's sums are the same in any group, and on the
    # series domain (x < max(s+1, 5), and x < 0.7s at s >= 20) a pass needs at most 102 rows
    order = np.argsort(x)
    starts = range(0, x.size, _GROUP)
    tops = order[[min(i + _GROUP, x.size) - 1 for i in starts]]
    _, done, top_rows = _series_partial_sums(s, x[tops], _BLOCK)
    out = np.empty_like(x)
    if done.all():
        for i, top_row in zip(starts, top_rows.tolist()):
            group = order[i:i + _GROUP]
            totals, done, row = _series_partial_sums(s, x[group], top_row + 1)
            if not done.all():
                break
            out[group] = totals[row, np.arange(row.size)]
    if not done.all():
        raise RuntimeError(
            f"incomplete gamma series did not stop within {_BLOCK} terms (s={s}, max x={float(x[tops[-1]])})"
        )
    return np.exp(_log_gamma_prefactor(s, x)) * out


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

    A float for a scalar or 0-d x, otherwise an array of x's shape.  Three
    routes, with their absolute error against 30- to 50-digit mpmath:

    - s >= 20 and |x/s - 1| <= 0.3: Temme's uniform expansion (DLMF
      8.12.3-4 with a frozen 10 x 16 table of the 8.12.12 coefficients),
      whose cost does not grow with s; within 5e-16 (worst seen 1.1e-16)
      for s from 20 to 1e10.
    - any other x < max(s+1, 5): the power series of P = 1 - Q (DLMF
      8.7.1), its points sorted by x and summed in groups of at most 256,
      each in one numpy pass of at most 102 terms sized by its largest x,
      a point stopping at three terms below 1e-16 of its sum;
    - any other x >= max(s+1, 5): Legendre's continued fraction (DLMF
      8.9.2), evaluated backward from a fixed depth of 26, within 3.3e-16
      relative of the fraction's limit at every shape.

    The last two carry a log-space prefactor and are within 1e-14 (worst
    seen 1.4e-15, near x = s for s from 1 to 25); at s >= 20 they only meet
    |x/s - 1| > 0.3, where they are within 1e-16.  Below s = 4 the series
    also serves s+1 <= x < 5, where 1 - P is within 2.4e-15 absolute but
    only 1e-9 relative where Q is small (worst seen 8.6e-10 at s = 1e-3
    near x = 5, where Q = 1.2e-6).  Both hold down to s = 1e-3, where they
    were measured: as Q shrinks with s, 1 - P keeps its absolute error, and
    Q(1e-20, x) at x = 1e-9, 0.1, 1 is -2.7e-15, 2.1e-15, 8.9e-16 (true
    2.0e-19 to 2.2e-21).  Each route's arithmetic on a point does not depend
    on the rest of the batch, so a value is the same alone as in any batch.
    """
    s = check_positive("s", s)
    x = check_points(x, "x", {"s": s})
    out = np.ones_like(x)
    lo = x > 0
    temme = lo & (s >= _TEMME_MIN_SHAPE) & (np.abs(x - s) <= _TEMME_MAX_SIGMA * s)
    if temme.any():
        out[temme] = _gamma_q_temme(s, x[temme])
    series = lo & ~temme & (x < max(s + 1.0, _SERIES_MIN_REACH))
    if series.any():
        out[series] = 1.0 - _gamma_p_series(s, x[series])
    cf = lo & ~temme & ~series
    if cf.any():
        out[cf] = _gamma_q_contfrac(s, x[cf])
    return float(out) if out.ndim == 0 else out


def _gamma_bulk(s: float) -> tuple[float, float, list[float]]:
    # (U, w, corner), where a Gamma(s) has its mass: Q(s, x) falls from 1 to 0 within s -+ w, Q(s, U)
    # < 1e-22 (3.4e-23 at most, s from 1e-10 to 1e10) and int_U^inf Q(s, x) dx < 1e-22; at rate b: U/b,
    # w/b.  Below shape 2, except at 1 (e^-x), Q(s, x) ~ 1 - x^s/Gamma(s+1) and the density have unbounded
    # derivatives at 0, which bisection nears one piece per rule call: every first mesh over a gamma
    # factor grades [0, 1] toward 0 by the corner points 4^-k, k = 0..15
    root = math.sqrt(s)
    corner = [4.0 ** -k for k in range(16)] if s < 2.0 and s != 1.0 else []
    return s + 40.0 * root + 40.0, 8.0 * root, corner


def _phi2_windows(a: float, c: float, p: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the first diagonal and the diagonal count of each point's window (y > 0): about y - c, and
    # past where d_s times the NB(a, p) term at s stops growing, the root of (c+s)(s+1) = x(a+s)
    half = _WINDOW_SDS * np.sqrt(y) + _WINDOW_PAD
    x = (1.0 - p) * y
    b = c + 1.0 - x
    root = 0.5 * (np.sqrt(np.maximum(b * b - 4.0 * (c - a * x), 0.0)) - b)
    lo = np.maximum(np.floor(y - c - half), 0.0)
    hi = np.maximum(lo + np.ceil(2.0 * half), np.ceil(root + half))
    return lo.astype(np.int64), (hi - lo).astype(np.int64)


def _phi2_table(a: float, c: float, p: float, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # m = c + s, D(m) and D(m) + ln V(s) for s < top; entry s depends only on entries 0..s
    k = np.arange(1.0, top)
    m = c + np.arange(float(top))
    defect = 0.5 * np.log(m / (2.0 * math.pi)) - _stirling_series(m)  # _stirling_defect at each m
    defect[m < 8.0] = [_stirling_defect(v) for v in m[m < 8.0].tolist()]
    with np.errstate(divide="ignore"):  # ln(1 - p) = -inf at p = 1, where every V(s) is 1
        log_terms = np.cumsum(np.log((a + k - 1.0) / k)) + k * np.log1p(-p)
    table = defect + np.logaddexp.accumulate(np.concatenate(([0.0], log_terms)))
    return m, defect, table


# not public, as only ghypo_cdf calls it; the name stays because perfbench/tracer.py wraps it
def log_humbert_phi2(a: float, c: float, p: float, y):
    """Log of the two-variable confluent series with unit second parameter.

    Evaluates ln sum_{k,m>=0} (a)_k x^k y^m / ((c)_{k+m} k!) at x = (1-p) y
    for a > 0, c > 0, 0 < p <= 1 and y >= 0 (elementwise over an array of
    y): Humbert's Phi2 with second numerator parameter 1, the reduced form of
    the distribution function of a sum of two gammas with rate ratio p.
    Diagonal s (k + m = s) is y^s/(c)_s V(s), V(s) = sum_{k<=s} (a)_k
    (1-p)^k/k! being p^-a times the NB(a, p) distribution function
    (Moschopoulos 1985); the series is e^y y^-c Gamma(c) sum_s d_s V(s), with
    d_s = e^-y y^(c+s)/Gamma(c+s) a weight about sqrt(y) wide near y - c.
    A call builds tables of ln V and of D(c+s) up to its largest window, then
    sums each point's window of about 22 sqrt(y) + 40 diagonals (more where
    the NB mass lies far past y - c) in closed form; y = 0 gives exactly 0.
    Against 40-digit mpmath at 55 points, from the bias table's arguments
    (a 0.5 to 10, c up to 1,191, x + y up to 4e4) to a = 400, where p^a
    underflows, the log is within 1e-13 of max(1, |log|), worst seen 1.4e-15.
    """
    a, c, p = check_positive("a", a), check_positive("c", c), check_fraction("p", p)
    out = check_points(y, "y", {"a": a, "c": c, "p": p})
    pos = np.flatnonzero(out)
    y = out.flat[pos]
    lo, count = _phi2_windows(a, c, p, y)
    top = int((lo + count).max(initial=1))
    m, defect, table = _phi2_table(a, c, p, top)
    step = max(1, _CHUNK // int(count.max(initial=1)))
    for i in range(0, y.size, step):
        n, s0, yi = count[i:i + step], lo[i:i + step], y[i:i + step]
        starts = np.cumsum(n) - n
        j = np.arange(int(n.sum())) - np.repeat(starts, n)  # a diagonal's place in its window
        s = j + np.repeat(s0, n)
        m0 = np.repeat(m[s0], n)
        # ln(y^j/(m0)_j) + D(m0) + ln V(s), with m0 = c + s0, in the defect form of ln Gamma
        t = j * np.log(np.repeat(yi, n) / m[s]) + (j - m0 * np.log1p(j / m0)) + table[s]
        peak = np.maximum.reduceat(t, starts)
        total = np.add.reduceat(np.exp(t - np.repeat(peak, n)), starts)
        # ln(y^s0/(c)_s0) by the same closed form, exactly 0 at s0 = 0
        base = s0 * np.log(yi / m[s0]) + (s0 - c * np.log1p(s0 / c)) + (defect[s0] - defect[0])
        out.flat[pos[i:i + step]] = base + (peak - defect[s0]) + np.log(total)
    return float(out) if out.ndim == 0 else out
