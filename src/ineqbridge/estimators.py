"""Plug-in estimators of the bridging index from a sample.

The reference estimator averages |(1-lam)(Xi - Xbar) + lam(Xi - Xj)| over
all ordered pairs i != j and normalizes by 2 n (n-1) Xbar; i_hat sums
those pairs directly at interior weights.  One sort-based O(n log n) core
computes every other estimate: i_hat_fast at any weight, and the Hoover
(lam = 0) and Gini (lam = 1) estimates, which h_hat, g_hat and both
endpoints of i_hat and i_hat_fast all take from its one arithmetic.
Samples that are entirely zero yield 0 by convention rather than an error.

Every estimator takes one sample (a 1-D array), which gives a float, or an
(R, n) array of R samples, which gives one estimate per row in one pass
over the block.  A row's estimate is bit-identical to the 1-D call on that
row: the same element-wise arithmetic and the same fsum of each row.
i_hat_fast also takes a 1-D sequence of weights and then sorts and sums each
sample once for all of them, every entry bit-identical to the scalar call.

Every sum over a sample is exact and then correctly rounded: each row's
result equals math.fsum of that row bit for bit, which keeps mixed-magnitude
samples honest at the 1e-12 level.  Two vectorized error-free extraction
passes (Rump, Ogita & Oishi 2008), each with one sigma = 2**k for the whole
block, give it; only a row left with remainders reaches math.fsum itself, or
every row of a block out of the passes' exponent range.  i_hat_fast computes
each distinct weight once, and per weight counts the sorted values <= each
split a_i/lam by one stable argsort of the whole block, each row its sorted
values followed by its sorted splits, not by one searchsorted per row.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import check_lambda, check_points

__all__ = [
    "i_hat",
    "h_hat",
    "g_hat",
    "i_hat_fast",
]


def _estimate(core, values, min_n: int, *args):
    """Common start of every estimator: validate the samples, take their means,
    then return core(x, n, xbar, *args) for the rows with a non-zero mean.

    `values` is one sample (1-D), which gives the core's row (a float if that
    is one number), or an (R, n) block of R samples, which gives the (R, ...)
    array.  A zero mean (an all-zero sample, or a sum so small that the mean
    underflows) gives its row 0 without the row reaching the core.  A sample
    whose sums overflow a float raises a ValueError, not an inf or nan estimate.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"sample must be 1-D, or 2-D with one sample per row, got shape {x.shape}")
    rows = x if x.ndim == 2 else x[None, :]
    n = rows.shape[1]
    if n < min_n:
        raise ValueError(f"sample needs at least {min_n} observations, got {n}")
    rows = check_points(rows, "sample values").reshape(rows.shape)
    try:
        with np.errstate(over="raise"):
            xbar = _row_fsums(rows) / n
            live = xbar != 0.0
            if live.all():
                est = core(rows, n, xbar, *args)
            else:
                part = core(rows[live], n, xbar[live], *args)
                est = np.zeros((len(rows),) + part.shape[1:])
                est[live] = part
    except (OverflowError, FloatingPointError):  # from math.fsum and from numpy
        raise ValueError("sample values too large: a sum over the sample overflows a float") from None
    est = est if x.ndim == 2 else est[0]
    return float(est) if est.ndim == 0 else est


def _row_fsums(a: np.ndarray) -> np.ndarray:
    # math.fsum of each row, bit for bit, from two extraction passes over the block
    # (Rump, Ogita & Oishi 2008, "Accurate floating-point summation, part I").  A
    # pass sets one sigma = 2**k for the block, with max|p| < 2**(k - m) over it and
    # 2**m >= n + 2: then q = (sigma + p) - sigma and p - q are exact, and each q is a
    # multiple of 2**(k - 53) no larger than 2**(k - m), so a row's sum of q is exact
    # in any order.  A row whose remainders are all 0 after two passes is t1 + t2, and
    # one IEEE add rounds that as fsum does; any other row goes to fsum of t1, t2 and
    # its remainders.  Where sigma would overflow or its half-ulp be subnormal, every
    # row goes to fsum, so an overflowing sum raises OverflowError as before.
    n = a.shape[1]
    m = (n + 1).bit_length()
    q, rest = np.empty(a.shape), np.empty(a.shape)
    p, parts = a, []
    for _ in range(2):
        k = int(np.frexp(np.max(np.abs(p, out=q), initial=0.0))[1]) + m
        if not -969 <= k <= 1023:
            return np.array([math.fsum(row) for row in a.tolist()])
        sigma = np.ldexp(1.0, k)
        np.add(sigma, p, out=q)
        q -= sigma
        parts.append(q.sum(axis=1))
        p = np.subtract(p, q, out=rest)
    t1, t2 = parts
    out = t1 + t2
    for i in dict.fromkeys((np.flatnonzero(p != 0.0) // n).tolist()):  # each row with a remainder, once
        out[i] = math.fsum([t1[i], t2[i], *p[i][p[i] != 0.0].tolist()])
    return out


def _pairs_quadratic(x, n, xbar, lam):
    a = x - (1.0 - lam) * xbar[:, None]
    terms = np.abs(a[:, :, None] - lam * x[:, None, :])
    diag = np.arange(n)
    terms[:, diag, diag] = 0.0
    s = _row_fsums(terms.reshape(len(x), n * n))
    return s / (2.0 * n * (n - 1) * xbar)


def _pairs_sorted(x, n, xbar, lams):
    # (R, L) estimates at the list lams, (R,) at one float.  Each distinct weight
    # runs once and its column is copied to the repeats; each array the weights
    # share is built once per block, and only if a weight needs it: Hoover the
    # deviations, Gini the sort, an interior weight all of them
    weights = lams if isinstance(lams, list) else [lams]
    distinct = list(dict.fromkeys(weights))
    interior = [lam for lam in distinct if lam not in (0.0, 1.0)]
    if interior or 0.0 in distinct:
        dev = _row_fsums(np.abs(x - xbar[:, None]))  # sum |Xi - Xbar|
    if interior or 1.0 in distinct:
        xs = np.sort(x, axis=1)
    if interior:
        prefix = np.zeros((len(x), n + 1))
        np.cumsum(xs, axis=1, out=prefix[:, 1:])
        starts = np.arange(0, prefix.size, n + 1)[:, None]  # each row's offset in prefix.ravel()
        # each row is its sorted sample, then its sorted splits: a stable sort puts a
        # value equal to a split before it, so split j lands at k_j + j, where k_j
        # counts the values <= split j, the count searchsorted(side="right") gives
        merged = np.empty((len(x), 2 * n))
        merged[:, :n] = xs
        lands = np.arange(0, merged.size, 2 * n)[:, None] + np.arange(n)
    est = np.empty((len(x), len(weights)))
    for lam in distinct:
        if lam == 0.0:
            column = dev / (2.0 * n * xbar)
        elif lam == 1.0:
            # Gini: sum_{i<j} |Xi - Xj| = sum_k (2k - n + 1) x_(k) over the sorted sample
            column = _row_fsums((2.0 * np.arange(n) - (n - 1)) * xs) / (n * (n - 1) * xbar)
        else:
            # the terms run over the sorted sample: every row sum is correctly
            # rounded, so their order leaves it as it is, and the splits come out sorted
            a = xs - (1.0 - lam) * xbar[:, None]
            with np.errstate(over="ignore"):
                np.divide(a, lam, out=merged[:, n:])  # +-inf is a legitimate split when lam is tiny
            order = np.argsort(merged, axis=1, kind="stable")
            k = np.flatnonzero(order >= n).reshape(x.shape) - lands
            below = prefix.ravel()[starts + k]  # prefix[k], the sum of the sorted values <= split
            inner = a * (2 * k - n) + lam * (prefix[:, n:] - 2.0 * below)
            column = (_row_fsums(inner) - (1.0 - lam) * dev) / (2.0 * n * (n - 1) * xbar)
        est[:, [j for j, w in enumerate(weights) if w == lam]] = column[:, None]
    return est if weights is lams else est[:, 0]


def h_hat(values) -> float:
    """Hoover estimator: sum |Xi - Xbar| / (2 n Xbar)."""
    return _estimate(_pairs_sorted, values, 1, 0.0)


def g_hat(values) -> float:
    """Gini estimator with the unbiased-style n(n-1) pair count."""
    return _estimate(_pairs_sorted, values, 2, 1.0)


def i_hat(values, lam: float) -> float:
    """Quadratic reference evaluation of the plug-in index estimator.

    The lam = 0 and lam = 1 endpoints are h_hat and g_hat: the same core.
    """
    lam = check_lambda(lam)
    return _estimate(_pairs_sorted if lam in (0.0, 1.0) else _pairs_quadratic, values, 2, lam)


def i_hat_fast(values, lam):
    """Sort-based O(n log n) evaluation, identical to i_hat up to roundoff.

    For each i the inner sum over j of |a_i - lam*Xj| (a_i = Xi - (1-lam)Xbar)
    comes from prefix sums of the sorted sample split at a_i/lam; values tied
    with the split point contribute zero from either side.

    `lam` is one weight or a 1-D sequence of L weights, which gives an (L,)
    array for a sample and an (R, L) array for an (R, n) block, each entry
    bit-identical to the scalar call on its row and weight (lam = 0 and 1
    equal h_hat and g_hat exactly).  Each weight passes check_lambda; an empty
    sequence gives a (0,) or (R, 0) array once the sample is checked.
    """
    if np.ndim(lam) > 1:
        raise ValueError(f"weights must be one number or a 1-D sequence, got shape {np.shape(lam)}")
    lams = check_lambda(lam) if np.ndim(lam) == 0 else [check_lambda(v) for v in lam]
    return _estimate(_pairs_sorted, values, 2, lams)
