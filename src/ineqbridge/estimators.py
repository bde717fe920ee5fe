"""Plug-in estimators of the bridging index from a sample.

The reference estimator averages |(1-lam)(Xi - Xbar) + lam(Xi - Xj)| over
all ordered pairs i != j and normalizes by 2 n (n-1) Xbar.  A sort-based
O(n log n) fast path computes the same value.  Samples that are entirely
zero yield 0 by convention rather than an error.

Sums are accumulated with error-free transformations (math.fsum), which
keeps mixed-magnitude samples honest at the 1e-12 level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .index_core import check_lambda

__all__ = [
    "i_hat",
    "h_hat",
    "g_hat",
    "i_hat_fast",
    "summarize",
    "SummaryStats",
]


def _estimate(core, values, min_n: int, *args) -> float:
    """Common start of every estimator: validate the sample, take its mean,
    then return core(x, n, xbar, *args).

    A zero mean (an all-zero sample, or a sum so small that the mean
    underflows) yields 0 without calling the core.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size < min_n:
        raise ValueError(f"sample needs at least {min_n} observations, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("sample values must be finite")
    if (x < 0).any():
        raise ValueError("sample values must be non-negative")
    n = x.size
    xbar = math.fsum(x.tolist()) / n
    if xbar == 0.0:
        return 0.0
    return core(x, n, xbar, *args)


def _abs_dev_sum(x: np.ndarray, xbar: float) -> float:
    return math.fsum(np.abs(x - xbar).tolist())


def _hoover(x, n, xbar):
    return _abs_dev_sum(x, xbar) / (2.0 * n * xbar)


def _gini(x, n, xbar):
    xs = np.sort(x)
    # sum_{i<j} |Xi - Xj| = sum_k (2k - n + 1) * x_(k) over the sorted sample
    pair_sum = math.fsum(((2.0 * np.arange(n) - (n - 1)) * xs).tolist())
    return pair_sum / (n * (n - 1) * xbar)


def _bridge(interior, values, lam: float) -> float:
    # the endpoints run the Hoover and Gini cores, so I_0 = H and I_1 = G
    # hold exactly, summation order included
    lam = check_lambda(lam)
    if lam == 0.0:
        return _estimate(_hoover, values, 2)
    if lam == 1.0:
        return _estimate(_gini, values, 2)
    return _estimate(interior, values, 2, lam)


def _pairs_quadratic(x, n, xbar, lam):
    a = x - (1.0 - lam) * xbar
    terms = np.abs(a[:, None] - lam * x[None, :])
    np.fill_diagonal(terms, 0.0)
    s = math.fsum(terms.ravel().tolist())
    return s / (2.0 * n * (n - 1) * xbar)


def _pairs_sorted(x, n, xbar, lam):
    xs = np.sort(x)
    prefix = np.concatenate(([0.0], np.cumsum(xs)))
    a = x - (1.0 - lam) * xbar
    with np.errstate(over="ignore"):
        split = a / lam  # +-inf is a legitimate threshold when lam is tiny
    k = np.searchsorted(xs, split, side="right")
    inner = a * (2 * k - n) + lam * (prefix[n] - 2.0 * prefix[k])
    s = math.fsum(inner.tolist()) - (1.0 - lam) * _abs_dev_sum(x, xbar)
    return s / (2.0 * n * (n - 1) * xbar)


def h_hat(values) -> float:
    """Hoover estimator: sum |Xi - Xbar| / (2 n Xbar)."""
    return _estimate(_hoover, values, 1)


def g_hat(values) -> float:
    """Gini estimator with the unbiased-style n(n-1) pair count."""
    return _estimate(_gini, values, 2)


def i_hat(values, lam: float) -> float:
    """Quadratic reference evaluation of the plug-in index estimator.

    The lam = 0 and lam = 1 endpoints equal h_hat and g_hat exactly,
    summation order included.
    """
    return _bridge(_pairs_quadratic, values, lam)


def i_hat_fast(values, lam: float) -> float:
    """Sort-based O(n log n) evaluation, identical to i_hat up to roundoff.

    For each i the inner sum over j of |a_i - lam*Xj| (a_i = Xi - (1-lam)Xbar)
    comes from prefix sums of the sorted sample split at a_i/lam; values tied
    with the split point contribute zero from either side.
    """
    return _bridge(_pairs_sorted, values, lam)


class SummaryStats(NamedTuple):
    mean: float
    bias: float
    mse: float
    variance: float


def summarize(estimates, truth: float) -> SummaryStats:
    """Replication summary: mean, bias, MSE (1/R), and variance (1/(R-1)).

    A single replication has no variance information; the variance is
    defined as 0 in that degenerate case.
    """
    e = np.asarray(estimates, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("summarize needs at least one estimate")
    truth = float(truth)
    r = e.size
    mean = math.fsum(e.tolist()) / r
    bias = mean - truth
    mse = math.fsum(((v - truth) ** 2 for v in e.tolist())) / r
    if r > 1:
        variance = math.fsum(((v - mean) ** 2 for v in e.tolist())) / (r - 1)
    else:
        variance = 0.0
    return SummaryStats(mean=mean, bias=bias, mse=mse, variance=variance)
