"""Deterministic adaptive quadrature on finite and semi-infinite intervals.

A fixed 15-point Gauss-Kronrod rule is bisected adaptively, always splitting
the interval with the largest error estimate.  Evaluation counts and results
are reproducible across runs: no randomness, no machine-dependent ordering.
Integrands are called with an ndarray of nodes and must return one value
per node, as a numpy ufunc applied elementwise does.  Each step makes one
call with all its new nodes: the initial pieces, or both halves of a split.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_positive

__all__ = ["QuadratureError"]

DEFAULT_ABS_TOL = 1e-11
REL_TOL = 1e-9
MAX_INTERVALS = 10_000

# 15-point Kronrod nodes (positive half) and weights, with the embedded 7-point Gauss rule,
# rounded from a 50-digit Newton solution of their exactness conditions that tests/helpers.py repeats
_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
    0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0,
])
_WK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
    0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782,
])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694])

_NODES = np.concatenate((-_XK[:7], [0.0], _XK[6::-1]))          # ascending in [-1, 1]
_WEIGHTS_K = np.concatenate((_WK[:7], [_WK[7]], _WK[6::-1]))
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate((_WG[:3], [_WG[3]], _WG[2::-1]))


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when refinement ends with the pieces' error estimates above the tolerance.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float, error_bound: float, evaluations: int):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.evaluations = evaluations


def _node_values(f, t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    ys = np.asarray(f(t), dtype=float)
    if ys.shape != t.shape:
        raise ValueError(f"integrand must return one value per node: got shape {ys.shape} "
                         f"for {t.shape} nodes on [{lo}, {hi}]")
    return ys


def _apply_rule(f, edges: list[float]):
    """Rule values and error estimates of the pieces between consecutive edges, from one call of f."""
    e = np.array(edges)
    mid = 0.5 * (e[:-1] + e[1:])
    half = 0.5 * (e[1:] - e[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES).ravel()
    ys = _node_values(f, nodes, edges[0], edges[-1]).reshape(-1, 15)
    # vecdot sums each row as the 1-D dot product does, so results do not depend on the batch;
    # every Kronrod weight is positive, so err is finite only where every node value and both sums are
    with np.errstate(over="ignore", invalid="ignore"):
        k = half * np.vecdot(ys, _WEIGHTS_K)
        err = np.abs(k - half * np.vecdot(ys, _WEIGHTS_G))
    finite = np.isfinite(err)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"integrand values or their rule sums are not finite on [{edges[i]}, {edges[i + 1]}]")
    return k.tolist(), err.tolist()


def integrate_finite(f, lo: float, hi: float, abs_tol: float = DEFAULT_ABS_TOL,
                     *, breakpoints=()) -> QuadResult:
    """Integrate f over [lo, hi] to max(abs_tol, 1e-9*|integral|).

    Optional interior breakpoints pre-split the interval so that integrand
    kinks or jumps sit on subinterval boundaries (rule nodes are strictly
    interior, so a piecewise-constant integrand is handled exactly); those
    outside (lo, hi), nan included, are ignored.  Raises ValueError for a
    piece whose node values or rule sums are not finite, and QuadratureError
    when the exact sum of the pieces' error estimates is above the tolerance
    at the end: after MAX_INTERVALS subintervals, when the worst piece is too
    narrow to split, or when the running sum the loop tests has cancelled.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    abs_tol = check_positive("abs_tol", abs_tol)

    pts = [lo, *sorted({b for b in map(float, breakpoints) if lo < b < hi}), hi]
    vals, errs = _apply_rule(f, pts)
    # keyed on the negated error, ties broken by the left end, which no two pieces share
    heap = [(-err, a, b, val) for a, b, val, err in zip(pts[:-1], pts[1:], vals, errs)]
    heapq.heapify(heap)
    total_val = math.fsum(vals)
    total_err = math.fsum(errs)
    neval = 15 * len(heap)

    while total_err > max(abs_tol, REL_TOL * abs(total_val)) and len(heap) < MAX_INTERVALS:
        neg_err, a, b, val = heap[0]
        m = 0.5 * (a + b)
        if not a < m < b:  # the worst piece is too narrow to split
            break
        (lval, rval), (lerr, rerr) = _apply_rule(f, [a, m, b])
        neval += 30
        heapq.heapreplace(heap, (-lerr, a, m, lval))
        heapq.heappush(heap, (-rerr, m, b, rval))
        total_val += (lval + rval) - val
        total_err += (lerr + rerr) + neg_err

    value = math.fsum(item[3] for item in heap)
    err_bound = math.fsum(-item[0] for item in heap)
    if err_bound > max(abs_tol, REL_TOL * abs(value)):
        raise QuadratureError(
            f"no convergence within {len(heap)} subintervals "
            f"(estimate {value!r}, error bound {err_bound!r})",
            estimate=value, error_bound=err_bound, evaluations=neval,
        )
    return QuadResult(value=value, abs_error_estimate=err_bound, evaluations=neval)


def integrate_semi_infinite(f) -> QuadResult:
    """Integrate a decaying f over [0, infinity) to the default tolerances.

    Uses t = u/(1-u), u in [0, 1); the Jacobian 1/(1-u)^2 is folded into
    the transformed integrand, after f's one-value-per-node check.
    """
    def mapped(u: np.ndarray) -> np.ndarray:
        w = 1.0 - u
        return _node_values(f, u / w, 0.0, math.inf) / (w * w)

    return integrate_finite(mapped, 0.0, 1.0)
