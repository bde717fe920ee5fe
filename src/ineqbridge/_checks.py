"""Argument checks shared by every entry point.

Each check raises a ValueError that names the argument and the value it got,
and returns the value as the type its caller stores and computes with: a
float, an int, or a float copy of an array in the array's own shape.  A leaf
module, importing only the standard library and numpy, so the special
functions and distributions below index_core use the same checks as the
layers above it.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator

import numpy as np


def _real(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):  # None, "ten" or 10**400: nan, which every check refuses
        return math.nan


def check_positive(name: str, v) -> float:
    f = _real(v)
    if not (math.isfinite(f) and f > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")
    return f


def check_fraction(name: str, v) -> float:
    f = _real(v)
    if not 0.0 < f <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {v!r}")
    return f


def check_lambda(lam) -> float:
    f = _real(lam)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"interpolation weight must lie in [0, 1], got {lam!r}")
    return f


def check_count(name: str, v, least: int) -> int:
    f = _real(v)
    if not (math.isfinite(f) and f == int(f) and f >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v) if isinstance(v, numbers.Integral) else int(f)  # an int above 2**53 stays exact


def check_seed(v) -> int:
    # compared as given, so an int above 2**53 is neither rounded nor let past 2**64 - 1
    if not (isinstance(v, numbers.Real) and 0 <= v < 2 ** 64 and v == int(v)):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {v!r}")
    return int(v)


def check_points(x, name: str, context=None, ndim=None) -> np.ndarray:
    """x as a float array of x's own shape (0-d for a scalar), every point finite and >= 0.

    A set, frozenset or iterator is read as the list of its items.  An entry
    float() refuses ("ten", 10**400) gets the message a non-finite point
    gets.  `context` maps the call's other arguments to their values;
    the message names them, and is formatted only when a point fails.  With
    `ndim` (0: one number, 1: a list of them), a point that is a sequence fails,
    and so does one number where a list belongs.
    """
    if isinstance(x, (set, frozenset, Iterator)):  # np.array would hold the container as one object
        x = list(x)
    try:
        a = np.array(x, dtype=float)
        ok = a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < math.inf  # nan, +-inf and negatives fail
        bad = [] if ok else a[~np.isfinite(a) | (a < 0)].tolist()
    except (OverflowError, TypeError, ValueError):
        bad = [v for v in np.array(x, dtype=object).flat if math.isnan(_real(v))] or [x]
        if ndim is not None and np.ndim(bad[0]) > 0:  # ragged nesting, which np.array refuses
            raise ValueError(f"{name} must be one number, got {bad[0]!r}")
    if bad:
        at = ", ".join(f"{k}={v!r}" for k, v in (context or {}).items())
        raise ValueError(f"{name} must be finite and >= 0, got {bad[0]!r}" + (f" at {at}" if at else ""))
    if ndim is not None and a.ndim != ndim:
        if a.ndim < ndim:
            raise ValueError(f"{name} must be a list of numbers, got {x!r}")
        # np.array refuses ragged nesting, so every entry has this shape
        raise ValueError(f"{name} must be one number, got {a[(0,) * ndim].tolist()!r}")
    return a
