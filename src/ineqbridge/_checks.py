"""Argument checks shared by every entry point.

Each check raises a ValueError that names the argument and the value it got,
and returns the value as the type its caller stores and computes with: a
float, an int, or a flat float copy of an array.  A leaf module, importing
only math and numpy, so the special functions and distributions below
index_core use the same checks as the layers above it.
"""

from __future__ import annotations

import math

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


def check_shape(alpha) -> float:
    return check_positive("shape", alpha)


def check_lambda(lam) -> float:
    f = _real(lam)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"interpolation weight must lie in [0, 1], got {lam!r}")
    return f


def check_count(name: str, v, least: int) -> int:
    f = _real(v)
    if not (math.isfinite(f) and f == int(f) and f >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(f)


def check_points(x, name: str, context=None) -> np.ndarray:
    """x as a flat float copy whose every point is finite and >= 0.

    `context` maps the call's other arguments to their values; the message
    names them, and is formatted only when a point fails.
    """
    flat = np.array(x, dtype=float).ravel()
    bad = ~np.isfinite(flat) | (flat < 0)
    if bad.any():
        at = ", ".join(f"{k}={v!r}" for k, v in (context or {}).items())
        raise ValueError(f"{name} must be finite and >= 0, got {float(flat[bad][0])!r}"
                         + (f" at {at}" if at else ""))
    return flat
