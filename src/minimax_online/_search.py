"""Scalar numerics shared by the conjugate, one-round and oracle solvers.

Golden-section search, central differences, and evaluation of a scalar
function over an array.
"""

from __future__ import annotations

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300):
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (argmin, min_value).  The bracket shrinks by the golden ratio per
    iteration, so ~60 iterations reduce it by 1e-12; max_iter is a guard.
    """
    a, b = float(lo), float(hi)
    if not b >= a:
        raise ValueError("need hi >= lo")
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300):
    x, v = golden_section_min(lambda t: -f(t), lo, hi, tol=tol, max_iter=max_iter)
    return x, -v


def finite_difference(f, x: float, order: int = 1) -> float:
    """Central difference of order 1 or 2 with step 1e-5 * max(|x|, 1)."""
    h = 1e-5 * max(abs(x), 1.0)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValueError("order must be 1 or 2")


def eval_on_array(f, xs) -> np.ndarray:
    """f at every entry of xs: one vectorized call when f accepts arrays, else entry by entry."""
    arr = np.asarray(xs, dtype=np.float64)
    try:
        vals = np.asarray(f(arr), dtype=np.float64)
        if vals.shape == arr.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in arr.ravel()]).reshape(arr.shape)
