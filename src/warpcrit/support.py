"""Small numerical helpers shared across modules."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["bisect_root", "gauss_legendre"]


def bisect_root(
    f: Callable[[float], float],
    lo,
    hi,
    *,
    tol: float = 1e-12,
    f_lo=None,
    f_hi=None,
) -> float:
    """Plain bisection for a sign change of ``f`` on [lo, hi].

    Runs until the bracket is shorter than ``tol`` and returns the midpoint.
    The endpoints must bracket a sign change (an exact zero endpoint counts).
    """
    lo = float(lo)
    hi = float(hi)
    a, b = lo, hi
    fa = float(f(a)) if f_lo is None else float(f_lo)
    fb = float(f(b)) if f_hi is None else float(f_hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError(f"root not bracketed on [{a:.6g}, {b:.6g}]")
    while (b - a) > tol:
        m = 0.5 * (a + b)
        if m <= a or m >= b:  # bracket at floating-point resolution
            break
        fm = float(f(m))
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached, as longdouble."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = (x.astype(np.longdouble) + 1.0) * 0.5
    weights = w.astype(np.longdouble) * 0.5
    return nodes, weights
