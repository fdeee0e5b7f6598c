"""Small numerical helpers shared across modules."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["LD", "ROW_BLOCK", "bisect_root", "gauss_legendre", "row_blocks"]

# The working precision of every computation.  Every tolerance assumes its
# 64-bit significand (x86-64's 80-bit long double, 63 mantissa bits as numpy
# counts them); cli.main refuses to run where it has fewer.
LD = np.longdouble

# Rows per block of the per-point pipeline: dense evaluation of long queries,
# the quadrature panels, the export grid, CSV rendering and the verification
# reductions work one block at a time, so their temporaries stay a fixed size
# however long the grid is.
ROW_BLOCK = 8192


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
        # Compare signs: fa * fm underflows to zero when both are tiny.
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@lru_cache(maxsize=8)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached, in the working precision."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = (x.astype(LD) + 1.0) * 0.5
    weights = w.astype(LD) * 0.5
    return nodes, weights


def row_blocks(n: int):
    """Slices that cut ``range(n)`` into consecutive blocks of ``ROW_BLOCK``."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))
