"""Adaptive embedded Runge-Kutta 5(4) integration with Hermite dense output.

Dormand-Prince pair, FSAL, proportional step control (h is scaled by
0.9 err^(-1/5), clipped to [0.2, 5]), in ``numpy.longdouble``: the
conserved-quantity drift budget (1e-10 scale over coordinate windows of length
20) is unreachable in float64 once the warp factor grows to ~1e4, because the
terms of the conserved combination individually reach ~1e8 and their rounding
noise alone exceeds the budget. Accepted state updates are Kahan-compensated,
which empirically halves the remaining drift (it is rounding-dominated, not
truncation-dominated, at tight tolerances).

The core works on longdouble scalars, one per state component, with the
tableau unrolled per stage: for the four-component systems integrated here a
scalar operation costs a fraction of a small-array one.  Each weighted sum
runs left to right, zero weights included, and the solution and error sums
start from zero, as a matrix product does.  Nothing is updated in place, so a
rejected attempt cannot leak into the first stage of the retry.  One call
makes at most ``_MAX_ATTEMPTS`` step attempts, and gives up after a tenth
of them if it has covered less than a tenth of its window.

Dense output is per-component two-point quintic Hermite: the caller supplies
the first and second derivative of the state as functions of the state, both
available in closed form for the radial systems integrated here, so each step
segment interpolates with O(h^6) local error at no extra storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailure

__all__ = ["DenseSolution", "integrate", "hermite_quintic"]

_LD = np.longdouble

# Dormand-Prince 5(4) tableau (the system is autonomous, so the nodes c are
# not needed). Exact rationals evaluated in longdouble.
_A = (
    (),
    (_LD(1) / 5,),
    (_LD(3) / 40, _LD(9) / 40),
    (_LD(44) / 45, _LD(-56) / 15, _LD(32) / 9),
    (_LD(19372) / 6561, _LD(-25360) / 2187, _LD(64448) / 6561, _LD(-212) / 729),
    (
        _LD(9017) / 3168,
        _LD(-355) / 33,
        _LD(46732) / 5247,
        _LD(49) / 176,
        _LD(-5103) / 18656,
    ),
    (
        _LD(35) / 384,
        _LD(0),
        _LD(500) / 1113,
        _LD(125) / 192,
        _LD(-2187) / 6784,
        _LD(11) / 84,
    ),
)
# 5th-order weights (row 7 of A: FSAL) and the embedded error weights b5-b4.
_B = _A[6] + (_LD(0),)
_E = (
    _LD(71) / 57600,
    _LD(0),
    _LD(-71) / 16695,
    _LD(71) / 1920,
    _LD(-17253) / 339200,
    _LD(22) / 525,
    _LD(-1) / 40,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# Step attempts allowed per call.  The largest call in the test suite and
# the benchmark makes about 7.6k; this is over 50 times that.
_MAX_ATTEMPTS = 400_000


def hermite_quintic(tau, y0, d0, a0, y1, d1, a1):
    """Two-point quintic Hermite on [0, 1].

    ``d`` are first derivatives scaled by the step (h*y'), ``a`` second
    derivatives scaled by the step squared (h^2*y''). Vectorized over ``tau``
    and over trailing axes of the endpoint data.
    """
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    h00 = 1 - 10 * t3 + 15 * t4 - 6 * t5
    h10 = tau - 6 * t3 + 8 * t4 - 3 * t5
    h20 = 0.5 * (t2 - 3 * t3 + 3 * t4 - t5)
    h01 = 10 * t3 - 15 * t4 + 6 * t5
    h11 = -4 * t3 + 7 * t4 - 3 * t5
    h21 = 0.5 * (t3 - 2 * t4 + t5)
    return h00 * y0 + h10 * d0 + h20 * a0 + h01 * y1 + h11 * d1 + h21 * a1


@dataclass
class DenseSolution:
    """Piecewise-quintic dense output of one forward integration.

    ``ts`` are the accepted step nodes, ``ys``/``dys``/``d2ys`` the state,
    its first and its second derivative there (shape ``(len(ts), dim)``).
    """

    ts: np.ndarray
    ys: np.ndarray
    dys: np.ndarray
    d2ys: np.ndarray
    nfev: int = 0

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t) -> np.ndarray:
        """Evaluate the interpolant; returns shape ``(dim,)`` or ``(m, dim)``."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=self.ts.dtype))
        idx = np.searchsorted(self.ts, t_arr, side="right") - 1
        idx = np.clip(idx, 0, len(self.ts) - 2)
        h = self.ts[idx + 1] - self.ts[idx]
        tau = ((t_arr - self.ts[idx]) / h)[:, None]
        h_col = h[:, None]
        out = hermite_quintic(
            tau,
            self.ys[idx],
            h_col * self.dys[idx],
            h_col * h_col * self.d2ys[idx],
            self.ys[idx + 1],
            h_col * self.dys[idx + 1],
            h_col * h_col * self.d2ys[idx + 1],
        )
        if np.ndim(t) == 0:
            return out[0]
        return out


def integrate(
    fun: Callable[[Sequence], tuple],
    d2fun: Callable[[Sequence], tuple],
    y0: Sequence[float],
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-13,
    atol: float = 1e-16,
    max_step: float = 0.1,
    first_step: float = 1e-4,
    guard: Callable[[Sequence], bool] | None = None,
) -> tuple[DenseSolution, bool]:
    """Integrate the autonomous system y' = fun(y) forward on ``t_span``.

    ``fun(y)`` and ``d2fun(y)`` take the state as a sequence of longdouble
    scalars and return y' and y'' (the latter used only for the dense
    output) as tuples.  ``guard(y)``, if given, is checked after every
    accepted step; a True return stops the integration early.  Returns the
    dense solution and a flag telling whether the guard fired.

    Raises ``StepFailure`` if the controller cannot meet the tolerance above
    the minimal representable step, or if the integration needs more than
    ``_MAX_ATTEMPTS`` step attempts; that is judged early, after
    ``_MAX_ATTEMPTS // 10`` attempts, by extrapolating the pace so far over
    the whole window.
    """
    t0, t_end = (_LD(t_span[0]), _LD(t_span[1]))
    if not t_end > t0:
        raise ValueError("t_span must be increasing")
    y = tuple(np.array(y0, dtype=_LD))
    rtol, atol, max_step = _LD(rtol), _LD(atol), _LD(max_step)
    if (t_end - t0) / max_step > _MAX_ATTEMPTS:
        raise StepFailure(
            f"window of length {float(t_end - t0):.6g} needs more than "
            f"{_MAX_ATTEMPTS} steps of at most {float(max_step):.3g}"
        )
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _A[5:]
    b0, b1, b2, b3, b4, b5, b6 = _B
    e0, e1, e2, e3, e4, e5, e6 = _E
    zero = _LD(0)

    k0 = fun(y)
    # y, y' and y'' of each accepted step, as one flat list of scalars: a
    # container per step would outweigh the arrays built from them.
    ts = [t0]
    flat = [*y, *k0, *d2fun(y)]

    t = t0
    h = min(_LD(first_step), max_step, t_end - t0)
    comp = (zero,) * len(y)  # Kahan compensation for the state accumulator
    h_min_floor = np.finfo(_LD).eps * 16
    guard_hit = False
    attempts = 0
    checkpoint = _MAX_ATTEMPTS // 10

    while t < t_end:
        h = min(h, t_end - t, max_step)
        if h <= (abs(t) + 1) * h_min_floor:
            raise StepFailure(
                f"step size underflow at t={float(t):.6g} (h={float(h):.3g})"
            )
        if attempts == _MAX_ATTEMPTS:
            raise StepFailure(
                f"step budget of {_MAX_ATTEMPTS} attempts exhausted at "
                f"t={float(t):.6g} (h={float(h):.3g})"
            )
        # At the pace so far the window would outrun the budget: fail now.
        if attempts == checkpoint and attempts * (t_end - t0) > _MAX_ATTEMPTS * (t - t0):
            raise StepFailure(
                f"step budget of {_MAX_ATTEMPTS} attempts would run out: the first "
                f"{attempts} reached t={float(t):.6g} of [{float(t0):.6g}, "
                f"{float(t_end):.6g}]"
            )
        attempts += 1
        k1 = fun([u + h * (a10 * c0) for u, c0 in zip(y, k0)])
        k2 = fun([u + h * (a20 * c0 + a21 * c1) for u, c0, c1 in zip(y, k0, k1)])
        k3 = fun([
            u + h * (a30 * c0 + a31 * c1 + a32 * c2)
            for u, c0, c1, c2 in zip(y, k0, k1, k2)
        ])
        k4 = fun([
            u + h * (a40 * c0 + a41 * c1 + a42 * c2 + a43 * c3)
            for u, c0, c1, c2, c3 in zip(y, k0, k1, k2, k3)
        ])
        k5 = fun([
            u + h * (a50 * c0 + a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
            for u, c0, c1, c2, c3, c4 in zip(y, k0, k1, k2, k3, k4)
        ])
        # k6 = fun(y + incr) up to the Kahan term (FSAL)
        k6 = fun([
            u + h * (a60 * c0 + a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
            for u, c0, c1, c2, c3, c4, c5 in zip(y, k0, k1, k2, k3, k4, k5)
        ])
        incr, y_new, sq = [], [], []
        for u, c, (c0, c1, c2, c3, c4, c5, c6) in zip(
            y, comp, zip(k0, k1, k2, k3, k4, k5, k6)
        ):
            i = h * (
                zero + b0 * c0 + b1 * c1 + b2 * c2 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6
            )
            v = u + (i - c)
            err = h * (
                zero + e0 * c0 + e1 * c1 + e2 * c2 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6
            )
            x = err / (atol + rtol * max(abs(u), abs(v)))
            incr.append(i)
            y_new.append(v)
            sq.append(x * x)
        # RMS; the plain sum is the order np.mean uses for so few terms.
        err_norm = float(np.sqrt(sum(sq) / len(sq)))

        if err_norm <= 1.0:
            comp = [(v - u) - (i - c) for u, v, i, c in zip(y, y_new, incr, comp)]
            t = t + h
            y = y_new
            k0 = k6
            ts.append(t)
            flat += y
            flat += k0
            flat += d2fun(y)
            if guard is not None and guard(y):
                guard_hit = True
                break

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            )
        h = h * _LD(factor)

    table = np.array(flat, dtype=_LD).reshape(len(ts), 3, len(y))
    ys, dys, d2ys = (table[:, i].copy() for i in range(3))
    sol = DenseSolution(np.array(ts, dtype=_LD), ys, dys, d2ys, nfev=1 + 6 * attempts)
    return sol, guard_hit
