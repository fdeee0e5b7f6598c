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

There are two loops over the same tableau.  ``integrate`` runs the scalar
loop for one system.  ``integrate_batch`` runs several systems in lockstep
on a ``(dim, B)`` state, one longdouble array operation per scalar one and
in the same order, so that each member's nodes, values and ``nfev`` are
bit-identical to its own ``integrate`` call; the step factor comes from one
helper on Python floats in both.  A batch step costs about as much as 3.5
scalar steps whatever B is (on a 2-core x86-64 VM, with four-component
profile systems), so a batch pays from three or four members on.  Members
leave as they finish, and once fewer than ``MIN_BATCH`` remain the
survivors resume on the scalar loop from where they stand.

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

__all__ = ["DenseSolution", "integrate", "integrate_batch", "hermite_quintic"]

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
# First step tried, unless the window or max_step is shorter.
_FIRST_STEP = 1e-4
# Smallest step relative to 1 + |t|.
_H_FLOOR = np.finfo(_LD).eps * 16
# Fewest members a lockstep batch runs with; see the module docstring.
MIN_BATCH = 3


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


def _step_factor(err_norm: float) -> float:
    """Step-size multiplier after an attempt with RMS error ``err_norm``.

    Both loops call this on Python floats: numpy's float64 ``power`` need not
    round as libm ``pow`` does, and the loops must agree bit for bit.
    """
    if err_norm == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))


@dataclass
class _March:
    """Where one integration stands before its next step attempt.

    ``ts`` and ``flat`` hold the accepted nodes and, as one flat list of
    scalars, y, y' and y'' at each: a container per step would outweigh the
    arrays built from them.
    """

    t0: np.longdouble
    t_end: np.longdouble
    t: np.longdouble
    h: np.longdouble
    y: Sequence
    k0: Sequence
    comp: Sequence  # Kahan compensation of the state accumulator
    attempts: int
    ts: list
    flat: list


def _start(fun, d2fun, y0, t_span, first_step, max_step) -> _March:
    """Check the window and evaluate the first node of an integration."""
    t0, t_end = (_LD(t_span[0]), _LD(t_span[1]))
    if not t_end > t0:
        raise ValueError("t_span must be increasing")
    y = tuple(np.array(y0, dtype=_LD))
    if (t_end - t0) / max_step > _MAX_ATTEMPTS:
        raise StepFailure(
            f"window of length {float(t_end - t0):.6g} needs more than "
            f"{_MAX_ATTEMPTS} steps of at most {float(max_step):.3g}"
        )
    k0 = fun(y)
    h = min(_LD(first_step), max_step, t_end - t0)
    zero = (_LD(0),) * len(y)
    return _March(t0, t_end, t0, h, y, k0, zero, 0, [t0], [*y, *k0, *d2fun(y)])


def _solution(ts, table, attempts: int) -> DenseSolution:
    """The dense solution on nodes ``ts`` with (y, y', y'') rows ``table``."""
    ys, dys, d2ys = (table[:, i].copy() for i in range(3))
    return DenseSolution(ts, ys, dys, d2ys, nfev=1 + 6 * attempts)


def integrate(
    fun: Callable[[Sequence], tuple],
    d2fun: Callable[[Sequence], tuple],
    y0: Sequence[float],
    t_span: tuple[float, float],
    *,
    rtol: float = 1e-13,
    atol: float = 1e-16,
    max_step: float = 0.1,
    first_step: float = _FIRST_STEP,
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
    rtol, atol, max_step = _LD(rtol), _LD(atol), _LD(max_step)
    state = _start(fun, d2fun, y0, t_span, first_step, max_step)
    return _march(fun, d2fun, guard, state, rtol, atol, max_step)


def _march(fun, d2fun, guard, state: _March, rtol, atol, max_step) -> tuple[DenseSolution, bool]:
    """Run the scalar loop from ``state`` to the end of its window."""
    t0, t_end, t, h = state.t0, state.t_end, state.t, state.h
    y, k0, comp, attempts = state.y, state.k0, state.comp, state.attempts
    ts, flat = state.ts, state.flat
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _A[5:]
    b0, b1, b2, b3, b4, b5, b6 = _B
    e0, e1, e2, e3, e4, e5, e6 = _E
    zero = _LD(0)
    guard_hit = False
    checkpoint = _MAX_ATTEMPTS // 10

    while t < t_end:
        h = min(h, t_end - t, max_step)
        if h <= (abs(t) + 1) * _H_FLOOR:
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

        h = h * _LD(_step_factor(err_norm))

    table = np.array(flat, dtype=_LD).reshape(len(ts), 3, len(y))
    return _solution(np.array(ts, dtype=_LD), table, attempts), guard_hit


def integrate_batch(
    members: Sequence[tuple],
    batch: Callable[[np.ndarray], tuple],
    *,
    rtol: float = 1e-13,
    atol: float = 1e-16,
    max_step: float = 0.1,
) -> list[DenseSolution | None]:
    """Integrate several systems in lockstep, each bit-identical to ``integrate``.

    ``members[i]`` is ``(fun, d2fun, guard, y0, t_span)`` as ``integrate``
    takes them; the tolerances hold for all, and each starts with
    ``integrate``'s default first step.  ``batch(idx)`` returns ``(fun, d2fun, guard)`` for the
    members in the index array ``idx``, vectorized over them: each takes a
    ``(dim, len(idx))`` longdouble state and returns ``dim`` rows of values
    (the guard one bool per member, or is None).  Each member keeps its own
    step, window, Kahan compensation, accept decision and attempt budget,
    and leaves the batch when it reaches its end, its guard fires or it
    fails; once fewer than ``MIN_BATCH`` remain, each survivor finishes on
    the scalar loop.

    Returns each member's dense solution, or None where ``integrate`` would
    raise ``StepFailure`` or report a guard hit.
    """
    rtol, atol, max_step = _LD(rtol), _LD(atol), _LD(max_step)
    states: dict[int, _March] = {}
    for i, (fun, d2fun, _guard, y0, t_span) in enumerate(members):
        try:
            states[i] = _start(fun, d2fun, y0, t_span, _FIRST_STEP, max_step)
        except StepFailure:
            pass
    out: list[DenseSolution | None] = [None] * len(members)
    if len(states) >= MIN_BATCH:
        finished, log = _lockstep(states, batch, rtol, atol, max_step)
        for i, rows in log.members(states):
            ts, table = rows[:, 0].copy(), rows[:, 1:].reshape(len(rows), 3, -1)
            if i in finished:
                out[i] = _solution(ts, table, finished.pop(i))
                del states[i]
            else:
                states[i].ts, states[i].flat = list(ts), list(table.ravel())
    for i, state in states.items():
        fun, d2fun, guard = members[i][:3]
        try:
            sol, hit = _march(fun, d2fun, guard, state, rtol, atol, max_step)
        except StepFailure:
            continue
        out[i] = None if hit else sol
    return out


class _NodeLog:
    """The accepted nodes of a batch, one row (t, y, y', y'') per node, in
    one array that doubles as it fills: per-step arrays would leave the heap
    fragmented after the batch."""

    def __init__(self, width: int) -> None:
        self.rows = np.empty((1024, width), dtype=_LD)
        self.owner = np.empty(1024, dtype=np.intp)
        self.size = 0

    def add(self, members: np.ndarray, block: np.ndarray) -> None:
        """Append a node for each of ``members``; ``block`` holds them as columns."""
        n, k = self.size, len(members)
        if n + k > len(self.owner):
            rows = np.empty((2 * (n + k), self.rows.shape[1]), dtype=_LD)
            rows[:n] = self.rows[:n]
            owner = np.empty(len(rows), dtype=np.intp)
            owner[:n] = self.owner[:n]
            self.rows, self.owner = rows, owner
        self.rows[n : n + k] = block.T
        self.owner[n : n + k] = members
        self.size = n + k

    def members(self, wanted):
        """Yield ``(member, rows)`` for each member in ``wanted``, its rows in
        the order they were added."""
        owner = self.owner[: self.size]
        order = np.argsort(owner, kind="stable")
        ids, starts = np.unique(owner[order], return_index=True)
        for i, lo, hi in zip(ids.tolist(), starts, [*starts[1:], self.size]):
            if i in wanted:
                yield i, self.rows[order[lo:hi]]


def _lockstep(states: dict, batch, rtol, atol, max_step) -> tuple[dict, _NodeLog]:
    """March ``states`` together until fewer than ``MIN_BATCH`` remain.

    Drops from ``states`` the members that fail or hit their guard, and
    leaves each survivor's state where its scalar loop resumes.  Returns the
    attempt counts of the members that reached their end, and the nodes of
    every member.
    """
    idx = np.array(sorted(states), dtype=np.intp)
    log = _NodeLog(1 + len(states[idx[0]].flat))
    log.add(idx, np.array([[*states[i].ts, *states[i].flat] for i in idx], dtype=_LD).T)
    col = lambda name: np.array([getattr(states[i], name) for i in idx], dtype=_LD)
    T0, TEND, T, H = col("t0"), col("t_end"), col("t"), col("h")
    Y, K0, C = col("y").T, col("k0").T, col("comp").T
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43) = _A[1:5]
    (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _A[5:]
    w0, w1, w2, w3, w4, w5, w6 = np.array([_B, _E], dtype=_LD).T[:, :, None, None]
    zero = _LD(0)
    checkpoint = _MAX_ATTEMPTS // 10
    attempts = 0
    finished: dict[int, int] = {}
    hit = np.zeros(len(idx), dtype=bool)
    fun = None
    rhs = lambda z: np.array(fun(z), dtype=_LD)  # the current batch's fun

    while True:
        # The checks at the head of the scalar loop, member by member.
        done = ~(T < TEND)
        H = np.minimum(np.minimum(H, TEND - T), max_step)
        fail = H <= (abs(T) + 1) * _H_FLOOR
        if attempts == _MAX_ATTEMPTS:
            fail[:] = True
        if attempts == checkpoint:
            fail |= attempts * (TEND - T0) > _MAX_ATTEMPTS * (T - T0)
        live = ~(hit | done | fail)
        if fun is None or not live.all():
            for i in idx[done & ~hit]:
                finished[int(i)] = attempts
            for i in idx[hit | fail & ~done]:
                del states[int(i)]
            idx, T0, TEND, T, H = idx[live], T0[live], TEND[live], T[live], H[live]
            Y, K0, C, hit = Y[:, live], K0[:, live], C[:, live], hit[live]
            if len(idx) < MIN_BATCH:
                break
            fun, d2fun, guard = batch(idx)
        attempts += 1
        K1 = rhs(Y + H * (a10 * K0))
        K2 = rhs(Y + H * (a20 * K0 + a21 * K1))
        K3 = rhs(Y + H * (a30 * K0 + a31 * K1 + a32 * K2))
        K4 = rhs(Y + H * (a40 * K0 + a41 * K1 + a42 * K2 + a43 * K3))
        K5 = rhs(Y + H * (a50 * K0 + a51 * K1 + a52 * K2 + a53 * K3 + a54 * K4))
        K6 = rhs(Y + H * (a60 * K0 + a61 * K1 + a62 * K2 + a63 * K3 + a64 * K4 + a65 * K5))
        # The solution and error sums at once: row 0 takes _B, row 1 _E.
        S = zero + w0 * K0 + w1 * K1 + w2 * K2 + w3 * K3 + w4 * K4 + w5 * K5 + w6 * K6
        incr, err = H * S[0], H * S[1]
        V = Y + (incr - C)
        X = err / (atol + rtol * np.maximum(abs(Y), abs(V)))
        err_norm = np.sqrt(sum(X * X) / len(X)).astype(float)
        acc = err_norm <= 1.0

        C = np.where(acc, (V - Y) - (incr - C), C)
        T = np.where(acc, T + H, T)
        Y = np.where(acc, V, Y)
        K0 = np.where(acc, K6, K0)
        if acc.any():
            block = np.concatenate([T[None], Y, K0, np.array(d2fun(Y), dtype=_LD)])
            if acc.all():
                log.add(idx, block)
            else:
                log.add(idx[acc], block[:, acc])
        if guard is not None:
            hit = acc & guard(Y)
        H = H * np.array([_step_factor(e) for e in err_norm.tolist()], dtype=_LD)

    for j, i in enumerate(idx):
        state = states[int(i)]
        state.t, state.h, state.attempts = T[j], H[j], attempts
        state.y, state.k0, state.comp = tuple(Y[:, j]), tuple(K0[:, j]), tuple(C[:, j])
    return finished, log
