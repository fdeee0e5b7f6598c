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
scalar operation costs a fraction of a small-array one.  Every weighted sum
(the six stage sums, the solution sum and the error sum) starts from zero
and runs left to right, zero weights included, as a matrix product does.
Nothing is updated in place, so a rejected attempt cannot leak into the
first stage of the retry.  One call makes at most ``_MAX_ATTEMPTS`` step
attempts, and gives up after a tenth of them if it has covered less than a
tenth of its window.

There are two loops over the same tableau.  ``integrate`` runs the scalar
loop for one system.  ``integrate_batch`` runs several systems in lockstep
on a ``(dim, B)`` state: it keeps the stage values in one ``(7, dim, B)``
array and forms each weighted sum as one longdouble ``np.dot`` over a
tableau row.  numpy's longdouble dot has no BLAS path and sums left to right
from zero, so each member's nodes, values and ``nfev`` are bit-identical to
its own ``integrate`` call; the step factor comes from one helper on Python
floats in both.  A batch step costs about three scalar steps at B = 3 and
four to six at B = 20 (on a 2-core x86-64 VM, with four-component profile
systems), so a batch pays from three members on.  Members leave as they
finish, and once fewer than ``MIN_BATCH`` remain the survivors resume on the
scalar loop from where they stand.

Dense output is per-component two-point quintic Hermite: the caller supplies
the first and second derivative of the state as functions of the state, both
available in closed form for the radial systems integrated here, so each step
segment interpolates with O(h^6) local error at no extra storage.  A 0-d or
one-element query runs on longdouble scalars, the same operations in the same
order as a query of many points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepFailure
from .support import LD as _LD

__all__ = ["DenseSolution", "integrate", "integrate_batch", "hermite_quintic"]

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
# The batch loop's stage rows, and the (2, 7) solution and error rows.
_ROWS = tuple(np.array(row, dtype=_LD) for row in _A)
_BE = np.array([_B, _E], dtype=_LD)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# The one accuracy of every integration: the error of each step is held to
# _ATOL + _RTOL |y| per component, and no step is longer than _MAX_STEP.
_RTOL = _LD(1e-15)
_ATOL = _LD(1e-18)
_MAX_STEP = _LD(0.1)
# Step attempts allowed per call.  The largest call in the test suite and
# the benchmark makes about 7.6k; this is over 50 times that.
_MAX_ATTEMPTS = 400_000
# First step tried, unless the window is shorter.
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
        """Evaluate the interpolant; returns shape ``(dim,)`` for a 0-d
        query, else ``(m, dim)``.

        A 0-d or one-element query runs on longdouble scalars, the same
        operations in the same order, so both paths agree bit for bit.
        """
        ts = self.ts
        t_arr = np.asarray(t, dtype=ts.dtype)
        shape = t_arr.shape
        if shape in ((), (1,)):
            t_one = t_arr.reshape(())[()]
            idx = min(max(int(np.searchsorted(ts, t_one, side="right")) - 1, 0), len(ts) - 2)
            h = ts[idx + 1] - ts[idx]
            tau = (t_one - ts[idx]) / h
        else:
            idx = np.clip(np.searchsorted(ts, t_arr, side="right") - 1, 0, len(ts) - 2)
            h = ts[idx + 1] - ts[idx]
            tau = ((t_arr - ts[idx]) / h)[:, None]
            h = h[:, None]
        out = hermite_quintic(
            tau,
            self.ys[idx],
            h * self.dys[idx],
            h * h * self.d2ys[idx],
            self.ys[idx + 1],
            h * self.dys[idx + 1],
            h * h * self.d2ys[idx + 1],
        )
        return out[None] if shape == (1,) else out


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

    t0: _LD
    t_end: _LD
    t: _LD
    h: _LD
    y: Sequence
    k0: Sequence
    comp: Sequence  # Kahan compensation of the state accumulator
    attempts: int
    ts: list
    flat: list


def _start(fun, d2fun, y0, t_span) -> _March:
    """Check the window and evaluate the first node of an integration."""
    t0, t_end = (_LD(t_span[0]), _LD(t_span[1]))
    if not t_end > t0:
        raise ValueError("t_span must be increasing")
    y = tuple(np.array(y0, dtype=_LD))
    if (t_end - t0) / _MAX_STEP > _MAX_ATTEMPTS:
        raise StepFailure(
            f"window of length {float(t_end - t0):.6g} needs more than "
            f"{_MAX_ATTEMPTS} steps of at most {float(_MAX_STEP):.3g}"
        )
    k0 = fun(y)
    h = min(_LD(_FIRST_STEP), _MAX_STEP, t_end - t0)
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
    guard: Callable[[Sequence], bool] | None = None,
) -> tuple[DenseSolution, bool]:
    """Integrate the autonomous system y' = fun(y) forward on ``t_span``.

    ``fun(y)`` and ``d2fun(y)`` take the state as a sequence of longdouble
    scalars and return y' and y'' (the latter used only for the dense
    output) as tuples.  Every call runs at the one accuracy of ``_RTOL``,
    ``_ATOL`` and ``_MAX_STEP``.  ``guard(y)``, if given, is checked after
    every accepted step; a True return stops the integration early.
    Returns the dense solution and a flag telling whether the guard fired.

    Raises ``StepFailure`` if the controller cannot meet the tolerance above
    the minimal representable step, or if the integration needs more than
    ``_MAX_ATTEMPTS`` step attempts; that is judged early, after
    ``_MAX_ATTEMPTS // 10`` attempts, by extrapolating the pace so far over
    the whole window.
    """
    return _march(fun, d2fun, guard, _start(fun, d2fun, y0, t_span))


def _march(fun, d2fun, guard, state: _March) -> tuple[DenseSolution, bool]:
    """Run the scalar loop from ``state`` to the end of its window."""
    rtol, atol, max_step = _RTOL, _ATOL, _MAX_STEP
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
        k1 = fun([u + h * (zero + a10 * c0) for u, c0 in zip(y, k0)])
        k2 = fun([u + h * (zero + a20 * c0 + a21 * c1) for u, c0, c1 in zip(y, k0, k1)])
        k3 = fun([
            u + h * (zero + a30 * c0 + a31 * c1 + a32 * c2)
            for u, c0, c1, c2 in zip(y, k0, k1, k2)
        ])
        k4 = fun([
            u + h * (zero + a40 * c0 + a41 * c1 + a42 * c2 + a43 * c3)
            for u, c0, c1, c2, c3 in zip(y, k0, k1, k2, k3)
        ])
        k5 = fun([
            u + h * (zero + a50 * c0 + a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
            for u, c0, c1, c2, c3, c4 in zip(y, k0, k1, k2, k3, k4)
        ])
        # k6 = fun(y + incr) up to the Kahan term (FSAL)
        k6 = fun([
            u + h * (zero + a60 * c0 + a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
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
) -> list[DenseSolution | None]:
    """Integrate several systems in lockstep, each bit-identical to ``integrate``.

    ``members[i]`` is ``(fun, d2fun, guard, y0, t_span)`` as ``integrate``
    takes them; each runs at ``integrate``'s one accuracy and starts with
    the same first step.  ``batch(idx)`` returns ``(fun, guard)`` for the
    members in the index array ``idx``, vectorized over them: each takes a
    ``(dim, len(idx))`` longdouble state and returns ``dim`` rows of values
    (the guard one bool per member, or is None).  Each member keeps its own
    step, window, Kahan compensation, accept decision and attempt budget,
    and leaves the batch when it reaches its end, its guard fires or it
    fails; once fewer than ``MIN_BATCH`` remain, each survivor finishes on
    the scalar loop.  A member's y'' is its own ``d2fun``, applied after
    the batch to its nodes as rows of one value per node: the fields are
    elementwise, so each value is the one ``integrate`` forms at that node.

    Each weighted sum is one longdouble ``np.dot`` over a tableau row,
    started from zero as the scalar loop's sums are.

    Returns each member's dense solution, or None where ``integrate`` would
    raise ``StepFailure`` or report a guard hit.
    """
    states: dict[int, _March] = {}
    for i, (fun, d2fun, _guard, y0, t_span) in enumerate(members):
        try:
            states[i] = _start(fun, d2fun, y0, t_span)
        except StepFailure:
            pass
    out: list[DenseSolution | None] = [None] * len(members)
    if len(states) >= MIN_BATCH:
        finished, log = _lockstep(states, batch)
        for i, rows in log.members(states):
            ts, yd = rows[:, 0].copy(), rows[:, 1:].reshape(len(rows), 2, -1)
            table = np.empty((len(rows), 3, yd.shape[2]), dtype=_LD)
            table[:, :2], table[:, 2] = yd, np.array(members[i][1](yd[:, 0].T), dtype=_LD).T
            if i in finished:
                out[i] = _solution(ts, table, finished.pop(i))
                del states[i]
            else:
                states[i].ts, states[i].flat = list(ts), list(table.ravel())
    for i, state in states.items():
        fun, d2fun, guard = members[i][:3]
        try:
            sol, hit = _march(fun, d2fun, guard, state)
        except StepFailure:
            continue
        out[i] = None if hit else sol
    return out


class _NodeLog:
    """The accepted nodes of a batch, one row (t, y, y') per node, in
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


def _lockstep(states: dict, batch) -> tuple[dict, _NodeLog]:
    """March ``states`` together until fewer than ``MIN_BATCH`` remain.

    The stages run over the rows of the tableau: stage i's argument is
    ``Y + H * (_A[i] . K[:i])`` and the solution and error sums are
    ``[_B; _E] . K``, each dot started from zero and summed left to right.

    Drops from ``states`` the members that fail or hit their guard, and
    leaves each survivor's state where its scalar loop resumes.  Returns the
    attempt counts of the members that reached their end, and the nodes of
    every member, without y''.
    """
    rtol, atol, max_step = _RTOL, _ATOL, _MAX_STEP
    idx = np.array(sorted(states), dtype=np.intp)
    log = _NodeLog(1 + 2 * len(states[idx[0]].y))
    log.add(idx, np.array([[states[i].t, *states[i].y, *states[i].k0] for i in idx], dtype=_LD).T)
    col = lambda name: np.array([getattr(states[i], name) for i in idx], dtype=_LD)
    T0, TEND, T, H = col("t0"), col("t_end"), col("t"), col("h")
    Y, K0, C = col("y").T, col("k0").T, col("comp").T
    checkpoint = _MAX_ATTEMPTS // 10
    attempts = 0
    finished: dict[int, int] = {}
    hit = np.zeros(len(idx), dtype=bool)
    fun = None

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
            fun, guard = batch(idx)
            K = np.empty((7, *Y.shape), dtype=_LD)  # the stage values
            stages = K.reshape(7, -1)
        attempts += 1
        K[0] = K0
        for i in range(1, 7):
            K[i] = fun(Y + H * np.dot(_ROWS[i], stages[:i]).reshape(Y.shape))
        # The solution and error sums at once: row 0 takes _B, row 1 _E.
        incr, err = H * np.dot(_BE, stages).reshape(2, *Y.shape)
        V = Y + (incr - C)
        X = err / (atol + rtol * np.maximum(abs(Y), abs(V)))
        err_norm = np.sqrt(sum(X * X) / len(X)).astype(float)
        acc = err_norm <= 1.0

        C = np.where(acc, (V - Y) - (incr - C), C)
        T = np.where(acc, T + H, T)
        Y = np.where(acc, V, Y)
        K0 = np.where(acc, K[6], K0)
        if acc.any():
            block = np.concatenate([T[None], Y, K0])
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
