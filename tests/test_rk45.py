"""The longdouble Dormand-Prince core: step control, guard, work budget,
dense output, and the lockstep batch against the scalar loop."""

import math

import numpy as np
import pytest

from warpcrit import (
    OdeParams,
    StepFailure,
    critical_radius,
    integrate_profile,
    potential_accel,
    rk45,
    warp_accel,
)
from warpcrit import profiles
from warpcrit.profiles import _rhs_functions

# r'' = -r: n = 3, R = 6 gives c2 = 1, and a = 0 drops the r^(1-n) term.
_OSCILLATOR = OdeParams(n=3, R=6.0, a=0.0)
_Y0 = (1.0, 0.0, 0.0, 0.0)


def _reference_integrate(fun, d2fun, y0, t_span, rtol, atol, max_step):
    """The same method on small longdouble arrays, one matrix product per
    weighted sum, as the reference the scalar core must match bit for bit."""
    LD = np.longdouble
    A = [np.array(row, dtype=LD) for row in rk45._A]
    B = np.array(rk45._B, dtype=LD)
    E = np.array(rk45._E, dtype=LD)
    t, t_end = LD(t_span[0]), LD(t_span[1])
    y = np.array(y0, dtype=LD)
    rtol, atol, max_step = LD(rtol), LD(atol), LD(max_step)
    k = np.empty((7, y.size), dtype=LD)
    k1 = fun(y)
    nfev = 1
    ts, ys, dys, d2ys = [t], [y.copy()], [k1.copy()], [d2fun(y)]
    h = min(LD(1e-4), max_step, t_end - t)
    comp = np.zeros_like(y)
    while t < t_end:
        h = min(h, t_end - t, max_step)
        k[0] = k1
        for i in range(1, 7):
            acc = A[i][0] * k[0]
            for j in range(1, i):
                acc = acc + A[i][j] * k[j]
            k[i] = fun(y + h * acc)
        nfev += 6
        incr = h * (B @ k)
        err = h * (E @ k)
        y_new = y + (incr - comp)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            comp = (y_new - y) - (incr - comp)
            t = t + h
            y = y_new
            k1 = k[6].copy()
            ts.append(t)
            ys.append(y.copy())
            dys.append(k1.copy())
            d2ys.append(d2fun(y))
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
        h = h * LD(factor)
    arrays = (np.array(v, dtype=LD) for v in (ts, ys, dys, d2ys))
    return rk45.DenseSolution(*arrays, nfev=nfev)


def _accuracy(monkeypatch, rtol: float, atol: float) -> None:
    """Run the integrator at another accuracy than its one setting."""
    monkeypatch.setattr(rk45, "_RTOL", np.longdouble(rtol))
    monkeypatch.setattr(rk45, "_ATOL", np.longdouble(atol))


def _rejected(sol) -> int:
    """Rejected attempts: one FSAL evaluation, then six per attempt."""
    return (sol.nfev - 1) // 6 - (len(sol.ts) - 1)


def test_rejected_attempt_keeps_first_stage():
    # The retry after a rejection must start from f(y), not from the
    # rejected trial's derivative; reusing the latter cascades into dozens
    # of 0.2x step cuts on this profile.
    params = OdeParams(n=4, R=6.0, a=1.0)
    prof = integrate_profile(params, 0.8 * critical_radius(params), 12.0)
    assert _rejected(prof._base) <= 10


def test_matches_array_reference_bit_for_bit():
    params = OdeParams(n=4, R=6.0, a=1.0)
    y0 = np.array([0.8 * critical_radius(params), 0.0, 0.0, 0.0], dtype=np.longdouble)
    y0[2] = y0[0] / (3 * warp_accel(params, y0[0]))
    fun, d2fun = _rhs_functions(params._fields)

    def array_fun(y):
        r, rp, lam, lamp = y
        return np.array(
            [rp, warp_accel(params, r), lamp, potential_accel(params, r, lam)],
            dtype=np.longdouble,
        )

    def array_d2fun(y):
        return np.array(d2fun(tuple(y)), dtype=np.longdouble)

    sol, _ = rk45.integrate(fun, d2fun, y0, (0.0, 4.0))
    ref = _reference_integrate(
        array_fun, array_d2fun, y0, (0.0, 4.0), rk45._RTOL, rk45._ATOL, rk45._MAX_STEP
    )
    assert _rejected(ref) > 0, "the comparison must cover rejected attempts"
    for name in ("ts", "ys", "dys", "d2ys"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
    assert sol.nfev == ref.nfev


def test_span_must_increase():
    fun, d2fun = _rhs_functions(_OSCILLATOR._fields)
    for span in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            rk45.integrate(fun, d2fun, _Y0, span)


def test_guard_stops_early():
    fun, d2fun = _rhs_functions(_OSCILLATOR._fields)
    sol, hit = rk45.integrate(fun, d2fun, _Y0, (0.0, 3.0), guard=lambda y: y[0] <= 0.5)
    assert hit
    # r = cos s first reaches 0.5 at s = pi/3; the guard fires on that step.
    assert float(sol.ys[-1, 0]) <= 0.5 < float(sol.ys[-2, 0])
    assert math.pi / 3 <= sol.t_end < math.pi / 3 + 0.1
    full, hit = rk45.integrate(fun, d2fun, _Y0, (0.0, 3.0))
    assert not hit and full.t_end == 3.0


def test_dense_solution_reproduces_nodes():
    base = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 3.0)._base
    assert np.array_equal(base(base.ts), base.ys)
    assert np.array_equal(base(base.ts[7]), base.ys[7])
    assert (base.nfev - 1) % 6 == 0


def test_one_point_query_matches_the_array_path():
    # A 0-d or one-element query takes a scalar path; it must give the array
    # path's row bit for bit, at nodes, inside steps, at t_end and clipped
    # beyond both ends.
    LD = np.longdouble
    base = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 3.0)._base
    ts = base.ts
    i = np.random.default_rng(1).integers(0, len(ts) - 1, 40)
    frac = np.random.default_rng(2).random(40).astype(LD) / 3
    inside = ts[i] + (ts[i + 1] - ts[i]) * frac
    points = [ts[0], ts[7], *inside, ts[-1], ts[-1] + LD(0.5), ts[0] - LD(0.5), LD(-0.0)]
    rows = base(np.array(points, dtype=LD))
    dim = base.ys.shape[1]
    for t, want in zip(points, rows):
        for query, shape in ((t, (dim,)), (np.asarray(t), (dim,)),
                             (np.array([t]), (1, dim)), ([t], (1, dim))):
            got = base(query)
            assert got.shape == shape and got.dtype == LD
            assert np.array_equal(got.reshape(dim), want), (t, query)
            assert np.array_equal(np.signbit(got.reshape(dim)), np.signbit(want)), (t, query)


def test_longdouble_dot_sums_left_to_right_from_zero():
    # The batch loop forms each stage sum as one np.dot over a tableau row;
    # the scalar loop writes the same sums out, left to right from zero.
    # The two agree bit for bit only while numpy's longdouble dot has no
    # BLAS, blocked or pairwise path.
    LD = np.longdouble
    rng = np.random.default_rng(0)

    def chain(row, block):
        acc = LD(0)
        for j in range(len(row)):
            acc = acc + row[j] * block[j]
        return acc

    for k in range(1, 8):
        rows = [rng.standard_normal(k).astype(LD) / 3 for _ in range(30)]
        rows += [r for r in (*rk45._ROWS, *rk45._BE) if len(r) == k]
        for row in rows:
            scale = LD(10) ** rng.integers(-9, 10, (k, 1))
            block = rng.standard_normal((k, 40)).astype(LD) / 7 * scale
            block[:, 0] = -0.0  # an all-zero sum keeps the sign of its zero start
            got, want = np.dot(row, block), chain(row, block)
            assert np.array_equal(got, want), (k, row)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (k, row)
    # The solution and error sums: one (2, 7) by (7, m) product.
    got = np.dot(rk45._BE, block)
    for i in range(2):
        assert np.array_equal(got[i], chain(rk45._BE[i], block))


def test_step_budget_exhausted(monkeypatch):
    # 40 steps of max_step would do, but the tolerance needs far more.
    monkeypatch.setattr(rk45, "_MAX_ATTEMPTS", 50)
    fun, d2fun = _rhs_functions(_OSCILLATOR._fields)
    with pytest.raises(StepFailure, match="budget"):
        rk45.integrate(fun, d2fun, _Y0, (0.0, 4.0))


def test_window_beyond_budget_fails_at_once():
    fun, d2fun = _rhs_functions(_OSCILLATOR._fields)
    with pytest.raises(StepFailure, match="needs more than"):
        rk45.integrate(fun, d2fun, _Y0, (0.0, 1e6))


def _counting(fun):
    """``fun`` wrapped to append to the returned list on every call."""
    calls = []

    def counted(y):
        calls.append(None)
        return fun(y)

    return counted, calls


def test_hopeless_window_fails_at_a_tenth_of_the_budget(monkeypatch):
    # At rtol 1e-13 the oscillator takes about 520 attempts per 4 units of s,
    # so 40 units need about 5,200, over a budget of 1,000.  After 100
    # attempts the pace shows it, and the call stops there instead of using
    # up the budget.
    _accuracy(monkeypatch, 1e-13, 1e-16)
    monkeypatch.setattr(rk45, "_MAX_ATTEMPTS", 1000)
    fun, d2fun = _rhs_functions(_OSCILLATOR._fields)
    counted, calls = _counting(fun)
    with pytest.raises(StepFailure, match="budget"):
        rk45.integrate(counted, d2fun, _Y0, (0.0, 40.0))
    assert len(calls) == 1 + 6 * 100
    # 4 units fit the same budget, and the early check lets them through.
    sol, _ = rk45.integrate(fun, d2fun, _Y0, (0.0, 4.0))
    assert sol.t_end == 4.0


def test_budget_caps_a_window_that_slows_down(monkeypatch):
    # x'' = -exp(2 t) x, with t carried as the first component: the first
    # tenth of the budget covers more than a tenth of the window, but the
    # frequency keeps growing and the whole budget runs out.
    LD = np.longdouble

    def fun(y):
        t, x, v = y
        return LD(1), v, -np.exp(2 * t) * x

    def d2fun(y):
        t, x, v = y
        w2 = np.exp(2 * t)
        return LD(0), -w2 * x, -w2 * (2 * x + v)

    _accuracy(monkeypatch, 1e-8, 1e-10)
    monkeypatch.setattr(rk45, "_MAX_ATTEMPTS", 1000)
    counted, calls = _counting(fun)
    with pytest.raises(StepFailure, match="budget of 1000 attempts exhausted"):
        rk45.integrate(counted, d2fun, (0.0, 1.0, 0.0), (0.0, 6.0))
    assert len(calls) == 1 + 6 * 1000


# ----------------------------------------------------------------------
# The lockstep batch against the scalar loop
# ----------------------------------------------------------------------


def _scalar(member):
    """What ``integrate`` gives for one member: its solution, or None where it
    raises StepFailure or reports a guard hit."""
    fun, d2fun, guard, y0, span = member
    try:
        sol, hit = rk45.integrate(fun, d2fun, y0, span, guard=guard)
    except StepFailure:
        return None
    return None if hit else sol


def _assert_same(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        for name in ("ts", "ys", "dys", "d2ys"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).flags.c_contiguous, name
        assert got.nfev == want.nfev


def test_batch_matches_scalar_bit_for_bit():
    # Nine members over n and R, with windows of nine lengths, so that they
    # leave the batch one by one and the last two finish on the scalar loop.
    cases = [
        (OdeParams(n=n, R=R, a=1.0), 0.8, 1.0 + 0.25 * k)
        for k, (n, R) in enumerate((n, R) for n in (3, 4, 5) for R in (-6.0, 0.0, 6.0))
    ]
    members, batch = profiles._batch_members(cases)
    got = rk45.integrate_batch(members, batch)
    for member, sol in zip(members, got):
        _assert_same(sol, _scalar(member))
    assert all(sol is not None for sol in got)
    assert _rejected(got[-1]) > 0, "the comparison must cover rejected attempts"


def test_batch_drops_guard_hits_and_failures(monkeypatch):
    # Member 1 collapses (a < 0) and hits its radius guard; member 3 would
    # need more than the budget over its long window and fails at the
    # budget's checkpoint.  Both leave while four members march.  Member 5's
    # window needs more than the budget in steps of _MAX_STEP, so it fails
    # in _start and never joins the march.  The others still match.
    monkeypatch.setattr(rk45, "_MAX_ATTEMPTS", 4000)
    cases = [
        (OdeParams(n=3, R=-6.0, a=1.0), 1.0, 2.0),
        (OdeParams(n=3, R=6.0, a=-8.0), 1.0, 3.0),
        (OdeParams(n=4, R=6.0, a=1.0), 0.8, 2.5),
        (OdeParams(n=5, R=6.0, a=2.0), 0.5, 40.0),
        (OdeParams(n=3, R=0.0, a=1.0), 1.0, 3.0),
        (OdeParams(n=4, R=6.0, a=1.0), 0.8, 5e4),
    ]
    members, batch = profiles._batch_members(cases)
    fun, d2fun, guard, y0, span = members[3]
    with pytest.raises(StepFailure, match="budget"):
        rk45.integrate(fun, d2fun, y0, span, guard=guard)
    fun, d2fun, guard, y0, span = members[5]
    with pytest.raises(StepFailure, match="needs more than"):
        rk45.integrate(fun, d2fun, y0, span, guard=guard)
    got = rk45.integrate_batch(members, batch)
    assert [sol is None for sol in got] == [False, True, False, True, False, True]
    for member, sol in zip(members, got):
        _assert_same(sol, _scalar(member))


def _resumed(monkeypatch) -> list:
    """The attempt counts at which survivors of a batch resume on _march."""
    resumed = []
    march = rk45._march

    def counted(fun, d2fun, guard, state):
        resumed.append(state.attempts)
        return march(fun, d2fun, guard, state)

    monkeypatch.setattr(rk45, "_march", counted)
    return resumed


def test_batch_hands_survivors_to_the_scalar_loop(monkeypatch):
    # Three members: once the shortest ends, the other two resume on _march.
    resumed = _resumed(monkeypatch)
    cases = [
        (OdeParams(n=3, R=6.0, a=1.0), 0.8, 0.5),
        (OdeParams(n=4, R=-6.0, a=1.0), 1.0, 2.0),
        (OdeParams(n=3, R=0.0, a=2.0), 1.0, 3.0),
    ]
    members, batch = profiles._batch_members(cases)
    got = rk45.integrate_batch(members, batch)
    assert len(resumed) == 2 and resumed[0] == resumed[1] > 0
    for member, sol in zip(members, got):
        _assert_same(sol, _scalar(member))


def test_batch_survivor_fails_on_the_scalar_loop(monkeypatch):
    # The shortest member ends at attempt 246; both survivors resume on
    # _march there, and the long one fails at the pace checkpoint (attempt
    # 400 of a budget of 4000) on the scalar loop.
    monkeypatch.setattr(rk45, "_MAX_ATTEMPTS", 4000)
    resumed = _resumed(monkeypatch)
    cases = [
        (OdeParams(n=3, R=-6.0, a=1.0), 1.0, 0.5),
        (OdeParams(n=4, R=0.0, a=1.0), 1.0, 0.6),
        (OdeParams(n=5, R=6.0, a=2.0), 0.5, 40.0),
    ]
    members, batch = profiles._batch_members(cases)
    got = rk45.integrate_batch(members, batch)
    assert resumed == [246, 246]
    assert [sol is None for sol in got] == [False, False, True]
    fun, d2fun, guard, y0, span = members[2]
    with pytest.raises(StepFailure, match="would run out: the first 400"):
        rk45.integrate(fun, d2fun, y0, span, guard=guard)
    for member, sol in zip(members, got):
        _assert_same(sol, _scalar(member))


def test_small_batch_runs_on_the_scalar_loop():
    cases = [(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 1.0), (OdeParams(n=4, R=0.0, a=1.0), 1.0, 1.5)]
    members, batch = profiles._batch_members(cases)

    def no_batch(idx):
        raise AssertionError("fewer than MIN_BATCH members must not batch")

    got = rk45.integrate_batch(members, no_batch)
    for member, sol in zip(members, got):
        _assert_same(sol, _scalar(member))
