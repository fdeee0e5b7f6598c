"""Oracles and invariants for the radial profile integrator.

The closed-form values below were derived by hand from the radial ODE
r'' = a r^(1-n) - c2 r and its first integral, independently of the
implementation, and are frozen: if one of these fails, fix the code,
not the constant.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from warpcrit import (
    DegenerateInitial,
    InvalidRegime,
    NonPositiveRadius,
    OdeParams,
    OutOfGrid,
    RangeError,
    conserved_quantity,
    critical_radius,
    find_roots,
    first_dirichlet_eigenvalue,
    integrate_profile,
    profile_from_arrays,
    solve_potential,
    solve_radius_for_kappa0,
    space_form_profile,
)
from warpcrit.profiles import _node_roots

# Parameter samples covering every sign regime (n, R, a).
REGIMES = [
    OdeParams(n=3, R=0.0, a=1.0),
    OdeParams(n=3, R=-6.0, a=1.0),
    OdeParams(n=3, R=6.0, a=1.0),
    OdeParams(n=4, R=-12.0, a=2.0),
    OdeParams(n=5, R=20.0, a=0.5),
]


def _anchor(params):
    # Keep clear of the constant-solution radius when R > 0.
    return 0.8 if params.R > 0 else 1.0


# ----------------------------------------------------------------------
# Frozen closed-form oracles
# ----------------------------------------------------------------------


def test_oracle_conserved_value_flat_case():
    # n=3, R=0, a=1, r0=1: kappa0 = 0 + 0 + (2*1/1)*1 = 2.
    params = OdeParams(n=3, R=0.0, a=1.0)
    prof = integrate_profile(params, r0=1.0, s_max=5.0)
    print(f"kappa0 = {prof.kappa0!r}")
    assert prof.kappa0 == pytest.approx(2.0, abs=1e-14), "kappa0 oracle (=2) failed"


def test_oracle_central_potential_value_flat_case():
    # n=3, R=0, a=1, r0=1: r''(0) = a = 1, lam0(0) = r0/((n-1) r''(0)) = 1/2.
    params = OdeParams(n=3, R=0.0, a=1.0)
    prof = integrate_profile(params, r0=1.0, s_max=5.0)
    comp = solve_potential(prof, 0.0)
    lam_at_0 = float(comp.sample(0.0).lam[0])
    print(f"lam(0) = {lam_at_0!r}")
    assert lam_at_0 == pytest.approx(0.5, abs=1e-16), "central potential oracle (=1/2) failed"


def test_oracle_constant_solution_detected():
    # n=3, R=6, a=1: critical radius (n(n-1)a/R)^(1/n) = 1; the anchor r0=1
    # gives the constant solution r = 1, which admits no potential.
    params = OdeParams(n=3, R=6.0, a=1.0)
    assert critical_radius(params) == pytest.approx(1.0, abs=1e-15)
    prof = integrate_profile(params, r0=1.0, s_max=3.0)
    assert prof.constant_solution, "constant solution not detected at critical radius"
    assert np.all(prof.rp == 0.0)
    assert np.all(prof.r == 1.0)
    with pytest.raises(DegenerateInitial):
        solve_potential(prof, 0.0)


def test_oracle_cosh_profile():
    # n=3, R=-6 (c2=-1), a=0, r0=1: the ODE is r'' = r, so r = cosh s,
    # kappa0 = (r')^2 - r^2 = -1, and lam0 solves lam'' - lam = -1/2 with
    # lam0(0) = r0/((n-1) r''(0)) = 1/2, lam0'(0)=0, hence lam0 = 1/2 exactly.
    params = OdeParams(n=3, R=-6.0, a=0.0)
    prof = integrate_profile(params, r0=1.0, s_max=6.0)
    assert prof.kappa0 == pytest.approx(-1.0, abs=1e-15)
    s = np.linspace(-6.0, 6.0, 241)
    vals = prof.sample(s)
    err_r = np.max(
        np.abs(np.asarray(vals.r, dtype=float) - np.cosh(s)) / np.cosh(s)
    )
    comp = solve_potential(prof, 0.0)
    lam = np.asarray(comp.sample(s).lam, dtype=float)
    err_lam = np.max(np.abs(lam - 0.5))
    print(f"max rel|r - cosh| = {err_r:.3e}, max|lam0 - 1/2| = {err_lam:.3e}")
    assert err_r < 1e-12, f"cosh oracle failed: {err_r:.3e}"
    assert err_lam < 5e-13, f"constant lam0 oracle failed: {err_lam:.3e}"
    # With C != 0: lam = 1/2 + C sinh s, root at s = asinh(-1/(2C)).
    comp2 = solve_potential(prof, 1.0)
    root_expect = math.asinh(-0.5)
    lam_at = float(comp2.sample(root_expect).lam[0])
    assert abs(lam_at) < 1e-12, f"potential family oracle failed: lam={lam_at:.3e}"


@pytest.mark.parametrize("kappa", [-1, 0, 1])
def test_oracle_space_forms(kappa):
    # Closed-form pole-anchored profiles; all have kappa0 = 1.
    s_max = 1.2 if kappa == 1 else 2.5
    prof = space_form_profile(kappa, lambda_p=1.0, s_max=s_max, n=3)
    assert prof.kappa0 == 1.0
    assert prof.degenerate_origin
    s = np.linspace(1e-6, s_max, 97)
    vals = prof.sample(s)
    r = np.asarray(vals.r, dtype=float)
    expect = {1: np.sin(s), 0: s, -1: np.sinh(s)}[kappa]
    assert np.max(np.abs(r - expect)) < 1e-14
    # Conservation holds exactly on the closed form.
    cons = np.asarray(
        conserved_quantity(prof.params, vals.r, vals.rp), dtype=float
    )
    assert np.max(np.abs(cons - 1.0)) < 1e-15, "space-form conservation failed"


def test_oracle_space_form_potential_roots():
    # kappa=0, n=3, lam(0)=1: lam = 1 - s^2/4, root at s = 2.
    prof = space_form_profile(0, lambda_p=1.0, s_max=3.0, n=3)
    lam_at_2 = float(prof.sample(2.0).lam[0])
    assert abs(lam_at_2) < 1e-15, f"flat ball root oracle failed: {lam_at_2:.3e}"
    # kappa=1, n=3, lam(0)=0: lam = (1/2) cos s - 1/2, value -1/2 at s=pi/2.
    prof1 = space_form_profile(1, lambda_p=0.0, s_max=3.0, n=3)
    lam_mid = float(prof1.sample(math.pi / 2).lam[0])
    assert lam_mid == pytest.approx(-0.5, abs=1e-15)


def test_oracle_kappa0_anchoring():
    # R=0, n=3, a=1/2: F(r0)=(2a)/r0 = kappa0 -> r0 = 1 for kappa0 = 1.
    params = OdeParams(n=3, R=0.0, a=0.5)
    r0 = solve_radius_for_kappa0(params, 1.0)
    assert r0 == pytest.approx(1.0, abs=1e-12)
    # R>0 two-branch inversion brackets the constant radius.
    params2 = OdeParams(n=3, R=6.0, a=1.0)
    lo = solve_radius_for_kappa0(params2, 4.0, branch="min")
    hi = solve_radius_for_kappa0(params2, 4.0, branch="max")
    print(f"branches: {lo:.12g} < 1 < {hi:.12g}")
    assert lo < 1.0 < hi
    for r0 in (lo, hi):
        k = float(conserved_quantity(params2, r0, 0.0))
        assert k == pytest.approx(4.0, abs=1e-10), f"anchoring failed at r0={r0}"


# ----------------------------------------------------------------------
# Structural invariants (deterministic sweeps)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("params", REGIMES)
def test_conservation_along_flow(params):
    s_max = 4.0 if params.R > 0 else 8.0
    prof = integrate_profile(params, r0=_anchor(params), s_max=s_max)
    cons = np.asarray(
        conserved_quantity(params, prof.r, prof.rp), dtype=float
    )
    drift = np.max(np.abs(cons - prof.kappa0))
    rel = drift / max(abs(prof.kappa0), 1.0)
    print(f"{params}: conservation drift {rel:.3e} over {prof.grid.size} nodes")
    assert rel < 1e-11, f"conserved quantity drifts: {rel:.3e}"


@pytest.mark.parametrize("params", REGIMES)
def test_parity_is_exact(params):
    s_max = 4.0 if params.R > 0 else 8.0
    prof = solve_potential(
        integrate_profile(params, r0=_anchor(params), s_max=s_max), 0.7
    )
    s = np.linspace(0.1, s_max - 0.1, 37)
    plus = prof.sample(s)
    minus = prof.sample(-s)
    # r, lam0 even; r', lam0' odd -- bitwise, by mirrored evaluation.
    assert np.array_equal(plus.r, minus.r), "r not exactly even"
    assert np.array_equal(plus.rp, -minus.rp), "r' not exactly odd"
    b_plus = prof.sample_base(s)
    b_minus = prof.sample_base(-s)
    assert np.array_equal(b_plus[2], b_minus[2]), "lam0 not exactly even"
    assert np.array_equal(b_plus[3], -b_minus[3]), "lam0' not exactly odd"
    # Recovering lam0 from the two family members agrees to rounding: the
    # final combination lam0 +- C r' is the only inexact step.
    lam0_p = plus.lam - 0.7 * plus.rp
    lam0_m = minus.lam - 0.7 * minus.rp
    scale = np.abs(plus.lam) + 0.7 * np.abs(plus.rp)
    gap = np.max(np.abs(lam0_p - lam0_m) / np.maximum(scale, 1.0))
    eps = float(np.finfo(np.longdouble).eps)
    print(f"lam0 recovery gap = {float(gap):.3e} ({float(gap)/eps:.1f} ulp)")
    assert gap < 8 * eps, "even potential branch recovery exceeds rounding"


@pytest.mark.parametrize("params", REGIMES)
def test_first_order_compatibility(params):
    # r' lam' - r'' lam + r/(n-1) = 0 for every member of the family.
    from warpcrit import warp_accel

    s_max = 4.0 if params.R > 0 else 8.0
    base = integrate_profile(params, r0=_anchor(params), s_max=s_max)
    for C in (-1.0, 0.0, 0.4):
        prof = solve_potential(base, C)
        racc = np.asarray(warp_accel(params, prof.r), dtype=float)
        r = np.asarray(prof.r, dtype=float)
        rp = np.asarray(prof.rp, dtype=float)
        lam = np.asarray(prof.lam, dtype=float)
        lamp = np.asarray(prof.lamp, dtype=float)
        resid = rp * lamp - racc * lam + r / (params.n - 1)
        rel = np.max(np.abs(resid)) / max(np.max(r), 1.0)
        print(f"{params} C={C}: compatibility residual {rel:.3e}")
        assert rel < 1e-10, f"first-order compatibility violated: {rel:.3e}"


def test_positive_curvature_periodicity():
    params = OdeParams(n=3, R=6.0, a=1.0)
    prof = integrate_profile(params, r0=0.8, s_max=8.0)
    roots = find_roots(prof)
    assert roots.period is not None, "no period detected for R > 0"
    T = roots.period
    s = np.linspace(0.0, 8.0 - T, 53)
    r1 = np.asarray(prof.sample(s).r, dtype=float)
    r2 = np.asarray(prof.sample(s + T).r, dtype=float)
    err = np.max(np.abs(r1 - r2))
    print(f"period T = {T:.12g}, max|r(s+T)-r(s)| = {err:.3e}")
    assert err < 1e-10, f"warp factor not T-periodic: {err:.3e}"
    # Anchor at r0 < critical radius is a minimum; alternating kinds.
    kinds = roots.rp_kinds
    assert "min" in kinds and "max" in kinds
    mid = [k for t, k in zip(roots.rp_roots, kinds) if abs(t) < 1e-10]
    assert mid == ["min"], f"anchor kind wrong: {mid}"


def test_mirrored_roots_are_polished_on_the_positive_side(monkeypatch):
    # r' is odd on the mirrored grid: find_roots bisects s > 0 only and
    # mirrors, so the negative roots are exact negatives of the positive ones.
    prof = integrate_profile(OdeParams(n=3, R=6.0, a=1.0), r0=0.8, s_max=8.0)
    sample = prof.sample
    seen = []

    def spy(s):
        seen.append(float(np.min(s)))
        return sample(s)

    monkeypatch.setattr(prof, "sample", spy)
    roots = find_roots(prof)
    assert roots.rp_roots.size >= 7  # several periods
    assert seen and min(seen) >= 0.0
    assert np.array_equal(roots.rp_roots, -roots.rp_roots[::-1])
    assert roots.rp_kinds == roots.rp_kinds[::-1]


def test_min_max_phase_by_anchor_radius():
    params = OdeParams(n=3, R=6.0, a=1.0)
    r_star = critical_radius(params)
    prof_min = integrate_profile(params, r0=0.8 * r_star, s_max=4.0)
    prof_max = integrate_profile(params, r0=1.3 * r_star, s_max=4.0)
    assert find_roots(prof_min).rp_kinds[_anchor_index(prof_min)] == "min"
    assert find_roots(prof_max).rp_kinds[_anchor_index(prof_max)] == "max"


def _anchor_index(prof):
    roots = find_roots(prof)
    return int(np.argmin(np.abs(roots.rp_roots)))


def test_theta_root_of_even_branch():
    # theta is the unique positive root of lam0; check sign change around it
    # and that it is independent of C (route-internal quantity).
    params = OdeParams(n=3, R=0.0, a=1.0)
    prof = integrate_profile(params, r0=1.0, s_max=6.0)
    th = prof.theta
    comp = solve_potential(prof, 0.0)
    before = float(comp.sample(th - 1e-3).lam[0])
    exactly = float(comp.sample(th).lam[0])
    after = float(comp.sample(th + 1e-3).lam[0])
    print(f"theta = {th:.12g}, lam0(theta) = {exactly:.3e}")
    assert before * after < 0, "no sign change around theta"
    assert abs(exactly) < 1e-12, f"lam0(theta) not zero: {exactly:.3e}"


def test_degenerate_window_and_errors():
    params = OdeParams(n=3, R=0.0, a=1.0)
    prof = integrate_profile(params, r0=1.0, s_max=2.0)
    with pytest.raises(OutOfGrid):
        prof.sample(2.5)
    with pytest.raises(OutOfGrid):
        prof.sample(-2.5)
    with pytest.raises(RangeError):
        integrate_profile(params, r0=-1.0, s_max=2.0)
    with pytest.raises(RangeError):
        integrate_profile(params, r0=1.0, s_max=0.0)
    with pytest.raises(RangeError):
        OdeParams(n=2, R=0.0, a=1.0)
    with pytest.raises(RangeError):
        space_form_profile(1, 0.0, s_max=3.5)


def test_radius_collapse_raises():
    # Plain negative-mass flat case: r'' = a r^-2 with a < 0 pulls r to 0.
    params = OdeParams(n=3, R=0.0, a=-1.0)
    with pytest.raises(NonPositiveRadius):
        integrate_profile(params, r0=1.0, s_max=5.0)


def test_grid_arrays_match_dense_samples():
    params = OdeParams(n=4, R=-12.0, a=2.0)
    prof = solve_potential(integrate_profile(params, r0=1.0, s_max=5.0), 0.3)
    vals = prof.sample(prof.grid)
    assert np.array_equal(np.asarray(vals.r), np.asarray(prof.r))
    assert np.array_equal(np.asarray(vals.lam), np.asarray(prof.lam))


# ----------------------------------------------------------------------
# Root engine
# ----------------------------------------------------------------------


def test_node_roots_on_uneven_nodes():
    # Roots 0.25, 1, pi and 5.5; node 1.0 is an exact zero.
    f = lambda x: (x - 0.25) * (x - 1.0) * (x - math.pi) * (x - 5.5)
    xs = np.array([0.0, 0.1, 0.45, 1.0, 1.7, 2.2, 3.0, 3.3, 4.1, 5.2, 6.0])
    vals = np.array([f(x) for x in xs])
    assert vals[3] == 0.0
    # 0.25 and 5.5 sit in the segments straddling lo and hi but outside
    # [lo, hi]: bracketed, then dropped.
    got = _node_roots(xs, vals, f, 1e-13, lo=0.3, hi=5.4)
    assert len(got) == 2
    assert got[0] == 1.0
    assert abs(got[1] - math.pi) < 1e-12
    # pi lies between lo = 3.1 and the first node inside the window.
    got = _node_roots(xs, vals, f, 1e-13, lo=3.1, hi=6.0)
    assert len(got) == 2
    assert abs(got[0] - math.pi) < 1e-12 and abs(got[1] - 5.5) < 1e-12
    # No window: every root.
    got = _node_roots(xs, vals, f, 1e-13)
    assert np.allclose(got, [0.25, 1.0, math.pi, 5.5], rtol=0.0, atol=1e-12)


def _fine_scan_roots(g, lo, hi, step=1e-4):
    """Sign changes of g on a uniform scan, refined by Brent's method."""
    xs = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1) * step
    vals = g(xs)
    out = list(xs[vals == 0.0])
    f = lambda x: float(g(np.array([x]))[0])
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        out.append(brentq(f, xs[i], xs[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return np.sort(out)


@pytest.mark.parametrize(
    "params, r0, s_max",
    [
        (OdeParams(n=3, R=-6.0, a=1.0), 1.0, 4.0),
        (OdeParams(n=3, R=0.0, a=1.0), 1.0, 6.0),
        (OdeParams(n=3, R=6.0, a=1.0), 0.8, 6.0),
    ],
    ids=["negative_R", "zero_R", "positive_R"],
)
def test_find_roots_matches_fine_scan(params, r0, s_max):
    base = integrate_profile(params, r0=r0, s_max=s_max)
    for C in (-1.0, 0.0, 0.4):
        prof = solve_potential(base, C)
        roots = find_roots(prof)
        rp = lambda s: np.asarray(prof.sample(s).rp, dtype=float)
        lam = lambda s: np.asarray(prof.sample(s).lam, dtype=float)
        for got, g in ((roots.rp_roots, rp), (roots.lam_roots, lam)):
            want = _fine_scan_roots(g, -s_max, s_max)
            print(f"{params} C={C}: {len(got)} roots, scan {len(want)}")
            assert len(got) == len(want), (got, want)
            assert np.max(np.abs(got - want), initial=0.0) < 1e-11, (got, want)


@pytest.mark.parametrize(
    "params", [OdeParams(n=3, R=6.0, a=1.0), OdeParams(n=3, R=-6.0, a=1.0)]
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda p: p.sample([0.1]),
        find_roots,
        lambda p: p.theta,
        lambda p: first_dirichlet_eigenvalue(p, (-0.5, 0.5), num=64),
    ],
    ids=["sample", "find_roots", "theta", "first_dirichlet_eigenvalue"],
)
def test_grid_backed_profile_refuses_off_grid_evaluation(params, entry):
    # A profile rebuilt from its stored columns has no dense interpolant.
    prof = solve_potential(integrate_profile(params, 0.8, 2.0), 0.1)
    names = ("s", "r", "rp", "lam", "lamp")
    cols = dict(zip(names, (prof.grid, prof.r, prof.rp, prof.lam, prof.lamp)))
    with pytest.raises(InvalidRegime, match="no dense base"):
        entry(profile_from_arrays(params, cols))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))

