"""Curvature evaluation and verification checks.

Anchored against closed-form geometries whose curvature pairs are known
exactly: the flat ball (everything vanishes), the hyperbolic Einstein
profile r = cosh(s) (constant Ricci eigenvalues), and the anchor values of
the generic one-parameter family at its even point.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from warpcrit import (
    AllPointsMasked,
    CriticalLevel,
    FiberMismatch,
    InvalidRegime,
    OdeParams,
    OutOfGrid,
    integrate_profile,
    solve_potential,
    space_form_profile,
)
from warpcrit import curvature
from warpcrit.curvature import (
    curvature_at,
    curvature_samples,
    level_set_geometry,
    verify_conformally_flat,
    verify_critical,
)
from warpcrit.matching import FiberSpec
from warpcrit.serialize import record_dict

REGIMES = [
    OdeParams(n=3, R=0.0, a=1.0),
    OdeParams(n=3, R=-6.0, a=1.0),
    OdeParams(n=3, R=6.0, a=1.0),
    OdeParams(n=4, R=0.0, a=0.5),
    OdeParams(n=5, R=20.0, a=2.0),
]


def _anchor(params):
    return 0.8 if params.R > 0 else 1.0


def _complete(params, C=0.4, s_max=3.0):
    prof = integrate_profile(params, _anchor(params), s_max)
    return solve_potential(prof, C)


# ----------------------------------------------------------------------
# Closed-form oracles
# ----------------------------------------------------------------------


def test_flat_ball_is_flat():
    # r = s, lam = 1 - s^2/4: every curvature entry vanishes identically.
    prof = space_form_profile(0, 1.0, 3.0)
    t = curvature_samples(prof)
    for key in ("sec_rad", "sec_tan", "ric_ss", "ric_tan", "scal"):
        worst = float(np.max(np.abs(t[key])))
        print(f"flat ball max |{key}| = {worst:.3e}")
        assert worst < 1e-13, f"{key} should vanish on the flat ball"
    # Mean curvature of the distance sphere: H = (n-1)/s.
    c = curvature_at(prof, None, 2.0)
    assert abs(c.mean_curv - 1.0) < 1e-14, "H(s=2) must be (n-1)/s = 1"
    # Laplacian of the potential: constant -n/(n-1) = -3/2.
    assert abs(c.lap + 1.5) < 1e-14, "flat potential has lap = -3/2"


@pytest.mark.parametrize("pole", [False, True], ids=["integrated", "space_form"])
def test_curvature_samples_are_fresh_arrays(pole):
    # On the whole grid the columns reach the frame tensors uncopied; what
    # comes back must still own its memory.
    if pole:
        prof = space_form_profile(0, 1.0, 3.0)  # the pole row is sliced off
    else:
        prof = _complete(OdeParams(n=3, R=-6.0, a=1.0))
    t = curvature_samples(prof)
    assert t["s"].size == prof.grid.size - pole
    for name, values in t.items():
        for column in (prof.grid, prof.r, prof.rp, prof.lam, prof.lamp):
            assert not np.shares_memory(values, column), name


def test_generic_anchor_values():
    # n=3, R=0, a=1, r0=1: r''(0) = a = 1, kappa0 = 2a/(n-2) = 2, so at s=0
    #   ric_ss = -(n-1) r''/r = -2,   ric_tan = kappa0 - 1 = 1,   scal = 0.
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    c = curvature_at(prof, None, 0.0)
    print(f"anchor: ric_ss={c.ric_ss:.15g} ric_tan={c.ric_tan:.15g} scal={c.scal:.3e}")
    assert abs(c.ric_ss + 2.0) < 1e-14
    assert abs(c.ric_tan - 1.0) < 1e-14
    assert abs(c.scal) < 1e-14
    assert abs(c.sec_rad + 1.0) < 1e-14
    assert abs(c.sec_tan - 2.0) < 1e-14
    assert abs(c.mean_curv) < 1e-14, "even anchor is a minimal level"


def test_hyperbolic_einstein_constants():
    # r = cosh(s) with R = -6, n = 3 is Einstein: both Ricci eigenvalues -2,
    # Schouten eigenvalues kappa/2 = -1/2 everywhere.
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=0.0), 1.0, 4.0)
    prof = solve_potential(prof, 1.0)
    t = curvature_samples(prof)
    for key, want in (
        ("ric_ss", -2.0),
        ("ric_tan", -2.0),
        ("scal", -6.0),
        ("schouten_ss", -0.5),
        ("schouten_tan", -0.5),
    ):
        worst = float(np.max(np.abs(np.asarray(t[key], dtype=float) - want)))
        print(f"cosh profile max |{key} - ({want})| = {worst:.3e}")
        assert worst < 1e-11, f"{key} must be constant {want}"


def test_einstein_umbilic_cross_check():
    # For a = 0 the level sets satisfy the reduced identity exactly:
    # with lam = 1/2 + sinh(s), the umbilic factor is tanh(s) and the
    # potential route reproduces it.
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=0.0), 1.0, 4.0)
    prof = solve_potential(prof, 1.0)
    for s in (0.5, 1.0, 2.5):
        lv = level_set_geometry(prof, s)
        assert abs(lv.umbilic_factor - math.tanh(s)) < 1e-12
        assert abs(lv.grad_norm - math.cosh(s) * 1.0) < 5e-12
        assert lv.einstein_residual is not None
        print(f"s={s}: umbilic={lv.umbilic_factor:.12g} resid={lv.einstein_residual:.3e}")
        assert lv.einstein_residual < 1e-12, "potential route must match shape operator"


def test_level_set_requires_regular_value():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0), C=0.0)
    # C = 0 keeps the even symmetry, so s = 0 is a critical point.
    with pytest.raises(CriticalLevel):
        level_set_geometry(prof, 0.0)
    lv = level_set_geometry(prof, 1.0)
    assert lv.mean_curv == pytest.approx(2.0 * lv.umbilic_factor)


def test_minimal_level_with_offset_potential():
    # With C != 0 the level through the neck s = 0 is regular and minimal.
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0), C=0.7)
    lv = level_set_geometry(prof, 0.0)
    assert lv.mean_curv == 0.0, "neck level must be minimal"
    assert lv.grad_norm == pytest.approx(0.7 * 1.0, rel=1e-12), "grad = |C| r''(0)"


# ----------------------------------------------------------------------
# Internal identities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"n{p.n}_R{p.R:g}_a{p.a:g}")
def test_trace_identities_exact(params):
    prof = _complete(params)
    t = curvature_samples(prof)
    n = params.n
    scal2 = t["ric_ss"] + (n - 1) * t["ric_tan"]
    lap2 = t["hess_ss"] + (n - 1) * t["hess_tan"]
    assert np.array_equal(t["scal"], scal2), "scal must be the Ricci trace as computed"
    assert np.array_equal(t["lap"], lap2), "lap must be the Hessian trace as computed"


@pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"n{p.n}_R{p.R:g}_a{p.a:g}")
def test_gauss_curvature_identity(params):
    # scal = 2(n-1) sec_rad + (n-1)(n-2) sec_tan, assembled independently.
    prof = _complete(params)
    t = curvature_samples(prof)
    n = params.n
    gauss = 2 * (n - 1) * t["sec_rad"] + (n - 1) * (n - 2) * t["sec_tan"]
    scale = 1.0 + np.abs(t["scal"])
    worst = float(np.max(np.abs(t["scal"] - gauss) / scale))
    print(f"gauss identity worst rel = {worst:.3e}")
    assert worst < 1e-15, "sectional and Ricci routes must agree"


@pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"n{p.n}_R{p.R:g}_a{p.a:g}")
def test_verify_critical_regimes(params):
    prof = _complete(params)
    report = verify_critical(prof)
    print(
        f"crit={report.max_critical_residual:.3e} "
        f"scal={report.max_scal_deviation:.3e} weyl={report.max_weyl_residual:.3e}"
    )
    assert report.max_critical_residual < 1e-10
    assert report.max_scal_deviation < 1e-10 * (1.0 + abs(params.R))
    assert report.max_weyl_residual < 1e-8
    assert report.grid_size > 100
    if params.a == 0.0:
        assert report.max_einstein_residual is not None
    else:
        assert report.max_einstein_residual is None


def test_verify_einstein_reduction():
    prof = integrate_profile(OdeParams(n=4, R=-12.0, a=0.0), 1.0, 3.0)
    prof = solve_potential(prof, 0.3)
    report = verify_critical(prof)
    assert report.max_einstein_residual is not None
    print(f"einstein residual = {report.max_einstein_residual:.3e}")
    assert report.max_einstein_residual < 1e-11


def test_interval_restriction():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    full = verify_critical(prof)
    half = verify_critical(prof, interval=(-1.0, 1.0))
    assert half.grid_size < full.grid_size
    assert half.max_critical_residual <= full.max_critical_residual * (1 + 1e-12)


def test_space_form_pole_masked():
    # Pole-anchored profiles drop r = 0 instead of dividing by zero.
    prof = space_form_profile(1, 0.0, 2.5)
    t = curvature_samples(prof)
    assert np.all(np.isfinite(np.asarray(t["ric_tan"], dtype=float)))
    report = verify_critical(prof)
    assert report.max_critical_residual < 1e-10
    assert report.grid_size == prof.grid.size - 1


def test_curvature_without_potential():
    prof = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 2.0)
    c = curvature_at(prof, None, 0.5)
    assert math.isnan(c.hess_ss) and math.isnan(c.lap)
    assert math.isfinite(c.ric_ss)


def test_out_of_grid_sample():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0), s_max=2.0)
    with pytest.raises(OutOfGrid):
        curvature_at(prof, None, 5.0)


def test_refusals_name_their_reason():
    pole = space_form_profile(0, 1.0, 2.0)
    with pytest.raises(OutOfGrid, match="^curvature evaluation requires r > 0$"):
        curvature_at(pole, None, 0.0)
    with pytest.raises(OutOfGrid, match="^level set through the degenerate pole$"):
        level_set_geometry(pole, 0.0)
    partial = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 2.0)
    with pytest.raises(InvalidRegime, match="^verification requires a profile with a potential$"):
        verify_conformally_flat(partial)
    with pytest.raises(InvalidRegime, match="^level-set geometry requires a potential$"):
        level_set_geometry(partial, 0.5)


def test_interval_verification_reads_only_its_rows():
    # A radius past float64 outside the interval is never converted: the
    # verification of the rows inside passes under numpy's raise mode.
    prof = space_form_profile(-1, 1.0, 2.0)
    r = prof.r.copy()
    r[-1] = np.longdouble("1e400")
    forged = dataclasses.replace(prof, r=r)
    with np.errstate(over="raise"):
        report = verify_critical(forged, interval=(0.5, 1.5))
    s = prof.grid.astype(float)  # the interval is applied to the float64 grid
    assert report.grid_size == np.count_nonzero((s >= 0.5) & (s <= 1.5))
    assert report.max_critical_residual < 1e-12


def test_critical_level_reads_the_gradient_at_s_only():
    # For R < 0 the window's largest |lam'| grows like e^{sqrt(-c2) s_max}
    # (3.8e30 at s_max 72); the level through s = 1, where lam' = -0.57, is
    # regular on every window that holds it.
    params = OdeParams(n=3, R=-6.0, a=1.0)
    short, long = (solve_potential(integrate_profile(params, 1.0, s_max), 0.0)
                   for s_max in (12.0, 40.0))
    lv = level_set_geometry(long, 1.0)
    assert lv.grad_norm == pytest.approx(level_set_geometry(short, 1.0).grad_norm, rel=1e-12)
    assert lv.grad_norm == pytest.approx(0.5656, abs=1e-4)


# ----------------------------------------------------------------------
# Conformal reconstruction and masking
# ----------------------------------------------------------------------


@pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"n{p.n}_R{p.R:g}_a{p.a:g}")
def test_conformal_reconstruction(params):
    prof = _complete(params)
    worst = verify_conformally_flat(prof)
    print(f"conformal reconstruction worst = {worst:.3e}")
    assert worst < 1e-8


def test_floor_is_relative_to_evaluation_window():
    # Near a root of lam the floor must come from the window itself, not the
    # whole grid: the reconstruction stays defined (and small) arbitrarily
    # close to the zero level.
    prof = space_form_profile(0, 1.0, 3.0)  # root of lam at s = 2
    worst = verify_conformally_flat(prof, interval=(1.95, 2.05))
    print(f"near-root reconstruction worst = {worst:.3e}")
    assert worst < 1e-8


def test_all_points_masked_on_zero_potential():
    from warpcrit import profile_from_arrays

    s = np.linspace(0.5, 2.0, 50)
    cols = {
        "s": s,
        "r": s.copy(),
        "rp": np.ones_like(s),
        "lam": np.zeros_like(s),
        "lamp": np.zeros_like(s),
    }
    prof = profile_from_arrays(OdeParams(n=3, R=0.0, a=0.0), cols)
    with pytest.raises(AllPointsMasked):
        verify_conformally_flat(prof)


# ----------------------------------------------------------------------
# Fiber gate and negative controls
# ----------------------------------------------------------------------


def test_fiber_dimension_gate():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    with pytest.raises(FiberMismatch):
        verify_critical(prof, FiberSpec(dim=3, kappa0=prof.kappa0))


def test_nan_in_the_profile_fails_the_fiber_gate():
    # One NaN in r' makes the conserved-quantity residual NaN; the gate must
    # refuse it, not return a report of NaN residuals.
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    forged = copy.copy(prof)
    forged.rp = prof.rp.copy()
    forged.rp[prof.grid.size // 3] = np.nan
    with pytest.raises(FiberMismatch, match="residual nan exceeds"):
        verify_critical(forged)


@pytest.mark.parametrize("position", range(3))
def test_block_maxima_reduce_with_nan_in_any_position(position):
    # One reduction serves the gate, the lam floor and both verifiers; a NaN
    # among any block's maxima is the result, whichever quantity it is.
    block = [1.0, 2.0, 3.0]
    block[position] = math.nan
    assert math.isnan(curvature._window_max([(4.0, 5.0, 6.0), None, tuple(block)]))
    assert curvature._window_max([(4.0, 5.0, 6.0), None, (1.0, 7.0, 3.0)]) == 7.0


def test_fiber_curvature_gate():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    with pytest.raises(FiberMismatch) as err:
        verify_critical(prof, FiberSpec(dim=2, kappa0=prof.kappa0 + 1e-2))
    assert "residual" in str(err.value)


def test_perturbed_potential_fails_loudly():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    forged = copy.copy(prof)
    forged.lam = prof.lam + 1e-2 * prof.grid
    forged.lamp = prof.lamp + 1e-2
    report = verify_critical(forged)
    print(f"perturbed potential residual = {report.max_critical_residual:.3e}")
    assert report.max_critical_residual > 1e-3, "perturbation must be detected"


def test_perturbed_warp_fails_loudly():
    prof = _complete(OdeParams(n=3, R=-6.0, a=1.0))
    forged = copy.copy(prof)
    forged.rp = prof.rp * (1.0 + 1e-3)
    with pytest.raises(FiberMismatch):
        verify_critical(forged)


def test_tolerance_report_contents():
    prof = _complete(OdeParams(n=3, R=0.0, a=1.0))
    report = verify_critical(prof)
    d = record_dict(report)
    assert set(d) == {
        "max_critical_residual",
        "max_scal_deviation",
        "max_weyl_residual",
        "max_einstein_residual",
        "grid_size",
    }
