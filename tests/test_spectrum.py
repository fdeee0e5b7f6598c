"""Eigenvalue solver checks.

Three closed-form anchors make the discretization fully testable:

* constant warp (critical radius): the Schroedinger potential vanishes and
  beta1 = (pi/L)^2 exactly on any interval of length L;
* r = cosh(s) with n = 3: U = 1 identically, so beta1 = 1 + (pi/L)^2 on any
  interval of length L, independent of position;
* the flat ball r = s with n = 3: U = 0, so beta1 = (pi/L)^2.

The structural predictions (zero mode on a half-period, strict monotonicity
under domain inclusion, sign by anchor phase, weighted integral identity)
are then checked on oscillatory profiles.
"""

import math

import numpy as np
import pytest

from warpcrit import (
    DegenerateInitial,
    GridTooCoarse,
    InvalidRegime,
    OdeParams,
    OutOfGrid,
    RangeError,
    integrate_profile,
    rk45,
    solve_potential,
    space_form_profile,
    spectrum,
)
from warpcrit.profiles import find_roots
from warpcrit.serialize import record_dict
from warpcrit.spectrum import (
    _coherent_verdict,
    eigenvalue_at_resolution,
    first_dirichlet_eigenvalue,
    identity_residual,
    verify_eigenvalue_signs,
)

POS = OdeParams(n=3, R=6.0, a=1.0)


@pytest.fixture(scope="module")
def osc_min():
    prof = integrate_profile(POS, 0.8, 8.0)
    return solve_potential(prof, 0.1)


@pytest.fixture(scope="module")
def cosh_profile():
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=0.0), 1.0, 4.0)
    return solve_potential(prof, 1.0)


# ----------------------------------------------------------------------
# Closed-form eigenvalues
# ----------------------------------------------------------------------


def test_constant_profile_exact_eigenvalue():
    # r0 = (n(n-1)a/R)^{1/n} = 1 gives the constant solution; U = 0 and
    # beta1 on length L is exactly (pi/L)^2.
    prof = integrate_profile(POS, 1.0, 4.0)
    assert prof.constant_solution
    res = first_dirichlet_eigenvalue(prof, (-1.0, 1.0))
    want = (math.pi / 2.0) ** 2
    err = abs(res.beta1 - want)
    print(f"constant: beta1={res.beta1:.12g} exact={want:.12g} err={err:.3e}")
    assert err < 1e-8, "extrapolated eigenvalue must hit the exact value"
    assert err < res.error_bound
    # gamma1 = (n-1) beta - R = 2 (pi/2)^2 - 6 < 0 on this interval.
    assert res.sign == "NEGATIVE"
    assert abs(res.gamma1 - (2.0 * want - 6.0)) < 2e-8
    assert abs(res.gamma1_reduced - (want - 3.0)) < 1e-8
    assert abs(res.gamma1_display - (2.0 * want - 3.0)) < 2e-8


def test_cosh_profile_position_independent(cosh_profile):
    # n = 3 makes U = r''/r = 1, so beta1 = 1 + (pi/L)^2 wherever the
    # interval sits.
    want = 1.0 + (math.pi / 2.0) ** 2
    for iv in ((-1.0, 1.0), (0.3, 2.3), (-2.5, -0.5)):
        res = first_dirichlet_eigenvalue(cosh_profile, iv)
        err = abs(res.beta1 - want)
        print(f"cosh {iv}: beta1={res.beta1:.12g} err={err:.3e}")
        assert err < 1e-8


def test_flat_ball_eigenvalue():
    prof = space_form_profile(0, 1.0, 3.0)
    res = first_dirichlet_eigenvalue(prof, (0.0, 2.0))
    want = (math.pi / 2.0) ** 2
    print(f"flat ball: beta1={res.beta1:.12g} err={abs(res.beta1 - want):.3e}")
    assert abs(res.beta1 - want) < 1e-8
    # R = 0: all three conventions coincide with (n-1) beta or beta.
    assert res.gamma1 == pytest.approx(2.0 * res.beta1)


# ----------------------------------------------------------------------
# Zero mode on a half-period
# ----------------------------------------------------------------------


def test_zero_mode(osc_min):
    roots = find_roots(osc_min)
    s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
    res = first_dirichlet_eigenvalue(osc_min, (0.0, s1))
    print(f"zero mode: gamma1={res.gamma1:.3e} bound={res.error_bound:.3e}")
    assert res.sign == "ZERO"
    assert abs(res.gamma1) <= res.error_bound


def test_zero_mode_convergence_order(osc_min):
    roots = find_roots(osc_min)
    s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
    gammas = []
    for num in (200, 400, 800):
        beta, _, _ = eigenvalue_at_resolution(osc_min, (0.0, s1), num)
        gammas.append(2.0 * beta - 6.0)
    orders = [
        math.log2(abs(gammas[i]) / abs(gammas[i + 1])) for i in range(2)
    ]
    print(f"gamma sequence {gammas}, orders {orders}")
    assert all(o > 1.9 for o in orders), "zero mode must converge at order 2"


def test_zero_mode_eigenvector_matches_rp(osc_min):
    roots = find_roots(osc_min)
    s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
    # fine level of num=500 puts h at s1/1000
    _, nodes, phi = eigenvalue_at_resolution(osc_min, (0.0, s1), 1000)
    rp = np.asarray(osc_min.sample(nodes).rp, dtype=float)
    rp = rp / rp[np.argmax(np.abs(rp))]
    dev = float(np.max(np.abs(phi - rp)))
    print(f"eigenvector vs r': max dev = {dev:.3e}")
    assert dev <= 1e-4


# ----------------------------------------------------------------------
# Monotonicity, Rayleigh, verdict bands
# ----------------------------------------------------------------------


def test_domain_monotonicity(osc_min):
    g = [
        first_dirichlet_eigenvalue(osc_min, iv).gamma1
        for iv in ((-0.4, 0.4), (-0.9, 0.9), (-1.6, 1.6))
    ]
    print(f"nested gammas: {g}")
    assert g[0] > g[1] > g[2], "enlarging the domain must lower gamma1"


def test_tiny_interval_positive(osc_min):
    res = first_dirichlet_eigenvalue(osc_min, (-0.1, 0.1))
    assert res.sign == "POSITIVE"
    assert res.gamma1 > 100.0


def test_rayleigh_consistency(osc_min):
    beta, nodes, phi = eigenvalue_at_resolution(osc_min, (-1.0, 1.0), 512)
    h = 2.0 / 512
    # The symmetrized eigenvector psi = r^((n-1)/2) phi, up to scale, and the
    # Rayleigh quotient of the tridiagonal matrix at it.
    v = osc_min.sample(nodes)
    psi = phi * np.asarray(v.r, dtype=float) ** ((osc_min.params.n - 1) / 2.0)
    u = np.asarray(spectrum._schroedinger_potential(osc_min.params, v.r, v.rp), dtype=float)
    ray = float(
        (psi @ ((2.0 / h**2 + u) * psi) - 2.0 / h**2 * float(psi[1:] @ psi[:-1])) / (psi @ psi)
    )
    tol = 1e-12 * (2.0 / h**2)
    print(f"beta={beta:.15g} rayleigh={ray:.15g} tol={tol:.1e}")
    assert abs(beta - ray) < tol, "eigenvalue must equal its Rayleigh quotient"


def test_verdict_band_logic():
    assert _coherent_verdict(0.5, 0.6, 0.4, 0.01) == "POSITIVE"
    assert _coherent_verdict(-0.5, -0.6, -0.4, 0.01) == "NEGATIVE"
    assert _coherent_verdict(1e-12, 1e-3, -1e-3, 1e-2) == "ZERO"
    with pytest.raises(GridTooCoarse):
        _coherent_verdict(0.5, 0.4, -0.3, 0.01)


# ----------------------------------------------------------------------
# Structural sign report
# ----------------------------------------------------------------------


def test_sign_report_min_phase():
    report = verify_eigenvalue_signs(POS, 0.8, 0.1)
    print(
        f"min phase: zero={report.zero_mode.gamma1:.2e} "
        f"enc={report.enclosing.gamma1:.4g} matched={report.matched.gamma1:.4g} "
        f"quot={report.quotient.gamma1:.4g} identity={report.identity_residual:.3e}"
    )
    assert report.phase == "min"
    assert report.expected_matched_sign == "POSITIVE"
    assert report.consistent
    assert report.quotient is not None
    assert report.identity_residual < 1e-6
    assert report.matched.gamma1 > 3.0 * report.matched.error_bound


def test_sign_report_max_phase():
    report = verify_eigenvalue_signs(POS, 1.3, 0.1)
    print(
        f"max phase: matched={report.matched.gamma1:.4g} "
        f"identity={report.identity_residual:.3e}"
    )
    assert report.phase == "max"
    assert report.expected_matched_sign == "NEGATIVE"
    assert report.consistent
    assert report.quotient is None
    assert report.identity_residual < 1e-6
    assert report.matched.gamma1 < -3.0 * report.matched.error_bound


def test_report_serializes():
    report = verify_eigenvalue_signs(POS, 0.8, 0.0, num=256)
    d = record_dict(report)
    assert d["zero_mode"]["sign"] == "ZERO"
    assert set(d["matched"]) == {
        "gamma1", "error_bound", "sign", "h", "interval", "beta1",
        "gamma1_reduced", "gamma1_display",
    }


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------


def test_interval_validation(osc_min):
    with pytest.raises(RangeError):
        first_dirichlet_eigenvalue(osc_min, (1.0, 1.0))
    with pytest.raises(OutOfGrid):
        first_dirichlet_eigenvalue(osc_min, (-1.0, 30.0))
    with pytest.raises(RangeError):
        eigenvalue_at_resolution(osc_min, (-1.0, 1.0), 4)


@pytest.mark.parametrize("interval", [(-1e-9, 7e-9), (-1e-9, 1e-9)])
def test_nodes_at_a_pole_are_refused(interval):
    # The window check admits a left end up to 1e-9 (1 + s_max) below s_min,
    # so on a pole-anchored space form an interior node can sit at r <= 0.
    prof = space_form_profile(1, 1.0, 1.0)
    with pytest.raises(RangeError, match="degenerate radius r = 0"):
        eigenvalue_at_resolution(prof, interval, 8)


def test_step_bound_is_checked_before_any_solve(osc_min, monkeypatch):
    # A width of 1e-12 over 64 segments is far above the bound.  From 1e-75
    # down the tridiagonal solver fails, and 1/h^2 itself overflows from
    # 1e-155 and divides by zero from 1e-300.
    beta, _, _ = eigenvalue_at_resolution(osc_min, (0.0, 1e-12), 64)
    assert math.isclose(beta, (math.pi / 1e-12) ** 2, rel_tol=1e-3)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the step")

    monkeypatch.setattr(spectrum, "eigh_tridiagonal", no_solve)
    for width in (1e-75, 1e-140, 1e-155, 1e-300):
        with pytest.raises(RangeError, match="too short for 64 segments"):
            eigenvalue_at_resolution(osc_min, (0.0, width), 64)


def test_num_bound_is_checked_before_any_solve(osc_min, monkeypatch):
    # 2 num = 1,000,002 segments is over the bound; the solve at num alone
    # (500,001) would be allowed, so it must never start.
    def no_solve(*args):
        raise AssertionError("solved before checking num")

    monkeypatch.setattr(spectrum, "eigenvalue_at_resolution", no_solve)
    with pytest.raises(RangeError, match="at most 500000"):
        first_dirichlet_eigenvalue(osc_min, (0.1, 0.5), num=500_001)
    with pytest.raises(RangeError, match="at most 500000"):
        identity_residual(osc_min, (0.1, 0.5), num=500_001)


def test_verify_requires_oscillatory_regime():
    with pytest.raises(InvalidRegime):
        verify_eigenvalue_signs(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 0.0)
    with pytest.raises(DegenerateInitial):
        verify_eigenvalue_signs(POS, 1.0, 0.0)


def test_identity_on_symmetric_interval(osc_min):
    # On (-theta, theta) the potential is even and positive, so the identity
    # holds there too with gamma_red > 0.
    theta = osc_min.theta
    prof = solve_potential(osc_min, 0.0)
    resid = identity_residual(prof, (-theta, theta))
    print(f"identity on quotient interval: {resid:.3e}")
    assert resid < 1e-6


def test_identity_needs_a_potential(monkeypatch):
    # Without a potential lam is undefined; the residual used to come out nan.
    def no_solve(*args):
        raise AssertionError("solved a profile without a potential")

    monkeypatch.setattr(spectrum, "eigenvalue_at_resolution", no_solve)
    with pytest.raises(InvalidRegime, match="needs a profile with a potential"):
        identity_residual(integrate_profile(POS, 0.8, 6.0), (-0.5, 0.5), num=64)


# ----------------------------------------------------------------------
# One solve per eigenproblem
# ----------------------------------------------------------------------


def test_sign_report_solves_each_eigenproblem_once(monkeypatch):
    solves, sizes = [], []
    solve, eigh = spectrum.eigenvalue_at_resolution, spectrum.eigh_tridiagonal

    def counted_solve(profile, interval, num):
        solves.append((tuple(interval), num))
        return solve(profile, interval, num)

    def counted_eigh(diag, off, **kwargs):
        sizes.append(len(diag))
        return eigh(diag, off, **kwargs)

    monkeypatch.setattr(spectrum, "eigenvalue_at_resolution", counted_solve)
    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_eigh)
    report = verify_eigenvalue_signs(POS, 0.8, 0.1, num=64)
    # Four intervals (zero mode, enclosing, matched, quotient) at 64 and 128.
    assert report.quotient is not None
    assert len(solves) == len(set(solves)) == 8
    assert sorted(sizes) == [63] * 4 + [127] * 4


def test_one_solve_samples_the_profile_once(osc_min, monkeypatch):
    points = []
    call = rk45.DenseSolution.__call__

    def counted_call(self, t):
        points.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(rk45.DenseSolution, "__call__", counted_call)
    eigenvalue_at_resolution(osc_min, (0.1, 0.9), 64)
    assert points == [63]


def test_sign_report_matches_the_public_calls():
    # The report derives the matched eigenvalue and the identity from one
    # pair of solves; the public functions solve it on their own.
    report = verify_eigenvalue_signs(POS, 0.8, 0.1, num=64)
    prof = solve_potential(integrate_profile(POS, 0.8, 12.0), 0.1)
    interval = report.matched.interval
    matched = first_dirichlet_eigenvalue(prof, interval, num=64)
    assert record_dict(matched) == record_dict(report.matched)
    assert np.array_equal(matched.nodes, report.matched.nodes)
    assert np.array_equal(matched.eigenvector, report.matched.eigenvector)
    assert identity_residual(prof, interval, num=64) == report.identity_residual
