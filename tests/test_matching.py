"""Oracles and invariants for boundary matching and domain assembly.

Closed-form oracles below come from the a = 0 hyperbolic profile
(r = cosh s), where every matching integral is elementary:
int_s^inf cosh/sinh^2 = 1/sinh(s).
"""

import gc
import math
import weakref

import numpy as np
import pytest

from warpcrit import (
    DivergentIntegral,
    FiberMismatch,
    InvalidRegime,
    NoFreeInvolution,
    OdeParams,
    OutOfRange,
    SingularEndpoint,
    VerificationError,
    integrate_profile,
    solve_potential,
)
from warpcrit import matching
from warpcrit.matching import (
    _GL_ORDER,
    _SUBDIV,
    FiberSpec,
    _base_panels,
    _get_table,
    _panel_quad,
    _step_basis,
    _subdivided,
    _table_nodes,
    build_quotient_domain,
    build_two_boundary_domain,
    c_threshold,
    classify_roots,
    cumulative_integral,
    exclusion_zeta,
    improper_integral,
    lhopital_product,
    match_boundary,
    schwarzschild_form,
)
from warpcrit.profiles import find_roots
from warpcrit.rk45 import DenseSolution, hermite_quintic
from warpcrit.support import gauss_legendre

LD = np.longdouble


@pytest.fixture(scope="module")
def cosh_profile():
    # r = cosh s exactly (n=3, R=-6, a=0, r0=1).
    return integrate_profile(OdeParams(n=3, R=-6.0, a=0.0), r0=1.0, s_max=8.0)


@pytest.fixture(scope="module")
def flat_profile():
    return integrate_profile(OdeParams(n=3, R=0.0, a=1.0), r0=1.0, s_max=8.0)


@pytest.fixture(scope="module")
def neg_profile():
    return integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), r0=1.0, s_max=8.0)


@pytest.fixture(scope="module")
def pos_profile():
    return integrate_profile(OdeParams(n=3, R=6.0, a=1.0), r0=0.8, s_max=8.0)


# ----------------------------------------------------------------------
# Frozen improper-integral oracles (hyperbolic closed form)
# ----------------------------------------------------------------------


def test_oracle_improper_integral_cosh(cosh_profile):
    # int_1^inf cosh/sinh^2 d tau = 1/sinh(1)
    expect = 1.0 / math.sinh(1.0)
    got = improper_integral(cosh_profile, 1.0)
    print(f"improper integral = {got!r}, closed form = {expect!r}")
    assert got == pytest.approx(expect, rel=1e-10), "cosh improper oracle failed"


def test_oracle_tail_product_limit(cosh_profile):
    # r'(s)/(n-1) * int_s^inf r/(r')^2 = 1/2 for every s > 0 here,
    # matching the limit n/(-R) = 3/6.
    for s in (1.0, 2.0, 4.0):
        prod = lhopital_product(cosh_profile, s)
        assert prod == pytest.approx(0.5, abs=1e-10), f"product at s={s}: {prod!r}"


def test_tail_truncation_doubling(neg_profile):
    base = improper_integral(neg_profile, 1.0)
    far = improper_integral(neg_profile, 1.0, r_truncation=4000.0)
    rel = abs(far - base) / abs(base)
    print(f"tail doubling relative change = {rel:.3e}")
    assert rel <= 1e-8, f"truncation doubling moved the integral by {rel:.3e}"


def test_improper_integral_error_paths(flat_profile, neg_profile, pos_profile):
    with pytest.raises(DivergentIntegral):
        improper_integral(flat_profile, 1.0)
    with pytest.raises(DivergentIntegral):
        improper_integral(pos_profile, 0.5)
    with pytest.raises(SingularEndpoint):
        improper_integral(neg_profile, -1.0, 1.0)  # anchor inside
    with pytest.raises(SingularEndpoint):
        improper_integral(neg_profile, 0.0, 1.0)  # anchor at endpoint
    s1 = 2.0  # generic span inside the window is fine
    assert improper_integral(neg_profile, 1.0, s1) > 0.0


def test_finite_quadrature_against_step_halved_trapezoid(flat_profile):
    # Independent oracle: high-resolution trapezoid + Richardson on the same
    # dense output, for int_theta^{2 theta} r/(r')^2.
    theta = flat_profile.theta
    lo, hi = theta, 2.0 * theta

    def trapz(npts):
        xs = np.linspace(lo, hi, npts)
        v = flat_profile.sample_base(xs)
        f = np.asarray(v[0] / v[1] ** 2, dtype=float)
        return np.trapezoid(f, np.asarray(xs, dtype=float))

    t1 = trapz(20001)
    t2 = trapz(40001)
    oracle = (4.0 * t2 - t1) / 3.0
    got = improper_integral(flat_profile, lo, hi)
    rel = abs(got - oracle) / abs(oracle)
    print(f"panel quadrature {got!r} vs trapezoid oracle {oracle!r} (rel {rel:.3e})")
    assert rel <= 1e-8, f"quadrature disagrees with step-halving oracle: {rel:.3e}"


def test_even_integrand_symmetric_ranges(neg_profile):
    # int_{-b}^{-c} equals int_c^b for 0 < c < b (r even, r' odd squared).
    a1 = improper_integral(neg_profile, -3.0, -1.0)
    a2 = improper_integral(neg_profile, 1.0, 3.0)
    assert a1 == pytest.approx(a2, rel=1e-13)


# ----------------------------------------------------------------------
# Step-aligned matching table against the dense-output route
# ----------------------------------------------------------------------


def _ulps(got, ref) -> float:
    """Largest |got - ref| in float64 units in the last place of ref."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.spacing(np.abs(ref))))


@pytest.mark.parametrize("name", ["neg_profile", "flat_profile", "pos_profile"])
def test_step_table_matches_dense_route(name, request):
    # Reference: every sub-panel sampled through Profile.sample_base.
    profile = request.getfixturevalue(name)
    table = _get_table(profile)
    nodes, limit = _table_nodes(profile)
    fine = _subdivided(nodes)
    panels = _panel_quad(profile.sample_base, fine)
    prefix = np.concatenate([[0.0], np.cumsum(panels, dtype=LD)]).astype(float)
    offset = prefix[np.argmin(np.abs(fine - LD(profile.theta)))]
    assert table.limit == limit
    np.testing.assert_array_equal(table.xs, fine.astype(float))
    assert _ulps(table.prefix, prefix) <= 4
    assert _ulps(table.theta_offset, offset) <= 4
    if name == "pos_profile":
        assert limit == find_roots(profile).s1 < profile.s_max


def test_step_basis_rows_are_hermite_quintic():
    basis = _step_basis()
    assert basis.shape == (_SUBDIV * _GL_ORDER, 6) and basis.dtype == LD
    # The fractions are the points _panel_quad samples on a unit step.
    gx, _ = gauss_legendre(_GL_ORDER)
    fine = _subdivided(np.array([0.0, 1.0], dtype=LD))
    tau = (fine[:-1, None] + np.diff(fine)[:, None] * gx[None, :]).ravel()
    data = np.random.default_rng(0).standard_normal(6).astype(LD)
    np.testing.assert_array_equal(basis @ data, hermite_quintic(tau, *data))


def test_partial_steps_take_the_dense_route(neg_profile):
    # Both range ends fall inside steps, and the mirrored half s < 0 has no
    # base steps: those panels must be the dense route's, bit for bit.
    ts, grid = neg_profile._base.ts, neg_profile.grid
    lo = -(ts[5] + 0.3 * (ts[6] - ts[5]))
    hi = ts[40] + 0.6 * (ts[41] - ts[40])
    nodes = np.concatenate([[lo], grid[(grid > lo) & (grid < hi)], [hi]])
    got = _base_panels(neg_profile, nodes).reshape(-1, _SUBDIV)
    ref = _panel_quad(neg_profile.sample_base, _subdivided(nodes)).reshape(-1, _SUBDIV)
    mirrored = nodes[:-1] < 0
    assert mirrored.sum() == 6
    np.testing.assert_array_equal(got[mirrored], ref[mirrored])
    np.testing.assert_array_equal(got[-1], ref[-1])
    assert _ulps(got, ref) <= 4


def test_table_samples_dense_output_only_at_theta(monkeypatch):
    profile = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), r0=1.0, s_max=9.0)
    profile.theta, find_roots(profile)  # their root searches use dense output
    points = []
    call = DenseSolution.__call__

    def counting(self, t):
        points.append(np.size(t))
        return call(self, t)

    monkeypatch.setattr(DenseSolution, "__call__", counting)
    _get_table(profile)
    # The two partial steps on either side of theta, 4 x 20 points each;
    # the dense route sampled 80 points in each of the full steps as well.
    assert profile._base.ts.size > 1000
    assert sum(points) <= 2 * _SUBDIV * _GL_ORDER


# ----------------------------------------------------------------------
# Matching: fixed point, consistency, monotonicity
# ----------------------------------------------------------------------


def test_cumulative_zero_at_theta(flat_profile):
    g = cumulative_integral(flat_profile, flat_profile.theta)
    assert abs(g) < 1e-12, f"G(theta) = {g!r}"


@pytest.mark.parametrize("name", ["flat_profile", "neg_profile", "pos_profile"])
def test_matching_fixed_point(name, request):
    prof = request.getfixturevalue(name)
    theta = prof.theta
    res = match_boundary(prof, theta)
    print(f"{name}: theta={theta:.12g}, zeta2={res.zeta2:.12g}, C={res.C:.3e}")
    assert res.zeta2 == pytest.approx(-theta, abs=1e-10), "fixed point violated"
    assert abs(res.C) < 1e-10


def test_matched_profile_is_freed_by_reference_counting():
    # The cached matching table holds no reference back to its profile, so a
    # matched profile (and its dense base) goes as soon as the last name
    # does, not at the garbage collector's next full pass.
    prof = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), r0=1.0, s_max=4.0)
    match_boundary(prof, 1.5 * prof.theta)
    exclusion_zeta(prof)
    assert prof._gtable is not None
    ref = weakref.ref(prof)
    gc.disable()
    try:
        del prof
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["flat_profile", "neg_profile", "pos_profile"])
def test_matching_two_routes_agree(name, request):
    prof = request.getfixturevalue(name)
    theta = prof.theta
    zeta1 = 1.5 * theta
    res = match_boundary(prof, zeta1)
    # Direct-root route and integral route locate the same partner.
    assert res.discrepancy <= 1e-8 * max(1.0, abs(res.zeta2)), (
        f"routes disagree by {res.discrepancy:.3e}"
    )
    # The matched potential really vanishes at both ends.
    comp = solve_potential(prof, res.C)
    lam1 = float(comp.sample(zeta1).lam[0])
    lam2 = float(comp.sample(res.zeta2).lam[0])
    print(f"{name}: lam(zeta1)={lam1:.3e}, lam(zeta2)={lam2:.3e}")
    scale = max(1.0, float(np.max(np.abs(np.asarray(comp.lam, dtype=float)))))
    assert abs(lam1) <= 1e-9 * scale
    assert abs(lam2) <= 1e-9 * scale
    # Matching relation between the two signed integrals.
    assert res.integral_right == pytest.approx(res.integral_left, rel=1e-8, abs=1e-10)


def test_matching_monotone_pairing(neg_profile):
    # Pushing the outer boundary out pulls the matched boundary in: |zeta2|
    # is strictly decreasing in zeta1 (the signed value increases toward 0).
    theta = neg_profile.theta
    zetas = np.linspace(0.8 * theta, 2.5 * theta, 9)
    partners = [match_boundary(neg_profile, z).zeta2 for z in zetas]
    print("zeta2 sequence:", [f"{p:.6g}" for p in partners])
    assert np.all(np.diff(np.abs(partners)) < 0), (
        "|zeta2| is not strictly decreasing in zeta1"
    )
    assert all(p < 0 for p in partners)


def test_matching_range_validation(pos_profile, neg_profile):
    from warpcrit.profiles import find_roots

    roots = find_roots(pos_profile).rp_roots
    s1 = float(roots[roots > 1e-12].min())
    with pytest.raises(OutOfRange):
        match_boundary(pos_profile, s1 + 0.1)
    with pytest.raises(OutOfRange):
        match_boundary(pos_profile, -1.0)
    # R < 0: inside the exclusion radius there is no compact partner.
    zeta_min = exclusion_zeta(neg_profile)
    with pytest.raises(OutOfRange):
        match_boundary(neg_profile, 0.9 * zeta_min)


def test_exclusion_and_partner_bound(neg_profile):
    zeta_min = exclusion_zeta(neg_profile)
    theta = neg_profile.theta
    assert 0.0 < zeta_min < theta
    for zeta1 in (1.01 * zeta_min, theta, 2.0 * theta):
        res = match_boundary(neg_profile, zeta1)
        assert res.zeta2 < -zeta_min + 1e-9, (
            f"partner {res.zeta2:.6g} not below -zeta = {-zeta_min:.6g}"
        )


# ----------------------------------------------------------------------
# Root classification
# ----------------------------------------------------------------------


def test_classification_negative_curvature(neg_profile):
    c0 = c_threshold(neg_profile)
    assert c0 > 0.0
    for C, case, n_roots in [(0.0, "c", 2), (2.0 * c0, "b", 1), (-2.0 * c0, "a", 1)]:
        comp = solve_potential(neg_profile, C)
        rep = classify_roots(comp)
        roots = rep.roots.lam_roots
        print(f"C={C:+.4f}: case {rep.case}, roots {roots}")
        assert rep.case == case
        assert roots.size == n_roots, f"expected {n_roots} roots, got {roots.size}"
        if case == "b":
            assert roots[0] < 0.0, "case b root must be negative"
        if case == "a":
            assert roots[0] > 0.0, "case a root must be positive"


def test_classification_zero_curvature(flat_profile):
    for C in (-2.0, 0.0, 3.0):
        rep = classify_roots(solve_potential(flat_profile, C))
        assert rep.regime == "zero" and rep.case is None
        assert rep.roots.lam_roots.size == 2, "R=0 must always have two roots"


def test_classification_positive_curvature(pos_profile):
    rep = classify_roots(solve_potential(pos_profile, 0.3))
    assert rep.regime == "positive"
    assert rep.phase == "min"
    assert rep.lam_at_anchor > 0.0
    # One potential root between each pair of consecutive critical points.
    assert all(c == 1 for c in rep.roots_per_interval), rep.roots_per_interval
    # Max phase: anchor above the constant radius, potential negative at 0.
    prof_max = integrate_profile(OdeParams(n=3, R=6.0, a=1.0), r0=1.3, s_max=8.0)
    rep_max = classify_roots(solve_potential(prof_max, 0.0))
    assert rep_max.phase == "max"
    assert rep_max.lam_at_anchor < 0.0


# ----------------------------------------------------------------------
# Domain builders
# ----------------------------------------------------------------------


def test_two_boundary_domain_structure(flat_profile):
    theta = flat_profile.theta
    dom = build_two_boundary_domain(
        OdeParams(n=3, R=0.0, a=1.0), r0=1.0, zeta1=1.5 * theta, s_max=8.0
    )
    assert dom.boundary_components == 2
    assert dom.quotient is None
    z2, z1 = dom.interval
    assert z2 < 0.0 < z1
    # Boundary faces carry outward data; H * dlam/dnu = -1 at exact roots.
    for face in dom.boundary:
        print(f"{face.side}: r={face.radius:.6g}, H={face.mean_curvature:.6g}, "
              f"dlam={face.normal_derivative:.6g}, product={face.product:.12g}")
        assert face.product == pytest.approx(-1.0, abs=1e-8)
        assert face.radius > 0.0
    # Interior positivity enforced by construction: sample a few points.
    xs = np.linspace(z2 + 1e-3, z1 - 1e-3, 101)
    lam = np.asarray(dom.profile.sample(xs).lam, dtype=float)
    assert np.min(lam) > 0.0


def test_two_boundary_domain_rejects_einstein_case():
    with pytest.raises(InvalidRegime):
        build_two_boundary_domain(OdeParams(n=3, R=-6.0, a=0.0), 1.0, 1.0)


def test_two_boundary_domain_fiber_mismatch():
    params = OdeParams(n=3, R=0.0, a=1.0)
    bad = FiberSpec(dim=2, kappa0=3.14)
    with pytest.raises(FiberMismatch):
        build_two_boundary_domain(params, 1.0, 1.8, s_max=8.0, fiber=bad)
    with pytest.raises(FiberMismatch):
        build_two_boundary_domain(
            params, 1.0, 1.8, s_max=8.0, fiber=FiberSpec(dim=3, kappa0=2.0)
        )


def test_max_phase_domain_rejected():
    # Anchoring at a maximum of r makes the potential negative inside.
    with pytest.raises(InvalidRegime):
        build_two_boundary_domain(OdeParams(n=3, R=6.0, a=1.0), r0=1.3, zeta1=0.5, s_max=8.0)


_FLAT = OdeParams(n=3, R=0.0, a=1.0)
_MAX_PHASE = OdeParams(n=3, R=6.0, a=1.0)  # r0 = 1.3 anchors at a maximum of r
_BUILDERS = {
    "two_boundary": lambda params, r0, **kw: build_two_boundary_domain(
        params, r0, 0.5 if params.R > 0 else 1.8, s_max=8.0, **kw
    ),
    "quotient": lambda params, r0, **kw: build_quotient_domain(params, r0, s_max=8.0, **kw),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_positivity_is_checked_before_the_fiber(build):
    # A max-phase anchor and a wrong fiber curvature: positivity fails first.
    bad = FiberSpec(dim=2, kappa0=9.0, symmetry=True)
    with pytest.raises(InvalidRegime, match="not positive inside"):
        build(_MAX_PHASE, 1.3, fiber=bad)


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_faces_come_from_one_boundary_sample(build):
    dom = build(_FLAT, 1.0)
    lo, hi = dom.interval
    v = dom.profile.sample([lo, hi])
    n = dom.profile.params.n
    sides = (("left", -1.0, lo), ("right", 1.0, hi))
    for k, (face, (side, orient, s)) in enumerate(zip(dom.boundary, sides)):
        r = float(v.r[k])
        assert (face.side, face.s, face.radius) == (side, s, r)
        assert face.mean_curvature == orient * (n - 1) * float(v.rp[k]) / r
        assert face.normal_derivative == orient * float(v.lamp[k])


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_boundary_root_check_names_both_ends(build, monkeypatch):
    # With no tolerance the rounding residue of lam at the roots fails.
    monkeypatch.setattr(matching, "_LAMBDA_ROOT_TOL", 0.0)
    with pytest.raises(VerificationError, match=r"lam\(zeta1\) = .*, lam\(zeta2\) = "):
        build(_FLAT, 1.0)


def test_quotient_domain_structure():
    dom = build_quotient_domain(OdeParams(n=3, R=0.0, a=1.0), r0=1.0, s_max=8.0)
    z2, z1 = dom.interval
    assert dom.boundary_components == 1
    assert dom.quotient is not None and dom.quotient["free"]
    assert z2 == pytest.approx(-z1, abs=1e-14)
    # Identified locus is the critical anchor.
    assert float(dom.profile.sample(0.0).rp[0]) == 0.0
    # Potential vanishes at both identified faces.
    for face in dom.boundary:
        lam = float(dom.profile.sample(face.s).lam[0])
        assert abs(lam) < 1e-10


def test_quotient_requires_free_involution():
    # kappa0 < 0 here: the synthesized fiber has no involution flag.
    params = OdeParams(n=3, R=-6.0, a=0.25)
    prof = integrate_profile(params, 2.0, 4.0)
    assert prof.kappa0 < 0.0
    with pytest.raises(NoFreeInvolution):
        build_quotient_domain(params, r0=2.0, s_max=8.0)
    # Explicit fiber without the flag is also rejected.
    with pytest.raises(NoFreeInvolution):
        build_quotient_domain(
            OdeParams(n=3, R=0.0, a=1.0),
            r0=1.0,
            s_max=8.0,
            fiber=FiberSpec(dim=2, kappa0=2.0, symmetry=False),
        )


def test_domain_serialization_roundtrip(flat_profile):
    dom = build_quotient_domain(OdeParams(n=3, R=0.0, a=1.0), r0=1.0, s_max=8.0)
    d = dom.to_dict()
    assert d["boundary_components"] == 1
    assert d["fiber"]["kappa0"] == pytest.approx(2.0)
    assert len(d["boundary"]) == 2
    assert d["quotient"]["identification"].startswith("(s, x)")


# ----------------------------------------------------------------------
# Static radial chart
# ----------------------------------------------------------------------


def test_oracle_schwarzschild_horizon():
    chart = schwarzschild_form(OdeParams(n=3, R=0.0, a=0.5))
    print(f"horizon: {chart.horizon!r}, poly route: {chart.horizon_from_polynomial!r}")
    assert chart.horizon == pytest.approx(1.0, abs=1e-10)
    assert chart.horizon_from_polynomial == pytest.approx(1.0, abs=1e-10)
    assert chart.mass == 0.5
    assert chart.exclusion is None
    # Denominator is 1 - 1/r.
    assert chart.w(2.0) == pytest.approx(0.5, abs=1e-14)
    assert chart.coefficient(2.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(OutOfRange):
        chart.coefficient(0.9)


def test_schwarzschild_negative_curvature_has_exclusion():
    chart = schwarzschild_form(OdeParams(n=3, R=-6.0, a=0.5))
    assert chart.exclusion is not None and chart.exclusion > 0.0
    # Horizon agrees across routes and equals the profile anchor.
    assert chart.horizon == pytest.approx(chart.horizon_from_polynomial, abs=1e-10)
    assert chart.profile.r0 == pytest.approx(chart.horizon, abs=1e-14)
    # Matched pair through the chart helper.
    res = chart.match(chart.profile.theta)
    assert res.zeta2 == pytest.approx(-chart.profile.theta, abs=1e-10)


def test_schwarzschild_regime_validation():
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=6.0, a=1.0))
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=0.0, a=-1.0))
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=0.0, a=0.5), kappa0=2.0)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
