"""Oracles and invariants for boundary matching and domain assembly.

Closed-form oracles below come from the a = 0 hyperbolic profile
(r = cosh s), where every matching integral is elementary:
int_s^inf cosh/sinh^2 = 1/sinh(s).
"""

import functools
import gc
import math
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from warpcrit import (
    DivergentIntegral,
    FiberMismatch,
    InvalidRegime,
    NoFreeInvolution,
    OdeParams,
    OutOfGrid,
    OutOfRange,
    SingularEndpoint,
    VerificationError,
    integrate_profile,
    solve_potential,
    space_form_profile,
)
from warpcrit import cli, matching
from warpcrit.cli import _domain_record
from warpcrit.matching import (
    _GL_ORDER,
    _horizon_from_polynomial,
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
from warpcrit.profiles import conserved_quantity, find_roots, solve_radius_for_kappa0
from warpcrit.rk45 import DenseSolution, hermite_quintic
from warpcrit.spectrum import first_dirichlet_eigenvalue
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


def test_tail_truncation_doubling(neg_profile, monkeypatch):
    base = improper_integral(neg_profile, 1.0)
    monkeypatch.setattr(matching, "_TAIL_RADIUS", 4000.0)
    far = improper_integral(neg_profile, 1.0)
    rel = abs(far - base) / abs(base)
    print(f"tail doubling relative change = {rel:.3e}")
    assert rel <= 1e-8, f"truncation doubling moved the integral by {rel:.3e}"


def test_improper_tail_of_a_high_dimension():
    # At n = 100 the remainder term r^-(n+1) overflows in float arithmetic
    # at the truncation radius; it is then below any total and counts as 0.
    profile = integrate_profile(OdeParams(n=100, R=-6.0, a=1.0), r0=1.0, s_max=3.0)
    whole = improper_integral(profile, 1.0)
    split = improper_integral(profile, 1.0, 2.0) + improper_integral(profile, 2.0)
    assert math.isfinite(whole) and whole > 0.0
    assert whole == pytest.approx(split, rel=1e-9)


def test_improper_tail_remainder_underflow_is_an_input_error():
    # m^5 and m^7 underflow to 0 at |R| = 1e-300: the remainder estimate
    # cannot be formed, which is reported at once.
    profile = integrate_profile(OdeParams(n=3, R=-1e-300, a=1.0), r0=1.0, s_max=2.0)
    with pytest.raises(OutOfRange, match="underflows"):
        improper_integral(profile, 1.0)


@pytest.mark.parametrize("a", [1e170, 1e300], ids=["1e170", "1e300"])
def test_improper_tail_of_a_huge_mass(a):
    # At the horizon of these masses r^5 (a = 1e170), and r^(n+1) too
    # (a = 1e300), overflow in the remainder estimate; an overflowing term
    # counts as 0.  schwarzschild_form refuses these masses, whose horizon
    # kappa0 is far from 1, so only the library reaches the guards.
    params = OdeParams(n=3, R=-6.0, a=a)
    profile = integrate_profile(params, solve_radius_for_kappa0(params, 1.0), s_max=12.0)
    assert math.isfinite(c_threshold(profile))


_NO_BASE = {
    "space_form": lambda: space_form_profile(-1, lambda_p=1.0, s_max=2.0),
    # r'' = -r^-2 + r vanishes at r0 = 1: the constant solution with R < 0.
    "constant_solution": lambda: integrate_profile(OdeParams(3, -6.0, -1.0), 1.0, 2.0),
}


@pytest.mark.parametrize("make", _NO_BASE.values(), ids=_NO_BASE.keys())
@pytest.mark.parametrize(
    "entry",
    [
        lambda p: improper_integral(p, 0.5, 1.0),
        lambda p: improper_integral(p, 0.5),
        lambda p: cumulative_integral(p, 0.5),
        lambda p: match_boundary(p, 0.5),
        classify_roots,
    ],
    ids=["improper_integral", "improper_tail", "cumulative_integral", "match_boundary",
         "classify_roots"],
)
def test_matching_refuses_a_profile_without_a_dense_base(make, entry):
    # The dense-base check, reached through find_roots or theta, is the one
    # guard; the constant solution carries no potential to classify.
    with pytest.raises(InvalidRegime):
        entry(make())


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


def test_improper_integral_past_the_window_is_out_of_grid():
    params = OdeParams(n=3, R=-6.0, a=1.0)
    short = integrate_profile(params, r0=1.0, s_max=4.0)
    for s_from in (5.0, 50.0, -4.5):
        with pytest.raises(OutOfGrid, match="outside profile window"):
            improper_integral(short, s_from)
    # One containment rule, Profile._check_window, for finite and improper
    # ranges alike: the window padded by 1e-9 (1 + s_max), a NaN refused.
    pad = 1e-9 * (1.0 + short.s_max)
    for s_from, s_to in ((math.nan, math.inf), (1.0, 4.0 + 2 * pad), (1.0, 4.1)):
        with pytest.raises(OutOfGrid, match="^arclength .* outside profile window"):
            improper_integral(short, s_from, s_to)
    with pytest.raises(OutOfRange, match=r"^empty or reversed range \(2, 1\)$"):
        improper_integral(short, 2.0, 1.0)
    # Within the pad an improper range samples, as every other range does.
    edge = improper_integral(short, 4.0 + 0.5 * pad)
    assert edge == pytest.approx(improper_integral(short, 4.0), rel=1e-6)
    # The tail from s_max itself is the extension's part alone, and the tail
    # from 5 is read on a window that holds 5.
    assert improper_integral(short, 4.0) > 0.0
    long = integrate_profile(params, r0=1.0, s_max=6.0)
    assert improper_integral(long, 5.0) == pytest.approx(0.0090832, rel=1e-4)


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


def test_cumulative_past_the_last_table_node(neg_profile):
    # Between the table's last node and s_max, G adds a direct quadrature.
    table = _get_table(neg_profile)
    last = float(table.xs[-1])
    assert last < neg_profile.s_max
    x = 0.5 * (last + neg_profile.s_max)
    direct = improper_integral(neg_profile, neg_profile.theta, x)
    assert cumulative_integral(neg_profile, x) == pytest.approx(direct, rel=1e-12)


def test_partner_root_in_the_last_base_step():
    # For R > 0 and an outer root next to the anchor, the partner root lies
    # between the table's last node and the critical point s1, where the
    # table solve walks toward s1 before it bisects.
    profile = integrate_profile(OdeParams(n=3, R=6.0, a=1.0), r0=0.7, s_max=6.0)
    table = _get_table(profile)
    last = float(table.xs[-1])
    assert table.limit < profile.s_max
    zeta1 = 1.2 * float(table.xs[0])
    assert -cumulative_integral(profile, zeta1) > cumulative_integral(profile, last)
    res = match_boundary(profile, zeta1)
    y = -res.zeta2
    assert last < y < table.limit
    assert res.discrepancy <= 1e-8 * abs(res.zeta2), f"routes disagree by {res.discrepancy:.3e}"
    direct = improper_integral(profile, profile.theta, y)
    assert cumulative_integral(profile, y) == pytest.approx(direct, rel=1e-12)


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
    # Relative to lam on the domain, as the domain certificate scales it.
    inside = comp.sample(np.linspace(res.zeta2, zeta1, 2001)).lam
    scale = max(1.0, float(np.max(np.asarray(inside, dtype=float))))
    assert abs(lam1) <= 1e-9 * scale
    assert abs(lam2) <= 1e-9 * scale
    # Matching relation G(-zeta2) = -G(zeta1) = -(n-1) C.
    g_left = cumulative_integral(prof, -res.zeta2)
    assert g_left == pytest.approx(-(prof.params.n - 1) * res.C, rel=1e-8, abs=1e-10)


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


def test_table_refusals_name_their_reason(pos_profile):
    table = _get_table(pos_profile)
    s1 = find_roots(pos_profile).s1
    with pytest.raises(OutOfRange, match="reaches the critical point"):
        cumulative_integral(pos_profile, s1 - 1e-10)
    # A target G never reaches below s1: the approach halves its gap until
    # the query comes within 1e-9 of s1 and is refused there.
    with pytest.raises(OutOfRange, match="reaches the critical point"):
        table.solve(pos_profile, 1e15)
    with pytest.raises(OutOfRange, match="^matching target below the reachable range"):
        table.solve(pos_profile, -1e300)
    flat = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), r0=1.0, s_max=6.0)
    with pytest.raises(OutOfRange, match="^matched root lies beyond the integration window"):
        match_boundary(flat, 1e-3)
    with pytest.raises(InvalidRegime, match="^the admissibility threshold is defined only for R < 0"):
        c_threshold(flat)


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


_A_POSITIVE = "a matched domain requires a > 0"


@pytest.mark.parametrize("a", [0.0, -1.0])
@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_builders_share_one_a_positive_precondition(build, a):
    with pytest.raises(InvalidRegime, match=_A_POSITIVE):
        build(OdeParams(n=3, R=6.0, a=a), 1.0)


@pytest.mark.parametrize("command", ["match", "example1", "example2"])
def test_domain_commands_check_the_builders_precondition(command):
    check = cli._COMMANDS[command][3]
    with pytest.raises(InvalidRegime, match=_A_POSITIVE):
        check(OdeParams(n=3, R=-6.0, a=0.0), {})


class _Sampled:
    """A stand-in complete profile whose potential samples to ``lam(s)``."""

    def __init__(self, lam):
        self.lam = lam

    def sample(self, s):
        return SimpleNamespace(lam=self.lam(np.atleast_1d(np.asarray(s, dtype=float))))


def test_nan_potential_fails_the_domain_checks():
    # Both comparisons are written so that a NaN fails them: a NaN at a face
    # behind a positive interior fails the root check, and a NaN inside
    # fails the positivity check that runs first.
    face_nan = _Sampled(lambda s: np.where(s == 1.0, np.nan, np.where(s == -1.0, 0.0, 1.0)))
    with pytest.raises(VerificationError, match=r"lam\(zeta1\) = nan"):
        matching._certified_domain(face_nan, -1.0, 1.0, None, 2)
    inside_nan = _Sampled(lambda s: np.where(np.abs(s) < 0.5, np.nan, 1.0))
    with pytest.raises(InvalidRegime, match=r"lam\(.*\) = nan"):
        matching._certified_domain(inside_nan, -1.0, 1.0, None, 2)


def test_root_check_scales_with_the_domain():
    # Negative control.  On this domain max lam is at most 1, while lam over
    # the window [-12, 12] reaches 4.2e4; a right face moved 1e-6 inward
    # leaves lam = 4.9e-7 there, which the window's scale would admit.
    params = OdeParams(n=3, R=-6.0, a=1.0)
    prof = integrate_profile(params, 1.0, 12.0)
    m = match_boundary(prof, 1.2)
    comp = solve_potential(prof, m.C)
    fiber = FiberSpec(dim=2, kappa0=prof.kappa0)
    matching._certified_domain(comp, m.zeta2, 1.2, fiber, 2)
    moved = 1.2 - 1e-6
    assert 4e-7 < float(comp.sample(moved).lam[0]) < 6e-7
    with pytest.raises(VerificationError, match="does not vanish"):
        matching._certified_domain(comp, m.zeta2, moved, fiber, 2)


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
    d = _domain_record(dom)
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
    assert chart.params.a == 0.5
    assert chart.exclusion is None


def test_schwarzschild_negative_curvature_has_exclusion():
    chart = schwarzschild_form(OdeParams(n=3, R=-6.0, a=0.5))
    assert chart.exclusion is not None and chart.exclusion > 0.0
    # Horizon agrees across routes and equals the profile anchor.
    assert chart.horizon == pytest.approx(chart.horizon_from_polynomial, abs=1e-10)
    assert chart.profile.r0 == pytest.approx(chart.horizon, abs=1e-14)
    # Matched pair through the chart helper.
    res = chart.match(chart.profile.theta)
    assert res.zeta2 == pytest.approx(-chart.profile.theta, abs=1e-10)


# At n = 20000 the doubling bracket's r = 2 overflows r^(n-2) to inf, which
# must steer the bracket without a warning.  The last three horizons lie far
# below 1, where the anchor route must still resolve them to a relative
# tolerance.
@pytest.mark.parametrize("n, R, a", [(3, -1.0, 2.0), (4, -1.0, 2.0), (5, -6.0, 0.5),
                                     (1000, -3.0, 0.5), (1000, 0.0, 0.5),
                                     (20000, -1.0, 1e5), (20000, 0.0, 1e5),
                                     (5, -6.0, 1e-300), (3, -1e300, 1.0), (3, -6.0, 1e-6)])
def test_polynomial_horizon_matches_the_anchor_route(n, R, a):
    params = OdeParams(n=n, R=R, a=a)
    t0 = time.perf_counter()
    poly = _horizon_from_polynomial(params)
    elapsed = time.perf_counter() - t0
    anchor = solve_radius_for_kappa0(params, 1.0)
    print(f"n={n}: polynomial {poly!r}, anchor {anchor!r}, {elapsed * 1e3:.2f} ms")
    assert abs(poly - anchor) <= 1e-13 * anchor
    assert elapsed < 0.1


def test_polynomial_horizon_of_a_tiny_mass():
    # Near the root both bracket values are about 1e-317, so their product
    # underflows to zero; the bisection must still keep the sign change.
    params = OdeParams(n=5, R=-6.0, a=1e-300)
    assert _horizon_from_polynomial(params) == pytest.approx((2e-300 / 3) ** (1 / 3), rel=1e-13)


def test_schwarzschild_refuses_a_mass_whose_horizon_misses_kappa0():
    # kappa0 at the float64 horizon is a difference of two terms of size
    # |c2| r_h^2; from a = 1e7 on its rounding exceeds 1e-10.
    with pytest.raises(OutOfRange, match=r"mass a = 1e\+07 .* kappa0 = .* than 1e-10$"):
        schwarzschild_form(OdeParams(n=3, R=-6.0, a=1e7))


def test_schwarzschild_regime_validation():
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=6.0, a=1.0))
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=0.0, a=-1.0))
    with pytest.raises(InvalidRegime):
        schwarzschild_form(OdeParams(n=3, R=0.0, a=0.5), kappa0=2.0)


# ----------------------------------------------------------------------
# Metamorphic oracles: exact symmetries of the equations
# ----------------------------------------------------------------------
#
# The map (R, a, r0, s) -> (R/mu^2, a mu^(n-2), mu r0, mu s) sends solutions
# to solutions: kappa0 is invariant, lengths (theta, zeta) scale by mu, and
# the potential, with C and C0, by mu^2.  Each bound is ten times the largest
# relative error measured over the cases and scales below.
_SCALING_BOUND = {"theta": 1e-12, "zeta2": 3.4e-11, "C": 6.9e-11, "C0": 1.4e-11,
                  "kappa0": 1.5e-15}
_SCALING_POWER = {"theta": 1, "zeta2": 1, "C": 2, "C0": 2, "kappa0": 0}
# ((n, R, a), r0, zeta1), each on the window s_max = 12 (mu s_max scaled).
_METAMORPHIC = {
    "hyperbolic": ((3, -6.0, 1.0), 1.0, 1.2),
    "oscillatory": ((3, 6.0, 1.0), 0.8, 0.5),
}


@functools.lru_cache(maxsize=None)
def _profile(n, R, a, r0, s_max):
    """One integration per profile across the oracles below."""
    return integrate_profile(OdeParams(n=n, R=R, a=a), r0, s_max)


def _scaled(case, mu):
    """The profile of ``case`` under the scaling map with factor mu."""
    (n, R, a), r0, _ = case
    return _profile(n, R / mu**2, a * mu ** (n - 2), mu * r0, mu * 12.0)


@functools.lru_cache(maxsize=None)
def _matched_numbers(case, mu):
    prof = _scaled(case, mu)
    m = match_boundary(prof, mu * case[2])
    out = {"theta": prof.theta, "zeta2": m.zeta2, "C": m.C, "kappa0": prof.kappa0}
    if prof.params.R < 0.0:
        out["C0"] = c_threshold(prof)
    return out


@pytest.mark.parametrize("mu", [2.0, 3.0, 0.1])
@pytest.mark.parametrize("case", _METAMORPHIC.values(), ids=_METAMORPHIC.keys())
def test_matching_follows_the_scaling_map(case, mu):
    base = _matched_numbers(case, 1.0)
    for name, value in _matched_numbers(case, mu).items():
        want = base[name] * mu ** _SCALING_POWER[name]
        assert value == pytest.approx(want, rel=_SCALING_BOUND[name], abs=0.0), name


@pytest.mark.parametrize("case", _METAMORPHIC.values(), ids=_METAMORPHIC.keys())
def test_matching_the_partner_root_is_the_reflection(case):
    # lam0 is even and r' odd, so the roots of lam0 + C r' at (zeta2, zeta1)
    # are those of lam0 - C r' at (-zeta1, -zeta2).  The largest gap measured
    # was 3.7e-13 (the bound is ten times it); C + C' measured 0, and its
    # bound is the matching tolerance 1e-12 relative, since no margin scales 0.
    zeta1 = case[2]
    prof = _scaled(case, 1.0)
    there = match_boundary(prof, zeta1)
    back = match_boundary(prof, -there.zeta2)
    assert abs(back.zeta2 + zeta1) <= 3.7e-12
    assert abs(back.C + there.C) <= 1e-12 * abs(there.C)


# The first Dirichlet eigenvalue gamma1 scales by 1/mu^2 once C scales by
# mu^2 and the interval by mu: (C, interval) of each case, at num 256.  The
# largest relative error measured was 1.5e-11 (0 at mu = 2); the bound is
# ten times it.
_EIGEN_CASES = {"hyperbolic": (0.25, (-1.0, 1.5)), "oscillatory": (0.1, (-0.5, 1.2))}


@functools.lru_cache(maxsize=None)
def _gamma1(name, mu):
    C, (lo, hi) = _EIGEN_CASES[name]
    comp = solve_potential(_scaled(_METAMORPHIC[name], mu), mu * mu * C)
    return first_dirichlet_eigenvalue(comp, (mu * lo, mu * hi), num=256).gamma1


@pytest.mark.parametrize("mu", [2.0, 3.0, 0.1])
@pytest.mark.parametrize("name", _EIGEN_CASES)
def test_first_eigenvalue_follows_the_scaling_map(name, mu):
    assert _gamma1(name, mu) * mu**2 == pytest.approx(_gamma1(name, 1.0), rel=1.53e-10, abs=0.0)


@pytest.mark.parametrize("n, R, a, r0", [
    (3, -6.0, 1.0, 1.0), (4, -6.0, 2.0, 1.2), (3, 6.0, 1.0, 0.8), (3, 6.0, 1.0, 1.3),
    (3, 0.0, 1.0, 1.0),
])
def test_even_branch_is_the_matching_integral(n, R, a, r0):
    # lam0 = -r' G / (n-1) on (0, s1) for R > 0 and on (0, s_max] otherwise:
    # the matching relation at C = 0.  Six points between 0.15 and 0.9 of that
    # limit; the largest error measured was 8.6e-12 of |lam0|, and the bound
    # is ten times it.
    prof = _profile(n, R, a, r0, 12.0)
    limit = find_roots(prof).s1 if R > 0.0 else prof.s_max
    for x in np.linspace(0.15, 0.9, 6) * limit:
        _, rp, lam0, _ = (float(v[0]) for v in prof.sample_base(x))
        g = cumulative_integral(prof, x)
        assert abs(lam0 + rp * g / (n - 1)) <= 8.6e-11 * abs(lam0), x


@pytest.mark.parametrize("n, R, a, r0, s_max", [
    (3, -6.0, 1.0, 1.0, 4.0), (3, 6.0, 1.0, 0.8, 12.0), (4, 0.0, 1.0, 1.0, 6.0),
])
def test_export_conserves_kappa0(n, R, a, r0, s_max):
    # The conserved quantity of a step-1e-3 export, against kappa0, as a
    # fraction of the term scale of the verifier's fiber gate.  The largest
    # value measured was 8.9e-16; the bound is ten times it.
    params = OdeParams(n=n, R=R, a=a)
    export = cli._resample(solve_potential(_profile(n, R, a, r0, s_max), 0.25), 1e-3)
    r, rp = export.r, export.rp
    cons = np.asarray(conserved_quantity(params, r, rp), dtype=float)
    terms = rp**2 + abs(params.c2) * r**2 + abs(2.0 * a / (n - 2)) * r ** (2.0 - n)
    assert np.max(np.abs(cons - export.kappa0)) <= 8.9e-15 * np.max(terms)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
