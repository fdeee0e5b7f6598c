"""Acceptance gate: twelve quantitative criteria, one test each.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers, then asserts.  Tolerances are pinned here and must not be relaxed;
the sweep pins twenty parameter combinations covering every value of
R in {-6, 0, 6}, n in {3, 4, 5}, a in {0.5, 1, 2}.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from warpcrit import (
    OdeParams,
    build_two_boundary_domain,
    conserved_quantity,
    critical_radius,
    find_roots,
    integrate_profile,
    lhopital_product,
    match_boundary,
    c_threshold,
    schwarzschild_form,
    solve_potential,
    space_form_profile,
    verify_conformally_flat,
    verify_critical,
)
from warpcrit import rk45
from warpcrit.cli import main as cli_main
from warpcrit.profiles import _rhs_functions
from warpcrit.serialize import read_profile_csv
from warpcrit.spectrum import eigenvalue_at_resolution, verify_eigenvalue_signs

# Twenty pinned (n, R, a) combinations: the full 3x3 grids at n=3 and n=4,
# plus two n=5 rows, covering every axis value.
SWEEP = (
    [(3, R, a) for R in (-6.0, 0.0, 6.0) for a in (0.5, 1.0, 2.0)]
    + [(4, R, a) for R in (-6.0, 0.0, 6.0) for a in (0.5, 1.0, 2.0)]
    + [(5, -6.0, 0.5), (5, 0.0, 1.0)]
)

TOL_CRITICAL = 1e-8
TOL_SCAL = 1e-8          # times (1 + |R|)
TOL_DRIFT = 1e-10        # times (1 + |kappa0|)
TOL_ORACLE = 1e-8
TOL_MATCH_REL = 1e-8
TOL_FIXED_POINT = 1e-10
TOL_LHOPITAL = 1e-6
TOL_EIGENVECTOR = 1e-4
TOL_IDENTITY = 1e-6
TOL_HORIZON = 1e-10
TOL_WEYL = 1e-8
TOL_CONTROL = 1e-3


def _anchor_radius(params: OdeParams) -> float:
    if params.R > 0:
        return 0.8 * critical_radius(params)
    return 1.0


def _pick_zeta1(profile) -> float:
    theta = profile.theta
    if profile.params.R > 0:
        roots = find_roots(profile)
        s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
        return 0.5 * (theta + s1)
    return 1.5 * theta


@pytest.fixture(scope="module")
def sweep_domains():
    """The criterion-1 sweep: one end-to-end two-boundary domain per combo."""
    out = []
    for n, R, a in SWEEP:
        params = OdeParams(n=n, R=R, a=a)
        r0 = _anchor_radius(params)
        prof = integrate_profile(params, r0, 9.0)
        zeta1 = _pick_zeta1(prof)
        domain = build_two_boundary_domain(params, r0, zeta1, s_max=9.0)
        report = verify_critical(
            domain.profile, domain.fiber, interval=domain.interval
        )
        out.append((params, r0, domain, report))
    return out


def test_criterion_1_critical_residual(sweep_domains):
    worst_crit, worst_scal, worst_combo = 0.0, 0.0, None
    for params, r0, domain, report in sweep_domains:
        scal_rel = report.max_scal_deviation / (1.0 + abs(params.R))
        if report.max_critical_residual > worst_crit:
            worst_crit = report.max_critical_residual
            worst_combo = (params.n, params.R, params.a)
        worst_scal = max(worst_scal, scal_rel)
    ok = worst_crit <= TOL_CRITICAL and worst_scal <= TOL_SCAL
    print(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(20 domains, worst residual {worst_crit:.3e} at {worst_combo}, "
        f"worst |R(g)-R|/(1+|R|) {worst_scal:.3e}, tol {TOL_CRITICAL:.0e})"
    )
    assert ok, f"critical residual {worst_crit:.3e} or scal {worst_scal:.3e} over budget"


def test_criterion_2_conservation():
    worst, worst_combo = 0.0, None
    for n, R, a in SWEEP:
        params = OdeParams(n=n, R=R, a=a)
        prof = integrate_profile(params, _anchor_radius(params), 10.0)
        cons = np.asarray(conserved_quantity(params, prof.r, prof.rp), dtype=float)
        drift = float(np.max(np.abs(cons - prof.kappa0))) / (1.0 + abs(prof.kappa0))
        if drift > worst:
            worst, worst_combo = drift, (n, R, a)
    ok = worst <= TOL_DRIFT
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(windows of length 20, worst drift {worst:.3e} at {worst_combo}, "
        f"tol {TOL_DRIFT:.0e})"
    )
    assert ok, f"conserved-quantity drift {worst:.3e} exceeds {TOL_DRIFT:.0e}"


def test_criterion_3_einstein_closed_forms():
    worst = 0.0
    for kappa in (0, 1, -1):
        ref = space_form_profile(kappa, 1.0, 3.2 if kappa != 1 else 3.1)
        params = ref.params
        fun, d2fun = _rhs_functions(params._fields)
        v = ref.sample(1.0)
        y0 = np.array(
            [v.r[0], v.rp[0], v.lam[0], v.lamp[0]], dtype=np.longdouble
        )
        fwd, _ = rk45.integrate(fun, d2fun, y0, (1.0, 3.0))
        bwd, _ = rk45.integrate(  # time-reversed system covers [0, 1]
            lambda y: tuple(-v for v in fun(y)), d2fun, y0, (0.0, 1.0)
        )
        grid = np.linspace(0.0, 3.0, 3001)
        exact = ref.sample(grid)
        for sol, lo, hi, flip in ((fwd, 1.0, 3.0, False), (bwd, 0.0, 1.0, True)):
            mask = (grid >= lo) & (grid <= hi)
            ts = 1.0 - grid[mask] if flip else grid[mask]
            y = sol(ts)
            err_r = float(np.max(np.abs(y[:, 0] - exact.r[mask])))
            err_l = float(np.max(np.abs(y[:, 2] - exact.lam[mask])))
            worst = max(worst, err_r, err_l)
    ok = worst <= TOL_ORACLE
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(three space forms on [0,3], sup error {worst:.3e}, tol {TOL_ORACLE:.0e})"
    )
    assert ok, f"space-form sup error {worst:.3e} exceeds {TOL_ORACLE:.0e}"


def test_criterion_4_hyperbolic_oracle():
    worst = 0.0
    for n in (3, 4):
        params = OdeParams(n=n, R=float(-n * (n - 1)), a=0.0)
        prof = solve_potential(integrate_profile(params, 1.0, 4.0), 1.0)
        # Closed form: r = cosh s, lam = sinh s + 1/(n-1).
        lam_exact = np.sinh(np.asarray(prof.grid, dtype=float)) + 1.0 / (n - 1)
        form_err = float(np.max(np.abs(np.asarray(prof.lam, dtype=float) - lam_exact)))
        report = verify_critical(prof)
        worst = max(worst, report.max_critical_residual, form_err / 1e4)
        residual_ok = report.max_critical_residual <= TOL_ORACLE
        assert residual_ok, f"n={n}: residual {report.max_critical_residual:.3e}"
        assert form_err < 1e-8 * math.cosh(4.0), f"n={n}: drift from closed form"
    print(
        f"criterion 4: PASS (cosh profile n=3,4 residual <= {worst:.3e}, "
        f"tol {TOL_ORACLE:.0e})"
    )


def _count_sign_changes(profile, lo, hi, step=1e-3):
    s = np.arange(lo, hi + 0.5 * step, step)
    lam = np.asarray(profile.sample(s).lam, dtype=float)
    sign = np.sign(lam)
    keep = sign != 0.0
    sign = sign[keep]
    return int(np.sum(sign[1:] * sign[:-1] < 0.0))


def test_criterion_5_root_structure():
    lines = []
    # R = 0: exactly two roots for every C.
    prof0 = integrate_profile(OdeParams(n=3, R=0.0, a=1.0), 1.0, 8.0)
    for C in (-1.0, 0.0, 0.7):
        counts = _count_sign_changes(solve_potential(prof0, C), -6.0, 6.0)
        lines.append(f"R=0,C={C:g}: {counts}")
        assert counts == 2, f"R=0, C={C}: want 2 roots, found {counts}"
    # R < 0: case (c) two roots, cases (a)/(b) at C = -/+ 2 C0 exactly one
    # root of the predicted sign.
    profn = integrate_profile(OdeParams(n=3, R=-6.0, a=1.0), 1.0, 8.0)
    c0 = c_threshold(profn)
    for C, want, side in ((0.3 * c0, 2, None), (-2.0 * c0, 1, "positive"),
                          (2.0 * c0, 1, "negative")):
        comp = solve_potential(profn, C)
        counts = _count_sign_changes(comp, -6.0, 6.0)
        lines.append(f"R<0,C={C:+.3g}: {counts}")
        assert counts == want, f"R<0, C={C:.3g}: want {want} roots, found {counts}"
        if side is not None:
            roots = find_roots(comp).lam_roots
            assert len(roots) == 1
            if side == "positive":
                assert roots[0] > 0.0, "case (a) root must lie on the positive side"
            else:
                assert roots[0] < 0.0, "case (b) root must lie on the negative side"
    # R > 0: one root between each of the first four r'-root pairs.
    profp = solve_potential(
        integrate_profile(OdeParams(n=3, R=6.0, a=1.0), 0.8, 8.0), 0.3
    )
    rp_roots = find_roots(profp).rp_roots
    pos = np.asarray([x for x in rp_roots if x > -1e-12][:5], dtype=float)
    assert pos.size == 5, "need five nonnegative r' roots in the window"
    for lo, hi in zip(pos[:-1], pos[1:]):
        counts = _count_sign_changes(profp, lo, hi)
        assert counts == 1, f"interval ({lo:.3f},{hi:.3f}): want 1 root, found {counts}"
    lines.append("R>0: 1 root per interval x4")
    print(f"criterion 5: PASS ({'; '.join(lines)}, scan step 1e-3)")


def test_criterion_6_matching_identity():
    worst_rel, worst_fix = 0.0, 0.0
    cases = []
    for n, R, a in ((3, 0.0, 1.0), (3, -6.0, 1.0), (3, 6.0, 1.0)):
        params = OdeParams(n=n, R=R, a=a)
        prof = integrate_profile(params, _anchor_radius(params), 9.0)
        theta = prof.theta
        if R > 0:
            roots = find_roots(prof)
            s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
            zetas = np.linspace(0.15 * s1, 0.9 * s1, 10)
        elif R == 0:
            zetas = np.linspace(0.5 * theta, 2.5 * theta, 10)
        else:
            from warpcrit import exclusion_zeta

            ze = exclusion_zeta(prof)
            zetas = ze + np.linspace(0.05, 1.6, 10)
        for z1 in zetas:
            m = match_boundary(prof, float(z1))
            rel = abs(m.zeta2 - m.zeta2_from_root) / max(abs(m.zeta2), 1e-3)
            worst_rel = max(worst_rel, rel)
        fix = match_boundary(prof, theta)
        gap = abs(fix.zeta2 + theta)
        worst_fix = max(worst_fix, gap)
        cases.append(f"R={R:g}: rel<={worst_rel:.1e}, fix gap {gap:.1e}")
    ok = worst_rel <= TOL_MATCH_REL and worst_fix <= TOL_FIXED_POINT
    print(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(10 zeta1 per regime; {'; '.join(cases)}; "
        f"tols {TOL_MATCH_REL:.0e}/{TOL_FIXED_POINT:.0e})"
    )
    assert ok


def test_criterion_7_lhopital_limit():
    params = OdeParams(n=3, R=-6.0, a=1.0)
    prof = integrate_profile(params, 1.0, 10.5)
    s_eval = 10.3
    r_eval = float(prof.sample(s_eval).r[0])
    assert r_eval > 1e4, f"evaluation point must sit beyond r=1e4, got {r_eval:.3g}"
    product = lhopital_product(prof, s_eval)
    err = abs(product - 0.5)
    ok = err <= TOL_LHOPITAL
    print(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(product {product:.9f} at r={r_eval:.4g}, error {err:.3e}, "
        f"tol {TOL_LHOPITAL:.0e})"
    )
    assert ok, f"limit product error {err:.3e} exceeds {TOL_LHOPITAL:.0e}"


def test_criterion_8_zero_mode_convergence():
    t_start = time.perf_counter()
    params = OdeParams(n=3, R=6.0, a=1.0)
    prof = solve_potential(integrate_profile(params, 0.8, 8.0), 0.0)
    roots = find_roots(prof)
    s1 = float(roots.rp_roots[roots.rp_roots > 1e-12][0])
    gammas = []
    for num in (200, 400, 800):
        beta, _, _ = eigenvalue_at_resolution(prof, (0.0, s1), num)
        gammas.append((params.n - 1) * beta - params.R)
    orders = [math.log2(abs(gammas[i]) / abs(gammas[i + 1])) for i in range(2)]
    _, nodes, phi = eigenvalue_at_resolution(prof, (0.0, s1), 1000)
    rp = np.asarray(prof.sample(nodes).rp, dtype=float)
    rp = rp / rp[np.argmax(np.abs(rp))]
    dev = float(np.max(np.abs(phi - rp)))
    elapsed = time.perf_counter() - t_start
    ok = all(o >= 1.9 for o in orders) and dev <= TOL_EIGENVECTOR and elapsed <= 60.0
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(gamma1 at h=s1/200,400,800 = {gammas[0]:.2e},{gammas[1]:.2e},"
        f"{gammas[2]:.2e}; orders {orders[0]:.2f},{orders[1]:.2f} >= 1.9; "
        f"eigenvector deviation {dev:.2e} <= {TOL_EIGENVECTOR:.0e}; "
        f"{elapsed:.1f}s <= 60s)"
    )
    assert ok


def test_criterion_9_spectral_signs():
    reports = {
        "min": verify_eigenvalue_signs(OdeParams(n=3, R=6.0, a=1.0), 0.8, 0.1),
        "max": verify_eigenvalue_signs(OdeParams(n=3, R=6.0, a=1.0), 1.3, 0.1),
    }
    details = []
    ok = True
    for phase, want in (("min", "POSITIVE"), ("max", "NEGATIVE")):
        rep = reports[phase]
        margin = abs(rep.matched.gamma1) / rep.matched.error_bound
        good = (
            rep.matched.sign == want
            and margin > 3.0
            and rep.identity_residual <= TOL_IDENTITY
        )
        ok = ok and good
        details.append(
            f"{phase}: gamma1={rep.matched.gamma1:+.4g} ({rep.matched.sign}, "
            f"{margin:.0f}x bound), identity {rep.identity_residual:.2e}"
        )
    print(f"criterion 9: {'PASS' if ok else 'FAIL'} ({'; '.join(details)})")
    assert ok


def test_criterion_10_schwarzschild_horizon():
    chart = schwarzschild_form(OdeParams(n=3, R=0.0, a=0.5))
    err_ode = abs(chart.horizon - 1.0)
    err_poly = abs(chart.horizon_from_polynomial - 1.0)
    zeta1s = np.linspace(0.5, 4.0, 10)
    zeta2_mag = [abs(chart.match(float(z)).zeta2) for z in zeta1s]
    decreasing = all(b < a for a, b in zip(zeta2_mag, zeta2_mag[1:]))
    ok = err_ode <= TOL_HORIZON and err_poly <= TOL_HORIZON and decreasing
    print(
        f"criterion 10: {'PASS' if ok else 'FAIL'} "
        f"(horizon 1{err_ode:+.1e} ODE / 1{err_poly:+.1e} polynomial, "
        f"|zeta2| strictly decreasing over 10 outer radii: {decreasing})"
    )
    assert ok


def test_criterion_11_conformal_reconstruction(sweep_domains):
    worst, worst_combo = 0.0, None
    for params, r0, domain, report in sweep_domains:
        resid = verify_conformally_flat(
            domain.profile, domain.fiber, interval=domain.interval
        )
        assert abs(resid - report.max_weyl_residual) < 1e-15
        if resid > worst:
            worst, worst_combo = resid, (params.n, params.R, params.a)
    ok = worst <= TOL_WEYL
    print(
        f"criterion 11: {'PASS' if ok else 'FAIL'} "
        f"(20 domains, worst reconstruction {worst:.3e} at {worst_combo}, "
        f"tol {TOL_WEYL:.0e})"
    )
    assert ok, f"reconstruction residual {worst:.3e} exceeds {TOL_WEYL:.0e}"


def test_criterion_12_negative_controls(tmp_path):
    base = {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "s_max": 3.0, "C": 0.25}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(base))
    assert cli_main(["construct", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "profile.json").read_text())

    cols = read_profile_csv(str(tmp_path / "profile.csv"))
    cols["lam"] = cols["lam"] + 1e-2 * cols["s"]
    rows = ["s,r,rp,lam,lamp"]
    for i in range(cols["s"].size):
        rows.append(",".join(
            format(cols[k][i], ".17g") for k in ("s", "r", "rp", "lam", "lamp")
        ))
    (tmp_path / "forged.csv").write_text("\n".join(rows) + "\n")

    vcfg = tmp_path / "v1.json"
    vcfg.write_text(json.dumps({
        "n": 3, "R": -6.0, "a": 1.0,
        "profile_csv": str(tmp_path / "forged.csv"), "kappa0": env["kappa0"],
    }))
    code_lam = cli_main(["verify", "--config", str(vcfg), "--out", str(tmp_path)])
    summary = json.loads((tmp_path / "verify.json").read_text())
    resid = summary["residuals"]["max_critical_residual"]

    kcfg = tmp_path / "v2.json"
    kcfg.write_text(json.dumps({
        "n": 3, "R": -6.0, "a": 1.0,
        "profile_csv": str(tmp_path / "profile.csv"),
        "kappa0": env["kappa0"] + 1e-2,
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "warpcrit.cli", "verify",
         "--config", str(kcfg), "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    ok = code_lam == 1 and resid > TOL_CONTROL and proc.returncode == 1
    print(
        f"criterion 12: {'PASS' if ok else 'FAIL'} "
        f"(lam+1e-2*s -> exit {code_lam}, residual {resid:.3e} > {TOL_CONTROL}; "
        f"kappa0+1e-2 -> exit {proc.returncode})"
    )
    assert ok
