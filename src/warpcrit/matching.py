"""Boundary matching: pairing the two potential roots into compact domains.

The potential family lam = lam0 + C r' vanishes at arclengths zeta2 < 0 <
zeta1 exactly when both are sent to zero by the same C.  Writing
G(x) = int_theta^x r/(r')^2 dtau with theta the positive root of lam0, the
first-order compatibility identity turns the root condition into

    lam(x) = 0  (x > 0)   <=>   C =  G(x) / (n-1),
    lam(-y) = 0 (y > 0)   <=>   C = -G(y) / (n-1),

so the matching relation between the boundary faces is G(-zeta2) = -G(zeta1).
G is strictly increasing (positive integrand), which gives unique pairing by
bisection on a cumulative table.

Regimes: for R > 0 everything lives between the anchor and the first
positive critical point s1 of r, where G blows up; for R = 0 the improper
integral G(+inf) diverges and every zeta1 > 0 matches; for R < 0 the
improper integral converges and induces the admissibility threshold
C0 = G(+inf)/(n-1) together with an exclusion radius zeta near the anchor.
Improper tails use the asymptotics r' ~ m r, m = sqrt(-R/(n(n-1))): the
remainder past a truncation with r(S) large is n(n-1)/((-R) r'(S)), accurate
to O(r(S)^-3) relative, and the truncation is pushed until the estimated
formula error is below 1e-10 of the total.

Both domain builders check a > 0 (``require_domain_regime``) and certify a
domain [zeta2, zeta1] by lam on that domain alone: lam > 0 inside, lam
vanishes at both ends relative to its largest value inside, then the fiber,
a ``profiles.FiberSpec``, matches.  Each check of a domain fails on a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DivergentIntegral,
    FiberMismatch,
    InvalidRegime,
    NoFreeInvolution,
    OutOfRange,
    SingularEndpoint,
    VerificationError,
)
from .profiles import (
    FiberSpec,
    OdeParams,
    Profile,
    _node_roots,
    conserved_quantity,
    extend_base,
    find_roots,
    integrate_profile,
    solve_potential,
    solve_radius_for_kappa0,
)
from .rk45 import hermite_quintic
from .support import LD as _LD, bisect_root, gauss_legendre, row_blocks

__all__ = [
    "BoundaryFace",
    "MatchedDomain",
    "MatchResult",
    "RootClassification",
    "improper_integral",
    "cumulative_integral",
    "classify_roots",
    "match_boundary",
    "c_threshold",
    "exclusion_zeta",
    "lhopital_product",
    "build_two_boundary_domain",
    "build_quotient_domain",
    "schwarzschild_form",
    "SchwarzschildChart",
]

# Quadrature: Gauss-Legendre order per panel and dense-step subdivision factor.
_GL_ORDER = 20
_SUBDIV = 4

# Endpoints closer than this to a critical point of r are singular for the
# r/(r')^2 integrand.
_ROOT_PAD = 1e-9

# Default truncation radius for improper tails; pushed further adaptively.
_TAIL_RADIUS = 2000.0

# Absolute tolerance on matched root positions.
_ZETA_TOL = 1e-12

# Tolerance of the boundary checks of build_two_boundary_domain and
# build_quotient_domain: on the potential at the matched roots, relative to
# its largest value inside (at least 1), and the floor of the positivity
# sampling pad.
_LAMBDA_ROOT_TOL = 1e-10

# Relative tolerance of the fiber curvature against the profile's kappa0.
_FIBER_TOL = 1e-10

# Relative band of classify_roots around the threshold C0.
_CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryFace:
    """One boundary sphere of a matched domain, with outward orientation."""

    side: str  # "left" or "right"
    s: float
    radius: float
    mean_curvature: float  # w.r.t. the outward unit normal
    normal_derivative: float  # outward normal derivative of the potential

    @property
    def product(self) -> float:
        """H times the outward normal derivative; equals -1 at exact roots."""
        return self.mean_curvature * self.normal_derivative


@dataclass(frozen=True)
class MatchedDomain:
    """Compact critical domain between two roots of the potential."""

    profile: Profile
    interval: tuple[float, float]  # (zeta2, zeta1), zeta2 < 0 < zeta1
    fiber: FiberSpec
    boundary: tuple[BoundaryFace, ...]
    boundary_components: int
    quotient: dict | None = None


@dataclass(frozen=True)
class MatchResult:
    """Outcome of the boundary-matching solve, both routes."""

    zeta1: float
    zeta2: float  # negative; from the cumulative-integral bisection
    C: float
    zeta2_from_root: float  # negative; direct root of lam = lam0 + C r'
    discrepancy: float  # |zeta2 - zeta2_from_root|


@dataclass(frozen=True)
class RootClassification:
    """Root-structure report for a complete profile."""

    regime: str  # "negative", "zero", or "positive" (sign of R)
    case: str | None  # "a" | "b" | "c" for R < 0, else None
    C: float
    c_threshold: float | None  # C0 for R < 0, else None
    phase: str | None  # "min" | "max" anchor phase (R > 0), else None
    lam_at_anchor: float
    roots: object  # RootSet
    roots_per_interval: tuple[int, ...] | None  # R > 0: lam roots between r' roots


# ----------------------------------------------------------------------
# Quadrature of r/(r')^2 on the base steps
# ----------------------------------------------------------------------
#
# Each node interval is split into _SUBDIV equal sub-panels with a
# _GL_ORDER-point Gauss-Legendre rule on each.  An interval that is a full
# step of the base integration is therefore sampled at the same
# _SUBDIV * _GL_ORDER fractions of the step every time, so the quintic
# Hermite basis is evaluated once at those fractions (_step_basis) and r, r'
# on a block of full steps are one product of that basis with the steps'
# node data.  Every other interval (a step split at theta, a range end inside
# a step, the mirrored half s < 0) is sampled through the dense output.


def _gauss_panels(sample: Callable, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of r/(r')^2 over [start, start + len] panels.

    ``sample`` maps arclengths to the rows (r, r', ...), as
    ``Profile.sample_base`` does.  It is handed the Gauss points of one
    block of ``support.ROW_BLOCK`` panels at a time, and each block's
    integrals go into one preallocated result, so a long range holds one
    block of samples however many panels it has.
    """
    gx, gw = gauss_legendre(_GL_ORDER)
    out = np.empty(starts.shape, dtype=_LD)
    for rows in row_blocks(out.size):
        pts = starts[rows, None] + lens[rows, None] * gx[None, :]
        v = sample(pts.ravel())
        f = (v[0] / v[1] ** 2).reshape(pts.shape)
        out[rows] = lens[rows] * (f @ gw)
    return out


def _panel_quad(sample: Callable, nodes: np.ndarray) -> np.ndarray:
    """``_gauss_panels`` over the consecutive panels of ``nodes``."""
    return _gauss_panels(sample, nodes[:-1], np.diff(nodes))


def _subdivided(nodes: np.ndarray, subdiv: int = _SUBDIV) -> np.ndarray:
    """Insert subdiv-1 equally spaced points inside each node interval."""
    if nodes.size < 2:
        return nodes
    frac = np.arange(subdiv, dtype=_LD) / subdiv
    fine = (nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, :]).ravel()
    return np.append(fine, nodes[-1])


@lru_cache(maxsize=1)
def _step_basis() -> np.ndarray:
    """Quintic Hermite basis at the quadrature fractions of a full step.

    Row ``j * _GL_ORDER + k`` holds the six weights of (y0, h y0', h^2 y0'',
    y1, h y1', h^2 y1'') at the k-th Gauss node of sub-panel j.
    """
    gx, _ = gauss_legendre(_GL_ORDER)
    tau = ((np.arange(_SUBDIV, dtype=_LD)[:, None] + gx[None, :]) / _SUBDIV).ravel()
    basis = hermite_quintic(tau[:, None], *np.eye(6, dtype=_LD))
    basis.flags.writeable = False
    return basis


def _base_panels(profile: Profile, nodes: np.ndarray) -> np.ndarray:
    """Integrals of r/(r')^2 over the sub-panels of ascending ``nodes``.

    Returns the same ``_SUBDIV`` sub-panel integrals per node interval as
    ``_panel_quad(profile.sample_base, _subdivided(nodes))``.  Intervals that
    are full base steps go through ``_step_basis`` one block of
    ``support.ROW_BLOCK`` steps at a time; the others through
    ``Profile.sample_base``.
    """
    base = profile._dense()
    fine = _subdivided(nodes)
    ts = base.ts
    lens = np.diff(fine).reshape(-1, _SUBDIV)
    out = np.empty(lens.shape, dtype=_LD)
    lo, hi = nodes[:-1], nodes[1:]
    i = np.clip(np.searchsorted(ts, lo), 0, ts.size - 2)
    full = (ts[i] == lo) & (ts[i + 1] == hi)
    out[~full] = _gauss_panels(
        profile.sample_base, fine[:-1].reshape(lens.shape)[~full].ravel(), lens[~full].ravel()
    ).reshape(-1, _SUBDIV)
    basis = _step_basis()
    _, gw = gauss_legendre(_GL_ORDER)
    ks = np.flatnonzero(full)
    for rows in row_blocks(ks.size):
        k = ks[rows]
        i0 = i[k]
        i1 = i0 + 1
        h = (ts[i1] - ts[i0])[:, None]
        # (steps, 6, 2): the Hermite data of r and r' at both step ends.
        data = np.stack([
            base.ys[i0, :2], h * base.dys[i0, :2], h * h * base.d2ys[i0, :2],
            base.ys[i1, :2], h * base.dys[i1, :2], h * h * base.d2ys[i1, :2],
        ], axis=1)
        v = basis @ data
        f = (v[..., 0] / v[..., 1] ** 2).reshape(-1, _GL_ORDER)
        out[k] = lens[k] * (f @ gw).reshape(-1, _SUBDIV)
    return out.ravel()


def _quad_between(profile: Profile, lo: float, hi: float) -> float:
    """Integral of r/(r')^2 over [lo, hi] on the base step panels."""
    inner = profile.grid[(profile.grid > lo) & (profile.grid < hi)]
    nodes = np.concatenate([[_LD(lo)], np.asarray(inner, dtype=_LD), [_LD(hi)]])
    return float(np.sum(_base_panels(profile, nodes)))


def _check_no_critical_points(profile: Profile, lo: float, hi: float) -> None:
    roots = find_roots(profile).rp_roots
    inside = roots[(roots > lo + _ROOT_PAD) & (roots < hi - _ROOT_PAD)]
    if inside.size:
        raise SingularEndpoint(
            f"critical point of r at s = {inside[0]:.6g} lies inside "
            f"({lo:.6g}, {hi:.6g}); the integrand r/(r')^2 is not integrable there"
        )
    # The roots include the anchor s = 0.
    near_lo = roots[np.abs(roots - lo) <= _ROOT_PAD]
    near_hi = roots[np.abs(roots - hi) <= _ROOT_PAD]
    if near_lo.size or near_hi.size:
        raise SingularEndpoint(
            "integration endpoint sits on a critical point of r, where "
            "r/(r')^2 has a non-integrable singularity"
        )


def _improper_from(profile: Profile, s_from: float) -> float:
    """Integral of r/(r')^2 from s_from to +infinity for R < 0."""
    params = profile.params
    m = math.sqrt(-params.c2)  # the decay rate of the R < 0 asymptotics
    # Denominators of the formula error below; they underflow to zero only
    # when |R| is too small for the estimate to be formed at all.
    d5, d7 = (params.n + 1) * m**5, m**7
    if d5 == 0.0 or d7 == 0.0:
        raise OutOfRange(
            f"|R| = {-params.R:.3g} is too small for the improper tail: its "
            "remainder estimate underflows"
        )
    body_in_window = _quad_between(profile, s_from, profile.s_max)
    r_target = _TAIL_RADIUS
    for _ in range(24):
        ext = extend_base(profile, r_target=r_target)
        nodes = _subdivided(ext.ts, 2)
        body_out = float(np.sum(_panel_quad(lambda s: ext(s).T, nodes)))
        rS = float(ext.ys[-1, 0])
        rpS = float(ext.ys[-1, 1])
        tail = params.n * (params.n - 1) / ((-params.R) * rpS)
        total = body_in_window + body_out + tail
        # Formula error: next asymptotic orders, a r^-(n+1) and kappa0^2 r^-5.
        try:
            err = abs(params.a) / (d5 * rS ** (params.n + 1))
        except OverflowError:  # r^-(n+1) is then below any total
            err = 0.0
        try:
            err += profile.kappa0**2 / (d7 * rS**5)
        except OverflowError:  # as above, an overflowing term counts as 0
            pass
        if err <= 1e-10 * abs(total):
            return total
        r_target *= 2.0
    raise OutOfRange(
        "improper tail did not reach the requested accuracy within the "
        "radius-extension budget"
    )


def improper_integral(
    profile: Profile,
    s_from: float,
    s_to: float = math.inf,
) -> float:
    """Integral of r/(r')^2 over (s_from, s_to), s_to = +inf allowed for R < 0.

    A finite range must ascend (OutOfRange) and, like ``s_from`` of an improper
    one, lie in the window (``Profile._check_window``); the open interval must
    avoid the critical points of r, where the integrand has non-integrable
    singularities (SingularEndpoint), found on the dense base (InvalidRegime
    without one).  For R >= 0 the improper integral diverges
    (DivergentIntegral); for R < 0 its part beyond s_max runs on an
    extension of the base to radius ``_TAIL_RADIUS``, doubled until the tail
    formula's estimated error is below 1e-10 of the total.
    """
    s_from = float(s_from)
    if math.isinf(s_to):
        if profile.params.R >= 0.0:
            raise DivergentIntegral(
                "the improper integral of r/(r')^2 diverges for R >= 0 "
                "(the integrand decays too slowly or r' returns to zero)"
            )
        profile._check_window(np.array([s_from]))
        _check_no_critical_points(profile, s_from, profile.s_max + 1.0)
        return _improper_from(profile, s_from)
    s_to = float(s_to)
    if s_to <= s_from:
        raise OutOfRange(f"empty or reversed range ({s_from:.6g}, {s_to:.6g})")
    profile._check_window(np.array([s_from, s_to]))
    _check_no_critical_points(profile, s_from, s_to)
    return _quad_between(profile, s_from, s_to)


def lhopital_product(profile: Profile, s: float) -> float:
    """r'(s)/(n-1) times the improper integral from s; tends to n/(-R)."""
    rp = float(profile.sample_base(s)[1][0])
    return rp / (profile.params.n - 1) * improper_integral(profile, s)


# ----------------------------------------------------------------------
# Cumulative matching table
# ----------------------------------------------------------------------


@dataclass
class _CumulativeTable:
    """A profile's matching table.  Its methods take the profile: the profile
    caches the table, and a reference back would make a cycle that keeps
    both alive until the garbage collector's next full pass."""

    xs: np.ndarray  # panel nodes, ascending, positive
    prefix: np.ndarray  # prefix integrals; prefix[k] = int_{xs[0]}^{xs[k]}
    theta_offset: float  # int_{xs[0]}^{theta}
    limit: float  # supremum of the valid x range (s1 for R > 0, s_max else)

    def value(self, profile: Profile, x: float) -> float:
        """G(x) = int_theta^x r/(r')^2."""
        x = float(x)
        if x < float(self.xs[0]):
            raise OutOfRange(
                f"matching query s = {x:.6g} too close to the anchor "
                "(the cumulative integrand is singular at s = 0)"
            )
        if x >= self.limit - _ROOT_PAD and self.limit < profile.s_max:
            raise OutOfRange(
                f"matching query s = {x:.6g} reaches the critical point at "
                f"s = {self.limit:.6g}"
            )
        if x > float(self.xs[-1]):
            extra = _quad_between(profile, float(self.xs[-1]), x)
            return float(self.prefix[-1]) + extra - self.theta_offset
        k = int(np.searchsorted(self.xs, x, side="right") - 1)
        k = min(max(k, 0), self.xs.size - 2)
        lo = float(self.xs[k])
        part = 0.0
        if x > lo:
            # [lo, x] lies inside one sub-panel, never a full base step.
            fine = _subdivided(np.array([lo, x], dtype=_LD))
            part = float(np.sum(_panel_quad(profile.sample_base, fine)))
        return float(self.prefix[k]) + part - self.theta_offset

    def solve(self, profile: Profile, target: float) -> float:
        """Solve G(x) = target; G is strictly increasing."""
        lo = float(self.xs[0])
        g_lo = self.value(profile, lo)
        if target < g_lo:
            raise OutOfRange(
                "matching target below the reachable range; the paired root "
                "would collide with the anchor"
            )
        hi = float(self.xs[-1])
        g_hi = self.value(profile, hi)
        if g_hi < target:
            if self.limit >= profile.s_max:
                raise OutOfRange(
                    "matched root lies beyond the integration window; "
                    "increase s_max"
                )
            # Approach the critical point where G blows up.  The loop ends:
            # value() refuses hi within _ROOT_PAD of it, at most 46 halvings
            # in for any window the step budget admits (s_max <= 40,000).
            gap = self.limit - hi
            while g_hi < target:
                gap *= 0.5
                hi = self.limit - gap
                g_hi = self.value(profile, hi)
        return bisect_root(lambda x: self.value(profile, x) - target, lo, hi, tol=_ZETA_TOL,
                           f_lo=g_lo - target, f_hi=g_hi - target)


def _table_nodes(profile: Profile) -> tuple[np.ndarray, float]:
    """Node intervals of the matching table, and the table's limit.

    The nodes are the base steps inside (0, limit) plus theta, so every
    interval is a full step except the two on either side of theta.
    """
    theta = profile.theta
    s1 = find_roots(profile).s1
    limit = min(profile.s_max, s1) if s1 is not None else profile.s_max
    ts = profile._base.ts
    nodes = ts[(ts > 0) & (ts < limit - _ROOT_PAD)]
    return np.unique(np.concatenate([nodes, [_LD(theta)]])), float(limit)


def _get_table(profile: Profile) -> _CumulativeTable:
    """The profile's cached matching table, built on first use."""
    if profile._gtable is not None:
        return profile._gtable  # type: ignore[return-value]
    nodes, limit = _table_nodes(profile)
    panels = _base_panels(profile, nodes)
    xs = _subdivided(nodes)
    prefix = np.concatenate([[0.0], np.cumsum(panels, dtype=_LD)]).astype(float)
    i_theta = int(np.argmin(np.abs(xs - _LD(profile.theta))))
    table = _CumulativeTable(
        xs=np.asarray(xs, dtype=float),
        prefix=prefix,
        theta_offset=float(prefix[i_theta]),
        limit=limit,
    )
    profile._gtable = table
    return table


def cumulative_integral(profile: Profile, x: float) -> float:
    """G(x) = int_theta^x r/(r')^2 on the positive axis (table-backed)."""
    return _get_table(profile).value(profile, float(x))


# ----------------------------------------------------------------------
# Thresholds, classification, matching
# ----------------------------------------------------------------------


def c_threshold(profile: Profile) -> float:
    """Admissibility threshold C0 = G(+inf)/(n-1); defined for R < 0 only."""
    if profile.params.R >= 0.0:
        raise InvalidRegime(
            "the admissibility threshold is defined only for R < 0 "
            "(the improper integral diverges otherwise)"
        )
    table = _get_table(profile)
    g_total = table.value(profile, float(table.xs[-1]))
    g_total += improper_integral(profile, float(table.xs[-1]))
    return g_total / (profile.params.n - 1)


def exclusion_zeta(profile: Profile) -> float:
    """Anchor-side exclusion radius zeta for R < 0.

    Matching admits a compact two-boundary domain only for zeta1 > zeta;
    zeta solves G(zeta) = -G(+inf) inside (0, theta).  OutOfRange when the
    target lies below G at the table's first node: zeta is then closer to
    the anchor than the table resolves.
    """
    c0 = c_threshold(profile)
    table = _get_table(profile)
    target = -(profile.params.n - 1) * c0
    x0 = float(table.xs[0])
    if target < table.value(profile, x0):
        raise OutOfRange(
            f"exclusion radius unresolved: its target -G(inf) = {target:.6g} lies "
            f"below G at the matching table's first node s = {x0:.6g}"
        )
    return table.solve(profile, target)


def classify_roots(profile: Profile) -> RootClassification:
    """Report the root structure of the potential by curvature regime.

    R = 0: two roots for every C.  R < 0: case "a" (C <= -C0, single
    positive root), "b" (C >= C0, single negative root) or "c" (|C| < C0,
    one root of each sign).  R > 0: roots per critical interval plus the
    anchor phase (min/max) and the sign of lam at the anchor.  Needs an
    attached potential and a dense base (InvalidRegime otherwise).
    """
    if not profile.complete:
        raise InvalidRegime("root classification requires an attached potential")
    roots = find_roots(profile)
    lam_anchor = float(profile.sample(0.0).lam[0])
    R = profile.params.R
    C = float(profile.C)
    case = c0 = phase = counts = None
    if R < 0.0:
        c0 = c_threshold(profile)
        band = _CLASSIFY_TOL * max(1.0, c0)
        if C <= -c0 + band and abs(C + c0) > band:
            case = "a"
        elif C >= c0 - band and abs(C - c0) > band:
            case = "b"
        elif abs(C) < c0:
            case = "c"
        else:
            # Boundary values: the vanishing root sits at infinity; report
            # the one-root case on the side that survives.
            case = "a" if C < 0 else "b"
    elif R > 0.0:
        # Anchor phase and per-interval root counts.
        phase = roots.phase
        order = np.sort(roots.rp_roots)
        counts = tuple(
            int(np.sum((roots.lam_roots > lo) & (roots.lam_roots < hi)))
            for lo, hi in zip(order[:-1], order[1:])
        )
    return RootClassification(
        regime="negative" if R < 0.0 else "zero" if R == 0.0 else "positive",
        case=case,
        C=C,
        c_threshold=c0,
        phase=phase,
        lam_at_anchor=lam_anchor,
        roots=roots,
        roots_per_interval=counts,
    )


def match_boundary(profile: Profile, zeta1: float) -> MatchResult:
    """Pair the outer root zeta1 > 0 with its partner zeta2 < 0.

    Solves the integral matching relation on the cumulative table, then
    cross-checks by locating the negative root of lam = lam0 + C r'
    directly; both answers and their discrepancy are returned.

    Raises OutOfRange when zeta1 is outside the admissible range for the
    curvature regime (beyond the first critical point for R > 0; at or
    below the exclusion radius for R < 0).
    """
    zeta1 = float(zeta1)
    if not (zeta1 > 0.0) or not math.isfinite(zeta1):
        raise OutOfRange(f"outer root must be positive and finite, got {zeta1!r}")
    table = _get_table(profile)
    params = profile.params
    if zeta1 >= table.limit - _ROOT_PAD and table.limit < profile.s_max:
        raise OutOfRange(
            f"outer root {zeta1:.6g} must lie strictly below the first "
            f"critical point of r at s = {table.limit:.6g}"
        )
    if zeta1 > profile.s_max:
        raise OutOfRange(
            f"outer root {zeta1:.6g} beyond the integration window; increase s_max"
        )

    g1 = table.value(profile, zeta1)
    if params.R < 0.0:
        c0 = c_threshold(profile)
        if g1 <= -(params.n - 1) * c0:
            zeta_min = exclusion_zeta(profile)
            raise OutOfRange(
                f"outer root {zeta1:.6g} is inside the exclusion radius "
                f"{zeta_min:.6g}; no compact partner root exists (the "
                "matched boundary escapes to infinity)"
            )
    C = g1 / (params.n - 1)

    y = table.solve(profile, -g1)
    zeta2 = -y

    # Cross-check: direct root of the completed potential near zeta2.
    complete = solve_potential(profile, C)
    lam_f = lambda s: float(complete.sample(s).lam[0])
    lo = max(profile.s_min, -table.limit + _ROOT_PAD)
    cands = _node_roots(complete.grid, complete.lam, lam_f, _ZETA_TOL, lo=lo, hi=-1e-9)
    if not cands:
        raise VerificationError(
            "integral matching produced C with no negative potential root; "
            "the two characterizations disagree"
        )
    zeta2_root = min(cands, key=lambda t: abs(t - zeta2))
    return MatchResult(
        zeta1=zeta1,
        zeta2=zeta2,
        C=C,
        zeta2_from_root=zeta2_root,
        discrepancy=abs(zeta2 - zeta2_root),
    )


# ----------------------------------------------------------------------
# Domain builders
# ----------------------------------------------------------------------


def _interior_positivity(profile: Profile, lo: float, hi: float) -> float:
    """The largest lam of a 2001-point sample of (lo, hi), padded in from both
    ends; InvalidRegime unless lam > 0 at every sample (a NaN fails)."""
    pad = max(10 * _LAMBDA_ROOT_TOL, 1e-6 * (hi - lo))
    xs = np.linspace(lo + pad, hi - pad, 2001)
    lam = np.asarray(profile.sample(xs).lam, dtype=float)
    if not np.min(lam) > 0.0:
        i = int(np.argmin(lam))
        raise InvalidRegime(
            f"potential is not positive inside the domain (lam({xs[i]:.6g}) = "
            f"{lam[i]:.3e}); a valid domain needs the min-phase anchor"
        )
    return float(np.max(lam))


def _certified_domain(
    complete: Profile,
    lo: float,
    hi: float,
    fiber: FiberSpec,
    components: int,
    quotient: dict | None = None,
) -> MatchedDomain:
    """The domain [lo, hi] once lam > 0 inside, lam vanishes at lo and hi
    relative to its largest value inside, and ``fiber`` matches, in that
    order.  lam is read on [lo, hi] only: the interior sample of
    ``_interior_positivity``, and one sample at (lo, hi) that gives the faces."""
    scale = max(1.0, _interior_positivity(complete, lo, hi))
    v = complete.sample([lo, hi])
    lam2, lam1 = (float(x) for x in v.lam)
    if not (abs(lam1) <= _LAMBDA_ROOT_TOL * scale and abs(lam2) <= _LAMBDA_ROOT_TOL * scale):
        raise VerificationError(
            f"potential does not vanish at the matched boundary: "
            f"lam(zeta1) = {lam1:.3e}, lam(zeta2) = {lam2:.3e}"
        )
    n = complete.params.n
    fiber.require_dim(n)
    if not abs(fiber.kappa0 - complete.kappa0) <= _FIBER_TOL * max(1.0, abs(complete.kappa0)):
        raise FiberMismatch(
            f"fiber curvature {fiber.kappa0:.12g} inconsistent with the "
            f"profile's conserved value {complete.kappa0:.12g}"
        )
    if complete.params.R >= 0.0 and fiber.kappa0 <= 0.0:
        raise FiberMismatch("the fiber curvature must be positive when R >= 0")
    faces = []
    for k, (side, orient, s) in enumerate((("left", -1.0, lo), ("right", 1.0, hi))):
        r = float(v.r[k])
        faces.append(BoundaryFace(
            side=side,
            s=float(s),
            radius=r,
            mean_curvature=orient * (n - 1) * float(v.rp[k]) / r,
            normal_derivative=orient * float(v.lamp[k]),
        ))
    return MatchedDomain(
        profile=complete,
        interval=(lo, hi),
        fiber=fiber,
        boundary=tuple(faces),
        boundary_components=components,
        quotient=quotient,
    )


def require_domain_regime(params: OdeParams) -> None:
    """The check both domain builders make before they integrate."""
    if params.a <= 0.0:
        raise InvalidRegime(
            "a matched domain requires a > 0 (a = 0 is the Einstein case, "
            "whose critical domain has a single boundary sphere)"
        )


def build_two_boundary_domain(
    params: OdeParams,
    r0: float,
    zeta1: float,
    *,
    s_max: float = 12.0,
    fiber: FiberSpec | None = None,
) -> MatchedDomain:
    """Construct the compact domain with two boundary spheres.

    Integrates the even profile anchored at r0, pairs zeta1 with its partner
    root, attaches the matched potential, and packages boundary data.  The
    boundary has two connected components; the potential is positive inside.
    Requires a > 0 (``require_domain_regime``): with a = 0 the metric is
    Einstein and the two-boundary construction degenerates.
    """
    require_domain_regime(params)
    profile = integrate_profile(params, r0, s_max)
    match = match_boundary(profile, zeta1)
    if fiber is None:
        fiber = FiberSpec(dim=params.n - 1, kappa0=profile.kappa0)
    return _certified_domain(solve_potential(profile, match.C), match.zeta2, zeta1, fiber, 2)


def build_quotient_domain(
    params: OdeParams,
    r0: float,
    *,
    s_max: float = 12.0,
    fiber: FiberSpec | None = None,
) -> MatchedDomain:
    """Construct the connected-boundary quotient domain.

    Uses the even member (C = 0) on the symmetric interval [-theta, theta]
    and identifies (s, x) with (-s, alpha(x)) for a free involution alpha of
    the fiber.  The two boundary spheres are glued into one connected
    component.  Requires the fiber symmetry flag (NoFreeInvolution
    otherwise); by default a positively curved fiber is taken to be the
    round sphere with its antipodal involution.
    """
    require_domain_regime(params)
    profile = integrate_profile(params, r0, s_max)
    if fiber is None:
        fiber = FiberSpec(params.n - 1, profile.kappa0, symmetry=bool(profile.kappa0 > 0.0))
    if not fiber.symmetry:
        raise NoFreeInvolution(
            "the fiber carries no free involution; the quotient "
            "identification (s, x) ~ (-s, alpha(x)) is unavailable"
        )
    complete = solve_potential(profile, 0.0)
    theta = complete.theta
    # C = 0 makes the potential exactly even (sample_base evaluates the even
    # branch at |s|), so it descends to the quotient.
    return _certified_domain(
        complete, -theta, theta, fiber, 1,
        quotient={
            "group": [["id", 0], ["alpha", 1]],
            "identification": "(s, x) ~ (-s, alpha(x))",
            "free": True,
        },
    )


# ----------------------------------------------------------------------
# Static radial chart
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchwarzschildChart:
    """Static radial-coordinate description g = W(r)^-1 dr^2 + r^2 h.

    Exists for R <= 0, a > 0 over a unit-curvature fiber; W(r) =
    1 - c2 r^2 - (2a/(n-2)) r^(2-n) vanishes at the horizon radius, the
    unique closed minimal level, which coincides with the anchor radius of
    the even profile.  The mass is ``params.a``.  The chart carries no
    serializer: the CLI assembles its envelope record.
    """

    params: OdeParams
    horizon: float
    horizon_from_polynomial: float
    profile: Profile
    exclusion: float | None  # exclusion radius (R < 0), else None

    def match(self, zeta1: float) -> MatchResult:
        """Pair an outer boundary sphere with its reflected partner."""
        return match_boundary(self.profile, zeta1)


def _horizon_from_polynomial(params: OdeParams) -> float:
    """The positive root of (n-2) W(r) r^(n-2) as a polynomial in r.

    For R <= 0 and a > 0 the polynomial -(n-2) c2 r^n + (n-2) r^(n-2) - 2a
    has one sign change in its coefficients, so by Descartes' rule exactly
    one positive root; it is -2a at r = 0 and increasing on r > 0.  The root
    is bracketed by doubling from r = 1 and bisected to float resolution on
    the longdouble polynomial.
    """
    n, c2, two_a = params.n, _LD(params.c2), 2 * _LD(params.a)

    def poly(r):
        # (n-2) r^(n-2) (1 - c2 r^2) - 2a: the product is positive, so an
        # overflow to inf keeps the sign that steers the bracket.
        r = _LD(r)
        with np.errstate(over="ignore"):
            return _LD(n - 2) * r ** (n - 2) * (1 - c2 * r * r) - two_a

    lo, hi = 0.0, 1.0
    while poly(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    return bisect_root(poly, lo, hi, tol=0.0)


def schwarzschild_form(
    params: OdeParams,
    *,
    kappa0: float = 1.0,
    s_max: float = 12.0,
) -> SchwarzschildChart:
    """Static radial chart with horizon data for R <= 0, a > 0, kappa0 = 1.

    The horizon radius is computed along two independent routes -- as the
    anchor radius with conserved value 1, and as the largest positive root
    of the polynomial form of the denominator -- and both are reported.
    Before integrating, the conserved value at the horizon, which is the
    profile's kappa0, is certified to lie within ``_FIBER_TOL`` of 1: a
    large mass makes it the difference of two large terms, and OutOfRange
    names the mass once float64 rounding of the horizon breaks that bound.
    """
    if params.R > 0.0:
        raise InvalidRegime("static radial chart requires R <= 0")
    if params.a <= 0.0:
        raise InvalidRegime("static radial chart requires a > 0")
    if abs(float(kappa0) - 1.0) > 1e-12:
        raise InvalidRegime(
            f"static radial chart is normalized to kappa0 = 1, got {kappa0!r}"
        )
    horizon = solve_radius_for_kappa0(params, 1.0)
    kappa0_h = float(conserved_quantity(params, horizon, 0.0))
    if abs(kappa0_h - 1.0) > _FIBER_TOL:
        raise OutOfRange(
            f"mass a = {params.a:.6g} is out of range: the horizon's kappa0 = "
            f"{kappa0_h:.12g} is off 1 by more than {_FIBER_TOL:.0e}"
        )
    horizon_poly = _horizon_from_polynomial(params)
    profile = integrate_profile(params, horizon, s_max)
    excl = exclusion_zeta(profile) if params.R < 0.0 else None
    return SchwarzschildChart(
        params=params,
        horizon=horizon,
        horizon_from_polynomial=horizon_poly,
        profile=profile,
        exclusion=excl,
    )
