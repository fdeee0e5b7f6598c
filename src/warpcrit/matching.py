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
    OutOfGrid,
    OutOfRange,
    SingularEndpoint,
    VerificationError,
)
from .profiles import (
    OdeParams,
    Profile,
    _node_roots,
    extend_base,
    find_roots,
    integrate_profile,
    solve_potential,
    solve_radius_for_kappa0,
    warp_accel,
)
from .rk45 import hermite_quintic
from .support import bisect_root, gauss_legendre

__all__ = [
    "FiberSpec",
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

_LD = np.longdouble

# Quadrature: Gauss-Legendre order per panel, dense-step subdivision factor,
# and the full steps evaluated per basis product (bounds its transients).
_GL_ORDER = 20
_SUBDIV = 4
_STEP_BLOCK = 2048

# Endpoints closer than this to a critical point of r are singular for the
# r/(r')^2 integrand.
_ROOT_PAD = 1e-9

# Default truncation radius for improper tails; pushed further adaptively.
_TAIL_RADIUS = 2000.0

# Absolute tolerance on matched root positions.
_ZETA_TOL = 1e-12

# Tolerance of the boundary checks of build_two_boundary_domain and
# build_quotient_domain: relative on the potential at the matched roots,
# absolute on the evenness gap, and the floor of the positivity sampling pad.
_LAMBDA_ROOT_TOL = 1e-10

# Relative tolerance of the fiber curvature against the profile's kappa0.
_FIBER_TOL = 1e-10

# Relative band of classify_roots around the threshold C0.
_CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class FiberSpec:
    """Symbolic description of the fiber (N, h).

    The geometry enters only through the dimension and the Einstein constant
    kappa0 (sectional curvature of h when dim >= 2 forces constant
    curvature at this Einstein scaling).  ``symmetry`` flags that N carries
    a free involution (e.g. the antipodal map of a round sphere), which the
    quotient construction requires.
    """

    dim: int
    kappa0: float
    symmetry: bool = False

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 2:
            raise OutOfRange(f"fiber dimension must be an integer >= 2, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "kappa0", float(self.kappa0))


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

    def to_dict(self) -> dict:
        p = self.profile.params
        return {
            "params": {"n": p.n, "R": p.R, "a": p.a},
            "r0": self.profile.r0,
            "C": self.profile.C,
            "interval": list(self.interval),
            "fiber": {
                "dim": self.fiber.dim,
                "kappa0": self.fiber.kappa0,
                "symmetry": self.fiber.symmetry,
            },
            "boundary_components": self.boundary_components,
            "boundary": [
                {
                    "side": f.side,
                    "s": f.s,
                    "radius": f.radius,
                    "mean_curvature": f.mean_curvature,
                    "normal_derivative": f.normal_derivative,
                }
                for f in self.boundary
            ],
            "quotient": self.quotient,
        }


@dataclass(frozen=True)
class MatchResult:
    """Outcome of the boundary-matching solve, both routes."""

    zeta1: float
    zeta2: float  # negative; from the cumulative-integral bisection
    C: float
    zeta2_from_root: float  # negative; direct root of lam = lam0 + C r'
    discrepancy: float  # |zeta2 - zeta2_from_root|
    integral_left: float  # int_{-theta}^{zeta2} r/(r')^2
    integral_right: float  # int_theta^{zeta1} r/(r')^2


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
    ``Profile.sample_base`` does.
    """
    gx, gw = gauss_legendre(_GL_ORDER)
    pts = starts[:, None] + lens[:, None] * gx[None, :]
    v = sample(pts.ravel())
    f = (v[0] / v[1] ** 2).reshape(pts.shape)
    return lens * (f @ gw)


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
    are full base steps go through ``_step_basis`` in blocks of
    ``_STEP_BLOCK`` steps; the others through ``Profile.sample_base``, as
    does every interval of a closed-form profile.
    """
    base = profile._base
    fine = _subdivided(nodes)
    if base is None:
        return _panel_quad(profile.sample_base, fine)
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
    for b in range(0, ks.size, _STEP_BLOCK):
        k = ks[b:b + _STEP_BLOCK]
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
    if hi <= lo:
        return 0.0
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
    near_lo = roots[np.abs(roots - lo) <= _ROOT_PAD]
    near_hi = roots[np.abs(roots - hi) <= _ROOT_PAD]
    if not profile.degenerate_origin and abs(lo) <= _ROOT_PAD:
        near_lo = np.array([0.0])
    if near_lo.size or near_hi.size:
        raise SingularEndpoint(
            "integration endpoint sits on a critical point of r, where "
            "r/(r')^2 has a non-integrable singularity"
        )


def _tail_mass(params: OdeParams) -> float:
    """Decay rate m = sqrt(-R/(n(n-1))) of the R < 0 asymptotics."""
    return math.sqrt(-params.R / (params.n * (params.n - 1)))


def _improper_from(
    profile: Profile, s_from: float, r_truncation: float | None = None
) -> float:
    """Integral of r/(r')^2 from s_from to +infinity for R < 0."""
    params = profile.params
    m = _tail_mass(params)
    body_in_window = _quad_between(profile, s_from, profile.s_max)
    r_target = _TAIL_RADIUS if r_truncation is None else float(r_truncation)
    for _ in range(24):
        ext = extend_base(profile, r_target=r_target)
        nodes = _subdivided(ext.ts, 2)
        body_out = float(np.sum(_panel_quad(lambda s: ext(s).T, nodes)))
        rS = float(ext.ys[-1, 0])
        rpS = float(ext.ys[-1, 1])
        tail = params.n * (params.n - 1) / ((-params.R) * rpS)
        total = body_in_window + body_out + tail
        # Formula error: next asymptotic orders, a r^-(n+1) and kappa0^2 r^-5.
        err = abs(params.a) / ((params.n + 1) * m**5 * rS ** (params.n + 1))
        err += profile.kappa0**2 / (m**7 * rS**5)
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
    *,
    r_truncation: float | None = None,
) -> float:
    """Integral of r/(r')^2 over (s_from, s_to), s_to = +inf allowed for R < 0.

    The integrand has non-integrable singularities at critical points of r,
    so the open interval must avoid them (SingularEndpoint otherwise).  For
    R >= 0 the improper integral diverges (DivergentIntegral).
    ``r_truncation`` overrides the starting truncation radius of the
    adaptive asymptotic tail (testing hook; the default is pushed outward
    until the estimated tail-formula error is below 1e-10 of the total).
    """
    if profile.constant_solution:
        raise SingularEndpoint("constant profile: r' vanishes identically")
    s_from = float(s_from)
    if math.isinf(s_to):
        if profile.params.R >= 0.0:
            raise DivergentIntegral(
                "the improper integral of r/(r')^2 diverges for R >= 0 "
                "(the integrand decays too slowly or r' returns to zero)"
            )
        if s_from < profile.s_min:
            raise OutOfGrid(
                f"lower endpoint {s_from:.6g} outside profile window"
            )
        _check_no_critical_points(profile, s_from, profile.s_max + 1.0)
        return _improper_from(profile, s_from, r_truncation)
    s_to = float(s_to)
    if s_to <= s_from:
        raise OutOfRange(f"empty or reversed range ({s_from:.6g}, {s_to:.6g})")
    if s_from < profile.s_min or s_to > profile.s_max:
        raise OutOfGrid(
            f"range ({s_from:.6g}, {s_to:.6g}) exceeds profile window "
            f"[{profile.s_min:.6g}, {profile.s_max:.6g}]"
        )
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
            part = float(np.sum(_base_panels(profile, np.array([lo, x], dtype=_LD))))
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
            # Approach the critical point where G blows up.
            gap = self.limit - hi
            for _ in range(60):
                gap *= 0.5
                hi = self.limit - gap
                g_hi = self.value(profile, hi)
                if g_hi >= target:
                    break
            else:
                raise OutOfRange(
                    "matching target unreachable below the critical point"
                )
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
    if profile.constant_solution or profile.degenerate_origin:
        raise InvalidRegime(
            "boundary matching requires a nonconstant even profile"
        )
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
    zeta solves G(zeta) = -G(+inf) inside (0, theta).
    """
    c0 = c_threshold(profile)
    table = _get_table(profile)
    return table.solve(profile, -(profile.params.n - 1) * c0)


def classify_roots(profile: Profile) -> RootClassification:
    """Report the root structure of the potential by curvature regime.

    R = 0: two roots for every C.  R < 0: case "a" (C <= -C0, single
    positive root), "b" (C >= C0, single negative root) or "c" (|C| < C0,
    one root of each sign).  R > 0: roots per critical interval plus the
    anchor phase (min/max) and the sign of lam at the anchor.
    """
    if not profile.complete:
        raise InvalidRegime("root classification requires an attached potential")
    if profile.constant_solution:
        raise InvalidRegime("constant profiles have no potential roots")
    if profile.degenerate_origin:
        raise InvalidRegime(
            "root classification applies to even-anchored profiles, not "
            "pole-anchored space forms"
        )
    roots = find_roots(profile)
    lam_anchor = float(profile.sample(0.0).lam[0])
    R = profile.params.R
    C = float(profile.C)

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
        return RootClassification(
            regime="negative",
            case=case,
            C=C,
            c_threshold=c0,
            phase=None,
            lam_at_anchor=lam_anchor,
            roots=roots,
            roots_per_interval=None,
        )

    if R == 0.0:
        return RootClassification(
            regime="zero",
            case=None,
            C=C,
            c_threshold=None,
            phase=None,
            lam_at_anchor=lam_anchor,
            roots=roots,
            roots_per_interval=None,
        )

    # R > 0: anchor phase and per-interval root counts.
    racc0 = float(warp_accel(profile.params, profile.r0))
    phase = "min" if racc0 > 0 else "max"
    rp_roots = roots.rp_roots
    lam_roots = roots.lam_roots
    counts = []
    order = np.sort(rp_roots)
    for lo, hi in zip(order[:-1], order[1:]):
        counts.append(int(np.sum((lam_roots > lo) & (lam_roots < hi))))
    return RootClassification(
        regime="positive",
        case=None,
        C=C,
        c_threshold=None,
        phase=phase,
        lam_at_anchor=lam_anchor,
        roots=roots,
        roots_per_interval=tuple(counts),
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
    complete = profile if (profile.complete and profile.C == C) else solve_potential(profile, C)
    lam_f = lambda s: float(complete.sample(s).lam[0])
    lo = max(profile.s_min, -table.limit + _ROOT_PAD)
    cands = _node_roots(complete.grid, complete.lam, lam_f, _ZETA_TOL, lo=lo, hi=-1e-9)
    if not cands:
        raise VerificationError(
            "integral matching produced C with no negative potential root; "
            "the two characterizations disagree"
        )
    zeta2_root = min(cands, key=lambda t: abs(t - zeta2))

    g_left = -table.value(profile, y)  # int_{-theta}^{zeta2} by evenness
    return MatchResult(
        zeta1=zeta1,
        zeta2=zeta2,
        C=C,
        zeta2_from_root=zeta2_root,
        discrepancy=abs(zeta2 - zeta2_root),
        integral_left=g_left,
        integral_right=g1,
    )


# ----------------------------------------------------------------------
# Domain builders
# ----------------------------------------------------------------------


def _check_fiber(profile: Profile, fiber: FiberSpec) -> None:
    if fiber.dim != profile.params.n - 1:
        raise FiberMismatch(
            f"fiber dimension {fiber.dim} does not match n-1 = {profile.params.n - 1}"
        )
    scale = max(1.0, abs(profile.kappa0))
    if abs(fiber.kappa0 - profile.kappa0) > _FIBER_TOL * scale:
        raise FiberMismatch(
            f"fiber curvature {fiber.kappa0:.12g} inconsistent with the "
            f"profile's conserved value {profile.kappa0:.12g}"
        )
    if profile.params.R >= 0.0 and fiber.kappa0 <= 0.0:
        raise FiberMismatch(
            "the fiber curvature must be positive when R >= 0"
        )


def _interior_positivity(profile: Profile, lo: float, hi: float) -> None:
    pad = max(10 * _LAMBDA_ROOT_TOL, 1e-6 * (hi - lo))
    xs = np.linspace(lo + pad, hi - pad, 2001)
    lam = np.asarray(profile.sample(xs).lam, dtype=float)
    if np.min(lam) <= 0.0:
        i = int(np.argmin(lam))
        raise InvalidRegime(
            f"potential is not positive inside the domain (lam({xs[i]:.6g}) = "
            f"{lam[i]:.3e}); a valid domain needs the min-phase anchor"
        )


def _certified_domain(
    complete: Profile,
    lo: float,
    hi: float,
    fiber: FiberSpec,
    components: int,
    quotient: dict | None = None,
) -> MatchedDomain:
    """The domain [lo, hi] once lam vanishes at lo and hi, lam > 0 inside and
    ``fiber`` matches, in that order; one sample at (lo, hi) gives the faces."""
    v = complete.sample([lo, hi])
    lam2, lam1 = (float(x) for x in v.lam)
    scale = max(1.0, float(np.max(np.abs(np.asarray(complete.lam, dtype=float)))))
    if abs(lam1) > _LAMBDA_ROOT_TOL * scale or abs(lam2) > _LAMBDA_ROOT_TOL * scale:
        raise VerificationError(
            f"potential does not vanish at the matched boundary: "
            f"lam(zeta1) = {lam1:.3e}, lam(zeta2) = {lam2:.3e}"
        )
    _interior_positivity(complete, lo, hi)
    _check_fiber(complete, fiber)
    n = complete.params.n
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
    Requires a > 0: with a = 0 the metric is Einstein and the two-boundary
    construction degenerates.
    """
    if params.a <= 0.0:
        raise InvalidRegime(
            "two-boundary construction requires a > 0 (a = 0 is the "
            "Einstein case with a single boundary sphere)"
        )
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
    if params.a <= 0.0:
        raise InvalidRegime(
            "quotient construction requires a > 0 (a = 0 is the Einstein case)"
        )
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
    domain = _certified_domain(
        complete, -theta, theta, fiber, 1,
        quotient={
            "group": [["id", 0], ["alpha", 1]],
            "identification": "(s, x) ~ (-s, alpha(x))",
            "free": True,
        },
    )
    # Evenness of the potential on the symmetric interval: exact for C = 0.
    xs = np.linspace(0.0, theta, 257)
    gap = np.max(
        np.abs(
            np.asarray(complete.sample(xs).lam, dtype=float)
            - np.asarray(complete.sample(-xs).lam, dtype=float)
        )
    )
    if gap > _LAMBDA_ROOT_TOL:
        raise VerificationError(
            f"potential fails to be even on the symmetric interval (gap {gap:.3e}); "
            "it cannot descend to the quotient"
        )
    return domain


# ----------------------------------------------------------------------
# Static radial chart
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchwarzschildChart:
    """Static radial-coordinate description g = W(r)^-1 dr^2 + r^2 h.

    Exists for R <= 0, a > 0 over a unit-curvature fiber; W(r) =
    1 - c2 r^2 - (2a/(n-2)) r^(2-n) vanishes at the horizon radius, the
    unique closed minimal level, which coincides with the anchor radius of
    the even profile.  ``mass`` is the constant a.
    """

    params: OdeParams
    horizon: float
    horizon_from_polynomial: float
    mass: float
    profile: Profile
    exclusion: float | None  # exclusion radius (R < 0), else None

    def w(self, r) -> np.ndarray:
        """Denominator W(r) = 1 - c2 r^2 - (2a/(n-2)) r^(2-n)."""
        p = self.params
        r = np.asarray(r, dtype=float)
        return 1.0 - p.c2 * r**2 - (2.0 * p.a / (p.n - 2)) * r ** (2 - p.n)

    def coefficient(self, r) -> np.ndarray:
        """Radial metric coefficient W(r)^-1 on r > horizon."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= self.horizon * (1 + 1e-14)):
            raise OutOfRange(
                "radial chart is valid strictly outside the horizon "
                f"r = {self.horizon:.12g}"
            )
        return 1.0 / self.w(r)

    def match(self, zeta1: float) -> MatchResult:
        """Pair an outer boundary sphere with its reflected partner."""
        return match_boundary(self.profile, zeta1)

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": {"n": p.n, "R": p.R, "a": p.a},
            "kappa0": 1.0,
            "horizon": self.horizon,
            "horizon_from_polynomial": self.horizon_from_polynomial,
            "mass": self.mass,
            "exclusion": self.exclusion,
        }


def _horizon_from_polynomial(params: OdeParams) -> float:
    """Largest positive real root of W(r) r^(n-2) (n-2) as a polynomial."""
    n = params.n
    # (n-2) W(r) r^(n-2) = -(n-2) c2 r^n + (n-2) r^(n-2) - 2a
    coeffs = np.zeros(n + 1)
    coeffs[0] = -(n - 2) * params.c2
    coeffs[2] = n - 2
    coeffs[n] = -2.0 * params.a
    nz = np.nonzero(coeffs)[0]
    roots = np.roots(coeffs[nz[0]:])
    real = roots[np.abs(roots.imag) < 1e-9 * np.maximum(1.0, np.abs(roots.real))].real
    pos = real[real > 0]
    if pos.size == 0:
        raise InvalidRegime("radial denominator has no positive root")
    return float(np.max(pos))


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
    horizon_poly = _horizon_from_polynomial(params)
    profile = integrate_profile(params, horizon, s_max)
    excl = exclusion_zeta(profile) if params.R < 0.0 else None
    return SchwarzschildChart(
        params=params,
        horizon=horizon,
        horizon_from_polynomial=horizon_poly,
        mass=params.a,
        profile=profile,
        exclusion=excl,
    )
