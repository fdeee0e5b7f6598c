"""First Dirichlet eigenvalue of the weighted radial operator.

On I x N with g = ds^2 + r^2 h, separation over fiber eigenmodes adds the
nonnegative term mu_k / r^2 to the radial operator, so the smallest Dirichlet
eigenvalue of the full Laplacian is attained on fiber-constant functions;
only the radial (k = 0) problem is solved here.  The radial Laplacian in the
weight w = r^{n-1} is  Delta phi = w^{-1} (w phi')'.  Substituting
psi = w^{1/2} phi symmetrizes it into the Schroedinger form

    -psi'' + U psi = beta psi,
    U = (n-1)/2 * r''/r + (n-1)(n-3)/4 * (r'/r)^2,

discretized by second-order centered differences into a symmetric
tridiagonal matrix whose lowest eigenpair comes from
``scipy.linalg.eigh_tridiagonal``.
Richardson extrapolation over one step-halving pair of solves (num and 2 num
segments, one profile sample each) gives the eigenvalue, its error bound and,
on the matched domain, the weighted integral identity.

Eigenvalue conventions.  beta is the smallest Dirichlet eigenvalue of
-Delta.  Three scalings of the zeroth-order shift circulate for the operator
pencil of interest and they do not agree; all are reported:

    gamma1         = (n-1) beta - R          (primary: the form whose ground
                                              mode on a half-period of r is
                                              exactly r', hence gamma1 = 0)
    gamma1_reduced = beta - R/(n-1)          (= gamma1/(n-1); the form the
                                              integral identity
                                              gamma_red Int(lam phi w) =
                                              n/(n-1) Int(phi w) holds for)
    gamma1_display = (n-1) beta - R/(n-1)    (mixed scaling, for comparison)

gamma1 and gamma1_reduced always share their sign; sign verdicts refer to
them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    GridTooCoarse,
    InvalidRegime,
    OutOfRange,
    RangeError,
)
from .profiles import (
    OdeParams,
    Profile,
    find_roots,
    integrate_profile,
    solve_potential,
    warp_accel,
)
from .support import LD as _LD

__all__ = [
    "SpectralResult",
    "EigenSignReport",
    "eigenvalue_at_resolution",
    "first_dirichlet_eigenvalue",
    "verify_eigenvalue_signs",
]

# Rounding floor added to the step-halving estimate: tridiagonal eigenvalues
# carry O(eps * ||T||) noise that Richardson cannot see.
_EIG_FLOOR = 1e-10

# Most segments of one eigenproblem.
_MAX_SEGMENTS = 10**6

# Shortest segment: the tridiagonal solver multiplies entries of size 1/h^2,
# so their product must stay finite with a rounding margin to spare.
_MIN_STEP = (sys.float_info.max * sys.float_info.epsilon) ** -0.25


@dataclass(frozen=True)
class SpectralResult:
    """First Dirichlet eigenvalue with a step-halving error bound."""

    gamma1: float
    error_bound: float
    sign: str  # POSITIVE | ZERO | NEGATIVE
    h: float
    interval: tuple[float, float]
    beta1: float
    gamma1_reduced: float
    gamma1_display: float
    nodes: np.ndarray = field(repr=False)
    eigenvector: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EigenSignReport:
    """Sign verdicts for the three structural eigenvalue predictions."""

    phase: str  # "min" | "max"
    zero_mode: SpectralResult
    enclosing: SpectralResult
    matched: SpectralResult
    quotient: SpectralResult | None
    identity_residual: float
    expected_matched_sign: str
    consistent: bool


# ----------------------------------------------------------------------
# Discretization
# ----------------------------------------------------------------------


def _schroedinger_potential(params: OdeParams, r: np.ndarray, rp: np.ndarray) -> np.ndarray:
    if np.any(np.asarray(r, dtype=float) <= 0.0):
        raise RangeError("interval touches the degenerate radius r = 0")
    n = params.n
    racc = warp_accel(params, r)
    return _LD(n - 1) / 2 * (racc / r) + _LD((n - 1) * (n - 3)) / 4 * (rp / r) ** 2


def eigenvalue_at_resolution(profile: Profile, interval, num: int):
    """Lowest Dirichlet eigenvalue at a fixed uniform resolution.

    Splits [b1, b2] into `num` segments and solves the symmetric tridiagonal
    eigenproblem on the num-1 interior nodes.  Returns (beta, nodes, phi)
    with phi the ground eigenfunction of the original (unsymmetrized)
    operator, positively normalized to unit sup.  RangeError unless the
    interval is finite and ascending; then ``Profile._check_window``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise RangeError(f"invalid interval [{lo}, {hi}]")
    profile._check_window(np.array([lo, hi]))
    if not 8 <= num <= _MAX_SEGMENTS:
        raise RangeError(f"eigenvalue grid needs 8 to {_MAX_SEGMENTS} segments, got {num}")
    h = (hi - lo) / num
    if not h >= _MIN_STEP:
        raise RangeError(
            f"interval [{lo:.6g}, {hi:.6g}] is too short for {num} segments: "
            f"the step {h:.3g} is below {_MIN_STEP:.3g}, where products of "
            "the 1/h^2 matrix entries overflow"
        )
    nodes = lo + h * np.arange(1, num)
    v = profile.sample(nodes)
    u = np.asarray(_schroedinger_potential(profile.params, v.r, v.rp), dtype=float)
    diag = 2.0 / h**2 + u
    off = np.full(num - 2, -1.0 / h**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    beta = float(vals[0])
    psi = vecs[:, 0]
    phi = psi / np.asarray(v.r, dtype=float) ** ((profile.params.n - 1) / 2.0)
    peak = phi[np.argmax(np.abs(phi))]
    phi = phi / peak
    return beta, nodes, phi


def _verdict(gamma: float, bound: float) -> str:
    if gamma > bound:
        return "POSITIVE"
    if gamma < -bound:
        return "NEGATIVE"
    return "ZERO"


def _coherent_verdict(
    gamma_extrap: float, gamma_h: float, gamma_h2: float, bound: float
) -> str:
    """Sign verdict, refusing resolutions that contradict each other.

    If the two finest refinements disagree in sign while the extrapolated
    value sits above the error bound, no verdict is defensible at this
    resolution.
    """
    verdict = _verdict(gamma_extrap, bound)
    if verdict != "ZERO" and gamma_h * gamma_h2 < 0.0 and min(
        abs(gamma_h), abs(gamma_h2)
    ) > bound:
        raise GridTooCoarse(
            f"sign of the first eigenvalue flips between refinements "
            f"({gamma_h:.3e} vs {gamma_h2:.3e}) while the extrapolated value "
            f"{gamma_extrap:.3e} exceeds the error bound {bound:.3e}; "
            "increase the resolution"
        )
    return verdict


def _halving_pair(profile: Profile, interval, num: int):
    """Solves at num and 2 num segments; 2 num is bounds-checked before either."""
    if not 2 * num <= _MAX_SEGMENTS:
        raise RangeError(
            f"num must be at most {_MAX_SEGMENTS // 2}, got {num}; the "
            "step-halving estimate also solves at 2 num segments"
        )
    return tuple(eigenvalue_at_resolution(profile, interval, k) for k in (num, 2 * num))


def _spectral_result(profile: Profile, interval, num: int, pair) -> SpectralResult:
    """Richardson extrapolation and verdict from one step-halving pair."""
    params = profile.params
    n = params.n
    (beta_h, _, _), (beta_h2, nodes, phi) = pair
    beta = (4.0 * beta_h2 - beta_h) / 3.0
    dbeta = abs(beta_h - beta_h2) / 3.0 + _EIG_FLOOR * max(1.0, abs(beta))
    gamma = (n - 1) * beta - params.R
    bound = (n - 1) * dbeta
    sign = _coherent_verdict(
        gamma, (n - 1) * beta_h - params.R, (n - 1) * beta_h2 - params.R, bound
    )
    lo, hi = float(interval[0]), float(interval[1])
    return SpectralResult(
        gamma1=gamma,
        error_bound=bound,
        sign=sign,
        h=(hi - lo) / (2 * num),
        interval=(lo, hi),
        beta1=beta,
        gamma1_reduced=beta - params.R / (n - 1),
        gamma1_display=(n - 1) * beta - params.R / (n - 1),
        nodes=nodes,
        eigenvector=phi,
    )


def first_dirichlet_eigenvalue(
    profile: Profile, interval, *, num: int = 512
) -> SpectralResult:
    """First Dirichlet eigenvalue of the shifted radial operator on interval.

    Solves once at `num` and once at `2*num` segments, Richardson-extrapolates
    the second-order discretization, and turns the step-halving gap into the
    error bound used for the POSITIVE/ZERO/NEGATIVE verdict.
    """
    return _spectral_result(profile, interval, num, _halving_pair(profile, interval, num))


# ----------------------------------------------------------------------
# Structural sign predictions
# ----------------------------------------------------------------------


def _identity_defect(profile: Profile, interval, pair) -> float:
    """|ratio - 1| for the sides of gamma_red Int(lam phi w) = n/(n-1) Int(phi w),
    with the ratio Richardson-extrapolated over one step-halving pair of solves."""
    n = profile.params.n
    ratios = []
    for beta, nodes, phi in pair:
        gamma_red = beta - profile.params.R / (n - 1)
        v = profile.sample(nodes)
        w = np.asarray(v.r, dtype=float) ** (n - 1)
        lam = np.asarray(v.lam, dtype=float)
        # phi vanishes at both interval ends: extend by the zero boundary values.
        grid = np.concatenate(([float(interval[0])], nodes, [float(interval[1])]))
        left = gamma_red * np.trapezoid(np.concatenate(([0.0], lam * phi * w, [0.0])), grid)
        right = n / (n - 1) * np.trapezoid(np.concatenate(([0.0], phi * w, [0.0])), grid)
        ratios.append(left / right)
    q_h, q_h2 = ratios
    return abs((4.0 * q_h2 - q_h) / 3.0 - 1.0)


def identity_residual(profile: Profile, interval, *, num: int = 512) -> float:
    """Relative defect of the weighted integral identity on the interval.

    Both sides scale with the eigenvector normalization, so the residual is
    |ratio - 1| with the ratio Richardson-extrapolated over the solves at
    `num` and `2 num` segments (the eigenvector and the trapezoid rule are
    each second order).  Raises InvalidRegime before any solve when the
    profile carries no potential.
    """
    if not profile.complete:
        raise InvalidRegime("the integral identity needs a profile with a potential")
    return _identity_defect(profile, interval, _halving_pair(profile, interval, num))


def require_sign_regime(params: OdeParams) -> None:
    """verify_eigenvalue_signs's check before it integrates."""
    if params.R <= 0.0 or params.a <= 0.0:
        raise InvalidRegime(
            "sign verification targets the oscillatory regime R > 0, a > 0"
        )


def verify_eigenvalue_signs(
    params: OdeParams,
    r0: float,
    C: float,
    *,
    s_max: float = 12.0,
    num: int = 512,
) -> EigenSignReport:
    """Check every structural sign prediction for an oscillatory profile.

    Requires R > 0 and a > 0 (the periodic regime).  Builds the profile and
    its potential, then verifies: the zero mode on a half-period of r; the
    strict negativity on any strictly larger interval; the sign of the
    matched domain [zeta2, zeta1] determined by the anchor phase (positive
    for a minimum of r at s = 0, negative for a maximum); and, in the
    minimum phase, positivity on the symmetric interval of the even
    potential used by the quotient construction.  The weighted integral
    identity is evaluated on the matched interval.  Raises DegenerateInitial
    (``solve_potential``) at the constant solution, and OutOfRange when the
    window holds no positive critical point of r.
    """
    require_sign_regime(params)
    profile = solve_potential(integrate_profile(params, r0, s_max), C)
    roots = find_roots(profile)
    s1 = roots.s1
    if s1 is None:
        raise OutOfRange(
            f"no critical point of r in (0, {s_max:.6g}]; increase s_max"
        )
    phase = roots.phase

    zero_mode = first_dirichlet_eigenvalue(profile, (0.0, float(s1)), num=num)
    pad = 0.15 * float(s1)
    enclosing = first_dirichlet_eigenvalue(
        profile, (-pad, float(s1) + pad), num=num
    )
    matched_iv = (float(roots.zeta2), float(roots.zeta1))
    pair = _halving_pair(profile, matched_iv, num)
    matched = _spectral_result(profile, matched_iv, num, pair)
    resid = _identity_defect(profile, matched_iv, pair)

    quotient = None
    if phase == "min":
        theta = profile.theta
        quotient = first_dirichlet_eigenvalue(profile, (-theta, theta), num=num)

    expected = "POSITIVE" if phase == "min" else "NEGATIVE"
    consistent = (
        zero_mode.sign == "ZERO"
        and enclosing.sign == "NEGATIVE"
        and matched.sign == expected
        and (quotient is None or quotient.sign == "POSITIVE")
    )
    return EigenSignReport(
        phase=phase,
        zero_mode=zero_mode,
        enclosing=enclosing,
        matched=matched,
        quotient=quotient,
        identity_residual=resid,
        expected_matched_sign=expected,
        consistent=consistent,
    )
