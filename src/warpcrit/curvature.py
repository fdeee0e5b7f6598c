"""Pointwise geometry of g = ds^2 + r^2 h in the adapted orthonormal frame.

Every tensor of a warped product over an Einstein fiber has at most two
distinct eigenvalues in the frame {d/ds, r^-1 e_a}: a radial one and a
tangential one.  The module evaluates those eigenvalue pairs from the
profile arrays, assembles the defining residuals of the critical-metric
equation, and checks the conformal-flatness reconstruction of the sectional
curvatures from the potential.  Second derivatives of the potential always
come from its governing ODE, never from finite differences.

The verifiers check a declared ``profiles.FiberSpec`` and evaluate one row
block at a time; one reduction, ``_window_max``, which propagates NaN, gives
every maximum over the window, and each check fails on a NaN.

Sign conventions: the mean curvature H of a level {s = const} is taken with
respect to d/ds (increasing s); boundary exports flip the sign on the left
face where the outward normal is -d/ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AllPointsMasked,
    CriticalLevel,
    FiberMismatch,
    InvalidRegime,
    OutOfGrid,
)
from .profiles import (
    FiberSpec,
    OdeParams,
    Profile,
    conserved_quantity,
    potential_accel,
    warp_accel,
)
from .support import LD as _LD, row_blocks

__all__ = [
    "CurvatureSample",
    "ResidualReport",
    "LevelSetData",
    "curvature_at",
    "curvature_samples",
    "verify_critical",
    "verify_conformally_flat",
    "level_set_geometry",
]

# Fraction of max|lam| below which conformal reconstruction is masked
# (the reconstruction divides by lam).
_LAMBDA_FLOOR = 1e-4

# Default gate on the conserved-quantity residual against a declared fiber.
_FIBER_TOL = 1e-8


class CurvatureSample(NamedTuple):
    """Two-eigenvalue curvature data at one arclength."""

    s: float
    ric_ss: float
    ric_tan: float
    scal: float
    hess_ss: float
    hess_tan: float
    lap: float
    sec_rad: float
    sec_tan: float
    mean_curv: float
    schouten_ss: float
    schouten_tan: float


@dataclass(frozen=True)
class ResidualReport:
    """Maxima of the pointwise verification residuals over a grid."""

    max_critical_residual: float
    max_scal_deviation: float
    max_weyl_residual: float
    max_einstein_residual: float | None
    grid_size: int


class LevelSetData(NamedTuple):
    """Geometry of a regular level set of the potential."""

    s: float
    grad_norm: float
    umbilic_factor: float
    mean_curv: float
    einstein_residual: float | None


# ----------------------------------------------------------------------
# Frame-eigenvalue evaluation
# ----------------------------------------------------------------------


def _frame_tensors(params: OdeParams, kappa0: float, s, r, rp, lam, lamp):
    """All curvature pairs from profile data, in extended precision.

    Returns a dict of fresh longdouble arrays, none of them an alias of an
    input (the inputs may be the profile's own columns).  lam/lamp may be
    None, in which case the Hessian entries are omitted.
    """
    n = params.n
    r = np.asarray(r, dtype=_LD)
    rp = np.asarray(rp, dtype=_LD)
    racc = warp_accel(params, r)
    sec_rad = -racc / r
    sec_tan = (_LD(kappa0) - rp**2) / r**2
    ric_ss = _LD(n - 1) * sec_rad
    ric_tan = _LD(n - 2) * sec_tan + sec_rad
    scal = ric_ss + _LD(n - 1) * ric_tan
    out = {
        "s": np.array(s, dtype=_LD),
        "sec_rad": sec_rad,
        "sec_tan": sec_tan,
        "ric_ss": ric_ss,
        "ric_tan": ric_tan,
        "scal": scal,
        "mean_curv": _LD(n - 1) * rp / r,
        "schouten_ss": (ric_ss - scal / _LD(2 * (n - 1))) / _LD(n - 2),
        "schouten_tan": (ric_tan - scal / _LD(2 * (n - 1))) / _LD(n - 2),
    }
    if lam is not None:
        lam = np.asarray(lam, dtype=_LD)
        lamp = np.asarray(lamp, dtype=_LD)
        hess_ss = potential_accel(params, r, lam)
        hess_tan = rp / r * lamp
        out["hess_ss"] = hess_ss
        out["hess_tan"] = hess_tan
        out["lap"] = hess_ss + _LD(n - 1) * hess_tan
    return out


def curvature_samples(
    profile: Profile, fiber: FiberSpec | None = None, s=None
) -> dict:
    """Curvature pairs at the given arclengths (grid by default), as arrays.

    On the profile's own grid the pole row r = 0 of a space form is left out.
    """
    kappa0 = profile.kappa0 if fiber is None else fiber.kappa0
    if s is None:
        s, r, rp, lam, lamp = _grid_slice(profile, None)
    else:
        v = profile.sample(s)
        s, r, rp, lam, lamp = v.s, v.r, v.rp, v.lam, v.lamp
        if np.any(np.asarray(r, dtype=float) <= 0.0):
            raise OutOfGrid("curvature evaluation requires r > 0")
    return _frame_tensors(profile.params, kappa0, s, r, rp, lam, lamp)


def curvature_at(profile: Profile, fiber: FiberSpec | None, s: float) -> CurvatureSample:
    """Curvature pairs at a single arclength inside the window."""
    t = curvature_samples(profile, fiber, np.atleast_1d(float(s)))
    # The Hessian fields are nan on a profile without a potential.
    return CurvatureSample(
        *(float(t[name][0]) if name in t else math.nan for name in CurvatureSample._fields)
    )


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def _grid_slice(profile: Profile, interval):
    """Grid rows with r > 0 (all but a space form's pole), restricted to an
    interval when given; OutOfGrid when the interval holds no such row.

    When every row is kept, the profile's own columns are returned, not
    copies of them.
    """
    s = profile.grid
    keep = profile.r > 0.0
    if interval is not None:
        s64 = np.asarray(s, dtype=float)
        keep &= (s64 >= float(interval[0])) & (s64 <= float(interval[1]))
        if not np.any(keep):
            raise OutOfGrid("no grid point with r > 0 inside the requested interval")
    columns = (s, profile.r, profile.rp, profile.lam, profile.lamp)
    if np.all(keep):
        return columns
    return tuple(None if c is None else c[keep] for c in columns)


def _fiber_gate(profile, fiber: FiberSpec, r, rp, tol: float) -> float:
    """Conserved-quantity residual against the declared fiber curvature.

    The allowance combines the user tolerance with a representation floor:
    float64-quantized inputs (e.g. CSV round trips) perturb (r')^2 + c2 r^2
    at relative machine scale of the individual terms, which dominates the
    true drift on wide windows.  Both maxima are taken one block of
    ``support.ROW_BLOCK`` rows at a time (``_window_max``).
    """
    params = profile.params
    fiber.require_dim(params.n)
    a_term = abs(2.0 * params.a / (params.n - 2))

    def block_maxima(rows):
        cons = np.asarray(conserved_quantity(params, r[rows], rp[rows]), dtype=float)
        r64 = np.asarray(r[rows], dtype=float)
        rp64 = np.asarray(rp[rows], dtype=float)
        terms = rp64**2 + abs(params.c2) * r64**2 + a_term * r64 ** (2 - params.n)
        return np.max(np.abs(cons - fiber.kappa0)), np.max(terms)

    maxima = [block_maxima(rows) for rows in row_blocks(np.size(r))]
    resid, term_scale = (_window_max(column) for column in zip(*maxima))
    eps64 = float(np.finfo(np.float64).eps)
    allowance = tol * (1.0 + abs(fiber.kappa0)) + 64.0 * eps64 * term_scale
    if not resid <= allowance:
        raise FiberMismatch(
            f"declared fiber curvature {fiber.kappa0:.12g} is inconsistent with "
            f"the profile: conserved-quantity residual {resid:.3e} exceeds "
            f"allowance {allowance:.3e}"
        )
    return resid


def _window_max(maxima) -> float:
    """``np.max`` of the maxima of each row block (numbers, tuples of them, or
    None for a block with no point under evaluation): the max over the window."""
    return float(np.max([m for m in maxima if m is not None]))


def verify_critical(
    profile: Profile,
    fiber: FiberSpec | None = None,
    *,
    interval=None,
    fiber_tol: float = _FIBER_TOL,
) -> ResidualReport:
    """Pointwise residuals of the critical-metric equation on the grid.

    Evaluates both independent frame components

        ss:  -lap + hess_ss - lam * ric_ss - 1
        tan: -lap + hess_tan - lam * ric_tan - 1

    together with the trace relation lap + (R lam + n)/(n-1) = 0, the
    scalar-curvature deviation |scal - R|, the conformal-flatness
    reconstruction residual, and (for a = 0) the Einstein reduction.  The
    declared fiber is gated against the conserved quantity first
    (FiberMismatch).  The residuals are reduced one row block at a time.
    """
    if not profile.complete:
        raise InvalidRegime("verification requires a profile with a potential")
    params = profile.params
    if fiber is None:
        fiber = FiberSpec(dim=params.n - 1, kappa0=profile.kappa0)
    s, r, rp, lam, lamp = _grid_slice(profile, interval)
    _fiber_gate(profile, fiber, r, rp, fiber_tol)
    floor = _lambda_floor(lam)

    n = params.n
    one = _LD(1.0)
    kap = _LD(params.R) / _LD(n * (n - 1))
    crit, scal, weyl, einstein = [], [], [], []
    for rows in row_blocks(np.size(s)):
        t = _frame_tensors(params, fiber.kappa0, s[rows], r[rows], rp[rows], lam[rows], lamp[rows])
        lam_ld = np.asarray(lam[rows], dtype=_LD)
        ss = -t["lap"] + t["hess_ss"] - lam_ld * t["ric_ss"] - one
        tan = -t["lap"] + t["hess_tan"] - lam_ld * t["ric_tan"] - one
        trace = t["lap"] + (_LD(params.R) * lam_ld + _LD(n)) / _LD(n - 1)
        crit.append((np.max(np.abs(ss)), np.max(np.abs(tan)), np.max(np.abs(trace))))
        scal.append(np.max(np.abs(t["scal"] - _LD(params.R))))
        weyl.append(_conformal_residual(t, lam_ld, params, floor))
        if params.a == 0.0:
            target = -kap * lam_ld - one / _LD(n - 1)
            einstein.append((
                np.max(np.abs(t["hess_ss"] - target)),
                np.max(np.abs(t["hess_tan"] - target)),
                np.max(np.abs(t["ric_ss"] - t["ric_tan"])),
            ))

    return ResidualReport(
        max_critical_residual=_window_max(crit),
        max_scal_deviation=_window_max(scal),
        max_weyl_residual=_window_max(weyl),
        max_einstein_residual=_window_max(einstein) if einstein else None,
        grid_size=int(np.size(s)),
    )


def _lambda_floor(lam) -> float:
    """The potential floor of the conformal reconstruction: ``_LAMBDA_FLOOR``
    times the sup of |lam| over the window under evaluation, taken one row
    block at a time.

    Raises AllPointsMasked when no point of the window clears it.
    """
    top = _window_max(
        np.max(np.abs(np.asarray(lam[rows], dtype=float))) for rows in row_blocks(np.size(lam))
    )
    floor = _LAMBDA_FLOOR * top
    # Some |lam| clears the floor exactly when the sup does: it fails to only
    # for a sup of 0, inf or nan.
    if not top > floor:
        raise AllPointsMasked(
            "every grid point is below the potential floor; the conformal "
            "reconstruction is undefined on this window"
        )
    return floor


def _conformal_residual(t: dict, lam_ld: np.ndarray, params: OdeParams, floor: float):
    """Reconstruction residual of both sectional curvatures from the potential.

    At points where the potential is nonzero, the curvature tensor is
    determined by the metric, the potential and its Hessian; the two
    sectional curvatures must satisfy

        sec_rad = B + (hess_ss + hess_tan) / ((n-2) lam)
        sec_tan = B + 2 hess_tan / ((n-2) lam),     B = (R + 2/lam) / ((n-1)(n-2))

    Points with |lam| at or below ``floor`` (see ``_lambda_floor``) are
    masked.  Serves one block: returns ``(max radial, max tangential)``,
    or None when the floor masks the whole block.
    """
    n = params.n
    keep = np.abs(np.asarray(lam_ld, dtype=float)) > floor
    if not np.any(keep):
        return None
    lam = lam_ld[keep]
    base = (_LD(params.R) + _LD(2.0) / lam) / _LD((n - 1) * (n - 2))
    rad_rhs = base + (t["hess_ss"][keep] + t["hess_tan"][keep]) / (_LD(n - 2) * lam)
    tan_rhs = base + _LD(2.0) * t["hess_tan"][keep] / (_LD(n - 2) * lam)
    res_rad = np.abs(t["sec_rad"][keep] - rad_rhs)
    res_tan = np.abs(t["sec_tan"][keep] - tan_rhs)
    return np.max(res_rad), np.max(res_tan)


def verify_conformally_flat(
    profile: Profile, fiber: FiberSpec | None = None, *, interval=None
) -> float:
    """Max residual of the sectional-curvature reconstruction (masked),
    reduced one row block at a time as in ``verify_critical``."""
    if not profile.complete:
        raise InvalidRegime("verification requires a profile with a potential")
    kappa0 = profile.kappa0 if fiber is None else fiber.kappa0
    s, r, rp, lam, lamp = _grid_slice(profile, interval)
    floor = _lambda_floor(lam)
    maxima = []
    for rows in row_blocks(np.size(s)):
        t = _frame_tensors(profile.params, kappa0, s[rows], r[rows], rp[rows], lam[rows], lamp[rows])
        maxima.append(_conformal_residual(t, np.asarray(lam[rows], dtype=_LD), profile.params, floor))
    return _window_max(maxima)


def level_set_geometry(profile: Profile, s: float) -> LevelSetData:
    """Geometry of the level set of the potential through arclength s.

    Requires a regular level (CriticalLevel when |lam'(s)| <= 1e-12), read at
    s only.  For Einstein profiles (a = 0) the umbilic factor is cross-checked
    against the potential route and the residual reported.
    """
    if not profile.complete:
        raise InvalidRegime("level-set geometry requires a potential")
    v = profile.sample(float(s))
    r = float(v.r[0])
    rp = float(v.rp[0])
    lamp = float(v.lamp[0])
    if r <= 0.0:
        raise OutOfGrid("level set through the degenerate pole")
    if abs(lamp) <= 1e-12:
        raise CriticalLevel(
            f"the potential has a critical point at s = {s:.6g}; "
            "the level set is not a regular hypersurface"
        )
    n = profile.params.n
    umbilic = rp / r
    einstein = None
    if profile.params.a == 0.0:
        lam = float(v.lam[0])
        kap = profile.params.c2
        # Second fundamental form w.r.t. the potential-gradient normal:
        # sign(lamp) * umbilic must equal (-kap*lam - 1/(n-1)) / |lamp|.
        einstein = abs(math.copysign(umbilic, lamp) - (-kap * lam - 1.0 / (n - 1)) / abs(lamp))
    return LevelSetData(
        s=float(s),
        grad_norm=abs(lamp),
        umbilic_factor=umbilic,
        mean_curv=(n - 1) * umbilic,
        einstein_residual=einstein,
    )
