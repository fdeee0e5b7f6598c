"""Radial profiles of rotationally symmetric critical metrics.

A warped-product metric ``g = ds^2 + r(s)^2 h`` over an interval, with fiber
``(N, h)`` Einstein of dimension n-1 and ``Ric_h = (n-2) kappa0 h``, has
constant scalar curvature ``R`` exactly when the warp factor solves

    r'' = a r^(1-n) - c2 r,        c2 = R / (n (n-1)),

for some constant ``a``; the combination

    kappa0 = (r')^2 + c2 r^2 + (2 a / (n-2)) r^(2-n)

is a first integral and identifies the fiber curvature.  A potential ``lam``
turning ``g`` into a critical metric of the volume functional solves the
linear equation

    lam'' + [c2 + (n-1) a r^(-n)] lam = -1/(n-1),

whose homogeneous solutions are spanned by ``r'`` and one further solution
that is even about the anchor.  The toolkit integrates the even particular
solution ``lam0`` (``lam0'(anchor) = 0``) jointly with ``(r, r')`` and forms
the one-parameter family ``lam = lam0 + C r'`` algebraically, so parity
relations hold exactly by construction.

Profiles are anchored at a critical point of r: ``r(0) = r0 > 0``,
``r'(0) = 0``.  The arrays are produced on a mirrored grid spanning
``[-s_max, s_max]``; closed-form space forms (``a = 0`` anchored at a pole
``r = 0``) live on ``[0, s_max]`` instead and are marked
``degenerate_origin``.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateInitial,
    InvalidRegime,
    NonPositiveRadius,
    OutOfGrid,
    OutOfRange,
    RangeError,
)
from .rk45 import MIN_BATCH, DenseSolution, integrate, integrate_batch
from .support import bisect_root

__all__ = [
    "OdeParams",
    "Profile",
    "ProfileValues",
    "RootSet",
    "integrate_profile",
    "prefetched",
    "solve_potential",
    "space_form_profile",
    "solve_radius_for_kappa0",
    "find_roots",
    "critical_radius",
    "extend_base",
    "warp_accel",
    "potential_accel",
    "conserved_quantity",
]

_LD = np.longdouble

# Relative threshold on |r''(0)| below which the anchor is the constant
# (non-warped) solution r = r0, which admits no potential.
_CONSTANT_TOL = 1e-12

# Guard floor for the warp factor during integration, relative to r0.
_RADIUS_FLOOR = 1e-6

# Integrator settings of every profile, shared by its outward extensions.
_TOLS = {"rtol": 1e-15, "atol": 1e-18, "max_step": 0.1}

# Smallest step rk45.integrate takes at t = 0.
_STEP_FLOOR = float(np.finfo(_LD).eps * 16)

# Absolute tolerance of the roots find_roots reports.
_ROOT_TOL = 1e-12

# Relative tolerance of the anchor radius solve_radius_for_kappa0 returns.
_KAPPA0_TOL = 1e-14

# Grid points of a closed-form space form; its roots are bracketed on them.
_SPACE_FORM_POINTS = 2001


class _Fields:
    """The radial fields with their longdouble coefficients, built once.

    This is the one definition of each formula.  The arguments are
    longdouble scalars (the integrator's right-hand side) or longdouble
    arrays (the public helpers below, and the batch right-hand side of
    ``stack``-ed fields).
    """

    __slots__ = ("n", "a", "c2", "a_jerk", "a_pot", "a_drive", "inv", "a_cons")

    def __init__(self, n: int, R: float, a: float) -> None:
        self.n = n
        self.a = _LD(a)
        self.c2 = _LD(R) / _LD(n * (n - 1))
        self.a_jerk = _LD(a) * _LD(1 - n)
        self.a_pot = _LD((n - 1) * a)
        self.a_drive = _LD(n * (n - 1) * a)
        self.inv = _LD(1) / _LD(n - 1)
        self.a_cons = _LD(2.0 * a) / _LD(n - 2)

    @classmethod
    def stack(cls, members: list["_Fields"]) -> "_Fields":
        """The fields of several members at once: each coefficient, n
        included, becomes a longdouble array with one entry per member."""
        out = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(out, name, np.array([getattr(m, name) for m in members], dtype=_LD))
        return out

    def warp(self, r):  # r''
        return self.a * r ** (1 - self.n) - self.c2 * r

    def warp_jerk(self, r, rp):  # r'''
        return (self.a_jerk * r ** (-self.n) - self.c2) * rp

    def potential(self, r, lam):  # lam''
        coeff = self.c2 + self.a_pot * r ** (-self.n)
        return -coeff * lam - self.inv

    def potential_jerk(self, r, rp, lam, lamp):  # lam'''
        n = self.n
        coeff = self.c2 + self.a_pot * r ** (-n)
        drive = self.a_drive * r ** (-n - 1) * rp
        return -coeff * lamp + drive * lam

    def conserved(self, r, rp):  # the first integral
        return rp**2 + self.c2 * r**2 + self.a_cons * r ** (2 - self.n)


@dataclass(frozen=True)
class OdeParams:
    """Dimension and curvature parameters of the radial problem.

    Attributes
    ----------
    n : int
        Dimension of the warped product (fiber has dimension n-1).  n >= 3.
    R : float
        Constant scalar curvature of the metric.
    a : float
        Mass-like constant multiplying the r^(1-n) term of the radial ODE.
    """

    n: int
    R: float
    a: float
    _fields: _Fields = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 3:
            raise RangeError(f"dimension n must be an integer >= 3, got {self.n!r}")
        if self.n * (self.n - 1) > sys.float_info.max:
            raise RangeError("dimension n is too large: n (n - 1) overflows float64")
        object.__setattr__(self, "n", int(self.n))
        for name in ("R", "a"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise RangeError(f"parameter {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_fields", _Fields(self.n, self.R, self.a))

    @property
    def c2(self) -> float:
        """Linear coefficient R / (n (n-1)) of the radial ODE."""
        return self.R / (self.n * (self.n - 1))


def warp_accel(params: OdeParams, r):
    """Second derivative of the warp factor, r'' = a r^(1-n) - c2 r."""
    return params._fields.warp(np.asarray(r, dtype=_LD))


def potential_accel(params: OdeParams, r, lam):
    """Second derivative of the potential,
    lam'' = -[c2 + (n-1) a r^(-n)] lam - 1/(n-1)."""
    return params._fields.potential(np.asarray(r, dtype=_LD), np.asarray(lam, dtype=_LD))


def conserved_quantity(params: OdeParams, r, rp):
    """First integral (r')^2 + c2 r^2 + (2a/(n-2)) r^(2-n) of the radial ODE."""
    return params._fields.conserved(np.asarray(r, dtype=_LD), np.asarray(rp, dtype=_LD))


class ProfileValues(NamedTuple):
    """Profile samples at requested arclength values."""

    s: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    lam: np.ndarray | None
    lamp: np.ndarray | None


@dataclass(frozen=True)
class RootSet:
    """Roots of r' and of the potential on the profile window.

    ``rp_roots`` always includes the anchor s = 0 for even profiles and is
    sorted ascending over the full window; ``rp_kinds`` labels each root
    "min" or "max" by the sign of r'' there.  ``lam_roots`` is None when the
    profile carries no potential.  ``period`` is the distance between
    consecutive minima of r, present only when R > 0 and the solution is
    nonconstant (the warp factor is then periodic).
    """

    rp_roots: np.ndarray
    rp_kinds: tuple[str, ...]
    lam_roots: np.ndarray | None
    period: float | None
    constant_solution: bool

    @property
    def s1(self) -> float | None:
        """First positive critical point of r, if any."""
        pos = self.rp_roots[self.rp_roots > 0.0]
        return float(pos[0]) if pos.size else None

    @property
    def zeta1(self) -> float | None:
        """Smallest positive root of the potential, if any."""
        if self.lam_roots is None:
            return None
        pos = self.lam_roots[self.lam_roots > 0.0]
        return float(pos.min()) if pos.size else None

    @property
    def zeta2(self) -> float | None:
        """Negative potential root closest to the anchor, if any."""
        if self.lam_roots is None:
            return None
        neg = self.lam_roots[self.lam_roots < 0.0]
        return float(neg.max()) if neg.size else None


@dataclass
class Profile:
    """Radial profile (r, r', lam, lam') on a symmetric arclength grid.

    A profile may be *partial* (no potential attached; ``lam``/``lamp`` are
    None and ``C`` is None) or *complete*.  ``solve_potential`` upgrades a
    partial profile without re-integrating.  Grids are stored in extended
    precision; conversion to float64 happens only at serialization.
    """

    params: OdeParams
    r0: float
    s_max: float
    grid: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    lam: np.ndarray | None
    lamp: np.ndarray | None
    kappa0: float
    C: float | None
    constant_solution: bool = False
    degenerate_origin: bool = False
    s_min: float = field(default=None)  # type: ignore[assignment]
    diagnostics: dict = field(default_factory=dict)
    # Internals: dense base solution on [0, s_max] with components
    # (r, r', lam0, lam0'), outward extensions for improper tails, closed
    # forms for space forms, cached roots and matching tables.
    _base: DenseSolution | None = field(default=None, repr=False)
    _closed_form: Callable | None = field(default=None, repr=False)
    _lam0: np.ndarray | None = field(default=None, repr=False)
    _lam0p: np.ndarray | None = field(default=None, repr=False)
    _extension: DenseSolution | None = field(default=None, repr=False)
    _roots: RootSet | None = field(default=None, repr=False)
    _theta: float | None = field(default=None, repr=False)
    _gtable: object | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.s_min is None:
            self.s_min = 0.0 if self.degenerate_origin else -float(self.s_max)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _check_window(self, s: np.ndarray) -> None:
        pad = 1e-9 * (1.0 + self.s_max)
        if np.any(s < self.s_min - pad) or np.any(s > self.s_max + pad):
            bad = s[(s < self.s_min - pad) | (s > self.s_max + pad)]
            raise OutOfGrid(
                f"arclength {float(bad.flat[0]):.6g} outside profile window "
                f"[{self.s_min:.6g}, {self.s_max:.6g}]"
            )

    def _dense(self) -> DenseSolution:
        """The integrator's dense base; a profile rebuilt from a grid has none."""
        if self._base is None:
            raise InvalidRegime(
                "profile has no dense base: one rebuilt from a grid can only be "
                "evaluated at its stored nodes"
            )
        return self._base

    def sample_base(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate (r, r', lam0, lam0') at arbitrary arclengths.

        Uses the dense output of the integrator with the parity relations
        (r, lam0 even; r', lam0' odd), so mirrored queries agree exactly.
        Raises InvalidRegime for a profile rebuilt from a grid, which has none.
        """
        s = np.atleast_1d(np.asarray(s, dtype=_LD))
        self._check_window(s)
        if self._closed_form is not None:
            r, rp, lam, lamp = self._closed_form(s)
            return r, rp, lam, lamp
        if self.constant_solution:
            raise DegenerateInitial(
                "constant solution carries no even potential branch"
            )
        sign = np.where(s < 0, _LD(-1.0), _LD(1.0))
        y = self._dense()(np.abs(s))
        r = y[:, 0]
        rp = sign * y[:, 1]
        lam0 = y[:, 2]
        lam0p = sign * y[:, 3]
        return r, rp, lam0, lam0p

    def sample(self, s) -> ProfileValues:
        """Evaluate (r, r', lam, lam') at arbitrary arclengths in the window.

        Raises OutOfGrid outside [s_min, s_max] and DegenerateInitial when no
        potential is attached.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=_LD))
        if self.constant_solution:
            self._check_window(s_arr)
            r = np.full(s_arr.shape, _LD(self.r0))
            z = np.zeros(s_arr.shape, dtype=_LD)
            return ProfileValues(s_arr, r, z, None, None)
        if self._closed_form is not None:
            self._check_window(s_arr)
            r, rp, lam, lamp = self._closed_form(s_arr)
            return ProfileValues(s_arr, r, rp, lam, lamp)
        r, rp, lam0, lam0p = self.sample_base(s_arr)
        if self.C is None:
            return ProfileValues(s_arr, r, rp, None, None)
        C = _LD(self.C)
        lam = lam0 + C * rp
        lamp = lam0p + C * warp_accel(self.params, r)
        return ProfileValues(s_arr, r, rp, lam, lamp)

    @property
    def complete(self) -> bool:
        """True when a potential is attached."""
        return self.lam is not None

    @property
    def theta(self) -> float:
        """Unique positive root of the even potential branch lam0.

        Sign changes of lam0 are bracketed on the integrator's step nodes,
        where its values are stored, and bisected on the dense output.  For
        R > 0 the search is confined to (0, s1) with s1 the first positive
        critical point of r; for R <= 0 it runs over (0, s_max].  Raises
        OutOfRange when no sign change is found (enlarge s_max).
        """
        if self._theta is not None:
            return self._theta
        if self.constant_solution:
            raise DegenerateInitial("constant solution has no potential roots")
        if self.degenerate_origin:
            raise InvalidRegime(
                "even potential branch undefined for pole-anchored profiles"
            )
        s1 = find_roots(self).s1 if self.params.R > 0 else None
        f = lambda s: float(self.sample_base(s)[2][0])
        base = self._dense()
        roots = _node_roots(
            base.ts, base.ys[:, 2], f, 1e-13, lo=1e-12, hi=self.s_max if s1 is None else s1
        )
        if not roots:
            raise OutOfRange(
                "even potential branch has no sign change on the window; "
                "increase s_max"
            )
        self._theta = roots[0]
        return self._theta


def _rhs_functions(f: _Fields):
    """First- and second-derivative fields for the joint state
    y = (r, r', lam0, lam0'), on longdouble scalars or, for stacked fields,
    on rows of one value per member."""
    warp, warp_jerk = f.warp, f.warp_jerk
    potential, potential_jerk = f.potential, f.potential_jerk

    def fun(y) -> tuple:
        r, rp, lam, lamp = y
        return rp, warp(r), lamp, potential(r, lam)

    def d2fun(y) -> tuple:
        r, rp, lam, lamp = y
        return (
            warp(r),
            warp_jerk(r, rp),
            potential(r, lam),
            potential_jerk(r, rp, lam, lamp),
        )

    return fun, d2fun


def _mirror_grid(base: DenseSolution):
    """Full mirrored node grid and parity-extended state arrays."""
    ts = base.ts
    ys = base.ys
    grid = np.concatenate([-ts[::-1], ts[1:]])
    even = lambda col: np.concatenate([ys[::-1, col], ys[1:, col]])
    odd = lambda col: np.concatenate([-ys[::-1, col], ys[1:, col]])
    return grid, even(0), odd(1), even(2), odd(3)


def _anchor_state(params: OdeParams, r0: float, s_max: float):
    """The checks integrate_profile makes before integrating.

    Returns the initial state (r, r', lam0, lam0') at the anchor, or None
    when the anchor is the constant solution.
    """
    if not (math.isfinite(r0) and r0 > 0.0):
        raise RangeError(f"anchor radius must be positive, got {r0!r}")
    if not (math.isfinite(s_max) and s_max > 0.0):
        raise RangeError(f"window half-length must be positive, got {s_max!r}")

    # In longdouble: r0^(1-n) overflows float64 already for r0 ~ 1e-200.
    with np.errstate(over="ignore"):
        r0_pow = _LD(r0) ** (1 - params.n)
    if not np.isfinite(r0_pow):
        raise RangeError(f"anchor radius {r0!r} is out of range: r0^(1-n) overflows")
    racc0 = warp_accel(params, _LD(r0))
    f = params._fields
    scale = abs(f.a) * r0_pow + abs(f.c2) * r0 + 1
    if abs(racc0) < _CONSTANT_TOL * scale:
        return None

    # r'' at the anchor sets the time scale of the first steps; below the
    # integrator's smallest step no step can resolve it.
    t_scale = np.sqrt(_LD(r0) / abs(racc0))
    if t_scale < _STEP_FLOOR:
        raise RangeError(
            f"anchor radius r0 = {r0!r} is out of range: its time scale "
            f"sqrt(r0/|r''(0)|) = {float(t_scale):.3g} is below the "
            f"integrator's smallest step {_STEP_FLOOR:.3g}"
        )
    lam00 = _LD(r0) / (_LD(params.n - 1) * racc0)
    return np.array([r0, 0.0, lam00, 0.0], dtype=_LD)


def _batch_members(keys: list) -> tuple[list, Callable]:
    """rk45.integrate_batch's members and batch system for the profiles
    ``keys``, each ``(params, r0, s_max)`` past integrate_profile's checks."""
    fields = [params._fields for params, _, _ in keys]
    floors = np.array([_RADIUS_FLOOR * r0 for _, r0, _ in keys])

    def batch(idx):
        floor = floors[idx]
        fun, d2fun = _rhs_functions(_Fields.stack([fields[i] for i in idx]))
        return fun, d2fun, lambda y: y[0] <= floor

    members = [
        (*_rhs_functions(f), lambda y, floor=floor: y[0] <= floor, _anchor_state(*key),
         (0.0, float(key[2])))
        for f, floor, key in zip(fields, floors.tolist(), keys)
    ]
    return members, batch


def _integrates(key) -> bool:
    """Whether integrate_profile(*key) passes its checks and integrates."""
    try:
        return _anchor_state(*key) is not None
    except RangeError:
        return False


# Dense bases integrated ahead of their integrate_profile call, keyed by
# (params, r0, s_max); see prefetched.
_PREFETCH: dict = {}


@contextmanager
def prefetched(requests):
    """Integrate the profiles of ``requests`` as one lockstep batch.

    Each request is ``(params, r0, s_max)``.  Every request that passes
    integrate_profile's checks and is not the constant solution joins one
    rk45.integrate_batch call, if there are at least ``MIN_BATCH`` of them;
    while the context is open, integrate_profile takes a matching stored
    base (once) instead of integrating.  A member that failed in the batch
    is not stored, so its own call raises its own error.  The store is
    emptied on exit.
    """
    try:
        keys = [key for key in dict.fromkeys(requests) if _integrates(key)]
        if len(keys) >= MIN_BATCH:
            bases = integrate_batch(*_batch_members(keys), **_TOLS)
            _PREFETCH.update((k, b) for k, b in zip(keys, bases) if b is not None)
        yield
    finally:
        _PREFETCH.clear()


def integrate_profile(params: OdeParams, r0: float, s_max: float) -> Profile:
    """Integrate the radial ODE from the anchor r(0) = r0, r'(0) = 0.

    Returns a partial profile (no potential attached) on the mirrored window
    [-s_max, s_max].  The even potential branch lam0 is integrated jointly so
    that completion via solve_potential is purely algebraic.  Inside
    ``prefetched``, a base integrated there for the same arguments is used.

    Raises
    ------
    RangeError
        If r0 or s_max is not positive, r0^(1-n) overflows longdouble, or
        the anchor's time scale sqrt(r0/|r''(0)|) is below the smallest
        integrator step.
    NonPositiveRadius
        If the warp factor collapses toward zero inside the window.
    StepFailure
        If the integration cannot meet its tolerance within its step budget.
    """
    y0 = _anchor_state(params, r0, s_max)
    if y0 is None:
        # Constant solution: r identically r0.  Admits no potential.
        grid = np.linspace(_LD(-s_max), _LD(s_max), 801)
        r = np.full(grid.shape, _LD(r0))
        z = np.zeros(grid.shape, dtype=_LD)
        kappa0 = float(conserved_quantity(params, r0, 0.0))
        return Profile(
            params=params,
            r0=float(r0),
            s_max=float(s_max),
            grid=grid,
            r=r,
            rp=z,
            lam=None,
            lamp=None,
            kappa0=kappa0,
            C=None,
            constant_solution=True,
            diagnostics={"conservation_residual": 0.0},
        )

    base = _PREFETCH.pop((params, r0, s_max), None)
    if base is None:
        fun, d2fun = _rhs_functions(params._fields)
        floor = _RADIUS_FLOOR * r0
        base, hit = integrate(
            fun, d2fun, y0, (0.0, float(s_max)), guard=lambda y: y[0] <= floor, **_TOLS
        )
        if hit:
            raise NonPositiveRadius(
                f"warp factor fell below {floor:.3g} near s = {float(base.t_end):.6g}; "
                "the profile leaves the positive-radius regime inside the window"
            )

    grid, r, rp, lam0, lam0p = _mirror_grid(base)
    kappa0_ld = conserved_quantity(params, _LD(r0), _LD(0.0))
    cons = conserved_quantity(params, r, rp) - kappa0_ld
    cons_rel = float(np.max(np.abs(cons)) / max(abs(float(kappa0_ld)), 1.0))
    return Profile(
        params=params,
        r0=float(r0),
        s_max=float(s_max),
        grid=grid,
        r=r,
        rp=rp,
        lam=None,
        lamp=None,
        kappa0=float(kappa0_ld),
        C=None,
        constant_solution=False,
        diagnostics={
            "conservation_residual": cons_rel,
            "nfev": base.nfev,
        },
        _base=base,
        _lam0=lam0,
        _lam0p=lam0p,
    )


def solve_potential(profile: Profile, C: float) -> Profile:
    """Attach the potential lam = lam0 + C r' to a profile.

    Purely algebraic: the even branch lam0 was integrated jointly with the
    warp factor, and r' spans the remaining homogeneous freedom.  Returns a
    new complete Profile sharing the dense base with the input.

    Raises DegenerateInitial for the constant solution, which admits no
    potential vanishing anywhere.
    """
    if profile.constant_solution:
        raise DegenerateInitial(
            "constant warp factor admits no nontrivial potential"
        )
    C = float(C)
    if not math.isfinite(C):
        raise RangeError(f"family parameter must be finite, got {C!r}")
    if profile._closed_form is not None:
        raise InvalidRegime(
            "pole-anchored closed-form profiles carry their potential already"
        )
    if profile._lam0 is None:
        raise DegenerateInitial("profile carries no even potential branch")

    lam = profile._lam0 + _LD(C) * profile.rp
    lamp = profile._lam0p + _LD(C) * warp_accel(profile.params, profile.r)

    # First-order compatibility: r' lam' - r'' lam + r/(n-1) = 0 identically.
    n = profile.params.n
    ident = (
        profile.rp * lamp
        - warp_accel(profile.params, profile.r) * lam
        + profile.r / _LD(n - 1)
    )
    ident_rel = float(np.max(np.abs(ident)) / max(float(np.max(profile.r)), 1.0))

    diag = dict(profile.diagnostics)
    diag["potential_identity_residual"] = ident_rel
    out = replace(profile, lam=lam, lamp=lamp, C=C, diagnostics=diag)
    out._roots = None
    return out


def space_form_profile(
    kappa: int,
    lambda_p: float,
    s_max: float,
    n: int = 3,
) -> Profile:
    """Closed-form constant-curvature profile anchored at a pole r = 0.

    These are the a = 0 members: geodesic balls in the simply connected
    space form of curvature ``kappa`` in {-1, 0, 1}, with
    ``lambda_p = lam(0)`` the central value of the potential.  The warp
    factor is s, sin s, or sinh s; kappa0 = 1 and R = kappa n (n-1).

    The window is one-sided, [0, s_max], and the origin is a coordinate
    degeneracy of the radial frame (``degenerate_origin``).  For kappa = 1
    the window must stay inside the first half-period (s_max < pi).
    """
    if kappa not in (-1, 0, 1):
        raise RangeError(f"space-form curvature must be -1, 0 or 1, got {kappa!r}")
    if not (math.isfinite(s_max) and s_max > 0.0):
        raise RangeError(f"window length must be positive, got {s_max!r}")
    if kappa == 1 and s_max >= math.pi:
        raise RangeError(
            "window must stay inside the first half-period (s_max < pi) "
            "for the positively curved space form"
        )
    lambda_p = float(lambda_p)
    params = OdeParams(n=n, R=float(kappa * n * (n - 1)), a=0.0)
    inv = _LD(1) / _LD(n - 1)

    if kappa == 0:

        def closed(s: np.ndarray):
            s = np.asarray(s, dtype=_LD)
            r = s.copy()
            rp = np.ones_like(s)
            lam = _LD(lambda_p) - s**2 * inv / 2
            lamp = -s * inv
            return r, rp, lam, lamp

    elif kappa == 1:
        amp = _LD(lambda_p) + inv

        def closed(s: np.ndarray):
            s = np.asarray(s, dtype=_LD)
            return np.sin(s), np.cos(s), amp * np.cos(s) - inv, -amp * np.sin(s)

    else:
        amp = _LD(lambda_p) - inv

        def closed(s: np.ndarray):
            s = np.asarray(s, dtype=_LD)
            return np.sinh(s), np.cosh(s), amp * np.cosh(s) + inv, amp * np.sinh(s)

    grid = np.linspace(_LD(0.0), _LD(s_max), _SPACE_FORM_POINTS)
    r, rp, lam, lamp = closed(grid)
    return Profile(
        params=params,
        r0=0.0,
        s_max=float(s_max),
        grid=grid,
        r=r,
        rp=rp,
        lam=lam,
        lamp=lamp,
        kappa0=1.0,
        C=0.0,
        constant_solution=False,
        degenerate_origin=True,
        s_min=0.0,
        diagnostics={"conservation_residual": 0.0},
        _closed_form=closed,
    )


def critical_radius(params: OdeParams) -> float:
    """Radius of the constant solution, (n (n-1) a / R)^(1/n).

    Defined only for R > 0 and a > 0 (InvalidRegime otherwise).
    """
    if params.R <= 0.0 or params.a <= 0.0:
        raise InvalidRegime(
            "constant solution requires R > 0 and a > 0 "
            f"(got R={params.R!r}, a={params.a!r})"
        )
    n = params.n
    return float((n * (n - 1) * params.a / params.R) ** (1.0 / n))


def solve_radius_for_kappa0(params: OdeParams, kappa0: float, branch: str = "min") -> float:
    """Anchor radius r0 realizing a prescribed fiber constant kappa0.

    Inverts F(r0) = c2 r0^2 + (2a/(n-2)) r0^(2-n) = kappa0 (the conserved
    quantity at a critical point of r).  Requires a > 0.  For R <= 0, F is
    strictly decreasing and the root is unique; ``branch`` is ignored.  For
    R > 0, F has a strict minimum at the constant-solution radius and
    ``branch`` selects the "min" (smaller r0, anchor is a minimum of r) or
    "max" (larger r0) preimage.

    Raises OutOfRange when kappa0 is not attained on the requested branch.
    """
    if params.a <= 0.0:
        raise InvalidRegime(
            f"kappa0 anchoring requires a > 0, got a={params.a!r}"
        )
    if branch not in ("min", "max"):
        raise RangeError(f"branch must be 'min' or 'max', got {branch!r}")
    n = params.n
    kappa0 = float(kappa0)

    def F(r: float) -> float:
        return float(conserved_quantity(params, r, 0.0))

    if params.R > 0.0:
        r_star = critical_radius(params)
        k_min = F(r_star)
        if kappa0 < k_min - _KAPPA0_TOL * max(1.0, abs(k_min)):
            raise OutOfRange(
                f"no anchor radius attains kappa0={kappa0:.6g}; the minimum over "
                f"radii is {k_min:.6g} at the constant solution"
            )
        if kappa0 <= k_min:
            return r_star
        if branch == "min":
            lo = r_star
            while F(lo) < kappa0:
                lo *= 0.5
                if lo < 1e-300:
                    raise OutOfRange("anchor radius underflow while bracketing")
            return bisect_root(lambda r: F(r) - kappa0, lo, r_star, tol=_KAPPA0_TOL * r_star)
        hi = r_star
        while F(hi) < kappa0:
            hi *= 2.0
            if hi > 1e300:
                raise OutOfRange("anchor radius overflow while bracketing")
        return bisect_root(lambda r: F(r) - kappa0, r_star, hi, tol=_KAPPA0_TOL * hi)

    if params.R == 0.0:
        # F(r) = (2a/(n-2)) r^(2-n): positive, strictly decreasing.
        if kappa0 <= 0.0:
            raise OutOfRange(
                f"kappa0 must be positive when R = 0 and a > 0, got {kappa0:.6g}"
            )
        return float((2.0 * params.a / ((n - 2) * kappa0)) ** (1.0 / (n - 2)))

    # R < 0: F strictly decreasing from +inf to -inf; unique root.
    lo = 1.0
    while F(lo) < kappa0:
        lo *= 0.5
        if lo < 1e-300:
            raise OutOfRange("anchor radius underflow while bracketing")
    hi = max(1.0, 2.0 * lo)
    while F(hi) > kappa0:
        hi *= 2.0
        if hi > 1e300:
            raise OutOfRange("anchor radius overflow while bracketing")
    return bisect_root(lambda r: F(r) - kappa0, lo, hi, tol=_KAPPA0_TOL * hi)


def _node_roots(xs, f_vals, f, tol: float, lo=-math.inf, hi=math.inf) -> list[float]:
    """Roots in [lo, hi] of ``f``, bracketed on its values ``f_vals`` at nodes ``xs``.

    Each sign change between consecutive (ascending) nodes is bisected to
    within ``tol``, starting from the stored values; a node where ``f_vals``
    is exactly zero is a root.  The segments straddling ``lo`` and ``hi``
    are searched too, so a root between a window edge and the nearest node
    inside is kept; roots outside [lo, hi] are dropped.
    """
    i = max(int(np.searchsorted(xs, lo, side="right")) - 1, 0)
    j = int(np.searchsorted(xs, hi, side="left")) + 1
    xs, vals = xs[i:j], f_vals[i:j]
    sgn = np.sign(vals)
    out = [float(x) for x in xs[sgn == 0]]
    for k in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        out.append(
            bisect_root(f, xs[k], xs[k + 1], tol=tol, f_lo=vals[k], f_hi=vals[k + 1])
        )
    return sorted(t for t in out if lo <= t <= hi)


def find_roots(profile: Profile) -> RootSet:
    """Locate roots of r' and of the potential on the profile window.

    Roots are bracketed on the profile's grid from the values of r' and lam
    stored there -- for an integrated profile the mirrored step nodes of
    the integrator, for a closed-form space form a uniform grid -- and
    polished by bisection on the dense solution to within 1e-12.  On the
    mirrored grid r' is odd and r even, so the roots of r' are polished on
    s > 0 only and mirrored with their kinds.  For R > 0 the period of the
    warp factor (distance between consecutive anchor returns) is reported.
    """
    cached = profile._roots
    if cached is not None and (cached.lam_roots is not None or not profile.complete):
        return cached
    if profile.constant_solution:
        rs = RootSet(
            rp_roots=np.array([], dtype=float),
            rp_kinds=(),
            lam_roots=None,
            period=None,
            constant_solution=True,
        )
        profile._roots = rs
        return rs

    lo = profile.s_min + (1e-12 if profile.degenerate_origin else 0.0)
    rp_f = lambda s: float(profile.sample(s).rp[0])
    if profile.degenerate_origin:
        rp_roots = _node_roots(profile.grid, profile.rp, rp_f, _ROOT_TOL, lo=lo)
    else:
        # A mirrored bracket bisects to exactly the negated root (midpoints,
        # values and branches all negate).  The anchor root is exact by
        # construction; drop any bracketed copy.
        pos = _node_roots(profile.grid, profile.rp, rp_f, _ROOT_TOL, lo=0.0)
        rp_roots = [0.0] + [t for t in pos if t > 10 * _ROOT_TOL]
    kinds = [
        "min" if float(warp_accel(profile.params, profile.sample(t).r[0])) > 0 else "max"
        for t in rp_roots
    ]
    if not profile.degenerate_origin:
        rp_roots = [-t for t in rp_roots[:0:-1]] + rp_roots
        kinds = kinds[:0:-1] + kinds

    lam_roots = None
    if profile.complete:
        lam_f = lambda s: float(profile.sample(s).lam[0])
        lam_roots = np.array(
            _node_roots(profile.grid, profile.lam, lam_f, _ROOT_TOL, lo=lo), dtype=float
        )

    period = None
    if profile.params.R > 0 and not profile.degenerate_origin:
        pos = [t for t in rp_roots if t > 10 * _ROOT_TOL]
        if len(pos) >= 2:
            period = float(pos[1])

    rs = RootSet(
        rp_roots=np.array(rp_roots, dtype=float),
        rp_kinds=tuple(kinds),
        lam_roots=lam_roots,
        period=period,
        constant_solution=False,
    )
    profile._roots = rs
    return rs


def extend_base(profile: Profile, *, r_target: float) -> DenseSolution:
    """Continue the base integration beyond s_max until r >= r_target.

    Used for improper boundary-matching integrals on unbounded windows
    (R < 0, where r grows like cosh).  The extension covers [s_max, end]
    only: it starts at the base's last node and holds the outward segments.
    It is cached and does not alter the profile's grid or window.
    """
    base = profile._dense()
    ext = profile._extension
    if ext is None:
        ext = DenseSolution(base.ts[-1:], base.ys[-1:], base.dys[-1:], base.d2ys[-1:])
    if float(ext.ys[-1, 0]) >= r_target:
        return ext
    fun, d2fun = _rhs_functions(profile.params._fields)

    # March in fixed spans until the radius target is met.
    span = max(2.0, 0.5 * profile.s_max)
    segs: list[DenseSolution] = []
    last = ext
    for _ in range(200):
        if float(last.ys[-1, 0]) >= r_target:
            break
        t0 = float(last.ts[-1])
        last, _hit = integrate(fun, d2fun, last.ys[-1], (t0, t0 + span), **_TOLS)
        segs.append(last)
        span = min(2.0 * span, 50.0)
    else:
        raise OutOfRange(
            f"radius target {r_target:.3g} not reached while extending profile"
        )

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(ext, name)] + [getattr(g, name)[1:] for g in segs])

    ext = DenseSolution(
        joined("ts"), joined("ys"), joined("dys"), joined("d2ys"),
        nfev=ext.nfev + sum(g.nfev for g in segs),
    )
    profile._extension = ext
    return ext
