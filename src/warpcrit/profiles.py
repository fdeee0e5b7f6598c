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
``r'(0) = 0``, on the mirrored window ``[-s_max, s_max]``.  A profile has
a dense base (``_base``), a closed form (``_closed_form``: the constant
solution, and the space forms, ``a = 0`` anchored at a pole ``r = 0`` on
``[0, s_max]``), or only a grid rebuilt from stored columns.  One predicate,
whether it has a dense base, decides what each kind supports:
``Profile._dense`` raises InvalidRegime and ``solve_potential``
DegenerateInitial.  lam0 and lam0' are held only in the base.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import support
from .errors import (
    DegenerateInitial,
    FiberMismatch,
    InvalidRegime,
    NonPositiveRadius,
    OutOfGrid,
    OutOfRange,
    RangeError,
)
from .rk45 import _H_FLOOR, MIN_BATCH, DenseSolution, integrate, integrate_batch
from .support import LD as _LD, bisect_root

__all__ = [
    "OdeParams",
    "FiberSpec",
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

# Relative threshold on |r''(0)| below which the anchor is the constant
# (non-warped) solution r = r0, which admits no potential.
_CONSTANT_TOL = 1e-12

# Guard floor for the warp factor during integration, relative to r0.
_RADIUS_FLOOR = 1e-6

# Absolute tolerance of the roots find_roots reports.
_ROOT_TOL = 1e-12

# Relative tolerance of the anchor radius solve_radius_for_kappa0 returns.
_KAPPA0_TOL = 1e-14

# Grid points of a closed-form space form, on which its arrays are stored.
_SPACE_FORM_POINTS = 2001


class _Fields:
    """The radial fields with their coefficients in the working precision
    (``support.LD``, here ``_LD``), built once.

    This is the one definition of each formula.  The arguments are
    longdouble scalars (the integrator's right-hand side) or longdouble
    arrays: the public helpers below, a batch member's y'' over its nodes
    once the batch ends, and the batch right-hand side of ``stack``-ed
    fields.
    """

    __slots__ = (
        "a", "c2", "a_jerk", "a_pot", "a_drive", "inv", "a_cons",
        "pow_warp", "pow_pot", "pow_drive", "pow_cons",
    )

    def __init__(self, n: int, R: float, a: float) -> None:
        self.a = _LD(a)
        self.c2 = _LD(R) / _LD(n * (n - 1))
        self.a_jerk = _LD(a) * _LD(1 - n)
        self.a_pot = _LD((n - 1) * a)
        self.a_drive = _LD(n * (n - 1) * a)
        self.inv = _LD(1) / _LD(n - 1)
        self.a_cons = _LD(2.0 * a) / _LD(n - 2)
        # The integer exponents of r in the formulas below.
        self.pow_warp, self.pow_pot, self.pow_drive, self.pow_cons = 1 - n, -n, -n - 1, 2 - n

    @classmethod
    def stack(cls, members: list["_Fields"]) -> "_Fields":
        """The fields of several members at once: each coefficient, the
        exponents included, becomes a longdouble array with one entry per
        member."""
        out = cls.__new__(cls)
        for name in cls.__slots__:
            setattr(out, name, np.array([getattr(m, name) for m in members], dtype=_LD))
        return out

    def warp(self, r):  # r''
        return self.a * r ** self.pow_warp - self.c2 * r

    def warp_jerk(self, r, rp):  # r'''
        return (self.a_jerk * r ** self.pow_pot - self.c2) * rp

    def potential(self, r, lam):  # lam''
        coeff = self.c2 + self.a_pot * r ** self.pow_pot
        return -coeff * lam - self.inv

    def potential_jerk(self, r, rp, lam, lamp):  # lam'''
        coeff = self.c2 + self.a_pot * r ** self.pow_pot
        drive = self.a_drive * r ** self.pow_drive * rp
        return -coeff * lamp + drive * lam

    def conserved(self, r, rp):  # the first integral
        return rp**2 + self.c2 * r**2 + self.a_cons * r ** self.pow_cons


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

    def require_dim(self, n: int) -> None:
        """The one fiber-dimension check: FiberMismatch unless dim = n - 1."""
        if self.dim != n - 1:
            raise FiberMismatch(f"fiber dimension {self.dim} does not match n-1 = {n - 1}")


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

    ``rp_roots`` always includes the anchor s = 0 and is sorted ascending
    over the full window; ``rp_kinds`` labels each root "min" or "max" by
    the sign of r'' there.  ``lam_roots`` is None when the profile carries
    no potential.  ``period`` is the distance between consecutive minima of
    r, present only when R > 0 (the warp factor is then periodic).
    """

    rp_roots: np.ndarray
    rp_kinds: tuple[str, ...]
    lam_roots: np.ndarray | None
    period: float | None

    @property
    def phase(self) -> str:
        """Kind of the anchor s = 0, which the mirrored roots put mid-list."""
        return self.rp_kinds[len(self.rp_kinds) // 2]

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
    partial profile without re-integrating.  Integrated and closed-form
    profiles store their grids in extended precision, rounded to float64 only
    at serialization.  Grid profiles are the exception: an export grid and a
    profile rebuilt from a CSV hold float64, the CSV's own precision.
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
    s_min: float = field(default=None)  # type: ignore[assignment]
    diagnostics: dict = field(default_factory=dict)
    # Internals: dense base on [0, s_max] with components (r, r', lam0,
    # lam0'), lam0's only copy; outward extensions for improper tails, closed
    # forms (returning r, r', lam, lam'), cached roots and matching tables.
    _base: DenseSolution | None = field(default=None, repr=False)
    _closed_form: Callable | None = field(default=None, repr=False)
    _extension: DenseSolution | None = field(default=None, repr=False)
    _roots: RootSet | None = field(default=None, repr=False)
    _theta: float | None = field(default=None, repr=False)
    _gtable: object | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.s_min is None:
            self.s_min = -float(self.s_max)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _check_window(self, s: np.ndarray) -> None:
        """The one containment rule for queried arclengths: OutOfGrid unless
        each lies in [s_min, s_max] padded by 1e-9 (1 + s_max); a NaN never does."""
        pad = 1e-9 * (1.0 + self.s_max)
        outside = ~((s >= self.s_min - pad) & (s <= self.s_max + pad))
        if np.any(outside):
            raise OutOfGrid(
                f"arclength {float(s[outside].flat[0]):.6g} outside profile window "
                f"[{self.s_min:.6g}, {self.s_max:.6g}]"
            )

    def _dense(self) -> DenseSolution:
        """The integrator's dense base: the one check that a profile has one,
        which a constant solution, a closed form or a rebuilt grid lacks."""
        if self._base is None:
            raise InvalidRegime(
                "profile has no dense base: a constant solution, a closed form "
                "and a profile rebuilt from a grid carry none"
            )
        return self._base

    def sample_base(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate (r, r', lam0, lam0') at arbitrary arclengths.

        Uses the dense output of the integrator with the parity relations
        (r, lam0 even; r', lam0' odd), so mirrored queries agree exactly.
        The query is evaluated one block of ``support.ROW_BLOCK`` points at a
        time into one preallocated array, so a long query holds one
        output-sized array plus one block of temporaries.
        Raises OutOfGrid outside the window and InvalidRegime (``_dense``)
        for a profile without a dense base.
        """
        s = np.atleast_1d(np.asarray(s, dtype=_LD))
        self._check_window(s)
        dense = self._dense()
        y = np.empty((s.size, 4), dtype=_LD)
        for rows in support.row_blocks(s.size):
            block = s[rows]
            y[rows] = dense(np.abs(block))
            y[rows, 1::2] *= np.where(block < 0, _LD(-1.0), _LD(1.0))[:, None]
        return y[:, 0], y[:, 1], y[:, 2], y[:, 3]

    def sample(self, s) -> ProfileValues:
        """Evaluate (r, r', lam, lam') at arbitrary arclengths in the window.

        ``lam`` and ``lamp`` are None when no potential is attached.  Raises
        OutOfGrid outside [s_min, s_max], and InvalidRegime for a profile
        rebuilt from a grid, which has no dense base.
        """
        s_arr = np.atleast_1d(np.asarray(s, dtype=_LD))
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
        OutOfRange when no sign change is found (enlarge s_max), and
        InvalidRegime (``_dense``) for a profile without a dense base.
        """
        if self._theta is not None:
            return self._theta
        base = self._dense()
        s1 = find_roots(self).s1 if self.params.R > 0 else None
        f = lambda s: float(self.sample_base(s)[2][0])
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
    y = (r, r', lam0, lam0'), on longdouble scalars or on rows of values:
    one per node of one profile, or, for stacked fields, one per member."""
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


def _mirror(half: np.ndarray, odd: bool) -> np.ndarray:
    """Values at the base nodes on [0, s_max] extended by parity to the full
    mirrored node grid: reflected, and negated when ``odd``."""
    return np.concatenate([-half[::-1] if odd else half[::-1], half[1:]])


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
    # integrator's smallest step at t = 0, _H_FLOOR, no step can resolve it.
    t_scale = np.sqrt(_LD(r0) / abs(racc0))
    if t_scale < _H_FLOOR:
        raise RangeError(
            f"anchor radius r0 = {r0!r} is out of range: its time scale "
            f"sqrt(r0/|r''(0)|) = {float(t_scale):.3g} is below the "
            f"integrator's smallest step {float(_H_FLOOR):.3g}"
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
        fun, _ = _rhs_functions(_Fields.stack([fields[i] for i in idx]))
        return fun, lambda y: y[0] <= floor

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
    is not stored, so its own call raises its own error.  The store is the
    only owner of the bases: once integrate_profile pops one, it lives as
    long as that profile, not as long as the context.  The store is emptied
    on exit.
    """
    try:
        keys = [key for key in dict.fromkeys(requests) if _integrates(key)]
        if len(keys) >= MIN_BATCH:
            bases = integrate_batch(*_batch_members(keys))
            _PREFETCH.update((k, b) for k, b in zip(keys, bases) if b is not None)
            # The suspended frame must not keep the popped bases alive.
            del bases
        yield
    finally:
        _PREFETCH.clear()


def _closed_profile(
    params: OdeParams, r0: float, s_max: float, grid: np.ndarray, closed: Callable, **fields
) -> Profile:
    """The profile of a closed form ``closed`` (arclengths to r, r', lam,
    lam'), stored on ``grid``; ``fields`` are its kappa0, C and any others."""
    r, rp, lam, lamp = closed(grid)
    return Profile(
        params=params,
        r0=float(r0),
        s_max=float(s_max),
        grid=grid,
        r=r,
        rp=rp,
        lam=lam,
        lamp=lamp,
        diagnostics={"conservation_residual": 0.0},
        _closed_form=closed,
        **fields,
    )


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
        # Constant solution: r identically r0, a closed form with no potential.
        def closed(s: np.ndarray):
            return np.full(s.shape, _LD(r0)), np.zeros(s.shape, dtype=_LD), None, None

        grid = np.linspace(_LD(-s_max), _LD(s_max), 801)
        kappa0 = float(conserved_quantity(params, r0, 0.0))
        return _closed_profile(
            params, r0, s_max, grid, closed, kappa0=kappa0, C=None, constant_solution=True
        )

    base = _PREFETCH.pop((params, r0, s_max), None)
    if base is None:
        fun, d2fun = _rhs_functions(params._fields)
        floor = _RADIUS_FLOOR * r0
        base, hit = integrate(fun, d2fun, y0, (0.0, float(s_max)), guard=lambda y: y[0] <= floor)
        if hit:
            raise NonPositiveRadius(
                f"warp factor fell below {floor:.3g} near s = {float(base.t_end):.6g}; "
                "the profile leaves the positive-radius regime inside the window"
            )

    grid = _mirror(base.ts, True)
    r, rp = _mirror(base.ys[:, 0], False), _mirror(base.ys[:, 1], True)
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
        diagnostics={
            "conservation_residual": cons_rel,
            "nfev": base.nfev,
        },
        _base=base,
    )


def solve_potential(profile: Profile, C: float) -> Profile:
    """Attach the potential lam = lam0 + C r' to a profile.

    Purely algebraic: the even branch lam0 was integrated jointly with the
    warp factor, and r' spans the remaining homogeneous freedom; lam0, lam0'
    are mirrored from the dense base as r, r' are.  Returns a new complete
    Profile sharing the dense base with the input.

    The one even-branch check, ``Profile._dense``'s predicate: raises
    DegenerateInitial for a profile without a dense base.
    """
    if profile._base is None:
        raise DegenerateInitial(
            "profile carries no even potential branch: the constant solution "
            "admits no potential, and a closed form or a rebuilt grid has none"
        )
    C = float(C)
    if not math.isfinite(C):
        raise RangeError(f"family parameter must be finite, got {C!r}")

    racc = warp_accel(profile.params, profile.r)
    lam = _mirror(profile._base.ys[:, 2], False) + _LD(C) * profile.rp
    lamp = _mirror(profile._base.ys[:, 3], True) + _LD(C) * racc

    # First-order compatibility: r' lam' - r'' lam + r/(n-1) = 0 identically.
    n = profile.params.n
    ident = profile.rp * lamp - racc * lam + profile.r / _LD(n - 1)
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

    The window is one-sided, [0, s_max], and its first grid point is the
    pole r = 0, a coordinate degeneracy of the radial frame.  For kappa = 1
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
    return _closed_profile(params, 0.0, s_max, grid, closed, kappa0=1.0, C=0.0, s_min=0.0)


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


def solve_radius_for_kappa0(params: OdeParams, kappa0: float) -> float:
    """Anchor radius r0 realizing a prescribed fiber constant kappa0.

    Inverts F(r0) = c2 r0^2 + (2a/(n-2)) r0^(2-n) = kappa0 (the conserved
    quantity at a critical point of r).  Requires a > 0 and R <= 0
    (InvalidRegime otherwise), where F is strictly decreasing and the root
    is unique.

    Raises OutOfRange when no radius attains kappa0.
    """
    if params.a <= 0.0:
        raise InvalidRegime(
            f"kappa0 anchoring requires a > 0, got a={params.a!r}"
        )
    if params.R > 0.0:
        raise InvalidRegime(f"kappa0 anchoring requires R <= 0, got R={params.R!r}")
    n = params.n
    kappa0 = float(kappa0)
    if params.R == 0.0:
        # F(r) = (2a/(n-2)) r^(2-n): positive, strictly decreasing.
        if kappa0 <= 0.0:
            raise OutOfRange(
                f"kappa0 must be positive when R = 0 and a > 0, got {kappa0:.6g}"
            )
        return float((2.0 * params.a / ((n - 2) * kappa0)) ** (1.0 / (n - 2)))

    def F(r: float) -> float:
        return float(conserved_quantity(params, r, 0.0))

    # R < 0: F falls from +inf to -inf.  One geometric walk from r = 1,
    # down while F is below kappa0, else up while above it.  A halving walk
    # brackets the root by its last step, a doubling walk by its start and
    # end; either way the tolerance is relative to the root.
    halving = F(1.0) < kappa0
    x = prev = 1.0
    while (F(x) < kappa0) if halving else (F(x) > kappa0):
        prev, x = x, x * (0.5 if halving else 2.0)
        if (x < 1e-300) if halving else (x > 1e300):
            word = "underflow" if halving else "overflow"
            raise OutOfRange(f"anchor radius {word} while bracketing")
    lo, hi = (x, prev) if halving else (1.0, x)
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
    """Locate roots of r' and of the potential on the window of a profile
    with a dense base (InvalidRegime, from ``_dense``, for one without).

    Roots are bracketed on the mirrored step nodes of the integrator from
    the values of r' and lam stored there, and polished by bisection on the
    dense solution to within 1e-12.  r' is odd and r even, so the roots of
    r' are polished on s > 0 only and mirrored with their kinds.  For R > 0
    the period of the warp factor (distance between consecutive anchor
    returns) is reported.  The result is cached until ``lam`` changes.
    """
    if profile._roots is not None:
        return profile._roots
    profile._dense()

    # A mirrored bracket bisects to exactly the negated root (midpoints,
    # values and branches all negate).  The anchor root is exact by
    # construction; drop any bracketed copy.
    rp_f = lambda s: float(profile.sample(s).rp[0])
    pos = _node_roots(profile.grid, profile.rp, rp_f, _ROOT_TOL, lo=0.0)
    rp_roots = [0.0] + [t for t in pos if t > 10 * _ROOT_TOL]
    # For R > 0 the anchor's next return is the second positive root of r'.
    period = float(rp_roots[2]) if profile.params.R > 0 and len(rp_roots) > 2 else None
    kinds = [
        "min" if float(warp_accel(profile.params, profile.sample(t).r[0])) > 0 else "max"
        for t in rp_roots
    ]
    rp_roots = [-t for t in rp_roots[:0:-1]] + rp_roots
    kinds = kinds[:0:-1] + kinds

    lam_roots = None
    if profile.complete:
        lam_f = lambda s: float(profile.sample(s).lam[0])
        lam_roots = np.array(
            _node_roots(profile.grid, profile.lam, lam_f, _ROOT_TOL, lo=profile.s_min),
            dtype=float,
        )

    profile._roots = RootSet(
        rp_roots=np.array(rp_roots, dtype=float),
        rp_kinds=tuple(kinds),
        lam_roots=lam_roots,
        period=period,
    )
    return profile._roots


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
        last, _hit = integrate(fun, d2fun, last.ys[-1], (t0, t0 + span))
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
