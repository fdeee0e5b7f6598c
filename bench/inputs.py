"""Seeded workload inputs, placed without calling warpcrit.

The anchor roots that decide where a matching root may sit (theta, the
first positive root of the even potential branch lam0, and s1, the first
positive critical point of r) come from a float64 ``scipy.integrate.solve_ivp``
solve of the same radial ODE that warpcrit integrates in extended precision:

    r''    = a r^(1-n) - c2 r,                     c2 = R / (n (n-1))
    lam0'' = -[c2 + (n-1) a r^(-n)] lam0 - 1/(n-1)
    r(0) = r0, r'(0) = 0, lam0(0) = r0 / ((n-1) r''(0)), lam0'(0) = 0.

Keeping the program under test out of input generation keeps set-up time
dominated by imports, and keeps a defect in warpcrit from moving the inputs.

Seed 0 gives the pinned inputs.  Any other seed jitters the free values by
at most ``JITTER`` (relative), which keeps every input inside its admissible
window with a wide margin, so no task is expected to fail.
"""

from __future__ import annotations

import math
import random

from scipy.integrate import solve_ivp

# Relative jitter applied to the free inputs of a nonzero seed.
JITTER = 0.02

SWEEP_S_MAX = 9.0
SIGNS_R, SIGNS_C = 6.0, 0.1
ROUNDTRIP = {"n": 3, "R": -6.0, "a": 1.0, "r0": 1.0, "C": 0.25, "s_max": 4.0}
ROUNDTRIP_GRID_STEP = 5e-5
TAIL_S_MAX = 3.0

# The acceptance combos n in {3,4} x R in {-6,0,6} x a in {0.5,1,2}, plus two.
SWEEP_COMBOS = [
    (n, R, a) for n in (3, 4) for R in (-6.0, 0.0, 6.0) for a in (0.5, 1.0, 2.0)
] + [(5, -6.0, 0.5), (5, 0.0, 1.0)]

# (n, a, r0 / r*) at R = 6: anchors on both sides of the constant solution,
# so both the minimum and the maximum anchor phase are covered.
SIGNS_CASES = [(3, 1.0, 0.8), (3, 1.0, 1.3), (4, 1.0, 0.8), (4, 2.0, 1.3)]

# (n, R, a, zeta1).  The exclusion radii of these charts lie in 0.03-0.47,
# so zeta1 keeps a margin of more than 0.5 on both sides after jitter.
TAIL_CASES = [
    (3, -6.0, 1.0, 1.0),
    (4, -6.0, 2.0, 1.5),
    (5, -6.0, 0.5, 1.2),
    (3, -2.0, 1.0, 1.5),
]


def critical_radius(n: int, R: float, a: float) -> float:
    """Radius of the constant solution, (n (n-1) a / R)^(1/n), for R, a > 0."""
    return (n * (n - 1) * a / R) ** (1.0 / n)


def anchor_roots(n: int, R: float, a: float, r0: float, s_max: float):
    """(theta, s1) of the profile anchored at r0; s1 is None when R <= 0.

    Both roots are downward crossings: at a minimum-phase anchor r' rises
    from zero and lam0 starts positive.
    """
    c2 = R / (n * (n - 1))
    racc0 = a * r0 ** (1 - n) - c2 * r0
    if not racc0 > 0.0:
        raise ValueError(f"anchor r0={r0} is not a minimum of r")

    def rhs(_s, y):
        r, rp, lam, lamp = y
        return [rp, a * r ** (1 - n) - c2 * r, lamp,
                -(c2 + (n - 1) * a * r ** (-n)) * lam - 1.0 / (n - 1)]

    def lam_root(_s, y):
        return y[2]

    def rp_root(_s, y):
        return y[1]

    lam_root.direction = -1
    rp_root.direction = -1
    if R > 0.0:
        rp_root.terminal = True
    else:
        lam_root.terminal = True
    sol = solve_ivp(rhs, (0.0, s_max), [r0, 0.0, r0 / ((n - 1) * racc0), 0.0],
                    method="DOP853", rtol=1e-11, atol=1e-13,
                    events=(lam_root, rp_root))
    thetas, s1s = sol.t_events
    if not len(thetas):
        raise ValueError(f"lam0 has no root on (0, {s_max}) for {(n, R, a, r0)}")
    s1 = float(s1s[0]) if (R > 0.0 and len(s1s)) else None
    if R > 0.0 and s1 is None:
        raise ValueError(f"r' has no root on (0, {s_max}) for {(n, R, a, r0)}")
    return float(thetas[0]), s1


class Jitter:
    """Relative perturbations drawn from the seed; seed 0 draws none."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed) if seed else None

    def __call__(self, value: float, width: float = JITTER) -> float:
        if self._rng is None:
            return value
        return value * (1.0 + width * self._rng.uniform(-1.0, 1.0))


def sweep20(seed: int) -> list[dict]:
    """The 20 ``example1`` sweep entries.

    r0 is 0.8 r* when R > 0 and 1 otherwise.  zeta1 is 1.5 theta when
    R <= 0 and the midpoint of (theta, s1) when R > 0.
    """
    jit = Jitter(seed)
    entries = []
    for n, R, a in SWEEP_COMBOS:
        if R > 0.0:
            r0 = jit(0.8 * critical_radius(n, R, a))
            theta, s1 = anchor_roots(n, R, a, r0, SWEEP_S_MAX)
            zeta1 = theta + jit(0.5) * (s1 - theta)
        else:
            r0 = jit(1.0)
            theta, _ = anchor_roots(n, R, a, r0, SWEEP_S_MAX)
            zeta1 = jit(1.5) * theta
            if not zeta1 < 0.9 * SWEEP_S_MAX:
                raise ValueError(f"zeta1={zeta1} too close to s_max for {(n, R, a)}")
        entries.append({"n": n, "R": R, "a": a, "r0": r0, "zeta1": zeta1})
    return entries


def signs(seed: int) -> list[dict]:
    """The four ``spectrum --signs`` configs."""
    jit = Jitter(seed)
    return [
        {"n": n, "R": SIGNS_R, "a": a, "C": SIGNS_C, "signs": True,
         "r0": jit(ratio) * critical_radius(n, SIGNS_R, a)}
        for n, a, ratio in SIGNS_CASES
    ]


def roundtrip(seed: int) -> dict:
    """The ``construct`` config; the row count depends only on s_max."""
    jit = Jitter(seed)
    cfg = dict(ROUNDTRIP)
    cfg["r0"] = jit(cfg["r0"])
    cfg["C"] = jit(cfg["C"])
    return cfg


def roundtrip_rows() -> int:
    """Rows of the exported CSV (the header excluded)."""
    span = 2.0 * ROUNDTRIP["s_max"]
    return int(math.floor(span / ROUNDTRIP_GRID_STEP + 1e-12)) + 1


def tail(seed: int) -> list[dict]:
    """The four ``schwarzschild`` configs with a matched zeta1."""
    jit = Jitter(seed)
    return [
        {"n": n, "R": R, "a": a, "s_max": TAIL_S_MAX, "zeta1": jit(zeta1)}
        for n, R, a, zeta1 in TAIL_CASES
    ]
