"""Exception types raised by the toolkit.

The classes mirror the failure modes of the pipeline: profile construction,
boundary matching, geometry verification and the spectral solver. The CLI maps
them onto process exit codes (see ``warpcrit.cli``):

* input / precondition errors -> exit 2
* runtime numerical failures  -> exit 3
* verification verdict failures (including ``FiberMismatch``) -> exit 1
"""

__all__ = [
    "WarpcritError",
    "InputError",
    "NumericalError",
    "VerificationError",
    "NonPositiveRadius",
    "StepFailure",
    "DegenerateInitial",
    "RangeError",
    "DivergentIntegral",
    "SingularEndpoint",
    "OutOfRange",
    "NoFreeInvolution",
    "InvalidRegime",
    "OutOfGrid",
    "FiberMismatch",
    "AllPointsMasked",
    "CriticalLevel",
    "GridTooCoarse",
    "ConfigError",
]


class WarpcritError(Exception):
    """Base class for all toolkit errors."""


class InputError(WarpcritError):
    """Precondition violated; decidable from the inputs alone (exit 2)."""


class NumericalError(WarpcritError):
    """A numerical procedure failed at runtime (exit 3)."""


class VerificationError(WarpcritError):
    """A verification check failed its verdict (exit 1)."""


# --- profile construction -------------------------------------------------

class NonPositiveRadius(NumericalError):
    """The warp factor reached the positivity floor during integration.

    Possible only when the inhomogeneity constant ``a <= 0``; for ``a > 0``
    the conserved quantity bounds the warp factor away from zero.
    """


class StepFailure(NumericalError):
    """The integrator cannot cover its window: the step size underflows, or
    the step budget is, or by its pace would be, spent."""


class DegenerateInitial(InputError):
    """The profile carries no even potential branch to attach a potential to.

    Raised for the constant cylinder solution, whose initial second
    derivative vanishes so that the potential's initial value is undefined,
    and for a closed form or a profile rebuilt from a grid.
    """


class RangeError(InputError):
    """A parameter outside its accepted range: n, R, a, C, r0, a window, a
    space form's curvature, or the eigenvalue grid."""


# --- boundary matching ----------------------------------------------------

class DivergentIntegral(NumericalError):
    """The requested improper integral diverges (scalar curvature >= 0)."""


class SingularEndpoint(NumericalError):
    """A quadrature endpoint coincides with a critical point of the warp factor."""


class OutOfRange(InputError):
    """A requested value has no admissible answer: a root or tail matching
    cannot reach, a kappa0 no anchor radius or horizon attains, a window with
    no theta, or a fiber dimension below 2."""


class NoFreeInvolution(InputError):
    """The fiber spec does not carry a free involution, so no quotient exists."""


class InvalidRegime(InputError):
    """Operation undefined for this sign combination of the parameters."""


# --- geometry checks ------------------------------------------------------

class OutOfGrid(InputError):
    """Requested sample location lies outside the profile's coordinate window."""


class FiberMismatch(VerificationError):
    """The declared fiber curvature is inconsistent with the conserved quantity."""


class AllPointsMasked(NumericalError):
    """Every grid point fell below the potential floor; nothing to verify."""


class CriticalLevel(InputError):
    """The requested level set passes through a critical point of the potential."""


# --- spectral solver ------------------------------------------------------

class GridTooCoarse(NumericalError):
    """Eigenvalue refinements disagree in sign beyond their error bound;
    the discretization cannot support a sign verdict at this resolution."""


# --- CLI ------------------------------------------------------------------

class ConfigError(InputError):
    """Malformed run configuration (unknown keys, wrong types, bad flags)."""
