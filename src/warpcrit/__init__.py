"""warpcrit: construction and verification of rotationally symmetric
critical metrics of the volume functional with constant scalar curvature."""

from .errors import (
    AllPointsMasked,
    ConfigError,
    CriticalLevel,
    DegenerateInitial,
    DivergentIntegral,
    FiberMismatch,
    GridTooCoarse,
    InputError,
    InvalidRegime,
    NoFreeInvolution,
    NonPositiveRadius,
    NumericalError,
    OutOfGrid,
    OutOfRange,
    RangeError,
    SingularEndpoint,
    StepFailure,
    VerificationError,
    WarpcritError,
)
from .profiles import (
    FiberSpec,
    OdeParams,
    Profile,
    ProfileValues,
    RootSet,
    conserved_quantity,
    critical_radius,
    find_roots,
    integrate_profile,
    potential_accel,
    solve_potential,
    solve_radius_for_kappa0,
    space_form_profile,
    warp_accel,
)
from .matching import (
    BoundaryFace,
    MatchedDomain,
    MatchResult,
    SchwarzschildChart,
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
from .curvature import (
    CurvatureSample,
    LevelSetData,
    ResidualReport,
    curvature_at,
    curvature_samples,
    level_set_geometry,
    verify_conformally_flat,
    verify_critical,
)
from .spectrum import (
    EigenSignReport,
    SpectralResult,
    first_dirichlet_eigenvalue,
    verify_eigenvalue_signs,
)
from .serialize import (
    profile_from_arrays,
    read_profile_csv,
    write_envelope,
    write_profile_csv,
)

__version__ = "0.1.0"
