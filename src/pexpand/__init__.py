"""Numerics for piecewise expanding unimodal maps: horizontality functional,
cohomological equations, in-class deformations, periodic continuation, and
itinerary-based conjugacies."""

from .errors import (
    AmbiguousPeriodicityError,
    CertificationError,
    DegenerateDirectionError,
    InternalConsistencyError,
    InvalidMapError,
    KneadingDriftError,
    NewtonDivergenceError,
    NoPointError,
    OrbitRefusedError,
    PexpandError,
    PreconditionError,
)
from .maps import (
    DirectionField,
    FamilyTerm,
    MapFamily,
    OrbitRecord,
    PiecewiseMap,
    aux_dictionary,
    bump_field,
    critical_orbit,
    critical_relations,
    curved_not_good,
    detect_periodic_critical,
    expansivity_certificate,
    family_eval,
    family_velocity,
    full_tent,
    golden_tent,
    is_good,
    itinerary,
    kneading,
    lambda_of,
    odd_field,
    require_valid,
    square_bump_field,
    symmetric_tent,
    tent_profile_field,
    validate,
)
from .functional import (
    AlphaSolution,
    JResult,
    a_priori_bound,
    alpha,
    check_twisted_cohomology,
    horizontality,
    j_functional,
    kernel_projection,
    param_phase_consistency,
    side_constants,
)
from .deform import (
    DeformationTrace,
    PeriodicContinuation,
    TildeFamily,
    build_tilde_family,
    continue_periodic,
    find_periodic_theta,
    integrate_deformation,
    slope_field,
    transversal_derivative,
)
from .conjugacy import (
    ConjugacyTable,
    conjugate_point,
    lipschitz_estimate,
    periodic_words,
    point_from_itinerary,
    verify_conjugacy,
)
from .scan import (
    auto_transversal,
    continuation_ladder,
    run_scan,
    tangent_deformation,
)

__version__ = "0.1.0"
