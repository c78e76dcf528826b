"""Spectral machinery and a 2D Euler solver for flat tori of arbitrary shape."""

from .errors import (
    BadExponent,
    DegenerateBasis,
    DegenerateLeadingCoefficient,
    GridTooCoarse,
    InconsistentMoments,
    InternalInvariant,
    MixedEigenspace,
    NonZeroMean,
    NumericalBlowup,
    ShapeMismatch,
    TorusEulerError,
    UnsupportedMoment,
)
from .lattice import (
    DualBasis,
    EigenspaceInfo,
    LatticeBasis,
    ShortestVectorSet,
    classify_eigenspace,
    dual_basis,
    gram_dual,
    preset_basis,
    shortest_vectors,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    analyze,
    casimir,
    energy,
    energy_enstrophy_gap,
    enstrophy,
    green_apply,
    laplacian_apply,
    lp_norm,
    modes,
    project_mean_zero,
    sample_points,
    synthesize,
    velocity_from_vorticity,
)
from .eigenstate import (
    EigenstateCoeffs,
    OrbitInvariant,
    orbit_distance,
    orbit_invariant,
    project_to_e1,
    same_orbit,
    solve_translation,
    synthesize_eigenstate,
    translate_coeffs,
)
from .census import (
    CandidateTriple,
    MomentData,
    OrbitCensus,
    back_substitute,
    enumerate_candidates,
    moment_bracket,
    moment_data,
    moments_quadrature_oracle,
    orbit_census,
    reduce_to_cubic,
    solve_cubic,
)
from .euler import (
    Diagnostics,
    SolverConfig,
    SolverState,
    admissibility_check,
    rhs,
    run,
    stability_ensemble,
    stability_experiment,
    step,
)
from .io import format_coeffs, parse_coeffs, read_torf, write_torf

__version__ = "0.1.0"
