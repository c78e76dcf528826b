"""Spectral machinery and a 2D Euler solver for flat tori of arbitrary shape.

The public names load lazily (PEP 562): ``import torus_euler`` runs no
submodule, and each name imports its submodule the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCE = {
    name: module
    for module, names in {
        "errors": "BadExponent DegenerateBasis DegenerateLeadingCoefficient GridTooCoarse "
                  "InconsistentMoments InternalInvariant MixedEigenspace NonZeroMean "
                  "NumericalBlowup ShapeMismatch TorusEulerError UnsupportedMoment",
        "lattice": "DualBasis EigenspaceInfo LatticeBasis ShortestVectorSet classify_eigenspace "
                   "dual_basis gram_dual preset_basis shortest_vectors",
        "spectral": "Grid RealField SpectralField analyze casimir energy energy_enstrophy_gap "
                    "enstrophy green_apply laplacian_apply lp_norm modes sample_points "
                    "synthesize velocity_from_vorticity",
        "coeffs": "EigenstateCoeffs OrbitInvariant format_coeffs orbit_invariant "
                  "parse_coeffs same_orbit",
        "eigenstate": "orbit_distance project_to_e1 solve_translation synthesize_eigenstate "
                      "translate_coeffs",
        "census": "MomentData OrbitCensus back_substitute enumerate_candidates moment_bracket "
                  "moment_data moments_quadrature_oracle orbit_census reduce_to_cubic "
                  "solve_cubic",
        "euler": "Diagnostics SolverConfig SolverState admissibility_check rhs run "
                 "stability_ensemble stability_experiment step",
        "io": "read_torf write_torf",
    }.items()
    for name in names.split()
}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
