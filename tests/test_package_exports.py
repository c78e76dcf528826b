"""The package's lazy exports are exactly the public names listed here, each
the submodule's own object."""

import importlib

import pytest

import torus_euler

# The public names, by the submodule that defines them.
EXPORTS = {
    "errors": ["BadExponent", "DegenerateBasis", "DegenerateLeadingCoefficient",
               "GridTooCoarse", "InconsistentMoments", "InternalInvariant",
               "MixedEigenspace", "NonZeroMean", "NumericalBlowup", "ShapeMismatch",
               "TorusEulerError", "UnsupportedMoment"],
    "lattice": ["DualBasis", "EigenspaceInfo", "LatticeBasis", "ShortestVectorSet",
                "classify_eigenspace", "dual_basis", "gram_dual", "preset_basis",
                "shortest_vectors"],
    "spectral": ["Grid", "RealField", "SpectralField", "analyze", "casimir", "energy",
                 "energy_enstrophy_gap", "enstrophy", "green_apply", "laplacian_apply",
                 "lp_norm", "modes", "sample_points", "synthesize", "velocity_from_vorticity"],
    "coeffs": ["EigenstateCoeffs", "OrbitInvariant", "format_coeffs", "orbit_invariant",
               "parse_coeffs", "same_orbit"],
    "eigenstate": ["orbit_distance", "project_to_e1", "solve_translation",
                   "synthesize_eigenstate", "translate_coeffs"],
    "census": ["MomentData", "OrbitCensus", "back_substitute", "enumerate_candidates",
               "moment_bracket", "moment_data", "moments_quadrature_oracle", "orbit_census",
               "reduce_to_cubic", "solve_cubic"],
    "euler": ["Diagnostics", "SolverConfig", "SolverState", "admissibility_check", "rhs",
              "run", "stability_ensemble", "stability_experiment", "step"],
    "io": ["read_torf", "write_torf"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_the_listed_names_are_exported_once_each():
    assert len(NAMES) == len(set(NAMES)) == 68
    assert sorted(torus_euler.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", EXPORTS)
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"torus_euler.{module}")
    for name in EXPORTS[module]:
        assert getattr(torus_euler, name) is getattr(sub, name), name


def test_star_import_binds_every_name_and_dir_lists_them():
    ns = {}
    exec("from torus_euler import *", ns)
    assert set(ns) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(torus_euler))
    assert "__version__" in dir(torus_euler)


def test_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'torus_euler' has no attribute 'nope'"):
        torus_euler.nope  # noqa: B018
    assert not hasattr(torus_euler, "nope")
