"""The half-spectrum functionals against the full FFT layout they replaced.

Each case analyzes the same samples twice: with ``analyze`` (rfft2) and with
the full-layout oracle (fft2), and compares every functional, the first-
eigenspace projection and the L2 orbit distance.  The fields are a random
first eigenstate plus a band-limited perturbation, so their Nyquist lines are
zero; on a skew lattice those lines have no single |k|, and a field with
content there may differ in its energy.
"""

import math

import numpy as np
import pytest

from torus_euler import (
    EigenstateCoeffs,
    Grid,
    LatticeBasis,
    RealField,
    analyze,
    classify_eigenspace,
    energy,
    energy_enstrophy_gap,
    enstrophy,
    lp_norm,
    orbit_distance,
    preset_basis,
    project_to_e1,
    synthesize,
    synthesize_eigenstate,
)
from torus_euler.coeffs import circ_dist
from torus_euler.eigenstate import _cell_coords
from torus_euler.spectral import random_mean_zero_field

import full_layout as fl

BASES = {
    "square": preset_basis("square"),
    "hexagonal": preset_basis("hexagonal"),
    "rectangular:3.0": preset_basis("rectangular:3.0"),
    "skew": LatticeBasis((1.0, 0.2), (0.37, 1.3)),
}
SHAPES = [(64, 64), (48, 32), (128, 128)]


@pytest.fixture(params=[(b, s) for b in BASES for s in SHAPES],
                ids=lambda bs: f"{bs[0]}-{bs[1][0]}x{bs[1][1]}")
def case(request):
    """Grid, samples, their half and full spectra, a reference state."""
    name, (n1, n2) = request.param
    grid = Grid(BASES[name], n1, n2)
    info = classify_eigenspace(grid.basis)
    rng = np.random.default_rng(n1 + n2 + len(name))
    state = EigenstateCoeffs(info, tuple(rng.uniform(0.5, 1.5, info.npairs)),
                             tuple(rng.uniform(0.0, fl.TAU, info.npairs)))
    ref = EigenstateCoeffs(info, tuple(rng.uniform(0.5, 1.5, info.npairs)),
                           tuple(rng.uniform(0.0, fl.TAU, info.npairs)))
    noise = random_mean_zero_field(grid, rng, kmax=3.0 * info.rho)
    samples = synthesize_eigenstate(state, grid).samples + 0.1 * noise.samples
    samples -= samples.mean()
    full = fl.analyze(samples)
    full[0, 0] = 0.0
    F = analyze(RealField(grid, samples))
    F.coeffs[0, 0] = 0.0
    return grid, samples, F, full, ref


def test_fields_have_zero_nyquist_lines(case):
    grid, _, F, full, _ = case
    scale = np.max(np.abs(full))
    for c in (F.coeffs, full):
        assert np.max(np.abs(c[grid.n1 // 2])) <= 1e-15 * scale
    assert np.max(np.abs(F.coeffs[:, -1])) <= 1e-15 * scale
    assert np.max(np.abs(full[:, grid.n2 // 2])) <= 1e-15 * scale


def test_transforms_agree(case):
    grid, samples, F, full, _ = case
    assert np.max(np.abs(fl.extend(F.coeffs, grid.n2) - full)) <= 1e-13 * np.max(np.abs(full))
    back, want = synthesize(F).samples, fl.synthesize(full)
    assert np.max(np.abs(back - want)) <= 1e-13 * np.max(np.abs(want))


def test_functionals_agree(case):
    grid, _, F, full, _ = case
    e, z = fl.energy(grid, full), fl.enstrophy(grid, full)
    assert abs(energy(F) - e) <= 1e-13 * e
    assert abs(enstrophy(F) - z) <= 1e-13 * z
    assert abs(energy_enstrophy_gap(F) - fl.energy_enstrophy_gap(grid, full)) <= 1e-13 * z


def test_projection_agrees(case):
    grid, samples, F, full, _ = case
    got, resid = project_to_e1(F)
    amps, phases, want_resid = fl.project_to_e1(grid, full, got.info)
    assert np.max(np.abs(np.array(got.amps) - amps)) <= 1e-13 * np.max(amps)
    assert max(circ_dist(a, b) for a, b in zip(got.phases, phases)) <= 1e-13
    assert abs(resid - want_resid) <= 1e-13 * lp_norm(RealField(grid, samples), 2.0)


def test_l2_orbit_distance_agrees(case):
    grid, samples, F, full, ref = case
    d, p = orbit_distance(F, ref, 2.0)
    d_ref, p_ref, _ = fl.orbit_distance_l2(grid, full, ref)
    assert abs(d - d_ref) <= 1e-13 * lp_norm(RealField(grid, samples), 2.0)
    st, st_ref = _cell_coords(p, ref.info), _cell_coords(p_ref, ref.info)
    scale = max(math.hypot(*grid.basis.xi), math.hypot(*grid.basis.eta))
    assert max(abs((a - b + 0.5) % 1.0 - 0.5) for a, b in zip(st, st_ref)) * scale <= 1e-13
