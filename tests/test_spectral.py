import math

import numpy as np
import pytest

from torus_euler import (
    BadExponent,
    EigenstateCoeffs,
    Grid,
    NonZeroMean,
    RealField,
    ShapeMismatch,
    SolverConfig,
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
    rhs,
    run,
    sample_points,
    synthesize,
    synthesize_eigenstate,
    velocity_from_vorticity,
)
from torus_euler.spectral import int_power, random_mean_zero_field

import full_layout as fl


def _unit_mode_field(grid, info, i=0):
    c = [0.0] * info.npairs
    c[i] = 1.0
    return synthesize_eigenstate(
        EigenstateCoeffs(info, tuple(c), (0.0,) * info.npairs), grid)


def test_single_mode_coefficients(hex_grid, hex_info):
    w = _unit_mode_field(hex_grid, hex_info)
    F = fl.extend(analyze(w).coeffs, hex_grid.n2)
    m, n = hex_info.k_coords[0]
    n1, n2 = hex_grid.n1, hex_grid.n2
    assert abs(F[m % n1, n % n2] - 0.5) < 1e-13
    assert abs(F[-m % n1, -n % n2] - 0.5) < 1e-13
    others = F.copy()
    others[m % n1, n % n2] = 0
    others[-m % n1, -n % n2] = 0
    assert np.max(np.abs(others)) < 1e-14


def test_zero_field_transforms(hex_grid):
    z = RealField(hex_grid, np.zeros((hex_grid.n1, hex_grid.n2)))
    assert np.max(np.abs(analyze(z).coeffs)) == 0.0
    assert energy(analyze(z)) == 0.0
    assert enstrophy(analyze(z)) == 0.0
    assert casimir(z, 3) == 0.0


def test_round_trip_and_parseval(hex_grid, rng):
    f = random_mean_zero_field(hex_grid, rng)
    F = analyze(f)
    back = synthesize(F)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * np.max(np.abs(f.samples))
    quad = float((f.samples**2).mean()) * hex_grid.area
    spec = float(np.sum(modes(hex_grid).weight * np.abs(F.coeffs) ** 2)) * hex_grid.area
    assert abs(quad - spec) < 1e-10 * quad


def test_shape_mismatch(square_basis):
    grid = Grid(square_basis, 32, 32)
    with pytest.raises(ShapeMismatch):
        analyze(RealField(grid, np.zeros((16, 32))))
    with pytest.raises(ShapeMismatch):
        synthesize(SpectralField(grid, np.zeros((32, 16), dtype=complex)))
    with pytest.raises(ShapeMismatch):
        synthesize(SpectralField(grid, np.zeros((32, 32), dtype=complex)))


def _run(F):
    return run(SolverConfig(F.grid, dt=1e-2, t_end=1e-2), F)


@pytest.mark.parametrize("fn", [energy, enstrophy, energy_enstrophy_gap, rhs, _run],
                         ids=lambda fn: fn.__name__.strip("_"))
def test_full_layout_coefficients_raise_shape_mismatch(square_basis, fn):
    # an (n1, n2) array broadcasts against the half-spectrum tables nowhere
    with pytest.raises(ShapeMismatch):
        fn(SpectralField(Grid(square_basis, 16, 16), np.zeros((16, 16), dtype=complex)))


def test_hermitian_and_mean_invariants(hex_grid, rng):
    f = random_mean_zero_field(hex_grid, rng)
    F = analyze(f)
    F.validate()


@pytest.mark.parametrize("where,value", [
    ("one", math.nan), ("pair", math.nan), ("one", math.inf), ("pair", math.inf),
    ("one", complex(0.0, math.nan)),
])
def test_validate_rejects_non_finite_coefficients_off_the_zero_mode(square_basis, where, value):
    # "one" sits in an interior column, whose mirror is implicit; "pair" is a
    # mode and its negative in column 0
    c = np.zeros((16, 9), dtype=complex)
    if where == "pair":
        c[1, 0] = value
        c[-1, 0] = np.conj(c[1, 0])
    else:
        c[1, 1] = value
    with pytest.raises(ValueError, match="non-finite coefficients"):
        SpectralField(Grid(square_basis, 16, 16), c).validate()


@pytest.mark.parametrize("case", ["full-layout", "column-0", "column-n2/2", "interior"])
def test_validate_checks_the_half_layout(square_basis, case):
    # Columns 0 and n2/2 hold mode (m, n) and its negative (-m, -n) = (-m, n)
    # mod n2, which must be conjugates; an interior column's mirror is implicit.
    grid = Grid(square_basis, 16, 16)
    c = np.zeros((16, 16 if case == "full-layout" else 9), dtype=complex)
    col = {"column-0": 0, "column-n2/2": 8, "interior": 3}.get(case, 1)
    c[2, col] = 0.3 + 0.4j
    c[-2, col] = 0.3 - 0.4j if case == "interior" else 0.3 + 0.4j
    F = SpectralField(grid, c)
    if case == "full-layout":
        with pytest.raises(ShapeMismatch):
            F.validate()
    elif case == "interior":
        F.validate()
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            F.validate()


def test_green_single_mode_and_compose(hex_grid, hex_info):
    w = _unit_mode_field(hex_grid, hex_info)
    F = analyze(w)
    G = green_apply(F)
    m, n = hex_info.k_coords[0]
    assert n >= 0  # so the mode itself is in the half spectrum
    ratio = G.coeffs[m % hex_grid.n1, n] / F.coeffs[m % hex_grid.n1, n]
    assert abs(ratio - 1.0 / hex_info.lambda1) < 1e-12
    recomposed = laplacian_apply(G)
    assert np.max(np.abs(recomposed.coeffs - F.coeffs)) < 1e-10


def test_green_zero_and_mean_guard(hex_grid):
    z = SpectralField(hex_grid, np.zeros(hex_grid.spectral_shape, dtype=complex))
    assert np.max(np.abs(green_apply(z).coeffs)) == 0.0
    bad = SpectralField(hex_grid, np.zeros(hex_grid.spectral_shape, dtype=complex))
    bad.coeffs[0, 0] = 1e-6
    with pytest.raises(NonZeroMean):
        green_apply(bad)


def test_green_symmetry_positivity(hex_grid, rng):
    # quadrature oracle for the pairing, independent of the spectral sums
    for _ in range(12):
        a = random_mean_zero_field(hex_grid, rng)
        b = random_mean_zero_field(hex_grid, rng)
        ga = synthesize(green_apply(analyze(a)))
        gb = synthesize(green_apply(analyze(b)))
        lhs = float((a.samples * gb.samples).mean()) * hex_grid.area
        rhs = float((b.samples * ga.samples).mean()) * hex_grid.area
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        assert float((a.samples * ga.samples).mean()) * hex_grid.area >= 0.0


def test_velocity_analytic_oracle(hex_grid, hex_info):
    # omega = lambda1 * cos(2 pi k1 . x)  =>  psi = cos(2 pi k1 . x),
    # v = (d2 psi, -d1 psi) differentiated by hand
    k = np.array(hex_info.k[0])
    w = _unit_mode_field(hex_grid, hex_info)
    omega = RealField(hex_grid, hex_info.lambda1 * w.samples)
    v1, v2 = velocity_from_vorticity(analyze(omega))
    x, y = sample_points(hex_grid)
    phase = 2 * math.pi * (k[0] * x + k[1] * y)
    want_v1 = -2 * math.pi * k[1] * np.sin(phase)
    want_v2 = 2 * math.pi * k[0] * np.sin(phase)
    assert np.max(np.abs(v1.samples - want_v1)) < 1e-10
    assert np.max(np.abs(v2.samples - want_v2)) < 1e-10


def test_velocity_zero_and_mean(hex_grid, hex_info, rng):
    z = SpectralField(hex_grid, np.zeros(hex_grid.spectral_shape, dtype=complex))
    v1, v2 = velocity_from_vorticity(z)
    assert np.max(np.abs(v1.samples)) == 0.0 and np.max(np.abs(v2.samples)) == 0.0
    f = random_mean_zero_field(hex_grid, rng, kmax=3 * hex_info.rho)
    v1, v2 = velocity_from_vorticity(analyze(f))
    assert abs(v1.samples.mean()) < 1e-13
    assert abs(v2.samples.mean()) < 1e-13


def test_velocity_divergence_and_curl(hex_grid, hex_info, rng):
    f = random_mean_zero_field(hex_grid, rng, kmax=4 * hex_info.rho)
    F = analyze(f)
    v1, v2 = velocity_from_vorticity(F)
    t = modes(hex_grid)
    V1, V2 = analyze(v1).coeffs, analyze(v2).coeffs
    assert np.max(np.abs(t.dx * V1 + t.dy * V2)) < 1e-10
    curl = t.dx * V2 - t.dy * V1
    assert np.max(np.abs(curl - F.coeffs)) < 1e-8 * np.max(np.abs(F.coeffs))


def test_energy_closed_form(hex_grid, hex_info):
    w = _unit_mode_field(hex_grid, hex_info)
    assert abs(energy(analyze(w)) - hex_grid.area / (4 * hex_info.lambda1)) < 1e-12
    assert abs(enstrophy(analyze(w)) - hex_grid.area / 2) < 1e-12


def test_energy_enstrophy_inequality(hex_grid, hex_info, rng):
    for _ in range(30):
        f = random_mean_zero_field(hex_grid, rng)
        assert 2 * energy(analyze(f)) <= enstrophy(analyze(f)) / hex_info.lambda1 + 1e-10


def test_exponent_guards(hex_grid, rng):
    f = random_mean_zero_field(hex_grid, rng)
    with pytest.raises(BadExponent):
        lp_norm(f, 0.5)
    with pytest.raises(BadExponent):
        lp_norm(f, math.nan)
    with pytest.raises(BadExponent):
        casimir(f, 0)
    # a fractional order used to loop in int_power's halving until memory ran out
    with pytest.raises(BadExponent):
        casimir(f, 2.5)
    with pytest.raises(BadExponent):
        casimir(f, 1.5)
    with pytest.raises(BadExponent):
        int_power(f.samples, 0)


def test_gap_eigenspace_and_second_shell(hex_grid, hex_info, rng):
    for _ in range(10):
        amps = tuple(rng.uniform(0, 2, 3))
        phases = tuple(rng.uniform(0, 2 * math.pi, 3))
        w = synthesize_eigenstate(EigenstateCoeffs(hex_info, amps, phases), hex_grid)
        z = enstrophy(analyze(w))
        if z > 0:
            assert abs(energy_enstrophy_gap(analyze(w))) <= 1e-10 * z

    # an exact second-shell mode: gap = (1/lam1 - 1/lam2) * enstrophy
    t = modes(hex_grid)
    c = np.zeros(hex_grid.spectral_shape, dtype=complex)
    c[-1, 1] = 0.5  # modes (-1, 1) and (1, -1)
    lam2 = 4 * math.pi**2 * t.ksq[-1, 1]
    F = SpectralField(hex_grid, c)
    want = (1 / hex_info.lambda1 - 1 / lam2) * enstrophy(F)
    assert abs(energy_enstrophy_gap(F) - want) < 1e-12
    assert energy_enstrophy_gap(F) > 0

    z = SpectralField(hex_grid, np.zeros_like(c))
    assert energy_enstrophy_gap(z) == 0.0


def test_energy_drop_identity(hex_grid, hex_info, rng):
    # rearrangement-style comparison: for f = eigenstate + rho with equal L2
    # norm, the energy deficit equals half the gap functional of rho
    w = synthesize_eigenstate(
        EigenstateCoeffs(hex_info, (1.0, 0.7, 0.3), (0.1, 0.2, 0.3)), hex_grid)
    for _ in range(10):
        g = random_mean_zero_field(hex_grid, rng)
        raw = w.samples + 0.3 * g.samples
        f = RealField(hex_grid, raw * (lp_norm(w, 2) / lp_norm(RealField(hex_grid, raw), 2)))
        rho_field = RealField(hex_grid, f.samples - w.samples)
        lhs = energy(analyze(w)) - energy(analyze(f))
        R = analyze(rho_field)
        grho = synthesize(green_apply(R))
        pairing = float((rho_field.samples * grho.samples).mean()) * hex_grid.area
        rhs = 0.5 * (enstrophy(R) / hex_info.lambda1 - pairing)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
        assert lhs >= -1e-10


def test_lp_norm_matches_closed_form(hex_grid, hex_info):
    w = _unit_mode_field(hex_grid, hex_info)
    # ||cos||_2^2 = area/2 below the Nyquist limit
    assert abs(lp_norm(w, 2) - math.sqrt(hex_grid.area / 2)) < 1e-12
    assert abs(lp_norm(w, math.inf) - 1.0) < 1e-12


def test_grid_validation(hex_basis):
    with pytest.raises(ValueError):
        Grid(hex_basis, 15, 32)
    with pytest.raises(ValueError):
        Grid(hex_basis, 32, 10)


def test_int_power_products():
    x = np.random.default_rng(3).standard_normal(1000)
    x2 = x * x
    x3 = x2 * x
    # the halving chain: the same products, bit for bit, as written out by hand
    for m, want in ((1, x), (2, x2), (3, x3), (4, x2 * x2), (5, x3 * x2), (6, x3 * x3)):
        assert np.array_equal(int_power(x, m), want)
    for m in range(7, 40):
        assert np.allclose(int_power(x, m), x**m, rtol=1e-13, atol=0)
