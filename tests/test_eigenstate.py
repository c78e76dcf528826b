import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_euler import (
    BadExponent,
    EigenstateCoeffs,
    Grid,
    GridTooCoarse,
    LatticeBasis,
    MixedEigenspace,
    NonZeroMean,
    RealField,
    SpectralField,
    analyze,
    classify_eigenspace,
    dual_basis,
    modes,
    orbit_distance,
    orbit_invariant,
    project_to_e1,
    same_orbit,
    solve_translation,
    synthesize,
    synthesize_eigenstate,
    translate_coeffs,
)
from torus_euler.eigenstate import _cell_coords, _LpObjective, _wrap, circ_dist
from torus_euler.spectral import lp_norm, random_mean_zero_field, sample_points

import full_layout as fl

TAU = 2.0 * math.pi


def test_coeffs_canonicalization(hex_info):
    c = EigenstateCoeffs(hex_info, (1.0, 0.0, 2.0), (7.0, 3.0, -1.0))
    assert c.phases[1] == 0.0            # zero amplitude forces zero phase
    assert 0.0 <= c.phases[0] < TAU
    assert 0.0 <= c.phases[2] < TAU
    # -1e-17 % 2 pi is 2 pi itself; the phase is stored as 0.0
    assert EigenstateCoeffs(hex_info, (1, 1, 1), (0, -1e-17, 0)).phases == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EigenstateCoeffs(hex_info, (-1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        EigenstateCoeffs(hex_info, (1.0, 1.0), (0.0, 0.0))


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("amp", [1.0, 0.0], ids=["active", "inactive"])
def test_coeffs_reject_a_non_finite_phase(hex_info, phase, amp):
    """A NaN phase would make a state that is not in its own orbit."""
    with pytest.raises(ValueError, match="phases must be finite"):
        EigenstateCoeffs(hex_info, (1.0, 1.0, amp), (0.0, 0.0, phase))


@pytest.mark.parametrize("period", [1.0, TAU], ids=["1", "2pi"])
@settings(max_examples=300, deadline=None)
@given(x=st.floats(-1e6, 1e6))
@example(x=-0.0)
@example(x=-1e-17)
@example(x=-5e-324)
@example(x=1.0 - 2.0**-53)
@example(x=math.nextafter(TAU, 0.0))
def test_wrap_lies_in_the_period_and_changes_only_the_edge(period, x):
    r = _wrap(x, period)
    assert 0.0 <= r < period
    if x % period < period:
        assert r.hex() == (x % period).hex()


def test_synthesize_zero(hex_info, hex_grid):
    w = synthesize_eigenstate(
        EigenstateCoeffs(hex_info, (0, 0, 0), (0, 0, 0)), hex_grid)
    assert np.max(np.abs(w.samples)) == 0.0


def test_synthesize_square_closed_form(square_info, square_basis):
    grid = Grid(square_basis, 64, 64)
    w = synthesize_eigenstate(
        EigenstateCoeffs(square_info, (1.0, 1.0), (0.0, 0.0)), grid)
    x, y = sample_points(grid)
    assert np.max(np.abs(w.samples - (np.cos(x) + np.cos(y)))) < 1e-12


def test_synthesize_mass_only_on_shell(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0, 2, 3)),
                         tuple(rng.uniform(0, TAU, 3)))
    F = fl.analyze(synthesize_eigenstate(c, hex_grid).samples)
    mask = np.ones_like(F, dtype=bool)
    for m, n in hex_info.k_coords:
        mask[m % hex_grid.n1, n % hex_grid.n2] = False
        mask[-m % hex_grid.n1, -n % hex_grid.n2] = False
    assert np.max(np.abs(F[mask])) < 1e-14


def _spectral_derivative(F, mult):
    return synthesize(SpectralField(F.grid, F.coeffs * mult)).samples


def test_hexagonal_state_critical_points(hex_info, hex_basis):
    # the equal-amplitude state has one max, two minima, three saddles;
    # count them from the gradient/Hessian fields on a fine grid
    grid = Grid(hex_basis, 256, 256)
    w = synthesize_eigenstate(
        EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)), grid)
    F = analyze(w)
    t = modes(grid)
    wx = _spectral_derivative(F, t.dx)
    wy = _spectral_derivative(F, t.dy)
    wxx = _spectral_derivative(F, t.dx * t.dx)
    wyy = _spectral_derivative(F, t.dy * t.dy)
    wxy = _spectral_derivative(F, t.dx * t.dy)
    gradsq = wx**2 + wy**2

    strict_min = np.ones_like(gradsq, dtype=bool)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da == 0 and db == 0:
                continue
            strict_min &= gradsq < np.roll(np.roll(gradsq, da, 0), db, 1)
    candidates = strict_min & (gradsq < (0.05 * np.sqrt(gradsq.max())) ** 2)

    # near a saddle the gradient valley is flat, so the discrete minimum
    # test can fire at satellite cells; keep one point per cluster
    points = sorted(map(tuple, np.argwhere(candidates)), key=lambda ij: gradsq[ij])
    n = grid.n1
    kept = []
    for i, j in points:
        close = any(
            min(abs(i - a), n - abs(i - a)) <= 8 and min(abs(j - b), n - abs(j - b)) <= 8
            for a, b in kept
        )
        if not close:
            kept.append((i, j))

    kinds = {"max": 0, "min": 0, "saddle": 0}
    for i, j in kept:
        det = wxx[i, j] * wyy[i, j] - wxy[i, j] ** 2
        if det < 0:
            kinds["saddle"] += 1
        elif wxx[i, j] < 0:
            kinds["max"] += 1
        else:
            kinds["min"] += 1
    assert kinds == {"max": 1, "min": 2, "saddle": 3}


def test_translate_identity_and_periodicity(hex_info, rng):
    c = EigenstateCoeffs(hex_info, (1.1, 0.5, 0.9), (0.2, 1.0, 2.5))
    same = translate_coeffs(c, (0.0, 0.0))
    assert same.phases == c.phases
    lattice_shift = translate_coeffs(c, hex_info.basis.xi)
    assert max(circ_dist(a, b) for a, b in zip(lattice_shift.phases, c.phases)) < 1e-9


def test_translate_matches_grid_roll(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0.2, 2, 3)),
                         tuple(rng.uniform(0, TAU, 3)))
    j1, j2 = 5, 11
    p = (j1 / hex_grid.n1) * np.array(hex_info.basis.xi) \
        + (j2 / hex_grid.n2) * np.array(hex_info.basis.eta)
    shifted = synthesize_eigenstate(translate_coeffs(c, p), hex_grid)
    rolled = np.roll(synthesize_eigenstate(c, hex_grid).samples, (j1, j2), axis=(0, 1))
    assert np.max(np.abs(shifted.samples - rolled)) < 1e-12


def test_invariant_translation_independent(hex_info, rng):
    c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0, 2, 3)),
                         tuple(rng.uniform(0, TAU, 3)))
    inv0 = orbit_invariant(c)
    for _ in range(20):
        p = rng.uniform(-5, 5, 2)
        inv = orbit_invariant(translate_coeffs(c, p))
        assert inv.amps == inv0.amps
        assert abs(inv.phase - inv0.phase) < 1e-12 * max(1.0, abs(inv0.phase))
    assert abs(abs(inv0.phase) - c.amps[0] * c.amps[1] * c.amps[2]) < 1e-12


def test_same_orbit_examples(hex_info, square_info, rng):
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert same_orbit(c, translate_coeffs(c, rng.uniform(-3, 3, 2)))
    flipped = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, math.pi))
    assert not same_orbit(c, flipped)  # phase invariants 1 vs -1
    a = EigenstateCoeffs(square_info, (1.0, 2.0), (0.0, 0.0))
    b = EigenstateCoeffs(square_info, (2.0, 1.0), (0.0, 0.0))
    assert not same_orbit(a, b)


def test_mixed_eigenspace_rejected(hex_info, square_info, square_basis):
    a = EigenstateCoeffs(hex_info, (1, 1, 1), (0, 0, 0))
    b = EigenstateCoeffs(square_info, (1, 1), (0, 0))
    with pytest.raises(MixedEigenspace):
        same_orbit(a, b)
    with pytest.raises(MixedEigenspace, match="different torus"):
        synthesize_eigenstate(a, Grid(square_basis, 32, 32))


@pytest.mark.parametrize("xi_scale,eta_scale,same", [
    (1.0 + 2e-16, 1.0, True),     # the same torus to rounding
    (1.0 + 1e-6, 1.0, False),     # no longer hexagonal: a 2-D eigenspace
    (1.0 + 1e-6, 1.0 + 1e-6, False),  # hexagonal, but lambda1 moves by 2e-6
], ids=["rounding", "stretched", "scaled"])
def test_compatible_across_classifications(hex_basis, hex_info, xi_scale, eta_scale, same):
    basis = LatticeBasis((hex_basis.xi[0] * xi_scale, hex_basis.xi[1]),
                         tuple(e * eta_scale for e in hex_basis.eta))
    info = classify_eigenspace(basis)
    assert info is not hex_info
    assert info.compatible(hex_info) is same
    a = EigenstateCoeffs(hex_info, (1.0, 0.5, 0.2), (0.0, 1.0, 2.0))
    b = EigenstateCoeffs(info, a.amps[:info.npairs], a.phases[:info.npairs])
    if same:
        assert same_orbit(a, b) and same_orbit(b, a)
    else:
        with pytest.raises(MixedEigenspace):
            same_orbit(a, b)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_translation_group_action(data):
    info = classify_eigenspace(LatticeBasis((TAU, 0.0), (TAU / 2, TAU * math.sqrt(3) / 2)))
    amps = tuple(data.draw(st.floats(0, 3)) for _ in range(3))
    phases = tuple(data.draw(st.floats(0, TAU)) for _ in range(3))
    p = np.array([data.draw(st.floats(-5, 5)) for _ in range(2)])
    q = np.array([data.draw(st.floats(-5, 5)) for _ in range(2)])
    c = EigenstateCoeffs(info, amps, phases)
    left = translate_coeffs(translate_coeffs(c, p), q)
    right = translate_coeffs(c, p + q)
    for a, b, amp in zip(left.phases, right.phases, amps):
        if amp > 0:
            assert circ_dist(a, b) < 1e-9


def test_same_orbit_equivalence_relation(hex_info, rng):
    states = []
    base = EigenstateCoeffs(hex_info, (1.0, 0.6, 0.3), (0.5, 1.5, 2.5))
    for _ in range(6):
        states.append(translate_coeffs(base, rng.uniform(-3, 3, 2)))
    states.append(EigenstateCoeffs(hex_info, (1.0, 0.6, 0.3), (0.0, 0.0, 0.0)))
    for a in states:
        assert same_orbit(a, a)
        for b in states:
            assert same_orbit(a, b) == same_orbit(b, a)
            for c in states:
                if same_orbit(a, b) and same_orbit(b, c):
                    assert same_orbit(a, c)


def test_solve_translation_agrees(hex_info, rng):
    base = EigenstateCoeffs(hex_info, (1.2, 0.8, 0.0), (0.3, 0.9, 0.0))
    shifted = translate_coeffs(base, rng.uniform(-3, 3, 2))
    p = solve_translation(base, shifted)
    assert p is not None
    moved = translate_coeffs(base, p)
    assert max(circ_dist(a, b) for a, b, amp in
               zip(moved.phases, shifted.phases, base.amps) if amp > 0) < 1e-9

    other = EigenstateCoeffs(hex_info, (1.2, 0.8, 0.0), (0.3, 1.4, 0.0))
    # two active independent modes: any phase pair is reachable
    assert solve_translation(base, other) is not None

    full = EigenstateCoeffs(hex_info, (1.2, 0.8, 0.4), (0.3, 0.9, 1.1))
    bad = EigenstateCoeffs(hex_info, (1.2, 0.8, 0.4), (0.3, 0.9, 2.0))
    assert solve_translation(full, bad) is None
    assert solve_translation(full, translate_coeffs(full, (0.7, -0.4))) is not None


def test_orbit_distance_self_and_shift(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.2))
    f = synthesize_eigenstate(c, hex_grid)
    d, p = orbit_distance(f, c, 2.0)
    assert d <= 1e-10

    p0 = rng.uniform(-3, 3, 2)
    shifted = synthesize_eigenstate(translate_coeffs(c, p0), hex_grid)
    d, pstar = orbit_distance(shifted, c, 2.0)
    assert d <= 1e-8
    want = translate_coeffs(c, p0)
    got = translate_coeffs(c, pstar)
    assert max(circ_dist(a, b) for a, b in zip(got.phases, want.phases)) < 1e-6


def test_cell_coords_lie_in_the_cell(hex_info):
    xi, eta = np.asarray(hex_info.basis.xi), np.asarray(hex_info.basis.eta)
    for edge in (-1e-17, 1.0 - 2.0**-53):
        s, t = _cell_coords(edge * xi + 0.5 * eta, hex_info)
        assert 0.0 <= s < 1.0 and t == 0.5


@pytest.mark.parametrize("p_norm", [1.0, 2.0, 4.0])
def test_orbit_distance_of_the_state_itself_is_at_the_origin(hex_info, hex_grid, p_norm):
    """The minimizing translation is the origin, not the cell's far corner
    that a coordinate just below 0 would reach through ``%``."""
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    _, p = orbit_distance(synthesize_eigenstate(c, hex_grid), c, p_norm)
    assert math.hypot(*p) < 1e-12


def test_orbit_distance_orthogonal_mode(hex_info, hex_grid):
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    F = analyze(synthesize_eigenstate(c, hex_grid))
    extra = np.zeros_like(F.coeffs)
    extra[-2, 2] = 0.005  # mode (2, -2), stored as its negative
    g = synthesize(SpectralField(hex_grid, F.coeffs + extra))
    d, _ = orbit_distance(g, c, 2.0)
    want = math.sqrt(hex_grid.area * 2 * 0.005**2)
    assert abs(d - want) < 1e-6


def test_orbit_distance_translation_invariance(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, (0.9, 0.5, 1.3), (1.0, 2.0, 3.0))
    f = random_mean_zero_field(hex_grid, rng, kmax=3 * hex_info.rho)
    d0, _ = orbit_distance(f, c, 2.0)
    rolled = RealField(hex_grid, np.roll(f.samples, (7, 13), axis=(0, 1)))
    d1, _ = orbit_distance(rolled, c, 2.0)
    assert abs(d0 - d1) <= 1e-9 * max(1.0, d0)


def test_orbit_distance_general_p(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.2))
    p0 = np.array([1.3, 0.9])
    shifted = synthesize_eigenstate(translate_coeffs(c, p0), hex_grid)
    d, pstar = orbit_distance(shifted, c, 3.0)
    assert d <= 1e-8
    want = translate_coeffs(c, p0)
    got = translate_coeffs(c, pstar)
    assert max(circ_dist(a, b) for a, b in zip(got.phases, want.phases)) < 1e-6
    d0, _ = orbit_distance(shifted, c, 4.0)
    assert d0 <= 1e-7


def test_lp_parts_built_once_per_grid_and_reference(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.2))
    same = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.2))
    f = random_mean_zero_field(hex_grid, rng)
    first = _LpObjective(f, c, 4.0)
    again = _LpObjective(synthesize_eigenstate(c, hex_grid), same, 3.0)
    assert again.parts is first.parts
    assert not first.parts.flags.writeable
    other = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.3))
    assert _LpObjective(f, other, 4.0).parts is not first.parts


@pytest.mark.parametrize("p_norm", [math.inf, math.nan, 0.5])
def test_orbit_distance_rejects_bad_exponents(hex_info, hex_grid, p_norm):
    # an exact translate at p = inf used to come back as (1.0, [0, 0])
    c = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.4), (0.3, 5.1, 2.2))
    with pytest.raises(BadExponent):
        orbit_distance(synthesize_eigenstate(c, hex_grid), c, p_norm)


def test_project_to_e1(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, (1.4, 0.0, 0.8), (0.9, 0.0, 2.2))
    w = synthesize_eigenstate(c, hex_grid)
    got, resid = project_to_e1(w)
    assert resid <= 1e-10
    assert np.max(np.abs(np.array(got.amps) - np.array(c.amps))) < 1e-12
    assert got.amps[1] == 0.0 and got.phases[1] == 0.0

    noise = fl.analyze(random_mean_zero_field(hex_grid, rng).samples)
    for m, n in hex_info.k_coords:
        noise[m % hex_grid.n1, n % hex_grid.n2] = 0
        noise[-m % hex_grid.n1, -n % hex_grid.n2] = 0
    orth = RealField(hex_grid, fl.synthesize(noise))
    mixed = RealField(hex_grid, w.samples + orth.samples)
    got2, resid2 = project_to_e1(mixed)
    assert np.max(np.abs(np.array(got2.amps) - np.array(c.amps))) < 1e-12
    assert abs(resid2 - lp_norm(orth, 2.0)) < 1e-9

    bad = RealField(hex_grid, mixed.samples + 1.0)
    with pytest.raises(NonZeroMean):
        project_to_e1(bad)


@pytest.mark.parametrize("eps,rtol", [(1e-2, 1e-12), (1e-6, 1e-9), (1e-8, 1e-7)])
def test_project_to_e1_residual_of_a_small_off_shell_mode(hex_info, hex_grid, eps, rtol):
    # the residual is summed off the eigenmodes, not taken as the total power
    # minus the eigenmodes' power, which cancels to 0 at eps = 1e-8
    c = EigenstateCoeffs(hex_info, (1.0, 0.7, 0.5), (0.3, 1.1, 5.0))
    db = dual_basis(hex_grid.basis)
    k = 2 * np.array(db.xi_star) - 2 * np.array(db.eta_star)
    x, y = sample_points(hex_grid)
    mode = np.cos(TAU * (k[0] * x + k[1] * y))
    w = synthesize_eigenstate(c, hex_grid).samples + eps * mode
    _, resid = project_to_e1(RealField(hex_grid, w))
    want = eps * math.sqrt(hex_grid.area / 2)
    assert abs(resid - want) <= rtol * want


def test_grid_too_coarse():
    # shortest dual vectors of this sheared lattice carry large integer
    # coordinates in the original basis, beyond a 16x16 grid's Nyquist range
    basis = LatticeBasis((1.0, 0.0), (20.0, 1.0))
    info = classify_eigenspace(basis)
    assert max(abs(m) for m, _ in info.k_coords) > 7 or \
        max(abs(n) for _, n in info.k_coords) > 7
    grid = Grid(basis, 16, 16)
    c = EigenstateCoeffs(info, (1.0,) * info.npairs, (0.0,) * info.npairs)
    with pytest.raises(GridTooCoarse):
        synthesize_eigenstate(c, grid)
