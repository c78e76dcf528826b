"""The half-spectrum solver core against the solvers it replaced, plus exact
symmetry checks on ``step``.

``_oracle_rhs``/``_oracle_step`` are the solver as it stood before the move
to the rfft2 layout: every transform a full complex fft2/ifft2 on the FFT
layout of ``full_layout``, and the advective form -(u . grad omega) of the
term (``full_layout.quadratic_rhs`` is the quadratic form there, the
reference without a mask).  ``_scipy_rhs``/``_scipy_rk4`` are the
half-spectrum solver before its preallocated kernel: 2-D ``scipy.fft``
transforms and fresh arrays for every product, in the advective form
(``_scipy_quadratic_rhs``: the quadratic one).  The kernel's one form, the
quadratic one of ``run``, ``step`` and ``rhs``, agrees with them to rounding
on a masked state.  They are kept here only as references.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from scipy.fft import irfft2, rfft2

from torus_euler import (
    EigenstateCoeffs,
    Grid,
    RealField,
    SolverConfig,
    SolverState,
    SpectralField,
    analyze,
    classify_eigenspace,
    modes,
    orbit_distance,
    preset_basis,
    project_to_e1,
    rhs,
    run,
    step,
    synthesize,
    synthesize_eigenstate,
)
from torus_euler.euler import _Kernel, _public_kernel
from torus_euler.spectral import random_mean_zero_field

import full_layout as fl


def _oracle_rhs(c, table, mask):
    psi = c * table.inv_lap
    v1 = np.fft.ifft2(psi * table.dy).real
    v2 = np.fft.ifft2(psi * table.dx).real
    wx = np.fft.ifft2(c * table.dx).real
    wy = np.fft.ifft2(c * table.dy).real
    adv = v1 * wx - v2 * wy
    out = -np.fft.fft2(adv) * (c.shape[0] * c.shape[1])
    if mask is not None:
        out *= mask
    out[0, 0] = 0.0
    return out


def _oracle_step(c, grid, dt, dealias="two_thirds"):
    """One RK4 step of the masked state ``c``: the advective form under the
    two-thirds rule, the quadratic form, which aliases differently, without it."""
    table = fl.full_modes(grid)
    if dealias == "two_thirds":
        f = functools.partial(_oracle_rhs, table=table, mask=table.dealias)
    else:
        f = functools.partial(fl.quadratic_rhs, table=table, mask=None)
    k1 = f(c)
    k2 = f(c + 0.5 * dt * k1)
    k3 = f(c + 0.5 * dt * k2)
    k4 = f(c + dt * k3)
    out = c + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    out[0, 0] = 0.0
    return out


def _samples(a):
    return irfft2(a, s=(a.shape[0], 2 * (a.shape[1] - 1)), norm="forward")


def _scipy_rhs(c, table, mask):
    psi = c * table.inv_lap
    v1 = _samples(psi * table.dy)
    v2 = _samples(psi * table.dx)
    wx = _samples(c * table.dx)
    wy = _samples(c * table.dy)
    v1 *= wx
    v2 *= wy
    v1 -= v2
    out = rfft2(v1, norm="forward")
    np.negative(out, out=out)
    if mask is not None:
        out *= mask
    out[0, 0] = 0.0
    return out


def _scipy_quadratic_rhs(c, table, mask):
    psi = c * table.inv_lap
    u = _samples(psi * table.dy)
    v = _samples(-(psi * table.dx))
    out = -((table.dx * table.dx - table.dy * table.dy) * rfft2(u * v, norm="forward")
            + table.dx * table.dy * rfft2(v * v - u * u, norm="forward"))
    if mask is not None:
        out *= mask
    out[0, 0] = 0.0
    return out


def _scipy_rk4(c, table, mask, dt, stage, rhs=_scipy_rhs):
    acc = rhs(c, table, mask)
    np.multiply(acc, 0.5 * dt, out=stage)
    stage += c
    k = rhs(stage, table, mask)
    np.multiply(k, 0.5 * dt, out=stage)
    stage += c
    k *= 2.0
    acc += k
    k = rhs(stage, table, mask)
    np.multiply(k, dt, out=stage)
    stage += c
    k *= 2.0
    acc += k
    acc += rhs(stage, table, mask)
    acc *= dt / 6.0
    c += acc
    c[0, 0] = 0.0


@pytest.fixture(params=["hexagonal", "rectangular"])
def case(request, hex_basis, hex_info, rect_basis, rect_info):
    """A 64^2 grid and a perturbed eigenstate on it, with content up to the
    Nyquist lines so that their handling is exercised."""
    basis, info = {"hexagonal": (hex_basis, hex_info),
                   "rectangular": (rect_basis, rect_info)}[request.param]
    return _perturbed_state(basis, info)


def _perturbed_state(basis, info, n=64):
    grid = Grid(basis, n, n)
    rng = np.random.default_rng(7)
    ref = EigenstateCoeffs(info, tuple(rng.uniform(0.5, 1.0, info.npairs)),
                           tuple(rng.uniform(0.0, 6.0, info.npairs)))
    w = synthesize_eigenstate(ref, grid).samples
    w = w + 0.05 * random_mean_zero_field(grid, rng).samples
    F = analyze(RealField(grid, w))
    F.coeffs[0, 0] = 0.0
    return grid, F


def _masked(F, dealias="two_thirds"):
    """P F: F with the modes outside the ``dealias`` mask zeroed."""
    if dealias == "none":
        return F
    return SpectralField(F.grid, F.coeffs * modes(F.grid).dealias)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _full(F):
    return fl.extend(F.coeffs, F.grid.n2)


@pytest.mark.parametrize("dealias", ["two_thirds", "none"])
def test_one_step_matches_full_complex_oracle(case, dealias):
    grid, F = case
    F = _masked(F, dealias)
    cfg = SolverConfig(grid, dt=1e-2, t_end=1.0, dealias=dealias)
    got = _full(step(SolverState(0.0, F), cfg).omega)
    assert _rel(got, _oracle_step(_full(F), grid, 1e-2, dealias)) <= 1e-13


@pytest.mark.parametrize("dealias", ["two_thirds", "none"])
def test_one_step_matches_the_scipy_step(case, dealias):
    grid, F = case
    F = _masked(F, dealias)
    table = modes(grid)
    cfg = SolverConfig(grid, dt=1e-2, t_end=1.0, dealias=dealias)
    want = F.coeffs.copy()
    if dealias == "two_thirds":
        _scipy_rk4(want, table, table.dealias, 1e-2, np.empty_like(want))
    else:
        _scipy_rk4(want, table, None, 1e-2, np.empty_like(want), _scipy_quadratic_rhs)
    assert _rel(step(SolverState(0.0, F), cfg).omega.coeffs, want) <= 1e-13


@pytest.mark.parametrize("preset,n", [("hexagonal", 128), ("square", 64),
                                      ("rectangular:1.3", 48)])
def test_run_matches_the_scipy_loop(preset, n):
    # run steps with the quadratic form, the scipy loop with the advective one
    basis = preset_basis(preset)
    grid, F = _perturbed_state(basis, classify_eigenspace(basis), n)
    table = modes(grid)
    cfg = SolverConfig(grid, dt=1e-2, t_end=2.0, diag_stride=50, snapshot_times=(2.0,))
    (t, got), = run(cfg, F)[0]
    want = F.coeffs * table.dealias
    stage = np.empty_like(want)
    for _ in range(200):
        _scipy_rk4(want, table, table.dealias, 1e-2, stage)
    assert t == 200 * 1e-2
    assert _rel(got.samples, irfft2(want, s=(n, n), norm="forward")) <= 1e-10


@pytest.mark.parametrize("preset,n", [("hexagonal", 64), ("square", 48),
                                      ("rectangular:1.3", 48)])
def test_public_steps_are_bitwise_run(preset, n):
    basis = preset_basis(preset)
    grid, F = _perturbed_state(basis, classify_eigenspace(basis), n)
    F = _masked(F)
    cfg = SolverConfig(grid, dt=1e-2, t_end=0.5, diag_stride=50, snapshot_times=(0.5,))
    (t, want), = run(cfg, F)[0]
    state = SolverState(0.0, F)
    for _ in range(50):
        state = step(state, cfg)
    assert state.t == pytest.approx(t)
    assert np.array_equal(_Kernel(grid, "two_thirds").samples(state.omega.coeffs), want.samples)


def test_rhs_ignores_the_modes_outside_the_mask(case):
    grid, F = case
    assert np.any(F.coeffs[~modes(grid).dealias] != 0.0)
    assert np.array_equal(rhs(F).coeffs, rhs(_masked(F)).coeffs)


def _masked_states(preset, n):
    """A two-thirds masked random field, and the masked perturbed eigenstate."""
    basis = preset_basis(preset)
    grid, F = _perturbed_state(basis, classify_eigenspace(basis), n)
    noise = analyze(random_mean_zero_field(grid, np.random.default_rng(11))).coeffs
    noise[0, 0] = 0.0
    mask = modes(grid).dealias
    return grid, noise * mask, F.coeffs * mask


@pytest.mark.parametrize("preset,n", [("hexagonal", 128), ("square", 64),
                                      ("rectangular:3.0", 48)])
def test_quadratic_rhs_matches_the_advective_form(preset, n):
    grid, noise, near = _masked_states(preset, n)
    table = modes(grid)
    kernel = _Kernel(grid, "two_thirds")
    # Near an eigenstate, whose tendency is zero, the tendency is a small
    # difference.  The advective form cancels it pointwise, before its forward
    # transform; the quadratic form cancels two spectral terms whose rounding
    # grows like |k|^2.  Measured: 2.3e-13 there at hexagonal 128^2, 8e-16 on noise.
    for c, tol in ((noise, 1e-13), (near, 1e-11)):
        got = kernel.rhs(c, np.zeros_like(c))
        assert _rel(got, _scipy_rhs(c, table, table.dealias)) <= tol
        a, b = c.copy(), c.copy()
        stage = np.empty_like(b)
        for _ in range(200):
            kernel.step(a, 1e-2)
            _scipy_rk4(b, table, table.dealias, 1e-2, stage)
        assert _rel(a, b) <= 1e-10


def test_kernel_steps_allocate_nothing(hex_basis, hex_info):
    grid, F = _perturbed_state(hex_basis, hex_info, 128)
    kernel = _Kernel(grid, "two_thirds")
    c = F.coeffs * kernel.mask
    kernel.step(c, 1e-2)  # warm-up: transform plans
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(5):
            kernel.step(c, 1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one fresh 128^2 array is 128 KiB
    assert peak - base < 16 * 1024


@pytest.mark.parametrize("dealias", ["two_thirds", "none"])
def test_public_step_and_rhs_return_fresh_arrays(case, dealias):
    grid, F = case
    cfg = SolverConfig(grid, dt=1e-2, t_end=1.0, dealias=dealias)
    fresh = _Kernel(grid, dealias)
    want = fresh.project(F.coeffs)
    want_rhs = fresh.rhs(want, np.zeros_like(want))
    fresh.step(want, 1e-2)
    first = step(SolverState(0.0, F), cfg).omega.coeffs
    kept = first.copy()
    second = step(SolverState(0.0, F), cfg).omega.coeffs
    r1, r2 = rhs(F, dealias).coeffs, rhs(F, dealias).coeffs
    assert np.array_equal(first, want)
    assert np.array_equal(second, first) and np.array_equal(first, kept)
    assert np.array_equal(r1, want_rhs)
    assert np.array_equal(r2, r1)
    buffers = [b for b in vars(_public_kernel(grid, dealias)).values()
               if isinstance(b, np.ndarray)]
    for out in (first, second, r1, r2):
        assert not any(np.shares_memory(out, b) for b in buffers + [F.coeffs])
    assert not np.shares_memory(first, second) and not np.shares_memory(r1, r2)


def test_a_second_public_step_builds_no_kernel(hex_basis, hex_info):
    grid, F = _perturbed_state(hex_basis, hex_info, 128)
    cfg = SolverConfig(grid, dt=1e-2, t_end=1.0)
    state = step(SolverState(0.0, F), cfg)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        step(state, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A kernel's buffers take over 1.5 MiB at 128^2; the call itself copies
    # the half spectrum once.
    assert peak - base < 1.5 * 2**20


@pytest.mark.parametrize("preset,n", [("hexagonal", 64), ("square", 48),
                                      ("rectangular:3.0", 48)])
def test_step_is_exactly_time_reversible(preset, n):
    # The tendency is quadratic in the state, so it is the same bits for -c,
    # and every RK4 stage of (-c, -dt) is the negated stage of (c, dt).
    basis = preset_basis(preset)
    grid, F = _perturbed_state(basis, classify_eigenspace(basis), n)
    kernel = _Kernel(grid, "two_thirds")
    forward = F.coeffs * kernel.mask
    backward = -forward
    for _ in range(50):
        kernel.step(forward, 1e-2)
        kernel.step(backward, -1e-2)
        assert np.array_equal(backward, -forward)


def test_rhs_matches_full_complex_oracle(case):
    grid, F = case
    table = fl.full_modes(grid)
    want = _oracle_rhs(_full(_masked(F)), table, table.dealias)
    # the two forms round differently near an eigenstate (see
    # test_quadratic_rhs_matches_the_advective_form); measured 1.0e-13 on
    # the hexagonal case, 4.1e-14 on the rectangular one
    assert _rel(_full(rhs(F)), want) <= 1e-11


def test_200_steps_match_full_complex_oracle(case):
    grid, F = case
    F = _masked(F)
    cfg = SolverConfig(grid, dt=1e-2, t_end=2.0)
    state, want = SolverState(0.0, F), _full(F)
    for _ in range(200):
        state = step(state, cfg)
        want = _oracle_step(want, grid, 1e-2)
    assert _rel(_full(state.omega), want) <= 1e-10


def _shift(F, s1, s2):
    """Coefficients of the samples moved by (s1, s2) grid points."""
    t = modes(F.grid)
    phase = np.exp(-2j * np.pi * (t.m * s1 / F.grid.n1 + t.n * s2 / F.grid.n2))
    return SpectralField(F.grid, F.coeffs * phase)


def _reflect(F):
    """Coefficients of omega(-x): mode k goes to mode -k, whose coefficient
    is the conjugate of k's."""
    return SpectralField(F.grid, F.coeffs.conj())


def _on_full_layout(move):
    """``move`` on the full layout, for maps that mix the half spectrum's columns."""
    @functools.wraps(move)
    def moved(F):
        return SpectralField(F.grid, fl.halve(move(_full(F))))

    return moved


@pytest.mark.parametrize("s1,s2", [(1, 0), (0, 1), (3, 5), (32, 17)])
def test_step_commutes_with_grid_shifts(case, s1, s2):
    grid, F = case
    cfg = SolverConfig(grid, dt=5e-2, t_end=1.0)
    moved_then_stepped = step(SolverState(0.0, _shift(F, s1, s2)), cfg).omega.coeffs
    stepped_then_moved = _shift(step(SolverState(0.0, F), cfg).omega, s1, s2).coeffs
    assert _rel(moved_then_stepped, stepped_then_moved) <= 1e-13


def test_step_commutes_with_point_reflection(case):
    grid, F = case
    cfg = SolverConfig(grid, dt=5e-2, t_end=1.0)
    reflected_then_stepped = step(SolverState(0.0, _reflect(F)), cfg).omega.coeffs
    stepped_then_reflected = _reflect(step(SolverState(0.0, F), cfg).omega).coeffs
    assert _rel(reflected_then_stepped, stepped_then_reflected) <= 1e-13


@_on_full_layout
def _swap_generators(c):
    """Coefficients of -omega(S^-1 x), S the reflection swapping xi and eta:
    mode (m, n) goes to (n, m), and the orientation flip negates omega."""
    return -c.T


@_on_full_layout
def _quarter_turn(c):
    """Coefficients of omega(R^-1 x), R the rotation taking xi to eta and eta
    to -xi: mode (m, n) goes to (-n, m)."""
    return c.T[(-np.arange(c.shape[0])) % c.shape[0]]


@_on_full_layout
def _flip_first_generator(c):
    """Coefficients of -omega(x') with xi' = -xi, an orientation-reversing
    isometry of the square lattice: mode (m, n) goes to (-m, n)."""
    return -c[(-np.arange(c.shape[0])) % c.shape[0]]


@pytest.mark.parametrize("preset,move", [
    ("hexagonal", _swap_generators),
    ("square", _quarter_turn),
    ("square", _flip_first_generator),
    ("square", _swap_generators),
])
def test_step_commutes_with_lattice_isometries(preset, move):
    basis = preset_basis(preset)
    grid, F = _perturbed_state(basis, classify_eigenspace(basis))
    cfg = SolverConfig(grid, dt=5e-2, t_end=1.0)
    moved_then_stepped = step(SolverState(0.0, move(F)), cfg).omega.coeffs
    stepped_then_moved = move(step(SolverState(0.0, F), cfg).omega).coeffs
    assert _rel(moved_then_stepped, stepped_then_moved) <= 1e-13


def test_orientation_reversing_maps_need_the_sign(hex_basis, hex_info):
    # without the sign flip the swap is no symmetry: the advection term flips
    grid, F = _perturbed_state(hex_basis, hex_info)
    cfg = SolverConfig(grid, dt=5e-2, t_end=1.0)

    swap = _on_full_layout(lambda c: c.T)

    moved_then_stepped = step(SolverState(0.0, swap(F)), cfg).omega.coeffs
    stepped_then_moved = swap(step(SolverState(0.0, F), cfg).omega).coeffs
    assert _rel(moved_then_stepped, stepped_then_moved) > 1e-6


def test_half_tables_are_slices_of_the_full_table(case):
    grid, _ = case
    full, half = fl.full_modes(grid), modes(grid)
    for name in ("m", "n", "ksq", "inv_lap", "dx", "dy", "dealias"):
        a = getattr(half, name)
        assert a.shape == grid.spectral_shape
        assert a.flags.c_contiguous and not a.flags.writeable
        assert np.array_equal(a, fl.halve(getattr(full, name)))
    assert np.array_equal(half.weight[:, [0, -1]], np.ones((grid.n1, 2)))
    assert np.all(half.weight[:, 1:-1] == 2.0) and not half.weight.flags.writeable
    assert modes(grid) is half


def test_hermitian_extension_round_trip(case):
    # the full-layout oracle reads analyze's half spectrum as the fft2 layout
    grid, F = case
    full = fl.analyze(synthesize(F).samples)
    assert fl.is_hermitian(full)
    assert np.max(np.abs(_full(F) - full)) <= 1e-15 * np.max(np.abs(full))
    assert np.array_equal(fl.halve(_full(F)), F.coeffs)


def test_diagnostics_accept_coefficients(case):
    grid, F = case
    f = synthesize(F)
    info = project_to_e1(f)[0].info
    ref = EigenstateCoeffs(info, (1.0,) * info.npairs, (0.5,) * info.npairs)
    for p in (2.0, 4.0):
        d_f, p_f = orbit_distance(f, ref, p)
        d_F, p_F = orbit_distance(F, ref, p)
        assert abs(d_F - d_f) <= 1e-12 * d_f
        assert np.allclose(p_F, p_f, atol=1e-9)
    (c_f, r_f), (c_F, r_F) = project_to_e1(f), project_to_e1(F)
    assert np.allclose(c_F.amps, c_f.amps, rtol=1e-12, atol=0)
    assert abs(r_F - r_f) <= 1e-12 * r_f
