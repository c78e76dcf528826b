import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_euler import (
    BadExponent,
    Diagnostics,
    EigenstateCoeffs,
    Grid,
    GridTooCoarse,
    LatticeBasis,
    NonZeroMean,
    NumericalBlowup,
    RealField,
    SolverConfig,
    SolverState,
    SpectralField,
    admissibility_check,
    analyze,
    classify_eigenspace,
    energy,
    enstrophy,
    green_apply,
    preset_basis,
    project_to_e1,
    rhs,
    run,
    stability_ensemble,
    stability_experiment,
    step,
    synthesize,
    synthesize_eigenstate,
)
from torus_euler.euler import band_limited_perturbation
from torus_euler.spectral import lp_norm, modes, random_mean_zero_field

import full_layout as fl


def _two_mode_state(grid, info, a1=0.2, a2=0.1):
    c = np.zeros((grid.n1, grid.n2), dtype=complex)
    m, n = info.k_coords[0]
    c[m % grid.n1, n % grid.n2] = a1 / 2
    c[-m % grid.n1, -n % grid.n2] = a1 / 2
    c[1, -1 % grid.n2] = a2 / 2
    c[-1 % grid.n1, 1] = a2 / 2
    return SpectralField(grid, fl.halve(c))


def _mean_velocity(diag):
    return np.stack((diag["meanv1"], diag["meanv2"]), axis=1)


def test_rhs_zero_and_mean_guard(hex_grid):
    z = SpectralField(hex_grid, np.zeros(hex_grid.spectral_shape, dtype=complex))
    assert np.max(np.abs(rhs(z).coeffs)) == 0.0
    bad = SpectralField(hex_grid, np.zeros(hex_grid.spectral_shape, dtype=complex))
    bad.coeffs[0, 0] = 1.0
    with pytest.raises(NonZeroMean):
        rhs(bad)


@pytest.mark.parametrize("n1,n2", [(48, 32), (32, 48), (64, 64)])
def test_rhs_is_exactly_zero_outside_the_band_and_at_the_mean(hex_basis, rng, n1, n2):
    """The tendency's multipliers vanish outside the two-thirds band and at
    k = 0, so those entries are exact zeros, with rows and columns cut by
    their own side of the grid."""
    grid = Grid(hex_basis, n1, n2)
    keep = modes(grid).dealias
    F = SpectralField(grid, analyze(random_mean_zero_field(grid, rng)).coeffs * keep)
    r = rhs(F).coeffs
    assert np.all(r[~keep] == 0.0) and r[0, 0] == 0.0
    assert np.any(r[keep] != 0.0)


def test_rhs_eigenstate_steady(hex_info, hex_grid, rng):
    c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0.3, 1.5, 3)),
                         tuple(rng.uniform(0, 2 * math.pi, 3)))
    W = analyze(synthesize_eigenstate(c, hex_grid))
    r = rhs(W)
    assert math.sqrt(enstrophy(r)) <= 1e-10 * hex_info.lambda1 * enstrophy(W)


def test_rhs_plane_wave_steady(hex_grid):
    c = np.zeros((hex_grid.n1, hex_grid.n2), dtype=complex)
    c[5, -7 % hex_grid.n2] = 0.3
    c[-5 % hex_grid.n1, 7] = 0.3
    r = rhs(SpectralField(hex_grid, fl.halve(c)))
    assert np.max(np.abs(r.coeffs)) < 1e-15


def test_step_preserves_structure(hex_info, hex_grid):
    state = SolverState(0.0, _two_mode_state(hex_grid, hex_info))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=1.0)
    out = step(state, cfg)
    assert out.t == 1e-2
    out.omega.validate()
    assert out.omega.coeffs[0, 0] == 0.0
    # from a time that is no whole number of steps, a step adds dt
    assert step(SolverState(0.005, state.omega), cfg).t == 0.005 + 1e-2


def test_short_conservation(hex_info, hex_grid):
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=1.0, diag_stride=10)
    _, diag = run(cfg, _two_mode_state(hex_grid, hex_info))
    assert np.max(np.abs(diag["energy"] - diag["energy"][0])) <= 1e-10 * diag["energy"][0]
    assert (np.max(np.abs(diag["enstrophy"] - diag["enstrophy"][0]))
            <= 1e-10 * diag["enstrophy"][0])
    assert np.max(np.abs(_mean_velocity(diag))) <= 1e-12
    report = admissibility_check(diag)
    assert report.ok
    assert report.drifts["energy"] <= 1e-10


def test_diag_alignment_and_snapshots(hex_info, hex_grid):
    cfg = SolverConfig(hex_grid, dt=0.05, t_end=0.5, diag_stride=2,
                       snapshot_times=(0.0, 0.25, 0.5))
    snaps, diag = run(cfg, _two_mode_state(hex_grid, hex_info))
    assert [round(t / 0.05) % 2 for t in diag["t"]] == [0] * len(diag)
    assert [t for t, _ in snaps] == [0.0, 0.25, 0.5]
    assert snaps[0][1].samples.shape == (hex_grid.n1, hex_grid.n2)


def test_final_row_recorded_off_stride(hex_info, hex_grid):
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.07, diag_stride=3)
    _, diag = run(cfg, _two_mode_state(hex_grid, hex_info))
    assert [round(t / 1e-2) for t in diag["t"]] == [0, 3, 6, 7]
    assert diag["t"][-1] == 7 * 1e-2


def test_zero_step_run_records_t0_once(hex_info, hex_grid):
    omega0 = _two_mode_state(hex_grid, hex_info)
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.0, snapshot_times=(0.0,))
    snaps, diag = run(cfg, omega0)
    assert list(diag["t"]) == [0.0]
    assert len(snaps) == 1 and snaps[0][0] == 0.0
    w0 = synthesize(omega0).samples
    assert np.max(np.abs(snaps[0][1].samples - w0)) <= 1e-15 * np.max(np.abs(w0))


def test_mean_velocity_is_exact_zero(hex_info, hex_grid, rng):
    base = synthesize_eigenstate(EigenstateCoeffs(hex_info, (1.0, 0.5, 0.2), (0.0, 1.0, 2.0)),
                                 hex_grid)
    g = band_limited_perturbation(hex_grid, rng, 3 * hex_info.rho, 2.0)
    omega0 = RealField(hex_grid, base.samples + 0.1 * g.samples)
    _, diag = run(SolverConfig(hex_grid, dt=1e-2, t_end=0.2, diag_stride=5), omega0)
    assert np.all(_mean_velocity(diag) == 0.0)
    assert not np.any(np.signbit(_mean_velocity(diag)))


def test_admissibility_negative_control(hex_info, hex_grid):
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.5, diag_stride=10)
    _, diag = run(cfg, _two_mode_state(hex_grid, hex_info))
    doctored = Diagnostics({**diag.columns, "energy": diag["energy"].copy()}, diag.meta)
    doctored["energy"][-1] *= 1.0 + 1e-3
    report = admissibility_check(doctored)
    assert not report.ok
    assert "energy" in report.failed


def test_blowup_guard(hex_info, hex_grid):
    big = _two_mode_state(hex_grid, hex_info, a1=40.0, a2=30.0)
    cfg = SolverConfig(hex_grid, dt=2.0, t_end=40.0, diag_stride=1)
    with pytest.warns(UserWarning, match="advective"):
        with pytest.raises(NumericalBlowup) as err:
            run(cfg, big)
    assert err.value.diagnostics is not None
    assert len(err.value.diagnostics) >= 1


def test_cfl_warning(hex_info, hex_grid):
    state = _two_mode_state(hex_grid, hex_info, a1=5.0, a2=0.0)
    cfg = SolverConfig(hex_grid, dt=0.5, t_end=0.5, diag_stride=1)
    with pytest.warns(UserWarning, match="advective"):
        run(cfg, state)


def test_reversibility(hex_info, hex_basis):
    grid = Grid(hex_basis, 128, 128)
    c0 = _two_mode_state(grid, hex_info, a1=0.4, a2=0.2).coeffs
    cfg = SolverConfig(grid, dt=1e-2, t_end=2.0)
    state = SolverState(0.0, SpectralField(grid, c0.copy()))
    for _ in range(200):
        state = step(state, cfg)
    # integrating the sign-flipped tendency backwards equals forward
    # integration of the negated state, negated again at the end
    back = SolverState(0.0, SpectralField(grid, -state.omega.coeffs))
    for _ in range(200):
        back = step(back, cfg)
    err = np.linalg.norm(-back.omega.coeffs - c0) / np.linalg.norm(c0)
    assert err < 1e-6


def test_perturbation_properties(hex_info, hex_grid, rng):
    g = band_limited_perturbation(hex_grid, rng, 3 * hex_info.rho, 2.0)
    assert abs(lp_norm(g, 2.0) - 1.0) < 1e-12
    F = analyze(g)
    assert abs(F.coeffs[0, 0]) < 1e-15
    from torus_euler import modes

    t = modes(hex_grid)
    assert np.max(np.abs(F.coeffs[t.ksq > (3 * hex_info.rho) ** 2])) < 1e-15


def test_stability_experiment_zero_epsilon(hex_info, hex_basis):
    grid = Grid(hex_basis, 64, 64)
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(grid, dt=1e-2, t_end=1.0, diag_stride=20)
    diag = stability_experiment(ref, 0.0, 1, 2.0, cfg)
    assert np.max(diag["orbit_dist"]) <= 1e-6
    assert diag.meta["seed"] == 1


def test_stability_experiment_tracks_theta(hex_info, hex_basis):
    grid = Grid(hex_basis, 64, 64)
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(grid, dt=1e-2, t_end=0.5, diag_stride=10)
    diag = stability_experiment(ref, 1e-2, 3, 2.0, cfg)
    assert np.all(np.isfinite(diag["theta"]))
    drift = np.abs((diag["theta"] - diag["theta"][0] + math.pi) % (2 * math.pi) - math.pi)
    assert np.max(drift) < 0.05
    assert np.max(diag["orbit_dist"]) < 0.1


def test_stability_ensemble_pool_is_bitwise_the_serial_run(hex_info, hex_basis, monkeypatch):
    grid = Grid(hex_basis, 32, 32)
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(grid, dt=2e-2, t_end=0.4, diag_stride=5)
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("TORUS_EULER_THREADS", threads)
        runs[threads] = list(stability_ensemble(ref, (1e-2, 1e-3), (1, 2), 2.0, cfg))
    assert [(d.meta["epsilon"], d.meta["seed"]) for d in runs["2"]] == [
        (1e-2, 1), (1e-2, 2), (1e-3, 1), (1e-3, 2)]
    for serial, pooled in zip(runs["1"], runs["2"], strict=True):
        assert serial.meta == pooled.meta
        assert serial.columns.keys() == pooled.columns.keys()
        for name in serial.columns:
            assert np.array_equal(serial[name], pooled[name], equal_nan=True), name


@pytest.mark.parametrize("threads,epsilons,seeds",
                         [("1", (0.1, 0.2), (1, 2)), ("2", (0.1,), (1,))])
def test_stability_ensemble_runs_in_process_on_one_worker_or_job(monkeypatch, hex_info,
                                                                 hex_grid, threads,
                                                                 epsilons, seeds):
    import torus_euler.euler as euler

    # the ensemble checks the reference and the band on the grid before any job
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.1)
    calls = []
    monkeypatch.setattr(euler, "stability_experiment", lambda *job: calls.append(job) or job)
    monkeypatch.setenv("TORUS_EULER_THREADS", threads)
    out = list(euler.stability_ensemble(ref, epsilons, seeds, 2.0, cfg))
    assert out == calls == [(ref, eps, seed, 2.0, cfg)
                            for eps in epsilons for seed in seeds]


_MEAN_ZERO_ENTRIES = {
    "rhs": rhs,
    "run": lambda F: run(SolverConfig(F.grid, dt=1e-2, t_end=0.1), F),
    "energy": energy,
    "green_apply": green_apply,
    "project_to_e1": project_to_e1,
    "validate": SpectralField.validate,
}


@pytest.mark.parametrize("entry", _MEAN_ZERO_ENTRIES.values(), ids=_MEAN_ZERO_ENTRIES.keys())
def test_nan_zero_mode_is_not_mean_zero(hex_grid, entry):
    c = np.zeros(hex_grid.spectral_shape, dtype=complex)
    c[0, 0] = math.nan
    with pytest.raises(NonZeroMean):
        entry(SpectralField(hex_grid, c))


def test_run_rejects_nonzero_mean(hex_grid):
    bad = RealField(hex_grid, np.ones((hex_grid.n1, hex_grid.n2)))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.1)
    with pytest.raises(NonZeroMean):
        run(cfg, bad)


@pytest.mark.parametrize("preset,n", [("square", 64), ("hexagonal", 48)],
                         ids=["other-torus", "other-resolution"])
def test_run_and_step_refuse_a_field_from_another_grid(hex_grid, preset, n):
    """The torus and resolution are config.grid's: a field sampled on any
    other grid is refused before a step, not integrated as a hexagonal
    64^2 field."""
    other = Grid(preset_basis(preset), n, n)
    info = classify_eigenspace(other.basis)
    F = analyze(synthesize_eigenstate(
        EigenstateCoeffs(info, (1.0,) * info.npairs, (0.0,) * info.npairs), other))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError, match="not on the solver grid"):
        run(cfg, F)
    with pytest.raises(ValueError, match="not on the solver grid"):
        step(SolverState(0.0, F), cfg)


def test_config_validation(hex_grid):
    with pytest.raises(ValueError):
        SolverConfig(hex_grid, dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError, match="diag_stride must be >= 1"):
        SolverConfig(hex_grid, dt=1e-2, t_end=1.0, diag_stride=0)
    # the two-thirds truncation is the one flow: there is no dealias option
    with pytest.raises(TypeError):
        SolverConfig(hex_grid, dt=1e-2, t_end=1.0, dealias="two_thirds")


@pytest.mark.parametrize("dt,t_end,snaps,match", [
    (0.1, 1.25, (), "whole number of steps"),
    (0.1, 1e-12, (), "whole number of steps"),
    (1e-320, 1.0, (), "whole number of steps"),
    (math.inf, 1.0, (), "dt must be"),
    (0.1, math.nan, (), "t_end must be"),
    (0.1, 1.0, (-0.1,), "outside"),
    (0.1, 1.0, (0.5, 5.0), "outside"),
    (0.1, 1.0, (0.5, 0.52), "same step"),
    (0.1, 1.0, (0.5, 0.5), "same step"),
])
def test_config_rejects_what_the_run_cannot_honour(hex_grid, dt, t_end, snaps, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(hex_grid, dt=dt, t_end=t_end, snapshot_times=snaps)


@pytest.mark.parametrize("dt,t_end", [(0.02, 0.2), (0.01, 0.1), (0.01, 2.0), (0.01, 20.0),
                                      (0.005, 2.5), (0.01, 0.07), (0.1, 0.3)])
def test_config_accepts_whole_step_counts(hex_grid, dt, t_end):
    cfg = SolverConfig(hex_grid, dt=dt, t_end=t_end, snapshot_times=(0.0, t_end))
    assert abs(cfg.n_steps * dt - t_end) <= 1e-12 * t_end
    assert cfg.snapshot_steps() == {0, cfg.n_steps}


def test_admissibility_check_rejects_empty_diagnostics():
    with pytest.raises(ValueError, match="empty diagnostics"):
        admissibility_check(Diagnostics.from_rows([], {"area": 1.0}))


def test_perturbation_needs_a_mode_inside_the_band(hex_info, hex_grid, rng):
    with pytest.raises(ValueError, match="no modes inside the requested band"):
        band_limited_perturbation(hex_grid, rng, 0.5 * hex_info.rho, 2.0)


_UNIMODULAR = [(a, b, c, d) for a in range(-6, 7) for b in range(-6, 7)
               for c in range(-6, 7) for d in range(-6, 7) if abs(a * d - b * c) == 1]


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(["hexagonal", "square", "rectangular:3.0"]),
       skew=st.sampled_from(_UNIMODULAR), n=st.sampled_from([16, 24, 32]))
def test_the_mask_cuts_nothing_from_a_datum_the_grid_accepts(preset, skew, n):
    """A preset torus stated by skewed generators: the reference and its
    |k| <= 3 rho perturbation either raise GridTooCoarse or lie in the
    grid's two-thirds band, so the solver's mask P keeps omega0 whole."""
    a, b, c, d = skew
    base = preset_basis(preset)
    basis = LatticeBasis(tuple(a * x + b * y for x, y in zip(base.xi, base.eta)),
                         tuple(c * x + d * y for x, y in zip(base.xi, base.eta)))
    grid = Grid(basis, n, n)
    info = classify_eigenspace(basis)
    ref = EigenstateCoeffs(info, (1.0,) * info.npairs, (0.5,) * info.npairs)
    try:
        w = synthesize_eigenstate(ref, grid)
        g = band_limited_perturbation(grid, np.random.default_rng(1), 3.0 * info.rho, 2.0)
    except GridTooCoarse:
        return
    omega0 = RealField(grid, w.samples + 0.01 * g.samples)
    kept = synthesize(SpectralField(grid, analyze(omega0).coeffs * modes(grid).dealias))
    cut = RealField(grid, kept.samples - omega0.samples)
    assert lp_norm(cut, 2.0) <= 1e-12 * lp_norm(omega0, 2.0)


@pytest.mark.parametrize("eps", [-1.0, math.inf, math.nan])
def test_stability_experiment_rejects_a_bad_epsilon(hex_info, hex_grid, eps):
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative"):
        stability_experiment(ref, eps, 1, 2.0, cfg)


@pytest.mark.parametrize("p_norm", [math.inf, math.nan, 0.5])
def test_stability_runs_refuse_a_bad_exponent_before_any_work(monkeypatch, hex_info,
                                                              hex_grid, p_norm):
    import torus_euler.euler as euler

    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = SolverConfig(hex_grid, dt=1e-2, t_end=0.1)
    monkeypatch.setattr(euler, "synthesize_eigenstate", lambda *a: pytest.fail("datum built"))
    monkeypatch.setattr(euler, "_on_pool", lambda *a: pytest.fail("pool asked for"))
    monkeypatch.setenv("TORUS_EULER_THREADS", "2")
    with pytest.raises(BadExponent):
        stability_experiment(ref, 1e-2, 1, p_norm, cfg)
    with pytest.raises(BadExponent):
        stability_ensemble(ref, (1e-2, 1e-3), (1,), p_norm, cfg)
