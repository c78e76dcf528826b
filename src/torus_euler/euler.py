"""Pseudo-spectral time integration of 2D incompressible vorticity transport.

The vorticity is advanced in mode space with classical fixed-step RK4; the
advection term is evaluated pointwise in sample space and truncated with
the two-thirds rule, which removes all aliasing from the quadratic
nonlinearity.  The vorticity is real, so the solver keeps only the rfft2
half spectrum (columns 0..n2/2) and uses real transforms; the public
``rhs`` and ``step`` take and return full-layout SpectralFields.
Diagnostics track the conserved quantities (energy, enstrophy, higher
Casimirs, mean velocity) and, when a target eigenstate is given, the
distance to its translation orbit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft2, rfft2

from .errors import NonZeroMean, NumericalBlowup
from .eigenstate import (
    EigenstateCoeffs,
    _theta,
    orbit_distance,
    project_to_e1,
    synthesize_eigenstate,
)
from .spectral import (
    Grid,
    HalfModeTable,
    RealField,
    SpectralField,
    analyze,
    casimir,
    energy,
    enstrophy,
    full_spectrum,
    half_modes,
    half_spectrum,
    lp_norm,
    random_mean_zero_field,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "Diagnostics",
    "AdmissibilityReport",
    "DEFAULT_DRIFT_THRESHOLDS",
    "rhs",
    "step",
    "run",
    "admissibility_check",
    "stability_experiment",
    "band_limited_perturbation",
]

BLOWUP_FACTOR = 1e6

# Frozen after calibration at 128^2, dt = 1e-2: energy and enstrophy are
# conserved to integrator accuracy; Casimirs of order >= 3 see truncation
# effects because dealiasing is exact only for the quadratic nonlinearity.
DEFAULT_DRIFT_THRESHOLDS = {
    "energy": 1e-8,
    "enstrophy": 1e-8,
    "casimir3": 1e-5,
    "casimir4": 1e-5,
    "casimir5": 1e-5,
    "casimir6": 1e-5,
}

CSV_HEADER = ("t,energy,enstrophy,casimir3,casimir4,casimir5,casimir6,"
              "meanv1,meanv2,orbit_dist,pstar1,pstar2,theta")


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    dt: float
    t_end: float
    integrator: str = "rk4"
    dealias: str = "two_thirds"
    diag_stride: int = 10
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.integrator != "rk4":
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dealias not in ("two_thirds", "none"):
            raise ValueError(f"unknown dealias mode {self.dealias!r}")
        if self.diag_stride < 1:
            raise ValueError("diag_stride must be >= 1")


@dataclass
class SolverState:
    t: float
    omega: SpectralField


@dataclass
class Diagnostics:
    """Aligned time series sampled every diag_stride steps."""

    t: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    casimirs: np.ndarray       # (n, 4) for orders 3..6
    mean_velocity: np.ndarray  # (n, 2)
    orbit_dist: np.ndarray
    pstar: np.ndarray          # (n, 2)
    theta: np.ndarray
    e1_residual: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, fh):
        """Write the diagnostics table; floats use shortest round-trip form."""
        for key, val in sorted(self.meta.items()):
            fh.write(f"# {key} = {val}\n")
        fh.write(CSV_HEADER + "\n")
        for i in range(len(self.t)):
            row = [
                self.t[i], self.energy[i], self.enstrophy[i],
                *self.casimirs[i], *self.mean_velocity[i],
                self.orbit_dist[i], *self.pstar[i], self.theta[i],
            ]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass
class AdmissibilityReport:
    """Relative drifts of the conserved quantities against fixed thresholds."""

    drifts: dict[str, float]
    thresholds: dict[str, float]
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def _mask(table: HalfModeTable, config: SolverConfig) -> np.ndarray:
    return table.dealias if config.dealias == "two_thirds" else None


def _samples(c: np.ndarray, table: HalfModeTable) -> np.ndarray:
    """Grid samples of half-spectrum coefficients normalised as by ``analyze``."""
    return irfft2(c, s=table.shape, norm="forward")


def _rhs_raw(c: np.ndarray, table: HalfModeTable, mask) -> np.ndarray:
    """Advection right-hand side -(v . grad omega) on half-spectrum coefficients.

    Five real transforms: four inverse ones to samples of the velocity and
    the vorticity gradient, one forward one of their pointwise product.
    """
    psi = c * table.inv_lap
    v1 = _samples(psi * table.dy, table)
    v2 = _samples(psi * table.dx, table)  # sign folded in below
    wx = _samples(c * table.dx, table)
    wy = _samples(c * table.dy, table)
    v1 *= wx
    v2 *= wy
    v1 -= v2  # v2 carries a minus sign: v = (d2 psi, -d1 psi)
    out = rfft2(v1, norm="forward")
    np.negative(out, out=out)
    if mask is not None:
        out *= mask
    out[0, 0] = 0.0
    return out


def _rk4(c: np.ndarray, table: HalfModeTable, mask, dt: float, stage: np.ndarray):
    """Advance the half spectrum ``c`` by one classical RK4 step, in place.

    ``stage`` is scratch space shaped like ``c``; the first tendency's array
    accumulates k1 + 2 k2 + 2 k3 + k4.
    """
    acc = _rhs_raw(c, table, mask)
    np.multiply(acc, 0.5 * dt, out=stage)
    stage += c
    k = _rhs_raw(stage, table, mask)
    np.multiply(k, 0.5 * dt, out=stage)
    stage += c
    k *= 2.0
    acc += k
    k = _rhs_raw(stage, table, mask)
    np.multiply(k, dt, out=stage)
    stage += c
    k *= 2.0
    acc += k
    acc += _rhs_raw(stage, table, mask)
    acc *= dt / 6.0
    c += acc
    c[0, 0] = 0.0


def rhs(omega: SpectralField, dealias: str = "two_thirds") -> SpectralField:
    """Instantaneous vorticity tendency of the Euler flow."""
    if abs(omega.coeffs[0, 0]) > 1e-12:
        raise NonZeroMean(f"zero mode is {omega.coeffs[0, 0]:.3e}")
    table = half_modes(omega.grid)
    mask = table.dealias if dealias == "two_thirds" else None
    return full_spectrum(omega.grid, _rhs_raw(half_spectrum(omega), table, mask))


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One classical RK4 step of a full-layout state; ``run`` keeps the half spectrum."""
    table = half_modes(config.grid)
    c = half_spectrum(state.omega)
    _rk4(c, table, _mask(table, config), config.dt, np.empty_like(c))
    return SolverState(state.t + config.dt, full_spectrum(config.grid, c))


def _min_cell_size(grid: Grid) -> float:
    e1 = math.hypot(*grid.basis.xi) / grid.n1
    e2 = math.hypot(*grid.basis.eta) / grid.n2
    return grid.cell / max(e1, e2)


def _diag_row(t, c, w, grid, table, target, p_norm):
    """One diagnostics row from the half spectrum ``c`` and its samples ``w``."""
    F = full_spectrum(grid, c)
    f = RealField(grid, w)
    cas = [casimir(f, m) for m in (3, 4, 5, 6)]
    # The velocity multipliers vanish at k = 0, so the mean velocity, the
    # velocity's zero mode, is zero by construction and read off in O(1);
    # adding 0.0 writes a signed zero as 0.0.
    psi0 = c[0, 0] * table.inv_lap[0, 0]
    mv = (float((psi0 * table.dy[0, 0]).real) + 0.0,
          float((-psi0 * table.dx[0, 0]).real) + 0.0)
    if target is not None:
        # the L2 distance works on coefficients, the Lp scan on samples
        dist, pstar = orbit_distance(F if p_norm == 2 else f, target, p_norm)
    else:
        dist, pstar = math.nan, (math.nan, math.nan)
    proj, resid = project_to_e1(F)
    theta = _theta(proj) if proj.info.dim == 6 and min(proj.amps) > 0 else math.nan
    return (t, energy(F), enstrophy(F), cas, mv, dist, tuple(pstar), theta, resid)


def _pack(rows, meta) -> Diagnostics:
    cols = list(zip(*rows)) if rows else [[]] * 9
    return Diagnostics(
        t=np.array(cols[0], dtype=float),
        energy=np.array(cols[1], dtype=float),
        enstrophy=np.array(cols[2], dtype=float),
        casimirs=np.array(cols[3], dtype=float).reshape(len(rows), 4),
        mean_velocity=np.array(cols[4], dtype=float).reshape(len(rows), 2),
        orbit_dist=np.array(cols[5], dtype=float),
        pstar=np.array(cols[6], dtype=float).reshape(len(rows), 2),
        theta=np.array(cols[7], dtype=float),
        e1_residual=np.array(cols[8], dtype=float),
        meta=dict(meta),
    )


def run(config: SolverConfig, omega0, target: EigenstateCoeffs | None = None,
        p_norm: float = 2.0, meta: dict | None = None):
    """Advance omega0 to t_end; returns (snapshots, Diagnostics).

    Diagnostics are sampled every diag_stride steps and at the final step.
    Snapshots are (time, RealField) pairs taken at the configured times
    (matched to the nearest step).  Raises NumericalBlowup, carrying the
    diagnostics collected so far, if max |omega| grows by 1e6.
    """
    grid = config.grid
    table = half_modes(grid)
    F0 = analyze(omega0) if isinstance(omega0, RealField) else omega0
    if abs(F0.coeffs[0, 0]) > 1e-12:
        raise NonZeroMean("initial vorticity must be mean-zero")
    mask = _mask(table, config)
    c = half_spectrum(F0)
    if mask is not None:
        c *= mask

    n_steps = int(round(config.t_end / config.dt)) if config.t_end > 0 else 0
    psi = c * table.inv_lap
    vmax = max(
        float(np.max(np.abs(_samples(psi * table.dy, table)))),
        float(np.max(np.abs(_samples(psi * table.dx, table)))),
    )
    min_cell = _min_cell_size(grid)
    if vmax > 0 and config.dt > 0.5 * min_cell / vmax:
        warnings.warn(
            f"dt = {config.dt:g} exceeds the advective scale "
            f"{0.5 * min_cell / vmax:g}; expect accuracy loss",
            stacklevel=2,
        )

    snap_steps = {}
    for ts in config.snapshot_times:
        snap_steps.setdefault(int(round(ts / config.dt)), ts)

    rows, snapshots = [], []
    meta = dict(meta or {})
    meta.setdefault("area", grid.area)
    w0 = _samples(c, table)
    rows.append(_diag_row(0.0, c, w0, grid, table, target, p_norm))
    if 0 in snap_steps:
        snapshots.append((0.0, RealField(grid, w0.copy())))
    max0 = max(float(np.max(np.abs(w0))), 1e-300)

    stage = np.empty_like(c)
    for istep in range(1, n_steps + 1):
        _rk4(c, table, mask, config.dt, stage)
        t = istep * config.dt
        if istep in snap_steps:
            snapshots.append((t, RealField(grid, _samples(c, table))))
        if istep % config.diag_stride == 0 or istep == n_steps:
            w = _samples(c, table)
            maxw = float(np.max(np.abs(w)))
            if not math.isfinite(maxw) or maxw > BLOWUP_FACTOR * max0:
                raise NumericalBlowup(
                    f"max |omega| reached {maxw:.3e} at t = {t:g}",
                    diagnostics=_pack(rows, meta),
                )
            rows.append(_diag_row(t, c, w, grid, table, target, p_norm))
    return snapshots, _pack(rows, meta)


def admissibility_check(diag: Diagnostics,
                        thresholds: dict[str, float] | None = None) -> AdmissibilityReport:
    """Maximum relative drift of each conserved quantity over the run.

    Casimirs are normalized by an enstrophy-based scale so that series
    crossing zero do not produce spurious relative drifts.
    """
    if len(diag) == 0:
        raise ValueError("empty diagnostics")
    thr = dict(DEFAULT_DRIFT_THRESHOLDS)
    if thresholds:
        thr.update(thresholds)
    area = diag.meta.get("area", None)
    drifts = {}
    e0 = abs(diag.energy[0])
    drifts["energy"] = float(np.max(np.abs(diag.energy - diag.energy[0]))) / max(e0, 1e-300)
    z0 = abs(diag.enstrophy[0])
    drifts["enstrophy"] = float(np.max(np.abs(diag.enstrophy - diag.enstrophy[0]))) / max(z0, 1e-300)
    for j, m in enumerate((3, 4, 5, 6)):
        c0 = diag.casimirs[0, j]
        if area is not None:
            scale = max(abs(c0), float(area) * (z0 / float(area)) ** (m / 2.0))
        else:
            scale = max(abs(c0), z0 ** (m / 2.0))
        drifts[f"casimir{m}"] = float(np.max(np.abs(diag.casimirs[:, j] - c0))) / max(scale, 1e-300)
    failed = tuple(k for k, v in drifts.items() if v > thr[k])
    return AdmissibilityReport(drifts, thr, failed)


def band_limited_perturbation(grid: Grid, rng: np.random.Generator,
                              kmax: float, p_norm: float) -> RealField:
    """Seeded random mean-zero field, band-limited to |k| <= kmax, unit L^p norm."""
    g = random_mean_zero_field(grid, rng, kmax=kmax)
    nrm = lp_norm(g, p_norm)
    if nrm == 0:
        raise ValueError("no modes inside the requested band")
    return RealField(grid, g.samples / nrm)


def stability_experiment(basis, reference: EigenstateCoeffs, epsilon: float,
                         perturbation_seed: int, p_norm: float,
                         config: SolverConfig) -> Diagnostics:
    """Perturb an eigenstate and track the distance to its translation orbit.

    The initial datum is the reference state plus epsilon times a seeded
    random mean-zero field of unit L^p norm, band-limited to |k| <= 3 rho.
    The returned diagnostics carry the orbit distance, the recovered
    translation, and the projected phase invariant at every sampled time.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    grid = config.grid
    if grid.basis != basis:
        raise ValueError("config grid lives on a different lattice than `basis`")
    base = synthesize_eigenstate(reference, grid)
    rng = np.random.default_rng(perturbation_seed)
    g = band_limited_perturbation(grid, rng, 3.0 * reference.info.rho, p_norm)
    omega0 = RealField(grid, base.samples + epsilon * g.samples)
    meta = {
        "seed": perturbation_seed,
        "epsilon": epsilon,
        "p_norm": p_norm,
        "area": grid.area,
    }
    _, diag = run(config, omega0, target=reference, p_norm=p_norm, meta=meta)
    return diag
