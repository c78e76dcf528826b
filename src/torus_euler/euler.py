"""Pseudo-spectral time integration of 2D incompressible vorticity transport.

The vorticity is advanced in mode space with classical fixed-step RK4; the
advection term is evaluated from pointwise products in sample space and
truncated with the two-thirds rule, which removes all aliasing from the
quadratic nonlinearity.  That truncation is the solver's one flow:
``run``, ``rhs`` and ``step`` integrate P N(P omega), with P the two-thirds
mask, and no option selects another.  The term takes its quadratic form
-(dxx - dyy)(uv) - dxdy(v^2 - u^2) (Basdevant 1983), with two inverse and
two forward transforms.  The vorticity is real, so the solver keeps only
the rfft2 half spectrum (columns 0..n2/2), the layout of every
SpectralField.  Its transforms are 1-D ``numpy.fft`` calls written into
buffers that a ``_Kernel`` allocates once per run: ``ifft`` over the rows
then ``irfft`` over the columns, and back with ``rfft`` then ``fft``, each
pair as one call on two stacked arrays.  The row transforms skip the
half-spectrum columns that the two-thirds rule keeps at zero.  Diagnostics
track the conserved quantities (energy, enstrophy, higher Casimirs) and,
when a target eigenstate is given, the distance to its translation orbit.
``stability_ensemble`` runs ``stability_experiment`` over epsilon/seed pairs
on a pool of at most ``TORUS_EULER_THREADS`` processes (default: the CPU
count), with the same bits as a serial run.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import NumericalBlowup
from .eigenstate import (
    EigenstateCoeffs,
    _orbit_distance_lp,
    _theta,
    orbit_distance,
    project_to_e1,
    synthesize_eigenstate,
)
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    _as_spectral,
    _require_mean_zero,
    casimir,
    energy,
    enstrophy,
    lp_norm,
    modes,
    random_mean_zero_field,
)

__all__ = [
    "SolverConfig",
    "SolverState",
    "Diagnostics",
    "COLUMNS",
    "AdmissibilityReport",
    "DEFAULT_DRIFT_THRESHOLDS",
    "rhs",
    "step",
    "run",
    "admissibility_check",
    "stability_experiment",
    "stability_ensemble",
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
# the CSV's columns, then those kept in memory only
COLUMNS = CSV_HEADER.split(",") + ["e1_residual"]


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    dt: float
    t_end: float
    diag_stride: int = 10
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.diag_stride < 1:
            raise ValueError("diag_stride must be >= 1")
        ratio = self.t_end / self.dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"t_end = {self.t_end!r} is not a whole number of steps of dt = {self.dt!r}")
        outside = [ts for ts in self.snapshot_times if not 0.0 <= ts <= self.t_end]
        if outside:
            raise ValueError(
                f"snapshot times {outside} lie outside [0, t_end = {self.t_end!r}]")
        if len(self.snapshot_steps()) < len(self.snapshot_times):
            raise ValueError(f"two of the snapshot times {self.snapshot_times} fall on "
                             f"the same step of dt = {self.dt!r}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def snapshot_steps(self) -> set[int]:
        """The step indices of the snapshot times (the nearest steps)."""
        return {round(ts / self.dt) for ts in self.snapshot_times}


@dataclass
class SolverState:
    t: float
    omega: SpectralField


@dataclass
class Diagnostics:
    """Time series sampled every diag_stride steps: one float array per name
    in ``COLUMNS``, all of one length; ``diag["theta"]`` reads a column."""

    columns: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows, meta) -> "Diagnostics":
        """The table of ``rows``, each a tuple of floats in ``COLUMNS`` order."""
        table = np.array(rows, dtype=float).reshape(len(rows), len(COLUMNS))
        return cls(dict(zip(COLUMNS, table.T)), dict(meta))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["t"])

    def to_csv(self, fh):
        """Write the diagnostics table; floats use shortest round-trip form."""
        for key, val in sorted(self.meta.items()):
            fh.write(f"# {key} = {val}\n")
        fh.write(CSV_HEADER + "\n")
        table = np.array([self.columns[name] for name in CSV_HEADER.split(",")], dtype=float)
        for row in table.T.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


@dataclass
class AdmissibilityReport:
    """Relative drifts of the conserved quantities against fixed thresholds."""

    drifts: dict[str, float]
    thresholds: dict[str, float]
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


class _Kernel:
    """Preallocated workspace of the RK4 loop on one grid, so that a step
    allocates nothing.

    The right-hand side is P N(P omega), the Galerkin-truncated flow under
    the two-thirds rule: ``project`` masks the state once, and every
    tendency is masked.  Only the first ``fwd`` = (n2 - 1)//3 + 1
    half-spectrum columns of the state and of a tendency can be nonzero, so
    the column transforms run on those alone, and the rule itself zeroes the
    ``band`` of rows with |m| > (n1 - 1)//3.  Pointwise products and stage
    updates run on whole arrays, which numpy does faster than on the strided
    leading columns.
    """

    def __init__(self, grid: Grid):
        table = modes(grid)
        n1, n2 = grid.n1, grid.n2
        self.n2, half = n2, n2 // 2 + 1
        self.fwd = (n2 - 1) // 3 + 1
        self.band = slice((n1 - 1) // 3 + 1, n1 - (n1 - 1) // 3)
        self.mask = table.dealias
        # One factor 1/(n1 n2) on the row transforms, as a 2-D transform
        # normalised "forward" applies it: 1/n2 and then 1/n1 would round
        # differently where n1 or n2 is not a power of two.
        scale = 1.0 / (n1 * n2)
        # column-transform buffers, zero past ``fwd``; ``samples`` uses the first
        self.cols = np.zeros((2, n1, half), dtype=complex)
        dx, dy, inv_lap = table.dx, table.dy, table.inv_lap
        # the velocity (psi_y, -psi_x), and the tendency's factors
        # -(dxx - dyy) on uv and -dxdy on v^2 - u^2, with the scale
        self.vel = np.stack([inv_lap * dy, -(inv_lap * dx)])
        self.comb = np.stack([-scale * (dx * dx - dy * dy), -scale * (dx * dy)])
        self.hat = np.empty((2, n1, half), dtype=complex)
        self.uv, self.quad = np.empty((2, 2, n1, n2))
        # the RK4 accumulator, tendency and stage
        self.acc, self.k, self.stage = np.zeros((3, n1, half), dtype=complex)

    def project(self, c: np.ndarray) -> np.ndarray:
        """A copy of the half spectrum ``c`` with the modes outside the mask
        zeroed: the state that ``rhs`` and ``step`` expect."""
        return c * self.mask

    def samples(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid samples of half-spectrum coefficients normalised as by
        ``analyze``, or of a pair of them stacked; reads the first ``fwd``
        columns of ``c`` only."""
        cols = self.cols if c.ndim == 3 else self.cols[0]
        np.fft.ifft(c[..., :self.fwd], axis=-2, norm="forward",
                    out=cols[..., :self.fwd])
        return np.fft.irfft(cols, n=self.n2, axis=-1, norm="forward", out=out)

    def velocity(self, c: np.ndarray) -> np.ndarray:
        """Samples of the velocity (d2 psi, -d1 psi), stacked (in ``uv``)."""
        return self.samples(np.multiply(c, self.vel, out=self.hat), self.uv)

    def rhs(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Masked advection right-hand side -(v . grad omega) of the masked
        half spectrum ``c``, written into ``out``.

        It takes the quadratic form (Basdevant 1983)
        -(dxx - dyy)(uv) - dxdy(v^2 - u^2) with (u, v) the velocity: two
        inverse and two forward real transforms, each pair one batched call.
        """
        u, v = self.velocity(c)
        p, q = self.quad
        np.multiply(u, v, out=p)
        np.subtract(v, u, out=q)
        v += u
        q *= v  # (v - u)(v + u)
        np.fft.rfft(self.quad, axis=-1, out=self.hat)
        np.fft.fft(self.hat[..., :self.fwd], axis=-2, out=self.cols[..., :self.fwd])
        self.cols *= self.comb
        np.add(*self.cols, out=out)
        out[self.band] = 0.0
        out[0, 0] = 0.0
        return out

    def step(self, c: np.ndarray, dt: float) -> None:
        """Advance the half spectrum ``c`` by one classical RK4 step, in place.

        ``acc`` accumulates k1 + 2 k2 + 2 k3 + k4.
        """
        acc, k, stage = self.acc, self.k, self.stage
        self.rhs(c, acc)
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += c
        self.rhs(stage, k)
        np.multiply(k, 0.5 * dt, out=stage)
        stage += c
        k *= 2.0
        acc += k
        self.rhs(stage, k)
        np.multiply(k, dt, out=stage)
        stage += c
        k *= 2.0
        acc += k
        acc += self.rhs(stage, k)
        acc *= dt / 6.0
        c += acc
        c[0, 0] = 0.0


# An entry holds 11 half-spectrum arrays and 4 real sample arrays, 1.9 MiB
# at 128^2.
@lru_cache(maxsize=4)
def _public_kernel(grid: Grid) -> _Kernel:
    """The kernel of ``rhs`` and ``step``, kept per grid for callers that
    step in a loop.  Its buffers carry nothing from one call to the next,
    and neither function returns one of them."""
    return _Kernel(grid)


def rhs(omega: SpectralField) -> SpectralField:
    """Instantaneous vorticity tendency of the Galerkin-truncated Euler flow,
    P N(P omega) with P the two-thirds mask: the modes of ``omega`` outside
    the mask do not enter."""
    F = _as_spectral(omega)
    _require_mean_zero(F)
    kernel = _public_kernel(F.grid)
    out = np.zeros(F.grid.spectral_shape, dtype=complex)
    return SpectralField(F.grid, kernel.rhs(kernel.project(F.coeffs), out))


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """One classical RK4 step of ``run``'s flow, into a new state whose modes
    outside the two-thirds mask are zero.  From a time n dt the new time is
    (n + 1) dt, as ``run`` counts it, so that rounding does not build up."""
    kernel = _public_kernel(config.grid)
    c = kernel.project(state.omega.coeffs)
    kernel.step(c, config.dt)
    n = round(state.t / config.dt)
    t = (n + 1) * config.dt if state.t == n * config.dt else state.t + config.dt
    return SolverState(t, SpectralField(config.grid, c))


def _min_cell_size(grid: Grid) -> float:
    e1 = math.hypot(*grid.basis.xi) / grid.n1
    e2 = math.hypot(*grid.basis.eta) / grid.n2
    return grid.cell / max(e1, e2)


def _diag_row(t, c, w, grid, target, p_norm):
    """One diagnostics row, in ``COLUMNS`` order, from the half spectrum ``c``
    and its samples ``w``.  The mean velocity is 0.0: the velocity is a
    derivative of the periodic stream function."""
    F = SpectralField(grid, c)
    f = RealField(grid, w)
    if target is None:
        dist, pstar = math.nan, (math.nan, math.nan)
    elif p_norm == 2:
        dist, pstar = orbit_distance(F, target)
    else:
        # the Lp search runs on samples, from the L2 seed on coefficients
        dist, pstar = _orbit_distance_lp(f, F, target, p_norm)
    proj, resid = project_to_e1(F)
    theta = _theta(proj) if proj.info.dim == 6 and min(proj.amps) > 0 else math.nan
    return (t, energy(F), enstrophy(F), *(casimir(f, m) for m in (3, 4, 5, 6)),
            0.0, 0.0, dist, *pstar, theta, resid)


def run(config: SolverConfig, omega0, target: EigenstateCoeffs | None = None,
        p_norm: float = 2.0, meta: dict | None = None):
    """Advance omega0 to t_end; returns (snapshots, Diagnostics).

    Diagnostics are sampled every diag_stride steps and at the final step.
    Snapshots are (time, RealField) pairs taken at the configured times
    (matched to the nearest step).  Raises NumericalBlowup, carrying the
    diagnostics collected so far, if max |omega| grows by 1e6.
    """
    grid = config.grid
    F0 = _as_spectral(omega0)
    _require_mean_zero(F0)
    kernel = _Kernel(grid)
    c = kernel.project(F0.coeffs)

    vmax = max(float(np.max(np.abs(v))) for v in kernel.velocity(c))
    min_cell = _min_cell_size(grid)
    if vmax > 0 and config.dt > 0.5 * min_cell / vmax:
        warnings.warn(
            f"dt = {config.dt:g} exceeds the advective scale "
            f"{0.5 * min_cell / vmax:g}; expect accuracy loss",
            stacklevel=2,
        )

    n_steps = config.n_steps
    snap_steps = config.snapshot_steps()
    rows, snapshots = [], []
    meta = dict(meta or {})
    meta.setdefault("area", grid.area)
    w0 = kernel.samples(c)
    rows.append(_diag_row(0.0, c, w0, grid, target, p_norm))
    if 0 in snap_steps:
        snapshots.append((0.0, RealField(grid, w0.copy())))
    max0 = max(float(np.max(np.abs(w0))), 1e-300)

    for istep in range(1, n_steps + 1):
        kernel.step(c, config.dt)
        t = istep * config.dt
        if istep in snap_steps:
            snapshots.append((t, RealField(grid, kernel.samples(c))))
        if istep % config.diag_stride == 0 or istep == n_steps:
            w = kernel.samples(c)
            maxw = float(np.max(np.abs(w)))
            if not math.isfinite(maxw) or maxw > BLOWUP_FACTOR * max0:
                raise NumericalBlowup(
                    f"max |omega| reached {maxw:.3e} at t = {t:g}",
                    diagnostics=Diagnostics.from_rows(rows, meta),
                )
            rows.append(_diag_row(t, c, w, grid, target, p_norm))
    return snapshots, Diagnostics.from_rows(rows, meta)


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
    area = float(diag.meta["area"])
    z0 = abs(diag["enstrophy"][0])
    drifts = {}
    for name in DEFAULT_DRIFT_THRESHOLDS:
        series = diag[name]
        scale = abs(series[0])
        if name.startswith("casimir"):
            m = int(name.removeprefix("casimir"))
            scale = max(scale, area * (z0 / area) ** (m / 2.0))
        drifts[name] = float(np.max(np.abs(series - series[0]))) / max(scale, 1e-300)
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
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
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
    }
    _, diag = run(config, omega0, target=reference, p_norm=p_norm, meta=meta)
    return diag


def _worker_cap() -> int:
    env = os.environ.get("TORUS_EULER_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"TORUS_EULER_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


def stability_ensemble(basis, reference: EigenstateCoeffs, epsilons, seeds,
                       p_norm: float, config: SolverConfig):
    """The diagnostics of ``stability_experiment`` for every (epsilon, seed)
    pair, epsilon-major, as an iterator that yields each in that order.

    ``TORUS_EULER_THREADS`` (read here, before any job runs) caps the process
    pool; with one worker or one job the jobs run in this process.  Pool
    workers are spawned, so a script that calls this needs a ``__main__`` guard.
    """
    jobs = [(eps, seed) for eps in epsilons for seed in seeds]
    workers = min(_worker_cap(), len(jobs))
    if workers <= 1:
        return (stability_experiment(basis, reference, eps, seed, p_norm, config)
                for eps, seed in jobs)
    return _on_pool(workers, partial(stability_experiment, basis, reference,
                                     p_norm=p_norm, config=config), jobs)


def _on_pool(workers: int, job, jobs):
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # a forked child of a process that runs threads (BLAS, a caller's) may deadlock
    with ProcessPoolExecutor(workers, get_context("spawn")) as pool:
        yield from pool.map(job, *zip(*jobs))
