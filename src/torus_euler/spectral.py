"""Fourier representation of mean-zero fields on a lattice torus.

Sampling and indexing live in lattice coordinates: the unit cell [0,1)^2 is
sampled on an n1 x n2 grid and transformed with an ordinary 2D real FFT, so
one rectangular transform serves every torus shape.  A real field's
coefficients are Hermitian, so only the rfft2 half spectrum is kept: rows m
in FFT order, columns n = 0..n2/2; mode (m, -n) is the conjugate of (-m, n).
Geometry enters only through the per-mode wavevector k = m xi* + n eta*,
which carries the Laplacian eigenvalue 4 pi^2 |k|^2, the Green multiplier,
and the Cartesian derivative factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadExponent, GridTooCoarse, NonZeroMean, ShapeMismatch
from .lattice import LatticeBasis, classify_eigenspace, dual_basis

__all__ = [
    "Grid",
    "RealField",
    "SpectralField",
    "ModeTable",
    "modes",
    "sample_points",
    "analyze",
    "synthesize",
    "random_mean_zero_field",
    "green_apply",
    "laplacian_apply",
    "velocity_from_vorticity",
    "energy",
    "enstrophy",
    "lp_norm",
    "casimir",
    "energy_enstrophy_gap",
    "int_power",
]

MEAN_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform n1 x n2 sampling of the unit cell of a lattice torus."""

    basis: LatticeBasis
    n1: int
    n2: int

    def __post_init__(self):
        for n in (self.n1, self.n2):
            if n < 16 or n % 2 != 0:
                raise ValueError(f"grid sides must be even and >= 16, got {n}")

    @property
    def area(self) -> float:
        return self.basis.area

    @property
    def cell(self) -> float:
        """Quadrature weight of one sample point."""
        return self.basis.area / (self.n1 * self.n2)

    @property
    def spectral_shape(self) -> tuple[int, int]:
        """Shape of the rfft2 half spectrum of a field on this grid."""
        return self.n1, self.n2 // 2 + 1

    @property
    def band(self) -> tuple[int, int]:
        """The two-thirds band (b1, b2): the modes with |m| <= b1 and
        |n| <= b2, the only ones the solver keeps.  b = (n - 1)//3 is the
        largest index below n/3, so no product of two kept modes aliases
        onto a kept mode."""
        return (self.n1 - 1) // 3, (self.n2 - 1) // 3


@dataclass
class RealField:
    """Scalar samples on a grid, row-major over (j1, j2)."""

    grid: Grid
    samples: np.ndarray


@dataclass
class SpectralField:
    """Complex mode coefficients on the rfft2 half spectrum
    (``Grid.spectral_shape``); coeff (0,0) is the mean."""

    grid: Grid
    coeffs: np.ndarray

    def validate(self):
        if self.coeffs.shape != self.grid.spectral_shape:
            raise ShapeMismatch(f"coeffs {self.coeffs.shape} vs {self.grid.spectral_shape}")
        _require_mean_zero(self)
        scale = np.max(np.abs(self.coeffs)) + 1e-300
        if not math.isfinite(scale):
            raise ValueError("field contains non-finite coefficients")
        # columns 0 and n2/2 hold both m and -m; the other columns' mirrors are implicit
        edges = self.coeffs[:, [0, -1]]
        err = np.max(np.abs(edges - np.conj(edges[-np.arange(self.grid.n1)])))
        if not err <= 1e-12 * scale:
            raise ValueError(f"coefficients are not Hermitian (err {err:.2e})")


@dataclass(frozen=True)
class ModeTable:
    """Per-mode arrays of the half spectrum, shared by all fields on one grid."""

    m: np.ndarray        # integer mode index along xi*
    n: np.ndarray        # integer mode index along eta*, -n2/2 on the last column
    ksq: np.ndarray      # |k|^2
    inv_lap: np.ndarray  # 1/(4 pi^2 |k|^2), zero at the origin
    dx: np.ndarray       # 2 pi i k_x with the unpaired Nyquist lines zeroed
    dy: np.ndarray
    dealias: np.ndarray  # boolean two-thirds mask, the modes of Grid.band
    weight: np.ndarray   # Parseval weight: 1 on columns 0 and n2/2, else 2


def _wavevector(grid: Grid, m: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian components of k = m xi* + n eta* for integer arrays m, n."""
    db = dual_basis(grid.basis)
    return m * db.xi_star[0] + n * db.eta_star[0], m * db.xi_star[1] + n * db.eta_star[1]


def _require_kept(grid: Grid, m: int, n: int, what: str):
    """The one rule for the modes a grid carries: raise GridTooCoarse unless
    mode (m, n) lies in the grid's two-thirds band."""
    b1, b2 = grid.band
    if abs(m) > b1 or abs(n) > b2:
        raise GridTooCoarse(
            f"{what} ({m}, {n}) lies outside the two-thirds band |m| <= {b1}, "
            f"|n| <= {b2} of a {grid.n1}x{grid.n2} grid; use a finer grid or "
            "reduced generators")


def _require_band(grid: Grid, kmax: float):
    """Raise GridTooCoarse unless every lattice mode with |k| <= kmax lies in
    the grid's two-thirds band.  Such a mode has |m| = |k . xi| <= kmax |xi|
    and |n| <= kmax |eta|, so the box searched holds them all.  |k|^2 is
    computed as in ``modes``, so a mode at |k| = kmax counts as inside
    exactly where ``random_mean_zero_field`` keeps it."""
    reach = [int(kmax * math.hypot(*v)) + 1 for v in (grid.basis.xi, grid.basis.eta)]
    m, n = np.meshgrid(*(np.arange(-r, r + 1) for r in reach), indexing="ij")
    kx, ky = _wavevector(grid, m, n)
    inside = kx * kx + ky * ky <= kmax * kmax
    what = f"|k| <= {kmax:.4g} perturbation mode"
    for mi, ni in zip(m[inside].tolist(), n[inside].tolist()):
        _require_kept(grid, mi, ni, what)


@lru_cache(maxsize=64)
def modes(grid: Grid) -> ModeTable:
    n1, n2 = grid.n1, grid.n2
    m = np.fft.fftfreq(n1, 1.0 / n1).astype(np.int64)
    n = np.fft.fftfreq(n2, 1.0 / n2).astype(np.int64)[: n2 // 2 + 1]
    mm, nn = np.meshgrid(m, n, indexing="ij")
    kx, ky = _wavevector(grid, mm, nn)
    ksq = kx * kx + ky * ky
    inv_lap = np.zeros_like(ksq)
    nonzero = ksq > 0
    inv_lap[nonzero] = 1.0 / (4.0 * math.pi**2 * ksq[nonzero])
    # The Nyquist line has no conjugate partner, so odd derivatives of a
    # real field are not representable there; drop it from the multipliers.
    ny = (mm != -n1 // 2) & (nn != -n2 // 2)
    dx = 2.0j * math.pi * kx * ny
    dy = 2.0j * math.pi * ky * ny
    b1, b2 = grid.band
    dealias = (np.abs(mm) <= b1) & (np.abs(nn) <= b2)
    weight = np.where((nn == 0) | (nn == -n2 // 2), 1.0, 2.0)
    for a in (mm, nn, ksq, inv_lap, dx, dy, dealias, weight):
        a.setflags(write=False)
    return ModeTable(mm, nn, ksq, inv_lap, dx, dy, dealias, weight)


def sample_points(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian coordinates of the sample points x = (j1/n1) xi + (j2/n2) eta."""
    y1 = np.arange(grid.n1) / grid.n1
    y2 = np.arange(grid.n2) / grid.n2
    yy1, yy2 = np.meshgrid(y1, y2, indexing="ij")
    xi, eta = grid.basis.xi, grid.basis.eta
    return yy1 * xi[0] + yy2 * eta[0], yy1 * xi[1] + yy2 * eta[1]


def analyze(f: RealField) -> SpectralField:
    """Forward transform; coeff (m,n) multiplies exp(2 pi i k . x)."""
    if f.samples.shape != (f.grid.n1, f.grid.n2):
        raise ShapeMismatch(f"samples {f.samples.shape} on {f.grid.n1}x{f.grid.n2} grid")
    return SpectralField(f.grid, np.fft.rfft2(f.samples, norm="forward"))


def synthesize(F: SpectralField) -> RealField:
    """Inverse transform to real samples."""
    if F.coeffs.shape != F.grid.spectral_shape:
        raise ShapeMismatch(f"coeffs {F.coeffs.shape} vs {F.grid.spectral_shape}")
    return RealField(F.grid, np.fft.irfft2(F.coeffs, s=(F.grid.n1, F.grid.n2), norm="forward"))


def random_mean_zero_field(grid: Grid, rng: np.random.Generator,
                           kmax: float | None = None) -> RealField:
    """Gaussian random field with zero mean, optionally band-limited to |k| <= kmax."""
    f = RealField(grid, rng.standard_normal((grid.n1, grid.n2)))
    F = analyze(f)
    F.coeffs[0, 0] = 0.0
    if kmax is not None:
        F.coeffs[modes(grid).ksq > kmax * kmax] = 0.0
    return synthesize(F)


def _require_mean_zero(F: SpectralField):
    """The one mean-zero rule: |zero mode| <= MEAN_TOL, which NaN fails."""
    if not abs(F.coeffs[0, 0]) <= MEAN_TOL:
        raise NonZeroMean(f"zero mode is {F.coeffs[0, 0]:.3e}")


def _as_spectral(field) -> SpectralField:
    """The coefficients of a field given as samples or as coefficients; raises
    ShapeMismatch on coefficients in any layout but the half spectrum."""
    if not isinstance(field, SpectralField):
        return analyze(field)
    if field.coeffs.shape != field.grid.spectral_shape:
        raise ShapeMismatch(f"coeffs {field.coeffs.shape} vs {field.grid.spectral_shape}")
    return field


def _as_real(field) -> RealField:
    return field if isinstance(field, RealField) else synthesize(field)


def green_apply(F: SpectralField) -> SpectralField:
    """Inverse of minus the Laplacian on mean-zero fields (diagonal in modes)."""
    _require_mean_zero(F)
    return SpectralField(F.grid, F.coeffs * modes(F.grid).inv_lap)


def laplacian_apply(F: SpectralField) -> SpectralField:
    """Minus the Laplacian: multiply each mode by 4 pi^2 |k|^2."""
    t = modes(F.grid)
    return SpectralField(F.grid, F.coeffs * (4.0 * math.pi**2 * t.ksq))


def velocity_from_vorticity(omega) -> tuple[RealField, RealField]:
    """Divergence-free velocity (d2 psi, -d1 psi) with psi the stream function."""
    F = _as_spectral(omega)
    _require_mean_zero(F)
    t = modes(F.grid)
    psi = F.coeffs * t.inv_lap
    v1 = synthesize(SpectralField(F.grid, psi * t.dy))
    v2 = synthesize(SpectralField(F.grid, -(psi * t.dx)))
    return v1, v2


def _power(F: SpectralField) -> np.ndarray:
    """|coefficient|^2 of each half-spectrum entry times its Parseval weight,
    so that a sum over the half spectrum is one over every mode."""
    return modes(F.grid).weight * np.abs(F.coeffs) ** 2


def energy(omega) -> float:
    """Kinetic energy: half the pairing of vorticity with its stream function."""
    F = _as_spectral(omega)
    _require_mean_zero(F)
    return 0.5 * F.grid.area * float(np.sum(_power(F) * modes(F.grid).inv_lap))


def enstrophy(omega) -> float:
    """Integral of the squared vorticity."""
    F = _as_spectral(omega)
    return F.grid.area * float(np.sum(_power(F)))


def int_power(x: np.ndarray, m: int) -> np.ndarray:
    """x**m for a whole number m >= 1 by products, x^k = x^(k - k//2) * x^(k//2).

    numpy's ``**`` goes through the general power for m >= 3, which costs
    several times as much as these few products.  Each halving level holds
    at most two consecutive exponents, so at most four arrays are alive.
    For m = 1 this is x itself.  Any other m (fractional, below 1, NaN)
    raises ``BadExponent``.
    """
    if not (m >= 1 and float(m).is_integer()):
        raise BadExponent(f"order must be a whole number >= 1, got {m}")
    levels = [{m}]
    while max(levels[-1]) > 1:
        levels.append({h for k in levels[-1] for h in (k - k // 2, max(k // 2, 1))})
    powers = {1: x}
    for level in reversed(levels[:-1]):
        powers = {k: powers[k - k // 2] * powers[k // 2] if k > 1 else x for k in level}
    return powers[m]


def lp_norm(field, p: float) -> float:
    """L^p norm by cell quadrature for 1 <= p <= inf, inf being the max norm;
    exact only below the Nyquist limit for even p.  Any other p (NaN too)
    raises ``BadExponent``."""
    if not p >= 1:
        raise BadExponent(f"p must be >= 1, got {p}")
    f = _as_real(field)
    if math.isinf(p):
        return float(np.max(np.abs(f.samples)))
    a = np.abs(f.samples)
    a = int_power(a, int(p)) if float(p).is_integer() else a**p
    return float(a.mean() * f.grid.area) ** (1.0 / p)


def casimir(omega, m: int) -> float:
    """Integral of omega^m (the m-th Casimir of the transport dynamics), for
    a whole order m >= 1 (``int_power``'s rule)."""
    f = _as_real(omega)
    return float(int_power(f.samples, m).mean() * f.grid.area)


def energy_enstrophy_gap(omega) -> float:
    """Enstrophy over lambda1 minus twice the energy; zero exactly on the
    first eigenspace, strictly positive otherwise."""
    F = _as_spectral(omega)
    _require_mean_zero(F)
    lam1 = classify_eigenspace(F.grid.basis).lambda1
    return F.grid.area * float(np.sum(_power(F) * (1.0 / lam1 - modes(F.grid).inv_lap)))
