"""The full n1 x n2 FFT layout, kept as the oracle of the half spectrum.

``SpectralField`` holds the rfft2 half spectrum.  Before that it held every
mode in the layout of ``numpy.fft.fft2``, and the functions here are that
representation: the mode table over all n1 x n2 modes, the ``fft2``/``ifft2``
transforms, the Hermitian extension of a half spectrum, and the functionals
and eigenspace readings as they were written on the full layout.  They are
kept here only as references.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from torus_euler import classify_eigenspace, dual_basis
from torus_euler.eigenstate import _wrap_to_cell

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class FullModeTable:
    m: np.ndarray
    n: np.ndarray
    ksq: np.ndarray
    inv_lap: np.ndarray
    dx: np.ndarray       # 2 pi i k_x with the unpaired Nyquist lines zeroed
    dy: np.ndarray
    dealias: np.ndarray  # boolean two-thirds mask


@lru_cache(maxsize=16)
def full_modes(grid) -> FullModeTable:
    n1, n2 = grid.n1, grid.n2
    m = np.fft.fftfreq(n1, 1.0 / n1).astype(np.int64)
    n = np.fft.fftfreq(n2, 1.0 / n2).astype(np.int64)
    mm, nn = np.meshgrid(m, n, indexing="ij")
    db = dual_basis(grid.basis)
    kx = mm * db.xi_star[0] + nn * db.eta_star[0]
    ky = mm * db.xi_star[1] + nn * db.eta_star[1]
    ksq = kx * kx + ky * ky
    inv_lap = np.zeros_like(ksq)
    nonzero = ksq > 0
    inv_lap[nonzero] = 1.0 / (4.0 * math.pi**2 * ksq[nonzero])
    ny = (mm != -n1 // 2) & (nn != -n2 // 2)
    dealias = (np.abs(mm) <= (n1 - 1) // 3) & (np.abs(nn) <= (n2 - 1) // 3)
    return FullModeTable(mm, nn, ksq, inv_lap, 2.0j * math.pi * kx * ny,
                         2.0j * math.pi * ky * ny, dealias)


def _flip(n):
    """Index permutation taking mode m to mode -m in FFT layout."""
    return (-np.arange(n)) % n


def extend(half: np.ndarray, n2: int) -> np.ndarray:
    """Hermitian extension of a half spectrum to the full layout."""
    out = np.empty((half.shape[0], n2), dtype=complex)
    out[:, : n2 // 2 + 1] = half
    # coefficient (m, j) with j > n2/2 is the conjugate of (-m, n2 - j)
    out[:, n2 // 2 + 1:] = np.conj(half[_flip(half.shape[0]), n2 // 2 - 1:0:-1])
    return out


def halve(full: np.ndarray) -> np.ndarray:
    """Columns 0..n2/2 of a full-layout array, as a fresh contiguous array."""
    return full[:, : full.shape[1] // 2 + 1].copy()


def is_hermitian(full: np.ndarray, tol: float = 1e-12) -> bool:
    flipped = np.conj(full[_flip(full.shape[0])][:, _flip(full.shape[1])])
    return np.max(np.abs(full - flipped)) <= tol * np.max(np.abs(full))


def analyze(samples: np.ndarray) -> np.ndarray:
    return np.fft.fft2(samples) / samples.size


def synthesize(full: np.ndarray) -> np.ndarray:
    return (np.fft.ifft2(full) * full.size).real


def quadratic_rhs(c, table, mask):
    """The right-hand side in the quadratic form of Basdevant (1983),
    -(dxx - dyy)(uv) - dxdy(v^2 - u^2) with (u, v) = (psi_y, -psi_x), on the
    full layout ``c``; ``mask`` is the two-thirds mask or None."""
    psi = c * table.inv_lap
    u = synthesize(psi * table.dy)
    v = synthesize(-(psi * table.dx))
    out = -((table.dx * table.dx - table.dy * table.dy) * analyze(u * v)
            + table.dx * table.dy * analyze(v * v - u * u))
    if mask is not None:
        out *= mask
    out[0, 0] = 0.0
    return out


def energy(grid, full) -> float:
    return 0.5 * grid.area * float(np.sum(np.abs(full) ** 2 * full_modes(grid).inv_lap))


def enstrophy(grid, full) -> float:
    return grid.area * float(np.sum(np.abs(full) ** 2))


def energy_enstrophy_gap(grid, full) -> float:
    weight = 1.0 / classify_eigenspace(grid.basis).lambda1 - full_modes(grid).inv_lap
    return grid.area * float(np.sum(np.abs(full) ** 2 * weight))


def mode_indices(info, grid) -> list[tuple[int, int]]:
    return [(m % grid.n1, n % grid.n2) for m, n in info.k_coords]


def _eigenmodes(grid, full, info):
    """The eigenmode coefficients, and the power off the eigenmodes and
    their negatives."""
    idx = mode_indices(info, grid)
    power = np.abs(full) ** 2
    for i1, i2 in idx:
        power[i1, i2] = 0.0
        power[-i1 % grid.n1, -i2 % grid.n2] = 0.0
    return np.array([full[i1, i2] for i1, i2 in idx]), float(np.sum(power))


def project_to_e1(grid, full, info):
    """Amplitudes, phases and L2 residual of the first-eigenspace content."""
    raw, residual_power = _eigenmodes(grid, full, info)
    return 2.0 * np.abs(raw), np.angle(raw) % TAU, math.sqrt(grid.area * residual_power)


def orbit_distance_l2(grid, full, c):
    """The translation-minimized L2 distance, a minimizing translation, and
    the optimal phase shifts.  In six dimensions the two free shifts are
    found by a 64 x 64 scan, scipy's Nelder-Mead and a Newton polish."""
    raw, residual_power = _eigenmodes(grid, full, c.info)
    amps = np.array(c.amps)
    z = raw * np.exp(-1j * np.array(c.phases))
    beta = np.angle(z)
    w = amps * np.abs(z)
    if c.info.dim < 6:
        t_opt = -beta
    else:
        tbest = _six_dim_shifts(w, beta)
        t_opt = np.array([tbest[0], tbest[1], tbest[0] + tbest[1]])
    target = 0.5 * amps * np.exp(1j * (np.array(c.phases) - t_opt))
    dist_sq = grid.area * (residual_power + 2.0 * float(np.sum(np.abs(raw - target) ** 2)))
    if c.info.dim == 2:
        k = np.asarray(c.info.k[0])
        p = (t_opt[0] / TAU) * k / (k @ k)
    else:
        kmat = np.array([c.info.k[0], c.info.k[1]], dtype=float)
        p = np.linalg.solve(kmat, t_opt[:2] / TAU)
    return math.sqrt(dist_sq), _wrap_to_cell(p, c.info), t_opt


def _six_dim_shifts(w, beta):
    def gain(t1, t2):
        return (w[0] * np.cos(beta[0] + t1) + w[1] * np.cos(beta[1] + t2)
                + w[2] * np.cos(beta[2] + t1 + t2))

    nc = 64
    tt = np.arange(nc) * TAU / nc
    t1g, t2g = np.meshgrid(tt, tt, indexing="ij")
    coarse = gain(t1g, t2g)
    best = np.argmax(coarse)
    t0 = np.array([t1g.ravel()[best], t2g.ravel()[best]])
    res = minimize(lambda t: -gain(t[0], t[1]), t0, method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-12, "fatol": 1e-14})
    tbest = np.array(res.x) if -res.fun >= coarse.ravel()[best] else t0
    gbest = gain(tbest[0], tbest[1])
    for _ in range(6):
        s0 = w[0] * math.sin(beta[0] + tbest[0])
        s1 = w[1] * math.sin(beta[1] + tbest[1])
        s2 = w[2] * math.sin(beta[2] + tbest[0] + tbest[1])
        c0 = w[0] * math.cos(beta[0] + tbest[0])
        c1 = w[1] * math.cos(beta[1] + tbest[1])
        c2 = w[2] * math.cos(beta[2] + tbest[0] + tbest[1])
        grad = np.array([-s0 - s2, -s1 - s2])
        hess = np.array([[-c0 - c2, -c2], [-c2, -c1 - c2]])
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if abs(det) < 1e-12 * (np.sum(w) ** 2 + 1e-300):
            break
        trial = tbest - np.linalg.solve(hess, grad)
        gtrial = gain(trial[0], trial[1])
        if not (gtrial >= gbest - 1e-12 * (np.sum(w) + 1.0)):
            break
        if np.max(np.abs(trial - tbest)) < 1e-15:
            tbest, gbest = trial, gtrial
            break
        tbest, gbest = trial, gtrial
    return tbest
