"""First-eigenspace states on grids: synthesis, translation, projection and the
distance from a field to a state's translation orbit.

The coefficient record itself (``EigenstateCoeffs``) and the orbit test
(``same_orbit``) live in ``coeffs``, which loads no numpy; they are imported
here, so ``eigenstate.EigenstateCoeffs`` and ``eigenstate.same_orbit`` name
the same objects.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .coeffs import (DEFAULT_ORBIT_TOL, _TWO_PI, EigenstateCoeffs,  # noqa: F401 (same_orbit)
                     _check_same_space, _wrap, _wrap_phase, circ_dist, same_orbit)
from .errors import BadExponent, MixedEigenspace
from .lattice import EigenspaceInfo, classify_eigenspace, dual_basis
from .spectral import (
    Grid,
    RealField,
    SpectralField,
    _as_real,
    _as_spectral,
    _power,
    _require_kept,
    _require_mean_zero,
    int_power,
    synthesize,
)

__all__ = [
    "synthesize_eigenstate",
    "translate_coeffs",
    "solve_translation",
    "orbit_distance",
    "project_to_e1",
]


def _mode_indices(info: EigenspaceInfo, grid: Grid) -> list[tuple[int, int, bool]]:
    """(row, column, conjugated) of each eigenmode in the half spectrum: mode
    k itself where n >= 0, else -k, whose coefficient is k's conjugate.

    Raises GridTooCoarse for an eigenmode outside the grid's two-thirds
    band (``Grid.band``), which the solver would drop."""
    if grid.basis != info.basis:
        raise MixedEigenspace("grid belongs to a different torus than the eigenspace")
    out = []
    for m, n in info.k_coords:
        _require_kept(grid, m, n, "eigenmode")
        out.append((m % grid.n1, n, False) if n >= 0 else (-m % grid.n1, -n, True))
    return out


def _eigenmodes(F: SpectralField, info: EigenspaceInfo) -> tuple[np.ndarray, float]:
    """The coefficients of the eigenmodes k_i in F, and F's power off the
    eigenmodes and their negatives, summed without cancellation against
    the total."""
    power = _power(F)
    raw = []
    for i1, i2, conj in _mode_indices(info, F.grid):
        raw.append(F.coeffs[i1, i2].conjugate() if conj else F.coeffs[i1, i2])
        power[i1, i2] = 0.0
        if i2 == 0:  # column 0 holds -k too
            power[-i1, 0] = 0.0
    return np.array(raw), float(np.sum(power))


def synthesize_eigenstate(c: EigenstateCoeffs, grid: Grid) -> RealField:
    """Sample sum_i A_i cos(2 pi k_i . x + alpha_i) by placing its modes."""
    coeffs = np.zeros(grid.spectral_shape, dtype=complex)
    for (i1, i2, conj), a, al in zip(_mode_indices(c.info, grid), c.amps, c.phases):
        half = 0.5 * a * complex(math.cos(al), math.sin(al))
        coeffs[i1, i2] = half.conjugate() if conj else half
        if i2 == 0:  # column 0 holds -k too
            coeffs[-i1, 0] = half.conjugate()
    return synthesize(SpectralField(grid, coeffs))


def translate_coeffs(c: EigenstateCoeffs, p) -> EigenstateCoeffs:
    """Coefficients of w(. - p): each phase drops by 2 pi k_i . p."""
    p = np.asarray(p, dtype=float)
    phases = tuple(
        al - _TWO_PI * (k[0] * p[0] + k[1] * p[1])
        for k, al in zip(c.info.k, c.phases)
    )
    return EigenstateCoeffs(c.info, c.amps, phases)


def solve_translation(c: EigenstateCoeffs, other: EigenstateCoeffs):
    """Find p with translate_coeffs(c, p) matching ``other``, or None.

    This is the constructive counterpart of same_orbit: phases of the
    active modes define a linear system for p via k_i . p, and for dim 6
    the third mode's phase must be consistent with the solution of the
    first two (the wavevectors satisfy k3 = k1 + k2).
    """
    tol = DEFAULT_ORBIT_TOL
    _check_same_space(c, other)
    if any(abs(a - b) > tol for a, b in zip(c.amps, other.amps)):
        return None
    active = [i for i in range(c.info.npairs)
              if min(c.amps[i], other.amps[i]) > tol]
    # target: 2 pi k_i . p == alpha_i - alpha_i' (mod 2 pi) for active i
    delta = {i: _wrap_phase(c.phases[i] - other.phases[i]) for i in active}
    p = _translation(c.info, active, delta)
    shifted = translate_coeffs(c, p)
    for i in active:
        if circ_dist(shifted.phases[i], other.phases[i]) > tol:
            return None
    return p


def _translation(info: EigenspaceInfo, active, phases) -> np.ndarray:
    """A p with 2 pi k_i . p = phases[i] for the first two ``active`` modes
    (for one, the p along its k_i; for none, 0): the third 6D wavevector is
    k1 + k2, so two modes fix p."""
    if not active:
        return np.zeros(2)
    if len(active) == 1:
        i = active[0]
        k = np.asarray(info.k[i])
        return (phases[i] / _TWO_PI) * k / (k @ k)
    i, j = active[0], active[1]
    kmat = np.array([info.k[i], info.k[j]], dtype=float)
    return np.linalg.solve(kmat, [phases[i] / _TWO_PI, phases[j] / _TWO_PI])


def _cell_coords(p: np.ndarray, info: EigenspaceInfo) -> tuple[float, float]:
    """The cell coordinates (s, t) of p modulo the lattice, each in [0, 1):
    p = s xi + t eta plus a lattice vector."""
    db = dual_basis(info.basis)
    return _wrap(np.dot(db.xi_star, p), 1.0), _wrap(np.dot(db.eta_star, p), 1.0)


def _cell_point(s: float, t: float, info: EigenspaceInfo) -> np.ndarray:
    """The point s xi + t eta of the cell coordinates (s, t)."""
    return s * np.asarray(info.basis.xi) + t * np.asarray(info.basis.eta)


def _orbit_distance_l2(F: SpectralField, c: EigenstateCoeffs) -> tuple[float, np.ndarray]:
    """Exact translation-minimized L2 distance.

    In mode space a translation is a per-mode phase, so the squared
    distance splits into a translation-independent residual plus one
    cosine per active mode; only the 6D case (where the third phase is
    tied to the first two) needs a search, and then only over one angle.
    """
    raw, residual_power = _eigenmodes(F, c.info)
    amps = np.array(c.amps)
    z = raw * np.exp(-1j * np.array(c.phases))
    r = np.abs(z)
    beta = np.angle(z)

    w = amps * r  # cosine weights
    if c.info.dim < 6:
        t_opt = -beta
    else:
        # For fixed t1 the best t2 merges the last two cosines into one of
        # amplitude |z(t1)|, z = w1 e^{i beta1} + w2 e^{i (beta2 + t1)}, which
        # leaves h(t1) = w0 cos(beta0 + t1) + |z(t1)| to maximize: a 64-point
        # scan, then Newton steps on h' inside the bracket around the best
        # point, bisecting where a step would leave it or h'' >= 0: that finds
        # flat maxima too, where Newton stalls, and zero weights need no case.
        w12 = w[1] * w[2]

        def slope(t):
            a, u = beta[0] + t, beta[2] - beta[1] + t
            r = math.sqrt(w[1] * w[1] + w[2] * w[2] + 2.0 * w12 * math.cos(u))
            if r == 0.0:
                # w1 = w2 and |z| has a corner of slopes -w1, +w1 here:
                # report a side along which h rises
                g = -w[0] * math.sin(a) + w[1]
                return (g if g > 0.0 else g - 2.0 * w[1]), 0.0
            su = w12 * math.sin(u) / r
            return (-w[0] * math.sin(a) - su,
                    -w[0] * math.cos(a) - w12 * math.cos(u) / r - su * su / r)

        nc = 64
        tt = np.arange(nc) * _TWO_PI / nc
        h = w[0] * np.cos(beta[0] + tt) + np.abs(
            w[1] * np.exp(1j * beta[1]) + w[2] * np.exp(1j * (beta[2] + tt)))
        i = int(np.argmax(h))
        t1, lo, hi = tt[i], tt[i] - _TWO_PI / nc, tt[i] + _TWO_PI / nc
        for _ in range(100):
            g, curv = slope(t1)
            if g == 0.0:
                break
            if g > 0.0:
                lo = t1
            else:
                hi = t1
            nxt = t1 - g / curv if curv < 0.0 else lo
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if nxt == t1:
                break
            t1 = nxt
        t2 = -cmath.phase(w[1] * cmath.exp(1j * beta[1]) + w[2] * cmath.exp(1j * (beta[2] + t1)))
        t_opt = np.array([t1, t2, t1 + t2])

    # per-mode differences stay nonnegative, so a near-perfect match is not
    # lost to cancellation against the total power
    target = 0.5 * amps * np.exp(1j * (np.array(c.phases) - t_opt))
    dist_sq = F.grid.area * (residual_power + 2.0 * float(np.sum(np.abs(raw - target) ** 2)))

    # recover a translation realizing the optimal phases; a lone active
    # mode's own phase is -beta_i, which the 6D t_opt holds only to rounding
    active = [i for i in range(c.info.npairs) if amps[i] > 0]
    p = _translation(c.info, active, -beta if len(active) == 1 else t_opt)
    return math.sqrt(dist_sq), _cell_point(*_cell_coords(p, c.info), c.info)


# An entry is 2 npairs x n1 n2 floats, 0.75 MiB for dim 6 at 128^2.
@lru_cache(maxsize=8)
def _lp_parts(grid: Grid, c: EigenstateCoeffs) -> np.ndarray:
    """The rows C_1..C_k, S_1..S_k of ``_LpObjective.parts`` on the grid's
    samples, built once per (grid, reference) and read-only."""
    mcoords = np.array(c.info.k_coords, dtype=float)
    y1 = np.arange(grid.n1)[:, None] / grid.n1
    y2 = np.arange(grid.n2)[None, :] / grid.n2
    cos_parts, sin_parts = [], []
    for (m, n), a, al in zip(mcoords, c.amps, c.phases):
        theta = _TWO_PI * (m * y1 + n * y2) + al
        cos_parts.append((a * np.cos(theta)).ravel())
        sin_parts.append((a * np.sin(theta)).ravel())
    parts = np.array(cos_parts + sin_parts)
    parts.setflags(write=False)
    return parts


class _LpObjective:
    """J(s, t) = cell-quadrature integral of |f - w(. - s xi - t eta)|^p on f's
    samples, with its gradient and Hessian in the cell coordinates (s, t).

    A translation by s xi + t eta shifts mode i's phase by
    d_i = 2 pi (m_i s + n_i t).  With C_i, S_i the mode's cosine and sine
    parts (the rows of ``parts``, cached by ``_lp_parts``), the translated
    mode is U_i = cos d_i C_i + sin d_i S_i and its phase derivative is
    V_i = -sin d_i C_i + cos d_i S_i, so every evaluation is one small
    matrix times ``parts``.
    """

    def __init__(self, f: RealField, c: EigenstateCoeffs, p_norm: float):
        grid = f.grid
        mcoords = np.array(c.info.k_coords, dtype=float)
        self.parts = _lp_parts(grid, c)
        self.samples = f.samples.ravel()
        self.freq = _TWO_PI * mcoords  # row i: the derivative of d_i in (s, t)
        self.npairs = len(mcoords)
        self.p = p_norm
        self.power = int(p_norm) if float(p_norm).is_integer() else None
        self.cell = grid.cell
        # ``local``'s rotation [[diag cos, diag sin], [-diag sin, diag cos]], with
        # views of its diagonals: both cos blocks, the sin block, the -sin block.
        # -diag(sin) has -0.0 off its diagonal, so the products keep their signs.
        k = self.npairs
        self.rot = np.zeros((2 * k, 2 * k))
        self.rot[k:, :k] = -0.0
        flat = self.rot.reshape(-1)
        self.rot_cos = flat[::2 * k + 1]
        self.rot_sin = flat[k:2 * k * k:2 * k + 1]
        self.rot_neg_sin = flat[2 * k * k::2 * k + 1]

    def value(self, st: np.ndarray) -> float:
        d = self.freq @ st
        r = np.concatenate([np.cos(d), np.sin(d)]) @ self.parts
        r -= self.samples
        np.abs(r, out=r)
        r = int_power(r, self.power) if self.power else np.power(r, self.p, out=r)
        return float(r.sum()) * self.cell

    def local(self, st: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """J, grad J and the Hessian of J at (s, t), for p > 1.

        With r = f - w and w_a = sum_i freq_ia V_i, w_ab = -sum_i freq_ia freq_ib U_i:
        grad_a = -p sum |r|^(p-1) sgn(r) w_a and
        H_ab = p (p-1) sum |r|^(p-2) w_a w_b - p sum |r|^(p-1) sgn(r) w_ab.
        """
        k, p = self.npairs, self.p
        d = self.freq @ st
        cos, sin = np.cos(d), np.sin(d)
        self.rot_cos[:k] = self.rot_cos[k:] = cos
        self.rot_sin[:] = sin
        np.negative(sin, out=self.rot_neg_sin)
        uv = self.rot @ self.parts  # U_1..U_k, V_1..V_k
        r = self.samples - uv[:k].sum(axis=0)
        a = np.abs(r)
        if self.power and self.power > 2:
            q = int_power(a, self.power - 2)
        else:
            # |r|^(p-2) is unbounded at r = 0 for p < 2; an exact match adds nothing
            q = np.power(a, p - 2.0, out=np.zeros_like(a), where=a > 0.0)
        g1 = q * r  # |r|^(p-1) sgn(r)
        proj = uv @ g1
        wa = self.freq.T @ uv[k:]
        grad = -p * self.cell * (self.freq.T @ proj[k:])
        hess = self.cell * (p * (p - 1.0) * ((wa * q) @ wa.T)
                            + p * (self.freq.T * proj[:k]) @ self.freq)
        return float(g1 @ r) * self.cell, grad, hess


# Newton on the Lp objective: iteration cap, and the step length in cell
# coordinates below which the iterate counts as converged.
_LP_NEWTON_ITERS = 100
_LP_STEP_TOL = 1e-13


def _lp_newton(obj: _LpObjective, st: np.ndarray) -> tuple[np.ndarray, float]:
    """Safeguarded Newton descent on J from st: the Newton step where the
    Hessian is positive definite, else a gradient step of Cauchy length, each
    halved until J does not increase.  A step moves no mode's phase by more
    than pi/4.  The Cauchy step is the Newton step on the Hessian's range where
    it has rank one: a single active mode, whose orbit is a line."""
    cap = 0.25 * math.pi / float(np.abs(obj.freq).sum(axis=1).max())
    J, g, H = obj.local(st)
    for _ in range(_LP_NEWTON_ITERS):
        lo, hi = np.linalg.eigvalsh(H)
        if lo > 1e-10 * hi:
            step = -np.linalg.solve(H, g)
        else:
            curv = float(g @ H @ g)
            step = -g * (float(g @ g) / curv if curv > 0.0 else 1.0)
        size = float(np.max(np.abs(step)))
        if size > cap:
            step *= cap / size
        while True:
            if float(np.max(np.abs(step))) < _LP_STEP_TOL:
                return st, J
            trial = st + step
            Jt, gt, Ht = obj.local(trial)
            if Jt <= J:
                break
            step *= 0.5
        falling = Jt < J
        st, J, g, H = trial, Jt, gt, Ht
        if not falling:
            break
    return st, J


# Nelder-Mead for p = 1: iteration cap; the spread of the simplex, in cell
# coordinates and in values relative to the best, at which it has converged;
# and its start edge, far above _NM_XATOL so that the first steps follow J's
# slope and not its rounding, and small against the cell so that the search
# stays in the basin of the L2 seed.
_NM_MAXITER = 200
_NM_XATOL = 1e-10
_NM_FATOL = 4.0 * np.finfo(float).eps
_NM_STEP = 1e-3


class _Minimum(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun: Callable[[np.ndarray], float], x0) -> _Minimum:
    """Nelder-Mead (Nelder & Mead 1965) on ``fun`` from the simplex x0, x0 +
    _NM_STEP e_k, with the coefficients 1, 2, 1/2, 1/2 (reflection, expansion,
    contraction, shrink), until it converges or for _NM_MAXITER iterations."""
    nfev = 0

    def point(x):
        nonlocal nfev
        nfev += 1
        return x, fun(x)

    sim = np.asarray(x0, dtype=float) + _NM_STEP * np.eye(len(x0) + 1, len(x0), -1)
    fsim = np.array([point(v)[1] for v in sim])
    for it in range(_NM_MAXITER + 1):
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if it == _NM_MAXITER or (np.max(np.abs(sim[1:] - sim[0])) <= _NM_XATOL
                                 and fsim[-1] - fsim[0] <= _NM_FATOL * abs(fsim[0])):
            break
        xbar = sim[:-1].mean(axis=0)
        xr, fr = point(2.0 * xbar - sim[-1])
        if fr < fsim[0]:
            xe, fe = point(3.0 * xbar - 2.0 * sim[-1])
            sim[-1], fsim[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:  # contract towards the better of xr and the worst vertex, else shrink
            xc, fc = point(0.5 * (xbar + (xr if fr < fsim[-1] else sim[-1])))
            if fc < min(fr, fsim[-1]):
                sim[-1], fsim[-1] = xc, fc
            else:
                sim[1:] = 0.5 * (sim[0] + sim[1:])
                fsim[1:] = [point(v)[1] for v in sim[1:]]
    return _Minimum(sim[0], float(fsim[0]), nfev)


def _require_exponent(p_norm: float) -> None:
    """An orbit distance's exponent: 1 <= p < inf (NaN fails too)."""
    if not 1.0 <= p_norm < math.inf:
        raise BadExponent(f"p_norm must be finite and >= 1, got {p_norm}")


def _orbit_distance_lp(f: RealField, F: SpectralField, c: EigenstateCoeffs,
                       p_norm: float) -> tuple[float, np.ndarray]:
    """Translation-minimized L^p distance on the samples f, searched from the
    exact L2 minimizer on the same field's coefficients F: safeguarded Newton
    for p > 1, and for p = 1, where the Hessian vanishes almost everywhere,
    the Nelder-Mead ``minimize``."""
    _require_exponent(p_norm)
    # the L2 seed reads the eigenmodes, so it refuses a grid whose band lacks
    # one before the parts are built
    st = np.array(_cell_coords(_orbit_distance_l2(F, c)[1], c.info))
    obj = _LpObjective(f, c, p_norm)
    if p_norm > 1:
        st, val = _lp_newton(obj, st)
    else:
        st, val, _ = minimize(obj.value, st)
    return val ** (1.0 / p_norm), _cell_point(_wrap(st[0], 1.0), _wrap(st[1], 1.0), c.info)


def orbit_distance(f: RealField | SpectralField, c: EigenstateCoeffs,
                   p_norm: float = 2.0) -> tuple[float, np.ndarray]:
    """Minimum L^p distance from f to the translation orbit of the state c,
    together with a minimizing translation s xi + t eta in the fundamental
    cell, s and t in [0, 1).

    p_norm = 2 uses the exact spectral form on f's coefficients.  Other
    finite exponents start from the L2 minimizer and descend on f's samples:
    Newton for p > 1, and Nelder-Mead for p = 1.  For p = 2, passing f's
    coefficients saves a transform.
    """
    if p_norm == 2:
        return _orbit_distance_l2(_as_spectral(f), c)
    return _orbit_distance_lp(_as_real(f), _as_spectral(f), c, p_norm)


@lru_cache(maxsize=64)
def _eigenspace(grid: Grid) -> EigenspaceInfo:
    """The first eigenspace of the grid's torus, classified once per grid."""
    return classify_eigenspace(grid.basis)


def project_to_e1(f: RealField | SpectralField) -> tuple[EigenstateCoeffs, float]:
    """Amplitude/phase content of f on the first eigenspace, plus the L2 residual."""
    info = _eigenspace(f.grid)
    F = _as_spectral(f)
    _require_mean_zero(F)
    raw, residual_power = _eigenmodes(F, info)
    amps = [2.0 * abs(z) for z in raw]
    floor = 1e-12 * max(amps, default=0.0)
    pairs = [(a, float(np.angle(z))) if a > floor else (0.0, 0.0)
             for a, z in zip(amps, raw)]
    residual = math.sqrt(f.grid.area * residual_power)
    coeffs = EigenstateCoeffs(info, tuple(a for a, _ in pairs), tuple(p for _, p in pairs))
    return coeffs, residual
