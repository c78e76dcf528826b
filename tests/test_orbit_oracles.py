"""The orbit distances against the searches they replaced.

``full_layout.orbit_distance_l2`` is the L2 distance on the full FFT layout,
in six dimensions as it stood with a Nelder-Mead pass between the 64x64
phase grid and the Newton polish; ``_oracle_lp`` is the L^p distance as it
stood before the search started from the L2 minimizer: a 32x32 scan of the
cell, then Nelder-Mead from its best point, with one full-grid objective
call per scan point and per simplex vertex.  They are kept only as
references.
"""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from torus_euler import (
    EigenstateCoeffs,
    Grid,
    RealField,
    SpectralField,
    classify_eigenspace,
    lp_norm,
    orbit_distance,
    preset_basis,
    synthesize_eigenstate,
    translate_coeffs,
)
import torus_euler
from torus_euler import eigenstate, verify
from torus_euler.coeffs import circ_dist
from torus_euler.eigenstate import _cell_coords, _LpObjective
from torus_euler.euler import band_limited_perturbation

import full_layout as fl

TAU = 2.0 * math.pi


def _oracle_lp(f, c, p_norm):
    grid = f.grid
    mcoords = np.array(c.info.k_coords, dtype=float)
    y1 = np.arange(grid.n1)[:, None] / grid.n1
    y2 = np.arange(grid.n2)[None, :] / grid.n2
    cos_parts, sin_parts = [], []
    for (m, n), a, al in zip(mcoords, c.amps, c.phases):
        theta = TAU * (m * y1 + n * y2) + al
        cos_parts.append(a * np.cos(theta))
        sin_parts.append(a * np.sin(theta))

    def objective(st):
        w = np.zeros((grid.n1, grid.n2))
        for (m, n), cp, sp in zip(mcoords, cos_parts, sin_parts):
            d = TAU * (m * st[0] + n * st[1])
            w += cp * math.cos(d) + sp * math.sin(d)
        return float(np.sum(np.abs(f.samples - w) ** p_norm)) * grid.cell

    nc = 32
    grid_pts = [(i / nc, j / nc) for i in range(nc) for j in range(nc)]
    vals = [objective(st) for st in grid_pts]
    best = int(np.argmin(vals))
    res = minimize(objective, np.array(grid_pts[best]), method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-30})
    if res.fun <= vals[best]:
        st, val = res.x, float(res.fun)
    else:
        st, val = np.array(grid_pts[best]), vals[best]
    p = (st[0] % 1.0) * np.asarray(c.info.basis.xi) + (st[1] % 1.0) * np.asarray(c.info.basis.eta)
    return val ** (1.0 / p_norm), p


def _phase_error(c, p, q):
    """Largest circular difference of the active phases of c translated by p and by q."""
    a, b = translate_coeffs(c, p), translate_coeffs(c, q)
    return max(circ_dist(x, y) for x, y, amp in zip(a.phases, b.phases, c.amps) if amp > 0)


def _weights(rng, kind):
    """Cosine weights (w0, w1, w2) and phase offsets beta of one L2 case."""
    beta = rng.uniform(-math.pi, math.pi, 3)
    w = rng.uniform(0.05, 2.0, 3)
    if kind == "tiny":
        w[rng.integers(3)] = 10.0 ** rng.uniform(-9, -3)
    elif kind == "sum":
        w[0] = w[1] + w[2]
    elif kind == "flat":         # phi = pi and 1/w2 = 1/w0 + 1/w1: singular Hessian at the max
        w[2] = w[0] * w[1] / (w[0] + w[1]) * (1.0 + rng.uniform(-1e-6, 1e-6))
        beta[2] = beta[0] + beta[1] + math.pi
    elif kind == "silent":       # one or two modes of f exactly absent
        w[rng.permutation(3)[:rng.integers(1, 3)]] = 0.0
    return w, beta


_L2_KINDS = ["random", "tiny", "sum", "flat", "silent"]


@pytest.mark.parametrize("kind", _L2_KINDS)
def test_l2_without_simplex_matches_oracle(hex_basis, hex_info, kind):
    grid = Grid(hex_basis, 32, 32)
    idx = fl.mode_indices(hex_info, grid)
    rng = np.random.default_rng(_L2_KINDS.index(kind))
    for _ in range(150):
        c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0.2, 2.0, 3)),
                             tuple(rng.uniform(0.0, TAU, 3)))
        w, beta = _weights(rng, kind)
        coeffs = np.zeros((grid.n1, grid.n2), dtype=complex)
        coeffs[3, 5] = coeffs[-3, -5] = 0.01  # off the eigenspace
        for (i1, i2), a, al, wi, bi in zip(idx, c.amps, c.phases, w, beta):
            coeffs[i1, i2] = (wi / a) * complex(math.cos(bi + al), math.sin(bi + al))
            coeffs[-i1, -i2] = coeffs[i1, i2].conjugate()
        F = SpectralField(grid, fl.halve(coeffs))
        d, p = orbit_distance(F, c, 2.0)
        d_ref, p_ref, (t1, t2, _) = fl.orbit_distance_l2(grid, coeffs, c)
        assert abs(d - d_ref) <= 1e-12 * d_ref
        # the maximizer is unique where the gain's Hessian at it is regular
        c0, c1 = w[0] * math.cos(beta[0] + t1), w[1] * math.cos(beta[1] + t2)
        c2 = w[2] * math.cos(beta[2] + t1 + t2)
        if abs((c0 + c2) * (c1 + c2) - c2 * c2) > 1e-6 * np.sum(w) ** 2:
            assert _phase_error(c, p, p_ref) <= 1e-7


def test_l2_on_the_corner_of_the_merged_amplitude(hex_info, hex_grid):
    # w1 = w2, and the best scan angle is where w1 e^{i beta1} + w2 e^{i(beta2 + t1)} = 0
    c = EigenstateCoeffs(hex_info, (1.0, 0.1, 0.1), (0.0, 0.0, 0.0))
    f = synthesize_eigenstate(EigenstateCoeffs(hex_info, (1.0, 0.1, 0.1), (math.pi, 0.0, 0.0)),
                              hex_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, _ = orbit_distance(f, c, 2.0)
    d_ref, _, _ = fl.orbit_distance_l2(hex_grid, fl.analyze(f.samples), c)
    assert abs(d - d_ref) <= 1e-12 * d_ref


def _lp_cases():
    """(preset, n, p_norm, eps, seed): every exponent and three decades of eps on
    three small grids, two of each on hexagonal 128^2; then exponents near 1
    and between 2 and 3 far from the orbit, and exact translates (eps = 0)."""
    cases = []
    for preset, n, exps, epss in (
        ("square", 64, (1.0, 1.5, 3.0, 4.0, 6.0), (1e-3, 1e-1, 10.0)),
        ("hexagonal", 64, (1.0, 1.5, 3.0, 4.0, 6.0), (1e-3, 1e-1, 10.0)),
        ("rectangular:3.0", 48, (1.0, 1.5, 3.0, 4.0, 6.0), (1e-3, 1e-1, 10.0)),
        ("hexagonal", 128, (1.5, 4.0), (1e-2, 1.0)),
        ("square", 64, (1.1, 2.5), (1.0, 3.0)),
        ("hexagonal", 64, (1.1, 2.5), (1.0, 3.0)),
        ("rectangular:3.0", 48, (1.1, 2.5), (1.0, 3.0)),
        ("square", 64, (1.0, 1.1, 2.5, 4.0), (0.0,)),
        ("hexagonal", 64, (1.0, 1.1, 2.5, 4.0), (0.0,)),
        ("rectangular:3.0", 48, (1.0, 1.1, 2.5, 4.0), (0.0,)),
    ):
        for p in exps:
            for eps in epss:
                cases.append((preset, n, p, eps, len(cases)))
    return cases


def _lp_state(preset, n, p_norm, eps, seed):
    """A random state c, a translate ``base`` of it on an n x n grid, f = base
    plus eps times a band-limited perturbation, and the generator for further draws."""
    basis = preset_basis(preset)
    info = classify_eigenspace(basis)
    grid = Grid(basis, n, n)
    rng = np.random.default_rng(seed)
    c = EigenstateCoeffs(info, tuple(rng.uniform(0.3, 1.5, info.npairs)),
                         tuple(rng.uniform(0.0, TAU, info.npairs)))
    base = synthesize_eigenstate(translate_coeffs(c, rng.uniform(-3.0, 3.0, 2)), grid)
    g = band_limited_perturbation(grid, rng, 3.0 * info.rho, p_norm)
    return c, base, RealField(grid, base.samples + eps * g.samples), rng


@pytest.mark.parametrize("p_norm", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("preset", ["hexagonal", "square", "rectangular:3.0"])
def test_distance_to_the_zero_state_is_the_norm(preset, p_norm):
    # every translate of the zero state is zero, and the translation stays at the origin
    c, _, f, _ = _lp_state(preset, 32, p_norm, 0.5, 3)
    zero = EigenstateCoeffs(c.info, (0.0,) * c.info.npairs, (0.0,) * c.info.npairs)
    d, p = orbit_distance(f, zero, p_norm)
    assert abs(d - lp_norm(f, p_norm)) <= 1e-14 * d
    assert np.array_equal(p, [0.0, 0.0])


@pytest.mark.parametrize("preset,n,p_norm,eps,seed", _lp_cases())
def test_lp_kernel_matches_oracle(preset, n, p_norm, eps, seed):
    c, base, f, _ = _lp_state(preset, n, p_norm, eps, seed)
    with warnings.catch_warnings():
        # |r|^(p - 2) is unbounded where an exact translate matches a sample
        warnings.simplefilter("error")
        d, p = orbit_distance(f, c, p_norm)
    d_ref, p_ref = _oracle_lp(f, c, p_norm)
    # an exact translate's distance is roundoff, so measure it against the state
    assert abs(d - d_ref) <= 1e-9 * (d_ref if eps else lp_norm(base, p_norm))
    assert _phase_error(c, p, p_ref) <= 1e-6


@pytest.mark.parametrize("p_norm", [1.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("preset,n", [("square", 64), ("hexagonal", 64), ("rectangular:3.0", 48)])
def test_lp_derivatives_match_central_differences(preset, n, p_norm):
    c, _, f, rng = _lp_state(preset, n, p_norm, 0.3, int(10 * p_norm) + n)
    basis = c.info.basis
    obj = _LpObjective(f, c, p_norm)
    st = rng.uniform(0.0, 1.0, 2)
    J, grad, hess = obj.local(st)
    assert abs(J - obj.value(st)) <= 1e-13 * J
    e = np.eye(2)
    h = 1e-6
    fd_grad = np.array([(obj.value(st + h * e[a]) - obj.value(st - h * e[a])) / (2 * h)
                        for a in range(2)])
    assert np.max(np.abs(fd_grad - grad)) <= 1e-5 * np.max(np.abs(grad))
    # For p < 2 the gradient is not differentiable where a residual sample
    # crosses zero, so the step stays well inside the smallest |r| / |grad r|.
    w = synthesize_eigenstate(
        translate_coeffs(c, st[0] * np.asarray(basis.xi) + st[1] * np.asarray(basis.eta)), f.grid)
    r_min = float(np.min(np.abs(f.samples - w.samples)))
    h = min(1e-6, 1e-2 * r_min / (TAU * np.max(np.abs(c.info.k_coords)) * sum(c.amps)))
    fd_hess = np.array([(obj.local(st + h * e[a])[1] - obj.local(st - h * e[a])[1]) / (2 * h)
                        for a in range(2)])
    assert np.max(np.abs(fd_hess - hess)) <= 1e-4 * np.max(np.abs(hess))


@pytest.mark.parametrize("preset,n,p_norm,eps,seed", [c for c in _lp_cases() if c[2] == 1.0])
def test_nelder_mead_descends_on_the_p1_objective(preset, n, p_norm, eps, seed):
    c, _, f, _ = _lp_state(preset, n, p_norm, eps, seed)
    obj = _LpObjective(f, c, p_norm)
    st = np.array(_cell_coords(orbit_distance(f, c, 2.0)[1], c.info))
    res = eigenstate.minimize(obj.value, st)
    assert res.fun == obj.value(res.x) <= obj.value(st)
    assert all(res.fun <= obj.value(res.x + s * h) for h in 1e-6 * np.eye(2) for s in (1.0, -1.0))
    assert res.nfev < 3 + 4 * eigenstate._NM_MAXITER


def test_nelder_mead_converges_on_a_quadratic():
    # from a zero coordinate, far from the minimum in units of the start step
    res = eigenstate.minimize(lambda x: float(1.0 + (x[0] - 0.3) ** 2 + 10.0 * (x[1] - 0.7) ** 2),
                              np.array([0.0, 0.0]))
    assert np.max(np.abs(res.x - [0.3, 0.7])) < 1e-7
    assert res.nfev < 3 + 4 * eigenstate._NM_MAXITER


def test_nelder_mead_through_shrinks_to_the_iteration_cap():
    # Every point off the start simplex is worse than all its vertices, so each
    # iteration is a reflection, an inside contraction and a shrink of two
    # vertices, and the search ends at the iteration cap at its start.
    values = iter([0.0, 1.0, 2.0])
    x0 = np.array([0.3, 0.7])
    res = eigenstate.minimize(lambda x: next(values, 3.0), x0)
    assert res.nfev == 3 + 4 * eigenstate._NM_MAXITER
    assert np.array_equal(res.x, x0) and res.fun == 0.0


def test_orbit_distance_check_passes():
    result = verify.check_orbit_distance()
    assert result.ok, result.detail


# a search that stops where it starts: the p = 1 Nelder-Mead, the p > 1 Newton
_STAY_AT_START = {
    "minimize": lambda fun, x0: eigenstate._Minimum(x0, fun(x0), 1),
    "_lp_newton": lambda obj, st: (st, obj.value(st)),
}


@pytest.mark.parametrize("search", _STAY_AT_START)
def test_orbit_distance_check_fails_when_the_search_returns_its_start(monkeypatch, search):
    # every exact translate in the check is solved by the L2 seed already
    monkeypatch.setattr(eigenstate, search, _STAY_AT_START[search])
    result = verify.check_orbit_distance()
    assert not result.ok
    assert "search stopped above its seed or a neighbour" in result.detail


def test_runtime_does_not_import_scipy():
    code = """
import sys
import torus_euler.cli
from torus_euler import (EigenstateCoeffs, Grid, classify_eigenspace, orbit_distance,
                         preset_basis, synthesize_eigenstate)
info = classify_eigenspace(preset_basis("hexagonal"))
grid = Grid(info.basis, 32, 32)
c = EigenstateCoeffs(info, (1.0, 0.7, 0.4), (0.1, 0.2, 0.3))
f = synthesize_eigenstate(EigenstateCoeffs(info, (0.9, 0.7, 0.5), (0.4, 0.2, 0.3)), grid)
d, _ = orbit_distance(f, c, 1.0)
assert d > 0.0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(torus_euler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
