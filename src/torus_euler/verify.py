"""Self-contained verification battery behind the `verify` subcommand.

Each check takes no arguments, pins its tolerances and configuration (stated
in its docstring) and returns a CheckResult; the acceptance tests call the
same functions.  Fast checks cover the lattice, spectral, moment and orbit
machinery; the solver-scale checks (steadiness, conservation, stability
witness, integrator order) run only on request: they take thousands of steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import census as cn
from . import coeffs as co
from . import eigenstate as eig
from . import euler
from . import lattice as lat
from . import spectral as sp

__all__ = ["CheckResult", "FAST_CHECKS", "FULL_CHECKS", "run_battery"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_basis(rng: np.random.Generator) -> lat.LatticeBasis:
    """Non-degenerate random generators with condition number at most 50."""
    while True:
        m = rng.uniform(-2.0, 2.0, (2, 2)) * 10.0 ** rng.uniform(-0.5, 0.5)
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] > 1e-3 and s[0] / s[1] <= 50.0:
            return lat.LatticeBasis(tuple(m[0]), tuple(m[1]))


def _random_dim_basis(rng: np.random.Generator, dim: int) -> lat.LatticeBasis:
    """Random lattice whose first eigenspace has the requested dimension."""
    scale = 10.0 ** rng.uniform(-0.3, 0.3)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    cr, sr = math.cos(rot), math.sin(rot)

    def turned(v):
        return (scale * (cr * v[0] - sr * v[1]), scale * (sr * v[0] + cr * v[1]))

    if dim == 2:
        h = rng.uniform(0.4, 0.9)  # rectangle, clearly non-square
        return lat.LatticeBasis(turned((1.0, 0.0)), turned((0.0, h)))
    if dim == 4:
        phi = rng.uniform(math.pi / 3 + 0.05, math.pi / 2)  # rhombic, not hexagonal
        return lat.LatticeBasis(turned((1.0, 0.0)), turned((math.cos(phi), math.sin(phi))))
    phi = math.pi / 3
    return lat.LatticeBasis(turned((1.0, 0.0)), turned((math.cos(phi), math.sin(phi))))


def _unimodular(rng: np.random.Generator):
    """Random integer rows with entries in [-6, 6] and determinant +-1."""
    while True:
        a, b, c, d = rng.integers(-6, 7, 4).tolist()
        if abs(a * d - b * c) == 1:
            return (a, b), (c, d)


def _transformed(rng: np.random.Generator, basis: lat.LatticeBasis):
    """The torus of ``basis`` with its generators changed by a random unimodular
    matrix, rotated, and scaled by s = 2**x, x uniform in [-500, 500].

    Returns the new basis and s; its first eigenvalue is basis's over s^2.
    """
    s = 2.0 ** rng.uniform(-500.0, 500.0)
    rot = rng.uniform(0.0, 2.0 * math.pi)
    cr, sr = math.cos(rot), math.sin(rot)
    rows = []
    for p, q in _unimodular(rng):
        x = p * basis.xi[0] + q * basis.eta[0]
        y = p * basis.xi[1] + q * basis.eta[1]
        rows.append((s * (cr * x - sr * y), s * (sr * x + cr * y)))
    return lat.LatticeBasis(*rows), s


def _random_state(rng: np.random.Generator, info, zero_frac: float = 0.25,
                  tie_frac: float = 0.0) -> co.EigenstateCoeffs:
    amps = rng.uniform(0.2, 2.0, info.npairs)
    if info.npairs > 1 and rng.uniform() < zero_frac:
        amps[rng.integers(info.npairs)] = 0.0
    if info.npairs > 2 and rng.uniform() < tie_frac:
        amps[1] = amps[0]
    phases = rng.uniform(0.0, 2.0 * math.pi, info.npairs)
    return co.EigenstateCoeffs(info, tuple(amps), tuple(phases))


# ---------------------------------------------------------------------------
# fast checks


def check_golden_lattice_presets() -> CheckResult:
    """Preset tori reproduce the known first-eigenvalue data to 1e-10."""
    tol = 1e-10
    errs = []
    for h in (3.14159, 1.0, 6.0):
        info = lat.classify_eigenspace(lat.preset_basis(f"rectangular:{h}"))
        errs.append(abs(info.lambda1 - 1.0))
        errs.append(0.0 if info.dim == 2 else 1.0)
    sq = lat.classify_eigenspace(lat.preset_basis("square"))
    errs.append(abs(sq.lambda1 - 1.0))
    errs.append(0.0 if sq.dim == 4 else 1.0)
    hx_basis = lat.preset_basis("hexagonal")
    hx = lat.classify_eigenspace(hx_basis)
    errs.append(abs(hx.lambda1 - 4.0 / 3.0))
    errs.append(0.0 if hx.dim == 6 else 1.0)
    sv = lat.shortest_vectors(hx_basis)
    errs.append(abs(sv.rho - 1.0 / (math.sqrt(3.0) * math.pi)))
    db = lat.dual_basis(hx_basis)
    expect = {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    got = {tuple(c) for c in sv.coords.tolist()}
    errs.append(0.0 if got == expect else 1.0)
    for v, c in zip(sv.vectors, sv.coords):
        ref = c[0] * np.array(db.xi_star) + c[1] * np.array(db.eta_star)
        errs.append(float(np.max(np.abs(v - ref))))
    worst = max(errs)
    return CheckResult("golden-lattice-presets", worst <= tol, f"worst error {worst:.2e}")


def check_dual_basis_identities() -> CheckResult:
    """Biorthogonality of the dual basis to 1e-12 on 1000 random bases (seed 101)."""
    rng, n = np.random.default_rng(101), 1000
    worst = 0.0
    for _ in range(n):
        b = _random_basis(rng)
        db = lat.dual_basis(b)
        prod = db.matrix @ b.matrix.T
        worst = max(worst, float(np.max(np.abs(prod - np.eye(2)))))
    return CheckResult("dual-basis-identities", worst <= 1e-12,
                       f"{n} bases, worst identity error {worst:.2e}")


def check_shortest_vector_geometry() -> CheckResult:
    """Shell closure under negation, pi/3 angle bound, hexagon regularity,
    and gram(dual(dual)) == gram(original) on 300 random bases (seed 102):
    a third each from ``_random_dim_basis`` with dim 2, 4 and 6, each with
    its generators changed by a ``_unimodular`` matrix."""
    rng, n = np.random.default_rng(102), 300
    problems = []
    for i in range(n):
        base = _random_dim_basis(rng, (2, 4, 6)[i % 3])
        rows = np.array(_unimodular(rng)) @ base.matrix
        b = lat.LatticeBasis(tuple(rows[0]), tuple(rows[1]))
        sv = lat.shortest_vectors(b)
        if sv.size not in (2, 4, 6):
            problems.append(f"case {i}: size {sv.size}")
            continue
        vecs = {tuple(np.round(v, 12)) for v in sv.vectors}
        if not all(tuple(np.round(-np.asarray(v), 12)) in vecs for v in sv.vectors):
            problems.append(f"case {i}: not negation-closed")
        for j in range(sv.size):
            for k in range(j + 1, sv.size):
                u, v = sv.vectors[j], sv.vectors[k]
                if np.max(np.abs(u + v)) < 1e-12 * sv.rho:
                    continue
                cosang = float(u @ v) / (sv.rho * sv.rho)
                if math.acos(min(max(cosang, -1.0), 1.0)) < math.pi / 3 - 1e-9:
                    problems.append(f"case {i}: angle below pi/3")
        if sv.size == 6:
            angles = np.sort(np.arctan2(sv.vectors[:, 1], sv.vectors[:, 0]))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            if np.max(np.abs(gaps - math.pi / 3)) > 1e-9:
                problems.append(f"case {i}: irregular hexagon")
        db = lat.dual_basis(b)
        dd = lat.LatticeBasis(db.xi_star, db.eta_star)
        g2 = lat.gram_dual(dd)
        g0 = b.matrix @ b.matrix.T
        if np.max(np.abs(g2 - g0)) > 1e-10 * np.max(np.abs(g0)):
            problems.append(f"case {i}: double dual gram mismatch")
    return CheckResult("shortest-vector-geometry", not problems,
                       problems[0] if problems else f"{n} bases clean")


def check_lattice_invariance() -> CheckResult:
    """The classification depends on the torus, not on its generators: each
    preset under a unimodular change of basis (entries up to 6), a rotation
    and a scale s keeps its dimension, with lambda1 = preset lambda1 / s^2
    to 1e-12 relative, over 200 lattices (seed 114)."""
    rng, n = np.random.default_rng(114), 200
    presets = [lat.preset_basis(name) for name in ("rectangular:4.0", "square", "hexagonal")]
    infos = [lat.classify_eigenspace(b) for b in presets]
    worst = 0.0
    for i in range(n):
        want = infos[i % 3]
        basis, s = _transformed(rng, presets[i % 3])
        info = lat.classify_eigenspace(basis)
        if info.dim != want.dim:
            return CheckResult("lattice-invariance", False,
                               f"case {i}: dim {info.dim}, wanted {want.dim}")
        worst = max(worst, abs(info.lambda1 * s * s / want.lambda1 - 1.0))
    return CheckResult("lattice-invariance", worst <= 1e-12,
                       f"{n} lattices, worst lambda1 error {worst:.2e}")


def check_spectral_transforms() -> CheckResult:
    """Round trip, Parseval, Green, velocity identities; 10 fields a preset, seed 103."""
    rng = np.random.default_rng(103)
    problems = []
    for name in ("square", "hexagonal", "rectangular:4.0"):
        basis = lat.preset_basis(name)
        grid = sp.Grid(basis, 48, 32)
        info = lat.classify_eigenspace(basis)
        for _ in range(10):
            f = sp.random_mean_zero_field(grid, rng)
            g = sp.synthesize(sp.analyze(f))
            scale = np.max(np.abs(f.samples))
            if np.max(np.abs(f.samples - g.samples)) > 1e-12 * scale:
                problems.append(f"{name}: round trip")
            pars = abs(sp.enstrophy(f) - float((f.samples**2).mean()) * grid.area)
            if pars > 1e-10 * sp.enstrophy(f):
                problems.append(f"{name}: parseval")
            a = sp.random_mean_zero_field(grid, rng, kmax=3 * info.rho)
            b2 = sp.random_mean_zero_field(grid, rng, kmax=3 * info.rho)
            ga = sp.synthesize(sp.green_apply(sp.analyze(a)))
            gb = sp.synthesize(sp.green_apply(sp.analyze(b2)))
            lhs = float((a.samples * gb.samples).mean()) * grid.area
            rhs_ = float((b2.samples * ga.samples).mean()) * grid.area
            if abs(lhs - rhs_) > 1e-10 * max(1.0, abs(lhs)):
                problems.append(f"{name}: green symmetry")
            if float((a.samples * ga.samples).mean()) * grid.area < -1e-12:
                problems.append(f"{name}: green positivity")
            lap = sp.laplacian_apply(sp.green_apply(sp.analyze(a)))
            if np.max(np.abs(lap.coeffs - sp.analyze(a).coeffs)) > 1e-10 * scale:
                problems.append(f"{name}: -lap(green) != id")
            v1, v2 = sp.velocity_from_vorticity(sp.analyze(a))
            t = sp.modes(grid)
            V1, V2 = sp.analyze(v1).coeffs, sp.analyze(v2).coeffs
            div = np.max(np.abs(t.dx * V1 + t.dy * V2))
            curl = t.dx * V2 - t.dy * V1
            crec = np.max(np.abs(curl - sp.analyze(a).coeffs))
            if div > 1e-10 * scale or crec > 1e-8 * np.max(np.abs(sp.analyze(a).coeffs)):
                problems.append(f"{name}: velocity identities")
    return CheckResult("spectral-transforms", not problems,
                       problems[0] if problems else "round trip, Parseval, Green, velocity ok")


def check_energy_enstrophy_gap() -> CheckResult:
    """Gap >= 0 on 200 random fields, 0 on 50 eigenstates; hexagonal 64^2, seed 104."""
    rng = np.random.default_rng(104)
    basis = lat.preset_basis("hexagonal")
    grid = sp.Grid(basis, 64, 64)
    info = lat.classify_eigenspace(basis)
    min_gap, worst_e1 = 0.0, 0.0
    for i in range(200):
        f = sp.random_mean_zero_field(grid, rng)
        min_gap = min(min_gap, sp.energy_enstrophy_gap(f))
        if i < 50:
            c = _random_state(rng, info)
            w = eig.synthesize_eigenstate(c, grid)
            z = sp.enstrophy(w)
            if z > 0:
                worst_e1 = max(worst_e1, abs(sp.energy_enstrophy_gap(w)) / z)
    ok = min_gap >= -1e-10 and worst_e1 <= 1e-10
    return CheckResult("energy-enstrophy-gap", ok,
                       f"min gap {min_gap:.2e}, eigenspace gap/enstrophy {worst_e1:.2e}")


def check_poincare() -> CheckResult:
    """lambda1 * ||u||^2 <= ||grad u||^2 on 200 random fields, equality on 50
    eigenstates; hexagonal 64^2, seed 105."""
    rng = np.random.default_rng(105)
    basis = lat.preset_basis("hexagonal")
    grid = sp.Grid(basis, 64, 64)
    info = lat.classify_eigenspace(basis)
    t = sp.modes(grid)
    lam1 = info.lambda1
    worst_violation, worst_eq = 0.0, 0.0
    for i in range(200):
        u = sp.random_mean_zero_field(grid, rng)
        U = t.weight * np.abs(sp.analyze(u).coeffs) ** 2
        l2 = grid.area * float(np.sum(U))
        h1 = grid.area * float(np.sum(U * 4.0 * math.pi**2 * t.ksq))
        worst_violation = max(worst_violation, lam1 * l2 - h1)
        if i < 50:
            c = _random_state(rng, info)
            w = t.weight * np.abs(sp.analyze(eig.synthesize_eigenstate(c, grid)).coeffs) ** 2
            l2e = grid.area * float(np.sum(w))
            h1e = grid.area * float(np.sum(w * 4.0 * math.pi**2 * t.ksq))
            if l2e > 0:
                worst_eq = max(worst_eq, abs(lam1 * l2e - h1e) / (lam1 * l2e))
    ok = worst_violation <= 1e-9 and worst_eq <= 1e-10
    return CheckResult("poincare-inequality", ok,
                       f"violation {worst_violation:.2e}, equality defect {worst_eq:.2e}")


def check_moment_certification() -> CheckResult:
    """Quadrature moments equal the bracket polynomials, and a least-squares fit
    over 100 hexagonal states (seed 106) recovers the pattern 4 / 9 / 27 / 18."""
    rng = np.random.default_rng(106)
    info = lat.classify_eigenspace(lat.preset_basis("hexagonal"))
    kappa = {2: 0.5, 3: 1.5, 4: 0.375, 6: 5.0 / 16.0}
    states, worst = [], 0.0
    for _ in range(100):
        c = _random_state(rng, info, zero_frac=0.0)
        states.append(c)
        for m in (2, 3, 4, 6):
            oracle = cn.moments_quadrature_oracle(c, m)
            bracket = kappa[m] * cn.moment_bracket(c, m)
            worst = max(worst, abs(oracle - bracket) / max(1.0, abs(oracle)))

    # recover the order-4 and order-6 coefficient patterns from data alone
    rows4, rhs4, rows6, rhs6 = [], [], [], []
    for c in states:
        a = np.array(c.amps)
        sq = a**2
        th = c.phases[0] + c.phases[1] - c.phases[2]
        s4 = float(np.sum(a**4))
        cross4 = float(sq[0] * sq[1] + sq[0] * sq[2] + sq[1] * sq[2])
        rows4.append([s4, cross4])
        rhs4.append(cn.moments_quadrature_oracle(c, 4))
        s6 = float(np.sum(a**6))
        cross6 = float(sum(sq[i] ** 2 * sq[j] for i in range(3) for j in range(3) if i != j))
        prod = float(sq[0] * sq[1] * sq[2])
        rows6.append([s6, cross6, prod, prod * math.cos(th) ** 2])
        rhs6.append(cn.moments_quadrature_oracle(c, 6))
    fit4, *_ = np.linalg.lstsq(np.array(rows4), np.array(rhs4), rcond=None)
    fit6, *_ = np.linalg.lstsq(np.array(rows6), np.array(rhs6), rcond=None)
    pat4 = fit4 / fit4[0]
    pat6 = fit6 / fit6[0]
    fit_err = max(
        abs(pat4[1] - 4.0) / 4.0,
        abs(pat6[1] - 9.0) / 9.0,
        abs(pat6[2] - 27.0) / 27.0,
        abs(pat6[3] - 18.0) / 18.0,
        abs(fit4[0] - 0.375) / 0.375,
        abs(fit6[0] - 5.0 / 16.0) / (5.0 / 16.0),
    )
    ok = worst <= 1e-9 and fit_err <= 1e-9
    return CheckResult("moment-certification", ok,
                       f"oracle vs bracket {worst:.2e}, pattern fit {fit_err:.2e}")


def check_cubic_roundtrip() -> CheckResult:
    """Candidate enumeration recovers 500 random triples (at most 6), seed 107."""
    rng, n = np.random.default_rng(107), 500
    spot = cn.forward_moments(1.0, 2.0, 3.0)
    if spot != (6.0, 58.0, 630.0):
        return CheckResult("cubic-roundtrip", False, f"spot instance gave {spot}")
    md = cn.MomentData(6, spot[0], spot[1], spot[2], cubic=0.0)
    cands = cn.enumerate_candidates(md)
    if not any(max(abs(u - v) for u, v in zip(t, (1.0, 2.0, 3.0))) <= 1e-6 for t in cands):
        return CheckResult("cubic-roundtrip", False, "spot triple (1,2,3) not recovered")
    worst, biggest = 0.0, 0
    for i in range(n):
        trip = rng.uniform(0.0, 3.0, 3)
        if i % 5 == 0:
            trip[rng.integers(3)] = 0.0
        if i % 11 == 0:
            trip[1] = trip[0]
        c1, c2, c3 = cn.forward_moments(*trip)
        cands = cn.enumerate_candidates(cn.MomentData(6, c1, c2, c3, cubic=0.0))
        biggest = max(biggest, len(cands))
        if len(cands) > 6:
            return CheckResult("cubic-roundtrip", False, f"{len(cands)} candidates")
        err = min(max(abs(u - v) for u, v in zip(t, trip)) for t in cands)
        worst = max(worst, err)
    ok = worst <= 1e-6
    return CheckResult("cubic-roundtrip", ok,
                       f"{n} triples, worst recovery {worst:.2e}, max count {biggest}")


def check_census_factored_cubic() -> CheckResult:
    """The moment cubic of a hexagonal reference is 3 (x - A1^2)(x - A2^2)(x - A3^2)
    to 1e-12 relative over 2000 references (seed 112), zero and tied amplitudes
    included: the identity that lets the census read its candidates off them."""
    rng, n = np.random.default_rng(112), 2000
    info = lat.classify_eigenspace(lat.preset_basis("hexagonal"))
    worst = 0.0
    for _ in range(n):
        c = _random_state(rng, info, zero_frac=0.25, tie_frac=0.15)
        md = cn.moment_data(c)
        got = np.array(cn.reduce_to_cubic(md.quadratic, md.quartic, md.sextic_reduced))
        want = 3.0 * np.poly(np.square(c.amps))
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return CheckResult("census-factored-cubic", worst <= 1e-12,
                       f"{n} references, worst coefficient error {worst:.2e}")


def check_census_bounds() -> CheckResult:
    """Census bounds 1 / 2 / 12 and membership, 200 references a dimension, seed 108."""
    rng, n = np.random.default_rng(108), 200
    for dim in (2, 4, 6):
        for i in range(n):
            basis = _random_dim_basis(rng, dim)
            info = lat.classify_eigenspace(basis)
            if info.dim != dim:
                return CheckResult("census-bounds", False,
                                   f"generator produced dim {info.dim}, wanted {dim}")
            ref = _random_state(rng, info, zero_frac=0.25, tie_frac=0.15)
            out = cn.orbit_census(ref)
            if out.count > cn.CENSUS_BOUNDS[dim]:
                return CheckResult("census-bounds", False,
                                   f"dim {dim} case {i}: count {out.count}")
            if not any(co.same_orbit(ref, r) for r in out.representatives):
                return CheckResult("census-bounds", False,
                                   f"dim {dim} case {i}: reference not in census")
            for a in range(out.count):
                for b in range(a + 1, out.count):
                    if co.same_orbit(out.representatives[a], out.representatives[b]):
                        return CheckResult("census-bounds", False,
                                           f"dim {dim} case {i}: duplicate orbits")
    return CheckResult("census-bounds", True, f"{n} references per dimension")


def check_orbit_equivalence() -> CheckResult:
    """same_orbit agrees with solve_translation on 500 pairs a dimension, seed 109."""
    rng, n = np.random.default_rng(109), 500
    for dim in (2, 4, 6):
        basis = _random_dim_basis(rng, dim)
        info = lat.classify_eigenspace(basis)
        disagreements = 0
        for i in range(n):
            c = _random_state(rng, info, zero_frac=0.3, tie_frac=0.1)
            kind = i % 3
            if kind == 0:  # genuine translate
                other = eig.translate_coeffs(c, rng.uniform(-4.0, 4.0, 2))
            elif kind == 1:  # same amplitudes, fresh phases
                other = co.EigenstateCoeffs(
                    info, c.amps, tuple(rng.uniform(0, 2 * math.pi, info.npairs)))
            else:  # unrelated state
                other = _random_state(rng, info, zero_frac=0.3)
            said = co.same_orbit(c, other)
            solved = eig.solve_translation(c, other) is not None
            if said != solved:
                disagreements += 1
        if disagreements:
            return CheckResult("orbit-equivalence", False,
                               f"dim {dim}: {disagreements}/{n} disagreements")
    return CheckResult("orbit-equivalence", True, f"{n} pairs per dimension, zero disagreements")


def check_orbit_distance() -> CheckResult:
    """Forward-shift recovery (L^p for p in 1, 1.5, 2, 3, 4, 6) and Parseval
    orthogonality of orbit_distance on 10 hexagonal 64^2 states (seed 110);
    then, on one state plus a perturbation of size 0.1, the L^1 and L^4
    objective J at the translation found is no higher than at the L2 seed or
    at 1e-6 from it in either cell coordinate."""
    rng = np.random.default_rng(110)
    basis = lat.preset_basis("hexagonal")
    info = lat.classify_eigenspace(basis)
    grid = sp.Grid(basis, 64, 64)
    problems = []
    for i in range(10):
        c = _random_state(rng, info, zero_frac=0.0)
        f = eig.synthesize_eigenstate(c, grid)
        d0, _ = eig.orbit_distance(f, c, 2.0)
        if d0 > 1e-10:
            problems.append(f"case {i}: self distance {d0:.2e}")
        p0 = rng.uniform(-3.0, 3.0, 2)
        shifted = eig.synthesize_eigenstate(eig.translate_coeffs(c, p0), grid)
        want = eig.translate_coeffs(c, p0)
        for p_norm, tol in ((2.0, 1e-8), (1.0, 1e-7), (1.5, 1e-7), (3.0, 1e-7),
                            (4.0, 1e-7), (6.0, 1e-7)):
            d1, p1 = eig.orbit_distance(shifted, c, p_norm)
            if d1 > tol:
                problems.append(f"case {i}: shifted L^{p_norm:g} distance {d1:.2e}")
            moved = eig.translate_coeffs(c, p1)
            perr = max(co.circ_dist(a, b) for a, b in zip(moved.phases, want.phases))
            if perr > 1e-6:
                problems.append(f"case {i}: L^{p_norm:g} translation off by {perr:.2e}")
        F = sp.analyze(f)
        extra = np.zeros_like(F.coeffs)
        extra[-2, 2] = 0.005  # mode (2, -2), stored as its negative
        g = sp.synthesize(sp.SpectralField(grid, F.coeffs + extra))
        d2, _ = eig.orbit_distance(g, c, 2.0)
        want_d = math.sqrt(grid.area * 2.0 * 0.005**2)
        if abs(d2 - want_d) > 1e-6:
            problems.append(f"case {i}: orthogonal distance {d2:.3e} vs {want_d:.3e}")
    # Off the orbit the L2 seed is not the L^p minimizer, so each search has to move.
    c = _random_state(rng, info, zero_frac=0.0)
    w = eig.synthesize_eigenstate(eig.translate_coeffs(c, rng.uniform(-3.0, 3.0, 2)), grid)
    f = sp.RealField(grid, w.samples
                     + 0.1 * sp.random_mean_zero_field(grid, rng, 3.0 * info.rho).samples)
    seed = np.array(eig._cell_coords(eig.orbit_distance(f, c, 2.0)[1], info))
    for p_norm in (1.0, 4.0):  # Nelder-Mead, Newton
        J = eig._LpObjective(f, c, p_norm).value
        st = np.array(eig._cell_coords(eig.orbit_distance(f, c, p_norm)[1], info))
        rivals = [seed] + [st + h for h in 1e-6 * np.vstack([np.eye(2), -np.eye(2)])]
        if min(J(x) for x in rivals) < J(st):
            problems.append(f"perturbed L^{p_norm:g} search stopped above its seed or a neighbour")
    return CheckResult("orbit-distance", not problems,
                       problems[0] if problems else "shift recovery and orthogonality ok")


def check_time_reversal() -> CheckResult:
    """An RK4 step backwards in time from the negated state is the negated
    forward step, bit for bit, over 50 steps on hexagonal 64^2 (seed 113): the
    tendency is quadratic in the state, so each stage of (-c, -dt) negates exactly."""
    rng, n_steps = np.random.default_rng(113), 50
    basis = lat.preset_basis("hexagonal")
    info = lat.classify_eigenspace(basis)
    grid = sp.Grid(basis, 64, 64)
    w = eig.synthesize_eigenstate(_random_state(rng, info, zero_frac=0.0), grid).samples
    F = sp.analyze(sp.RealField(grid, w + 0.05 * sp.random_mean_zero_field(grid, rng).samples))
    kernel = euler._Kernel(grid)
    forward = kernel.project(F.coeffs)
    forward[0, 0] = 0.0
    backward = -forward
    for i in range(n_steps):
        kernel.step(forward, 1e-2)
        kernel.step(backward, -1e-2)
        if not np.array_equal(backward, -forward):
            err = float(np.max(np.abs(backward + forward)))
            return CheckResult("time-reversal", False, f"step {i + 1}: differs by {err:.2e}")
    return CheckResult("time-reversal", True, f"{n_steps} steps at {grid.n1}^2, bitwise")


def check_rhs_forms() -> CheckResult:
    """``rhs``, which takes the quadratic form, agrees with the advective
    form -(v . grad omega), built from sample-space products, to 1e-13
    relative on a random two-thirds masked state on hexagonal 64^2 (seed 115)."""
    grid = sp.Grid(lat.preset_basis("hexagonal"), 64, 64)
    table = sp.modes(grid)
    c = sp.analyze(sp.random_mean_zero_field(grid, np.random.default_rng(115))).coeffs
    c *= table.dealias
    c[0, 0] = 0.0
    F = sp.SpectralField(grid, c)
    v1, v2 = sp.velocity_from_vorticity(F)
    wx, wy = (sp.synthesize(sp.SpectralField(grid, c * d)).samples for d in (table.dx, table.dy))
    advective = sp.analyze(sp.RealField(grid, -(v1.samples * wx + v2.samples * wy))).coeffs
    advective *= table.dealias
    advective[0, 0] = 0.0
    quadratic = euler.rhs(F).coeffs
    err = float(np.linalg.norm(quadratic - advective) / np.linalg.norm(advective))
    return CheckResult("rhs-forms", err <= 1e-13,
                       f"quadratic vs advective form at {grid.n1}^2: {err:.2e}")


# ---------------------------------------------------------------------------
# solver-scale checks


def _two_mode_state(grid: sp.Grid, c1: float, c2: float) -> sp.SpectralField:
    """Coefficient c1 on eta*, a first-shell mode of the hexagonal torus, and
    c2 on xi* - eta*, on the second shell and stored as its negative."""
    c = np.zeros(grid.spectral_shape, dtype=complex)
    c[0, 1] = c1
    c[-1, 1] = c2
    return sp.SpectralField(grid, c)


def check_solver_steadiness() -> CheckResult:
    """Three hexagonal 128^2 eigenstates (two fixed, one random with seed 111)
    stay within relative orbit distance 1e-6 up to t = 10."""
    basis = lat.preset_basis("hexagonal")
    info = lat.classify_eigenspace(basis)
    grid = sp.Grid(basis, 128, 128)
    cfg = euler.SolverConfig(grid, dt=1e-2, t_end=10.0, diag_stride=100)
    states = [co.EigenstateCoeffs(info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
              co.EigenstateCoeffs(info, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
              _random_state(np.random.default_rng(111), info, zero_frac=0.0)]
    worst = 0.0
    for c in states:
        w0 = eig.synthesize_eigenstate(c, grid)
        scale = sp.lp_norm(w0, 2.0)
        _, diag = euler.run(cfg, w0, target=c)
        worst = max(worst, float(np.max(diag["orbit_dist"])) / scale)
    return CheckResult("solver-steadiness", worst <= 1e-6,
                       f"{len(states)} eigenstates, worst relative drift {worst:.2e}")


def check_conservation() -> CheckResult:
    """Energy/enstrophy drift <= 1e-8 and exact mean velocity, hexagonal 128^2."""
    grid = sp.Grid(lat.preset_basis("hexagonal"), 128, 128)
    cfg = euler.SolverConfig(grid, dt=1e-2, t_end=5.0, diag_stride=25)
    _, diag = euler.run(cfg, _two_mode_state(grid, 0.1, 0.05))
    drifts = euler.admissibility_check(diag).drifts
    e_drift, z_drift = drifts["energy"], drifts["enstrophy"]
    v_max = float(np.max(np.abs([diag["meanv1"], diag["meanv2"]])))
    ok = e_drift <= 1e-8 and z_drift <= 1e-8 and v_max <= 1e-12
    return CheckResult("conservation", ok,
                       f"energy {e_drift:.2e}, enstrophy {z_drift:.2e}, mean v {v_max:.2e}")


def check_rk4_order() -> CheckResult:
    """Terminal-state error ratio between dt and dt/2 in [12, 20], hexagonal 64^2."""
    grid = sp.Grid(lat.preset_basis("hexagonal"), 64, 64)
    final = {}
    for dt in (0.05, 0.025, 0.00625):
        cfg = euler.SolverConfig(grid, dt=dt, t_end=1.0)
        state = euler.SolverState(0.0, _two_mode_state(grid, 0.6, 0.4))
        for _ in range(round(1.0 / dt)):
            state = euler.step(state, cfg)
        final[dt] = state.omega.coeffs
    weight = sp.modes(grid).weight  # the Euclidean norm over every mode
    e1 = math.sqrt(float(np.sum(weight * np.abs(final[0.05] - final[0.00625]) ** 2)))
    e2 = math.sqrt(float(np.sum(weight * np.abs(final[0.025] - final[0.00625]) ** 2)))
    ratio = e1 / e2
    return CheckResult("rk4-order", 12.0 <= ratio <= 20.0,
                       f"error ratio {ratio:.2f} (errors {e1:.2e} / {e2:.2e})")


def check_stability_witness() -> CheckResult:
    """Perturbed hexagonal eigenstate, epsilons 1e-3 and 1e-2 by seeds 1 to 5
    at 128^2 up to t = 20: orbit distance stays within 10x its initial value
    and the projected phase invariant moves < 0.1 rad."""
    basis = lat.preset_basis("hexagonal")
    info = lat.classify_eigenspace(basis)
    grid = sp.Grid(basis, 128, 128)
    ref = co.EigenstateCoeffs(info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    cfg = euler.SolverConfig(grid, dt=1e-2, t_end=20.0, diag_stride=50)
    jobs = euler.stability_ensemble(ref, (1e-3, 1e-2), (1, 2, 3, 4, 5), 2.0, cfg)
    worst_amp, worst_theta = 0.0, 0.0
    for diag in jobs:
        dist, theta = diag["orbit_dist"], diag["theta"]
        amp = float(np.max(dist)) / dist[0]
        dth = np.abs((theta - theta[0] + math.pi) % (2 * math.pi) - math.pi)
        worst_amp = max(worst_amp, amp)
        worst_theta = max(worst_theta, float(np.max(dth)))
    ok = worst_amp <= 10.0 and worst_theta <= 0.1
    return CheckResult("stability-witness", ok,
                       f"max D(t)/D(0) = {worst_amp:.2f}, max |theta drift| = {worst_theta:.3f} rad")


FAST_CHECKS: list[Callable[[], CheckResult]] = [
    check_golden_lattice_presets,
    check_dual_basis_identities,
    check_shortest_vector_geometry,
    check_lattice_invariance,
    check_spectral_transforms,
    check_energy_enstrophy_gap,
    check_poincare,
    check_moment_certification,
    check_cubic_roundtrip,
    check_census_factored_cubic,
    check_census_bounds,
    check_orbit_equivalence,
    check_orbit_distance,
    check_time_reversal,
    check_rhs_forms,
]

FULL_CHECKS: list[Callable[[], CheckResult]] = [
    check_solver_steadiness,
    check_conservation,
    check_rk4_order,
    check_stability_witness,
]


def run_battery(full: bool = False) -> bool:
    """Run the fast checks (and with ``full`` the slow ones too), print one
    line per check with its verdict, detail and wall time, and return whether
    every check passed."""
    checks = FAST_CHECKS + (FULL_CHECKS if full else [])
    all_ok = True
    for fn in checks:
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        all_ok &= result.ok
        print(f"[{'PASS' if result.ok else 'FAIL'}] {result.name}: {result.detail} "
              f"({seconds:.2f} s)")
    return all_ok
