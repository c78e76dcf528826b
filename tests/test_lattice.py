import dataclasses
import functools
import math
import pickle
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_euler import (
    DegenerateBasis,
    LatticeBasis,
    classify_eigenspace,
    dual_basis,
    gram_dual,
    preset_basis,
    shortest_vectors,
)
from torus_euler.errors import InternalInvariant
from torus_euler.lattice import (
    SHELL_TIE_RTOL,
    EigenspaceInfo,
    _lagrange_gauss,
    _shell,
    unit_scaled,
)
from torus_euler.verify import _transformed

TAU = 2.0 * math.pi


def test_dual_basis_square():
    db = dual_basis(preset_basis("square"))
    assert np.allclose(db.xi_star, (1 / TAU, 0.0), atol=1e-15)
    assert np.allclose(db.eta_star, (0.0, 1 / TAU), atol=1e-15)


def test_dual_basis_hexagonal():
    db = dual_basis(preset_basis("hexagonal"))
    assert np.allclose(db.xi_star, (1 / TAU, -1 / (TAU * math.sqrt(3))), atol=1e-15)
    assert np.allclose(db.eta_star, (0.0, 2 / (TAU * math.sqrt(3))), atol=1e-15)


def test_dual_basis_identity_lattice():
    db = dual_basis(LatticeBasis((1.0, 0.0), (0.0, 1.0)))
    assert np.allclose(db.matrix, np.eye(2), atol=1e-15)


def test_dual_basis_biorthogonality():
    b = LatticeBasis((1.3, -0.4), (0.2, 2.2))
    prod = dual_basis(b).matrix @ b.matrix.T
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_gram_dual_square_and_identity():
    g = gram_dual(preset_basis("square"))
    assert np.allclose(g, np.eye(2) / (4 * math.pi**2), atol=1e-15)
    assert np.allclose(gram_dual(LatticeBasis((1, 0), (0, 1))), np.eye(2), atol=1e-15)


def test_gram_dual_hexagonal():
    g = gram_dual(preset_basis("hexagonal"))
    want = np.array([[1 / (3 * math.pi**2), -1 / (6 * math.pi**2)],
                     [-1 / (6 * math.pi**2), 1 / (3 * math.pi**2)]])
    assert np.max(np.abs(g - want)) < 1e-15


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasis):
        LatticeBasis((1.0, 2.0), (2.0, 4.0))
    with pytest.raises(DegenerateBasis):
        LatticeBasis((0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_component_is_refused(i, bad):
    comps = [1.0, 0.0, 0.0, 1.0]
    comps[i] = bad
    with pytest.raises(DegenerateBasis, match="^zero or non-finite generator$"):
        LatticeBasis(tuple(comps[:2]), tuple(comps[2:]))


def test_a_nan_rectangular_height_is_refused():
    with pytest.raises(DegenerateBasis, match="^zero or non-finite generator$"):
        preset_basis("rectangular:nan")


@pytest.mark.parametrize("h", [1.0, 3.0, 6.2])
def test_shortest_vectors_rectangular(h):
    sv = shortest_vectors(LatticeBasis((TAU, 0.0), (0.0, h)))
    assert sv.size == 2
    assert abs(sv.rho - 1 / TAU) < 1e-12
    assert set(sv.coords) == {(1, 0), (-1, 0)}


def test_shortest_vectors_square():
    sv = shortest_vectors(preset_basis("square"))
    assert sv.size == 4
    assert set(sv.coords) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_shortest_vectors_hexagonal():
    sv = shortest_vectors(preset_basis("hexagonal"))
    assert sv.size == 6
    assert abs(sv.rho - 1 / (math.sqrt(3) * math.pi)) < 1e-12
    assert set(sv.coords) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


def test_shortest_vectors_skewed_basis():
    # heavily sheared generators describe the same lattice as the square torus
    b = LatticeBasis((TAU, 0.0), (7 * TAU, TAU))
    sv = shortest_vectors(b)
    assert sv.size == 4
    assert abs(sv.rho - 1 / TAU) < 1e-10


@pytest.mark.parametrize("name,dim,lam1", [
    ("square", 4, 1.0),
    ("hexagonal", 6, 4.0 / 3.0),
    ("rectangular:3.141592653589793", 2, 1.0),
])
def test_classify_eigenspace_presets(name, dim, lam1):
    info = classify_eigenspace(preset_basis(name))
    assert info.dim == dim
    assert abs(info.lambda1 - lam1) < 1e-10


def test_classify_hexagonal_sum_relation():
    info = classify_eigenspace(preset_basis("hexagonal"))
    k1, k2, k3 = info.k_coords
    assert (k1[0] + k2[0], k1[1] + k2[1]) == k3
    lens = [math.hypot(*k) for k in info.k]
    assert max(lens) - min(lens) < 1e-10 * lens[0]


def test_representative_canonical_sign():
    rho, _, reps = _shell(dual_basis(preset_basis("hexagonal")))
    assert len(reps) == 3
    for _, v in reps:
        assert v[0] > 1e-12 * rho or (abs(v[0]) <= 1e-12 * rho and v[1] > 0)


def test_shell_gap():
    # everything enumerated but excluded from the shell is strictly longer
    b = LatticeBasis((TAU, 0.0), (0.9, 5.1))
    sv = shortest_vectors(b)
    db = dual_basis(b).matrix
    span = np.arange(-3, 4)
    mm, nn = np.meshgrid(span, span, indexing="ij")
    coords = np.column_stack([mm.ravel(), nn.ravel()])
    coords = coords[np.any(coords != 0, axis=1)]
    norms = np.hypot(*(coords @ db).T)
    in_shell = set(sv.coords)
    for c, n in zip(coords, norms):
        if tuple(c) not in in_shell:
            assert n >= sv.rho * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(-3, 3), x2=st.floats(-3, 3),
    e1=st.floats(-3, 3), e2=st.floats(-3, 3),
)
# tiny generators whose unscaled determinant underflows to zero
@example(x1=5.648e-289, x2=0.0, e1=0.0, e2=5.648e-289)
# subnormal generators whose dual vectors exceed the float range
@example(x1=2.225073858507203e-309, x2=0.0, e1=0.0, e2=2.225073858507203e-309)
def test_dual_identities_hypothesis(x1, x2, e1, e2):
    (s1, s2), (f1, f2), _ = unit_scaled((x1, x2), (e1, e2))
    det = s1 * f2 - s2 * f1
    scale = max(math.hypot(s1, s2), math.hypot(f1, f2))
    if scale == 0 or abs(det) < 1e-6 * scale * scale:
        return
    # exact dual components are the generator components over the determinant
    exact_det = Fraction(x1) * Fraction(e2) - Fraction(x2) * Fraction(e1)
    if max(abs(Fraction(v)) for v in (x1, x2, e1, e2)) / abs(exact_det) > sys.float_info.max:
        with pytest.raises(DegenerateBasis):
            LatticeBasis((x1, x2), (e1, e2))
        return
    b = LatticeBasis((x1, x2), (e1, e2))
    m = np.array([[x1, x2], [e1, e2]])
    cond = np.linalg.cond(m)
    if cond > 50:
        return
    prod = dual_basis(b).matrix @ b.matrix.T
    assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_double_dual_returns_original():
    b = LatticeBasis((1.7, 0.3), (-0.5, 2.1))
    db = dual_basis(b)
    dd = dual_basis(LatticeBasis(db.xi_star, db.eta_star))
    assert np.max(np.abs(dd.matrix - b.matrix)) < 1e-12


def test_angle_bound_on_random_lattices(rng):
    for _ in range(80):
        m = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(m)) < 0.05 or np.linalg.cond(m) > 50:
            continue
        sv = shortest_vectors(LatticeBasis(tuple(m[0]), tuple(m[1])))
        v = np.array(sv.vectors)
        for i in range(sv.size):
            for j in range(i + 1, sv.size):
                if np.max(np.abs(v[i] + v[j])) < 1e-12 * sv.rho:
                    continue
                cosang = float(v[i] @ v[j]) / sv.rho**2
                assert math.acos(min(max(cosang, -1), 1)) >= math.pi / 3 - 1e-9


def test_preset_errors():
    with pytest.raises(ValueError):
        preset_basis("rectangular:-1")
    with pytest.raises(ValueError):
        preset_basis("rectangular:abc")
    with pytest.raises(ValueError):
        preset_basis("triangular")


# ---------------------------------------------------------------------------
# numpy oracle: the array implementation that the scalar classification
# replaced, kept to pin it


def _np_lagrange_gauss(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = b.astype(float).copy()
    u = np.eye(2, dtype=np.int64)
    for _ in range(256):
        if b[0] @ b[0] > b[1] @ b[1]:
            b = b[::-1].copy()
            u = u[::-1].copy()
        mu = round((b[0] @ b[1]) / (b[0] @ b[0]))
        if mu == 0:
            return b, u
        new = b[1] - mu * b[0]
        if new @ new >= b[1] @ b[1]:
            return b, u
        b[1] = new
        u[1] -= mu * u[0]
    raise InternalInvariant("lattice reduction did not terminate")


class _NpShell(NamedTuple):
    rho: float
    vectors: np.ndarray          # (size, 2) float
    coords: np.ndarray           # (size, 2) int
    representatives: np.ndarray  # (size//2, 2) float
    rep_coords: np.ndarray       # (size//2, 2) int


def _np_shortest_vectors(basis: LatticeBasis) -> _NpShell:
    reduced, u = _np_lagrange_gauss(dual_basis(basis).matrix)
    span = np.arange(-2, 3)
    mm, nn = np.meshgrid(span, span, indexing="ij")
    coeffs = np.column_stack([mm.ravel(), nn.ravel()])
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    vecs = coeffs @ reduced
    norms = np.hypot(vecs[:, 0], vecs[:, 1])
    rho = float(norms.min())
    keep = norms <= rho * (1.0 + SHELL_TIE_RTOL)
    vecs = vecs[keep]
    coords = (coeffs[keep] @ u).astype(np.int64)
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    vecs, coords = vecs[order], coords[order]
    assert vecs.shape[0] in (2, 4, 6)
    sign_tol = 1e-12 * rho
    rep_mask = (vecs[:, 0] > sign_tol) | (
        (np.abs(vecs[:, 0]) <= sign_tol) & (vecs[:, 1] > 0)
    )
    reps, rep_coords = vecs[rep_mask], coords[rep_mask]
    assert reps.shape[0] == vecs.shape[0] // 2
    order = np.lexsort((rep_coords[:, 1], rep_coords[:, 0]))
    return _NpShell(rho, vecs, coords, reps[order], rep_coords[order])


def _np_classify_eigenspace(basis: LatticeBasis) -> EigenspaceInfo:
    sv = _np_shortest_vectors(basis)
    lam1 = 4.0 * math.pi**2 * sv.rho**2
    if len(sv.vectors) < 6:
        k = tuple(tuple(v) for v in sv.representatives)
        kc = tuple((int(c[0]), int(c[1])) for c in sv.rep_coords)
        return EigenspaceInfo(basis, lam1, len(sv.vectors), k, kc)
    full = {tuple(int(x) for x in c) for c in sv.coords}
    reps = [tuple(int(x) for x in c) for c in sv.rep_coords]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    k1 = (si * reps[i][0], si * reps[i][1])
                    k2 = (sj * reps[j][0], sj * reps[j][1])
                    k3 = (k1[0] + k2[0], k1[1] + k2[1])
                    if k3 in full:
                        db = dual_basis(basis).matrix
                        kvecs = tuple(tuple(np.array(c, dtype=float) @ db)
                                      for c in (k1, k2, k3))
                        return EigenspaceInfo(basis, lam1, 6, kvecs, (k1, k2, k3))
    raise InternalInvariant("no ordering of the hexagonal shell satisfies k3 = k1 + k2")


def _bits(x) -> list[str]:
    return [float(v).hex() for v in np.ravel(x)]


@pytest.mark.parametrize("name", [
    "square", "hexagonal", "rectangular:1.0", "rectangular:3.0", "rectangular:6.2",
    "rectangular:3.141592653589793",
])
def test_classification_matches_numpy_oracle_bitwise_on_presets(name):
    b = preset_basis(name)
    got, want = classify_eigenspace(b), _np_classify_eigenspace(b)
    assert (got.dim, got.k_coords) == (want.dim, want.k_coords)
    assert _bits(got.lambda1) + _bits(got.k) == _bits(want.lambda1) + _bits(want.k)
    sv, ref = shortest_vectors(b), _np_shortest_vectors(b)
    assert _bits(sv.rho) == _bits(ref.rho)
    assert _tree_bits(sv.vectors) == _tree_bits(tuple(map(tuple, ref.vectors.tolist())))
    assert _tree_bits(sv.coords) == _tree_bits(tuple(map(tuple, ref.coords.tolist())))


def _near_tie(rng, name: str) -> LatticeBasis:
    """The preset with its second generator stretched by 1 + t, t within a
    factor 2 of the shell tie tolerance on either side of it: a shell on the
    edge of splitting for the square and the hexagon."""
    b = preset_basis(name)
    t = SHELL_TIE_RTOL * rng.choice([rng.uniform(0.5, 0.9), rng.uniform(1.1, 2.0)])
    return LatticeBasis(b.xi, (b.eta[0] * (1.0 + t), b.eta[1] * (1.0 + t)))


_SWEEP = [("rectangular:4.0", 2), ("square", 4), ("hexagonal", 6)]


@functools.lru_cache(maxsize=None)
def _sweep_generators(name: str, dim: int) -> tuple:
    """The generator pairs of ``_sweep_bases``, drawn once per preset."""
    rng = np.random.default_rng(2024 + dim)
    bases = [_transformed(rng, preset_basis(name))[0] for _ in range(2000)]
    bases += [_transformed(rng, _near_tie(rng, name))[0] for _ in range(500)]
    return tuple((b.xi, b.eta) for b in bases)


def _sweep_bases(name: str, dim: int) -> list[LatticeBasis]:
    """2000 transformed presets (unimodular entries up to 6, rotation, scale
    2**[-500, 500]) and 500 transformed near-ties per preset, as fresh
    bases, so that no test sees a dual that another one formed."""
    return [LatticeBasis(xi, eta) for xi, eta in _sweep_generators(name, dim)]


@pytest.mark.parametrize("name,dim", _SWEEP)
def test_classification_matches_numpy_oracle(name, dim):
    """The sweep of ``_sweep_bases``.

    A wavevector k = m xi* + n eta* is a sum whose terms can be much longer
    than k on a skewed basis, and the oracle's differs from it by rounding
    in those terms, so k is held to 4e-15 of |m| |xi*| + |n| |eta*| (which
    is 1 or 2 rho on the presets themselves).
    """
    bases = _sweep_bases(name, dim)
    worst = 0.0
    dims = set()
    for b in bases:
        sv, ref = shortest_vectors(b), _np_shortest_vectors(b)
        got, want = classify_eigenspace(b), _np_classify_eigenspace(b)
        assert np.array_equal(sv.coords, ref.coords)
        assert np.array_equal([c for c, _ in _shell(dual_basis(b))[2]], ref.rep_coords)
        assert (got.dim, got.k_coords) == (want.dim, want.k_coords)
        dims.add(got.dim)
        db = dual_basis(b)
        lx, le = math.hypot(*db.xi_star), math.hypot(*db.eta_star)
        worst = max(
            worst,
            abs(sv.rho - ref.rho) / ref.rho,
            abs(got.lambda1 - want.lambda1) / want.lambda1,
            *(max(abs(p - q) for p, q in zip(kg, kw)) / (abs(m) * lx + abs(n) * le)
              for (m, n), kg, kw in zip(got.k_coords, got.k, want.k)),
        )
    assert dim in dims
    assert worst <= 4e-15


# ---------------------------------------------------------------------------
# oracles for the work done once per basis and the half-window shell


def _closed_form_dual(b: LatticeBasis) -> tuple:
    xi, eta, e = unit_scaled(b.xi, b.eta)
    d = xi[0] * eta[1] - xi[1] * eta[0]
    return ((math.ldexp(eta[1] / d, -e), math.ldexp(-eta[0] / d, -e)),
            (math.ldexp(-xi[1] / d, -e), math.ldexp(xi[0] / d, -e)))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _lagrange_gauss_oracle(b0, b1):
    """``_lagrange_gauss`` as it was before it carried the squared norms."""
    u0, u1 = (1, 0), (0, 1)
    for _ in range(256):
        if _dot(b0, b0) > _dot(b1, b1):
            b0, b1, u0, u1 = b1, b0, u1, u0
        mu = round(_dot(b0, b1) / _dot(b0, b0))
        if mu == 0:
            return (b0, b1), (u0, u1)
        new = (b1[0] - mu * b0[0], b1[1] - mu * b0[1])
        if _dot(new, new) >= _dot(b1, b1):
            return (b0, b1), (u0, u1)
        b1 = new
        u1 = (u1[0] - mu * u0[0], u1[1] - mu * u0[1])
    raise InternalInvariant("lattice reduction did not terminate")


def _full_window_shell(db):
    """``_shell`` on all 24 points of the [-2, 2]^2 window, after the reduction
    oracle: the 4-point half window is exact by the sqrt(3) bound in ``_shell``."""
    (r0, r1), (u0, u1) = _lagrange_gauss_oracle(db.xi_star, db.eta_star)
    window = []
    for m in range(-2, 3):
        for n in range(-2, 3):
            if m or n:
                v = (m * r0[0] + n * r1[0], m * r0[1] + n * r1[1])
                c = (m * u0[0] + n * u1[0], m * u0[1] + n * u1[1])
                window.append((math.hypot(*v), c, v))
    rho = min(w[0] for w in window)
    shell = sorted((c, v) for h, c, v in window if h <= rho * (1.0 + SHELL_TIE_RTOL))
    sign_tol = 1e-12 * rho
    reps = [(c, v) for c, v in shell
            if v[0] > sign_tol or (abs(v[0]) <= sign_tol and v[1] > 0)]
    return rho, shell, reps


def _tree_bits(x):
    """Floats as hex, so 0.0 and -0.0 differ; ints and containers as they are."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_tree_bits(y) for y in x]
    return x


@pytest.mark.parametrize("name,dim", _SWEEP)
def test_half_window_shell_matches_full_window(name, dim):
    for b in [preset_basis(name)] + _sweep_bases(name, dim):
        db = dual_basis(b)
        assert _tree_bits(_shell(db)) == _tree_bits(_full_window_shell(db))


@pytest.mark.parametrize("name,dim", _SWEEP)
def test_reduction_matches_its_oracle_bit_for_bit(name, dim):
    for b in [preset_basis(name)] + _sweep_bases(name, dim):
        db = dual_basis(b)
        assert (_tree_bits(_lagrange_gauss(db.xi_star, db.eta_star))
                == _tree_bits(_lagrange_gauss_oracle(db.xi_star, db.eta_star)))


@pytest.mark.parametrize("name,dim", _SWEEP)
def test_dual_basis_is_the_closed_form_and_survives_copies(name, dim):
    for b in _sweep_bases(name, dim)[::10] + [preset_basis(name)]:
        want = _tree_bits(_closed_form_dual(b))
        db = dual_basis(b)
        assert _tree_bits((db.xi_star, db.eta_star)) == want
        back = pickle.loads(pickle.dumps(b))
        assert back == b and hash(back) == hash(b)
        assert _tree_bits(dataclasses.astuple(dual_basis(back))) == want
        moved = dataclasses.replace(b, eta=(b.eta[0] + b.xi[0], b.eta[1] + b.xi[1]))
        got = dual_basis(moved)
        assert _tree_bits(dataclasses.astuple(got)) == _tree_bits(_closed_form_dual(moved))
    # the dual is kept outside the dataclass fields
    b = preset_basis(name)
    assert [f.name for f in dataclasses.fields(b)] == ["xi", "eta"]
    assert repr(b) == f"LatticeBasis(xi={b.xi!r}, eta={b.eta!r})"
    assert b == LatticeBasis(list(b.xi), list(b.eta))
