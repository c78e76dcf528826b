import math
import sys
from fractions import Fraction

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
from torus_euler.lattice import unit_scaled

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


@pytest.mark.parametrize("h", [1.0, 3.0, 6.2])
def test_shortest_vectors_rectangular(h):
    sv = shortest_vectors(LatticeBasis((TAU, 0.0), (0.0, h)))
    assert sv.size == 2
    assert abs(sv.rho - 1 / TAU) < 1e-12
    assert {tuple(c) for c in sv.coords.tolist()} == {(1, 0), (-1, 0)}


def test_shortest_vectors_square():
    sv = shortest_vectors(preset_basis("square"))
    assert sv.size == 4
    assert {tuple(c) for c in sv.coords.tolist()} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_shortest_vectors_hexagonal():
    sv = shortest_vectors(preset_basis("hexagonal"))
    assert sv.size == 6
    assert abs(sv.rho - 1 / (math.sqrt(3) * math.pi)) < 1e-12
    got = {tuple(c) for c in sv.coords.tolist()}
    assert got == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}


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
    sv = shortest_vectors(preset_basis("hexagonal"))
    for v in sv.representatives:
        assert v[0] > 1e-12 * sv.rho or (abs(v[0]) <= 1e-12 * sv.rho and v[1] > 0)


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
    in_shell = {tuple(c) for c in sv.coords.tolist()}
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
    dd = dual_basis(dual_basis(b).to_lattice_basis())
    assert np.max(np.abs(dd.matrix - b.matrix)) < 1e-12


def test_angle_bound_on_random_lattices(rng):
    for _ in range(80):
        m = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(m)) < 0.05 or np.linalg.cond(m) > 50:
            continue
        sv = shortest_vectors(LatticeBasis(tuple(m[0]), tuple(m[1])))
        v = sv.vectors
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
