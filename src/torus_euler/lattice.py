"""Lattice and dual-lattice arithmetic for flat 2-tori.

A torus is the plane modulo the lattice spanned by two generators
``xi`` and ``eta``.  Everything downstream (Fourier modes, Laplacian
eigenvalues, the first eigenspace) is driven by the dual lattice, so this
module provides the dual basis, the Gram form of the dual, the set of
shortest nonzero dual vectors, and the resulting first-eigenspace data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, InternalInvariant

__all__ = [
    "LatticeBasis",
    "DualBasis",
    "ShortestVectorSet",
    "EigenspaceInfo",
    "dual_basis",
    "unit_scaled",
    "gram_dual",
    "shortest_vectors",
    "classify_eigenspace",
    "preset_basis",
    "PRESET_NAMES",
]

# Relative tie tolerance for membership in the shortest-vector shell.
SHELL_TIE_RTOL = 1e-9


def unit_scaled(xi, eta) -> tuple[tuple[float, float], tuple[float, float], int]:
    """Generators divided by the power of two 2**e that brings their largest
    component into [0.5, 1), and e.

    The scaling is exact, so a determinant formed from the result neither
    underflows nor overflows, and dividing by it loses nothing.
    """
    _, e = math.frexp(max(abs(xi[0]), abs(xi[1]), abs(eta[0]), abs(eta[1])))
    return ((math.ldexp(xi[0], -e), math.ldexp(xi[1], -e)),
            (math.ldexp(eta[0], -e), math.ldexp(eta[1], -e)), e)


def _det(xi, eta) -> float:
    return xi[0] * eta[1] - xi[1] * eta[0]


@dataclass(frozen=True)
class LatticeBasis:
    """Two generators of a rank-2 lattice, stored as plain float pairs."""

    xi: tuple[float, float]
    eta: tuple[float, float]

    def __post_init__(self):
        xi = (float(self.xi[0]), float(self.xi[1]))
        eta = (float(self.eta[0]), float(self.eta[1]))
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        scale = max(math.hypot(*xi), math.hypot(*eta))
        if not math.isfinite(scale) or scale == 0.0:
            raise DegenerateBasis("zero or non-finite generator")
        xs, es, e = unit_scaled(xi, eta)
        unit = math.ldexp(scale, -e)
        if abs(_det(xs, es)) < 1e-12 * unit * unit:
            raise DegenerateBasis(
                f"generators are numerically dependent (det={self.det:.3e})"
            )
        try:
            dual_basis(self)
        except OverflowError:
            raise DegenerateBasis(
                "generators are so short that the dual lattice exceeds the float range"
            ) from None

    @property
    def det(self) -> float:
        return _det(self.xi, self.eta)

    @property
    def area(self) -> float:
        """Torus area |det|."""
        return abs(self.det)

    @property
    def matrix(self) -> np.ndarray:
        """Generators as rows of a 2x2 array."""
        return np.array([self.xi, self.eta], dtype=float)


@dataclass(frozen=True)
class DualBasis:
    """Dual generators; row i has unit inner product with primal row i."""

    xi_star: tuple[float, float]
    eta_star: tuple[float, float]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([self.xi_star, self.eta_star], dtype=float)

    def to_lattice_basis(self) -> LatticeBasis:
        """View the dual lattice as a primal lattice (for double-dual checks)."""
        return LatticeBasis(self.xi_star, self.eta_star)


@dataclass(frozen=True)
class ShortestVectorSet:
    """All dual-lattice vectors of minimal nonzero length.

    ``vectors`` is closed under negation.  ``coords`` gives the integer
    coordinates of each vector in the (xi*, eta*) basis.  ``representatives``
    keeps one canonically signed member per antipodal pair, sorted by
    coordinates.
    """

    rho: float
    vectors: np.ndarray          # (size, 2) float
    coords: np.ndarray           # (size, 2) int
    representatives: np.ndarray  # (size//2, 2) float
    rep_coords: np.ndarray       # (size//2, 2) int

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class EigenspaceInfo:
    """First Laplacian eigenvalue and a mode basis for its eigenspace.

    ``k`` holds dim/2 wavevectors, one per antipodal pair of shortest dual
    vectors.  In the six-dimensional case they are ordered and signed so
    that ``k[2] == k[0] + k[1]`` holds exactly in integer coordinates.
    """

    basis: LatticeBasis
    lambda1: float
    dim: int
    k: tuple[tuple[float, float], ...]
    k_coords: tuple[tuple[int, int], ...]

    @property
    def rho(self) -> float:
        return math.sqrt(self.lambda1) / (2.0 * math.pi)

    @property
    def npairs(self) -> int:
        return self.dim // 2

    def k_array(self) -> np.ndarray:
        return np.array(self.k, dtype=float)

    def compatible(self, other: "EigenspaceInfo", rtol: float = 1e-9) -> bool:
        """Whether two infos describe the same eigenspace of the same torus."""
        if self is other:
            return True
        if self.dim != other.dim or self.k_coords != other.k_coords:
            return False
        if abs(self.lambda1 - other.lambda1) > rtol * self.lambda1:
            return False
        dk = self.k_array() - other.k_array()
        return bool(np.max(np.abs(dk)) <= rtol * self.rho + 1e-300)


def dual_basis(basis: LatticeBasis) -> DualBasis:
    """Dual generators: xi* = (eta2, -eta1)/det, eta* = (-xi2, xi1)/det.

    Computed from the unit-scaled generators, whose determinant cannot
    underflow, then scaled back by the power of two.
    """
    xi, eta, e = unit_scaled(basis.xi, basis.eta)
    d = _det(xi, eta)
    xi_star = (math.ldexp(eta[1] / d, -e), math.ldexp(-eta[0] / d, -e))
    eta_star = (math.ldexp(-xi[1] / d, -e), math.ldexp(xi[0] / d, -e))
    return DualBasis(xi_star, eta_star)


def gram_dual(basis: LatticeBasis) -> np.ndarray:
    """Gram matrix G* of the dual basis; |m xi* + n eta*|^2 = (m,n) G* (m,n)^T."""
    db = dual_basis(basis).matrix
    return db @ db.T


def _lagrange_gauss(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a 2D basis (rows of b) so |b0| <= |b1| and |b0.b1| <= |b0|^2/2.

    Returns the reduced rows and the unimodular integer transform U with
    reduced = U @ b.  Terminates because each shear strictly shrinks b1.
    """
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
            # rounding tie (e.g. an exactly hexagonal dual); basis is already
            # reduced up to ulps, which the enumeration window absorbs
            return b, u
        b[1] = new
        u[1] -= mu * u[0]
    raise InternalInvariant("lattice reduction did not terminate")


def shortest_vectors(basis: LatticeBasis) -> ShortestVectorSet:
    """All dual vectors of minimal nonzero length, with integer coordinates.

    The dual basis is Lagrange-Gauss reduced first, after which every
    shortest vector has coefficients in [-2, 2]^2 with respect to the
    reduced rows; enumerating that window is exact regardless of how
    skewed the user-supplied basis is.
    """
    reduced, u = _lagrange_gauss(dual_basis(basis).matrix)
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
    if vecs.shape[0] not in (2, 4, 6):
        raise InternalInvariant(
            f"shortest shell has size {vecs.shape[0]}, expected 2, 4 or 6"
        )

    sign_tol = 1e-12 * rho
    rep_mask = (vecs[:, 0] > sign_tol) | (
        (np.abs(vecs[:, 0]) <= sign_tol) & (vecs[:, 1] > 0)
    )
    reps, rep_coords = vecs[rep_mask], coords[rep_mask]
    if reps.shape[0] != vecs.shape[0] // 2:
        raise InternalInvariant("shortest shell is not closed under negation")
    order = np.lexsort((rep_coords[:, 1], rep_coords[:, 0]))
    return ShortestVectorSet(
        rho=rho,
        vectors=vecs,
        coords=coords,
        representatives=reps[order],
        rep_coords=rep_coords[order],
    )


def classify_eigenspace(basis: LatticeBasis) -> EigenspaceInfo:
    """First eigenvalue 4 pi^2 rho^2 and an ordered mode basis for its eigenspace."""
    sv = shortest_vectors(basis)
    lam1 = 4.0 * math.pi**2 * sv.rho**2
    if sv.size < 6:
        k = tuple(tuple(v) for v in sv.representatives)
        kc = tuple((int(c[0]), int(c[1])) for c in sv.rep_coords)
        return EigenspaceInfo(basis, lam1, sv.size, k, kc)

    # Six shortest vectors form a regular hexagon, so among signed pairs of
    # representatives there is always one whose sum is again in the shell.
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
                        kvecs = tuple(
                            tuple(np.array(c, dtype=float) @ db)
                            for c in (k1, k2, k3)
                        )
                        return EigenspaceInfo(basis, lam1, 6, kvecs, (k1, k2, k3))
    raise InternalInvariant("no ordering of the hexagonal shell satisfies k3 = k1 + k2")


PRESET_NAMES = ("square", "hexagonal", "rectangular:<h>")


def preset_basis(name: str) -> LatticeBasis:
    """Named torus shapes: "square", "hexagonal", "rectangular:<h>"."""
    tau = 2.0 * math.pi
    if name == "square":
        return LatticeBasis((tau, 0.0), (0.0, tau))
    if name == "hexagonal":
        return LatticeBasis((tau, 0.0), (tau / 2.0, tau * math.sqrt(3.0) / 2.0))
    if name.startswith("rectangular:"):
        try:
            h = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad rectangular height in preset {name!r}") from None
        if h <= 0:
            raise ValueError(f"rectangular height must be positive, got {h}")
        return LatticeBasis((tau, 0.0), (0.0, h))
    raise ValueError(f"unknown lattice preset {name!r}; try one of {PRESET_NAMES}")
