"""Lattice and dual-lattice arithmetic for flat 2-tori.

A torus is the plane modulo the lattice spanned by two generators
``xi`` and ``eta``.  Everything downstream (Fourier modes, Laplacian
eigenvalues, the first eigenspace) is driven by the dual lattice, so this
module provides the dual basis, the Gram form of the dual, the set of
shortest nonzero dual vectors, and the resulting first-eigenspace data.
Only the helpers that return arrays (the ``matrix`` properties, ``gram_dual``
and ``shortest_vectors``) load numpy; classifying an eigenspace needs none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        d = _det(xs, es)
        if abs(d) < 1e-12 * unit * unit:
            raise DegenerateBasis(
                f"generators are numerically dependent (det={self.det:.3e})"
            )
        # xi* = (eta2, -eta1)/det, eta* = (-xi2, xi1)/det from the unit-scaled
        # generators, whose determinant cannot underflow, scaled back by 2**-e.
        # Kept as a plain attribute, outside eq, hash and repr.
        try:
            dual = DualBasis((math.ldexp(es[1] / d, -e), math.ldexp(-es[0] / d, -e)),
                             (math.ldexp(-xs[1] / d, -e), math.ldexp(xs[0] / d, -e)))
        except OverflowError:
            raise DegenerateBasis(
                "generators are so short that the dual lattice exceeds the float range"
            ) from None
        object.__setattr__(self, "_dual", dual)

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
        import numpy as np

        return np.array([self.xi, self.eta], dtype=float)


@dataclass(frozen=True)
class DualBasis:
    """Dual generators; row i has unit inner product with primal row i."""

    xi_star: tuple[float, float]
    eta_star: tuple[float, float]

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([self.xi_star, self.eta_star], dtype=float)


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

    def compatible(self, other: "EigenspaceInfo") -> bool:
        """Whether two infos describe the eigenspace of the same torus: the
        one same-torus rule, equal generators, float for float."""
        return self is other or self.basis == other.basis


def dual_basis(basis: LatticeBasis) -> DualBasis:
    """Dual generators: xi* = (eta2, -eta1)/det, eta* = (-xi2, xi1)/det.

    Formed once, when the basis is constructed.
    """
    return basis._dual


def gram_dual(basis: LatticeBasis) -> np.ndarray:
    """Gram matrix G* of the dual basis; |m xi* + n eta*|^2 = (m,n) G* (m,n)^T."""
    db = dual_basis(basis).matrix
    return db @ db.T


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _lagrange_gauss(b0, b1):
    """Reduce a 2D basis (b0, b1) so |b0| <= |b1| and |b0.b1| <= |b0|^2/2.

    Returns the reduced pair and the unimodular integer rows (u0, u1) with
    reduced = (u0 . (b0, b1), u1 . (b0, b1)).  Terminates because each
    shear strictly shrinks b1.
    """
    u0, u1 = (1, 0), (0, 1)
    for _ in range(256):
        if _dot(b0, b0) > _dot(b1, b1):
            b0, b1, u0, u1 = b1, b0, u1, u0
        mu = round(_dot(b0, b1) / _dot(b0, b0))
        if mu == 0:
            return (b0, b1), (u0, u1)
        new = (b1[0] - mu * b0[0], b1[1] - mu * b0[1])
        if _dot(new, new) >= _dot(b1, b1):
            # rounding tie (e.g. an exactly hexagonal dual); basis is already
            # reduced up to ulps, which the enumeration window absorbs
            return (b0, b1), (u0, u1)
        b1 = new
        u1 = (u1[0] - mu * u0[0], u1[1] - mu * u0[1])
    raise InternalInvariant("lattice reduction did not terminate")


# One of each antipodal pair of nonzero coefficient pairs in [-2, 2]^2.
_HALF_WINDOW = tuple((m, n) for m in range(3) for n in range(-2, 3) if m > 0 or n > 0)


def _shell(db: DualBasis):
    """rho and the shortest dual vectors as (coords, vector) pairs sorted by
    integer coordinates in the (xi*, eta*) basis, plus the canonically signed
    representatives, one per antipodal pair, in the same order.

    The dual basis is Lagrange-Gauss reduced first, after which every
    shortest vector has coefficients in [-2, 2]^2 with respect to the
    reduced pair; enumerating that window is exact regardless of how
    skewed the user-supplied basis is.  Lengths are taken on one half of
    the window; each shell member's antipode is recomputed from (-m, -n)
    rather than negated, so a component that cancels to 0.0 stays 0.0.
    """
    (r0, r1), (u0, u1) = _lagrange_gauss(db.xi_star, db.eta_star)

    def point(m, n):
        return ((m * u0[0] + n * u1[0], m * u0[1] + n * u1[1]),
                (m * r0[0] + n * r1[0], m * r0[1] + n * r1[1]))

    half = [(math.hypot(m * r0[0] + n * r1[0], m * r0[1] + n * r1[1]), m, n)
            for m, n in _HALF_WINDOW]
    rho = min(h for h, _, _ in half)
    cut = rho * (1.0 + SHELL_TIE_RTOL)
    shell = sorted(point(s * m, s * n) for h, m, n in half if h <= cut for s in (1, -1))
    if len(shell) not in (2, 4, 6):
        raise InternalInvariant(f"shortest shell has size {len(shell)}, expected 2, 4 or 6")

    sign_tol = 1e-12 * rho
    reps = [(c, v) for c, v in shell
            if v[0] > sign_tol or (abs(v[0]) <= sign_tol and v[1] > 0)]
    if len(reps) != len(shell) // 2:
        raise InternalInvariant("shortest shell is not closed under negation")
    return rho, shell, reps


def shortest_vectors(basis: LatticeBasis) -> ShortestVectorSet:
    """All dual vectors of minimal nonzero length, with integer coordinates."""
    import numpy as np

    rho, shell, reps = _shell(dual_basis(basis))
    return ShortestVectorSet(
        rho=rho,
        vectors=np.array([v for _, v in shell], dtype=float),
        coords=np.array([c for c, _ in shell], dtype=np.int64),
        representatives=np.array([v for _, v in reps], dtype=float),
        rep_coords=np.array([c for c, _ in reps], dtype=np.int64),
    )


def _hexagonal_order(shell, reps):
    """Signed representatives (k1, k2, k3) with k3 = k1 + k2 in coordinates.

    Six shortest vectors form a regular hexagon, so among signed pairs of
    representatives there is always one whose sum is again in the shell.
    """
    full = {c for c, _ in shell}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for si in (1, -1):
                for sj in (1, -1):
                    k1 = (si * reps[i][0][0], si * reps[i][0][1])
                    k2 = (sj * reps[j][0][0], sj * reps[j][0][1])
                    k3 = (k1[0] + k2[0], k1[1] + k2[1])
                    if k3 in full:
                        return k1, k2, k3
    raise InternalInvariant("no ordering of the hexagonal shell satisfies k3 = k1 + k2")


def classify_eigenspace(basis: LatticeBasis) -> EigenspaceInfo:
    """First eigenvalue 4 pi^2 rho^2 and an ordered mode basis for its eigenspace.

    Each wavevector is its integer coordinates times the dual basis.
    """
    db = dual_basis(basis)
    rho, shell, reps = _shell(db)
    kc = _hexagonal_order(shell, reps) if len(shell) == 6 else tuple(c for c, _ in reps)
    (x0, x1), (e0, e1) = db.xi_star, db.eta_star
    k = tuple((m * x0 + n * e0, m * x1 + n * e1) for m, n in kc)
    return EigenspaceInfo(basis, 4.0 * math.pi**2 * rho**2, len(shell), k, kc)


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
