"""Coefficient records of first-eigenspace states and their translation orbits.

A state is w(x) = sum_i A_i cos(2 pi k_i . x + alpha_i) over one wavevector
per antipodal pair of shortest dual vectors.  Translating the torus only
shifts the phases, so orbit membership reduces to amplitude equality plus,
in the six-dimensional case, one scalar phase invariant.  Everything here is
scalar Python, so that a census and the ``census`` command load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MixedEigenspace
from .lattice import EigenspaceInfo
from .manifest import record_values

__all__ = [
    "EigenstateCoeffs",
    "OrbitInvariant",
    "circ_dist",
    "orbit_invariant",
    "same_orbit",
    "format_coeffs",
    "parse_coeffs",
]

DEFAULT_ORBIT_TOL = 1e-8

_TWO_PI = 2.0 * math.pi


def _wrap(x: float, period: float) -> float:
    """x modulo period, in [0, period).  ``%`` alone returns the period itself
    for an x within half an ulp below 0; that one case reads as 0."""
    r = float(x) % period
    return 0.0 if r == period else r


def _wrap_phase(a: float) -> float:
    return _wrap(a, _TWO_PI)


def circ_dist(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs((a - b + math.pi) % _TWO_PI - math.pi)


@dataclass(frozen=True)
class EigenstateCoeffs:
    """Amplitudes A_i >= 0 and phases alpha_i in [0, 2 pi), one pair per mode.

    The constructor stores an amplitude of -0.0 as 0.0, and reduces every
    phase by ``_wrap``: a phase of 2 pi, or one within half an ulp below 0,
    is stored as 0.0."""

    info: EigenspaceInfo
    amps: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        if len(self.amps) != self.info.npairs or len(self.phases) != self.info.npairs:
            raise ValueError(
                f"expected {self.info.npairs} amplitude/phase pairs, "
                f"got {len(self.amps)}/{len(self.phases)}"
            )
        amps = tuple(float(a) + 0.0 for a in self.amps)  # -0.0 + 0.0 is 0.0
        if any(a < 0 or not math.isfinite(a) for a in amps):
            raise ValueError(f"amplitudes must be finite and nonnegative: {amps}")
        if not all(map(math.isfinite, self.phases)):
            raise ValueError(f"phases must be finite: {self.phases}")
        phases = tuple(_wrap_phase(p) if a > 0 else 0.0 for a, p in zip(amps, self.phases))
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def _trusted(cls, info: EigenspaceInfo, amps: tuple[float, ...],
                 phases: tuple[float, ...]) -> "EigenstateCoeffs":
        """A state from values that already meet the constructor's rules:
        npairs float amplitudes, finite and nonnegative, and phases wrapped
        into [0, 2 pi), 0.0 wherever the amplitude is 0.  Nothing is checked."""
        c = object.__new__(cls)
        object.__setattr__(c, "info", info)
        object.__setattr__(c, "amps", amps)
        object.__setattr__(c, "phases", phases)
        return c


@dataclass(frozen=True)
class OrbitInvariant:
    """Complete translation-orbit label: amplitudes, plus for the 6D case the
    complex invariant A1 A2 A3 exp(i (alpha1 + alpha2 - alpha3))."""

    amps: tuple[float, ...]
    phase: complex | None


def _check_same_space(c: EigenstateCoeffs, other: EigenstateCoeffs):
    if not c.info.compatible(other.info):
        raise MixedEigenspace("coefficient tuples live on different tori")


def _theta(c: EigenstateCoeffs) -> float:
    """The 6D phase invariant alpha1 + alpha2 - alpha3, not wrapped."""
    return c.phases[0] + c.phases[1] - c.phases[2]


def orbit_invariant(c: EigenstateCoeffs) -> OrbitInvariant:
    if c.info.dim != 6:
        return OrbitInvariant(c.amps, None)
    prod = c.amps[0] * c.amps[1] * c.amps[2]
    theta = _theta(c)
    return OrbitInvariant(c.amps, prod * complex(math.cos(theta), math.sin(theta)))


def same_orbit(c: EigenstateCoeffs, other: EigenstateCoeffs) -> bool:
    """Whether two states are translates of each other.

    Ordered amplitudes must agree; for dim 6 the phase combination
    alpha1 + alpha2 - alpha3 must also agree (circularly) whenever all
    three amplitudes are active; each comparison is to ``DEFAULT_ORBIT_TOL``.
    """
    tol = DEFAULT_ORBIT_TOL
    _check_same_space(c, other)
    if any(abs(a - b) > tol for a, b in zip(c.amps, other.amps)):
        return False
    if c.info.dim == 6:
        prod_a = c.amps[0] * c.amps[1] * c.amps[2]
        prod_b = other.amps[0] * other.amps[1] * other.amps[2]
        if prod_a > tol and prod_b > tol:
            return circ_dist(_wrap_phase(_theta(c)), _wrap_phase(_theta(other))) <= tol
    return True


def format_coeffs(c: EigenstateCoeffs) -> str:
    """One-line record: dim followed by amplitude/phase pairs."""
    parts = [str(c.info.dim)]
    for a, al in zip(c.amps, c.phases):
        parts.append(repr(float(a)))
        parts.append(repr(float(al)))
    return " ".join(parts)


def parse_coeffs(record: str | tuple[float, ...], info: EigenspaceInfo) -> EigenstateCoeffs:
    """The one reader of coefficient records (``census --coeffs``, ``stability
    --coeffs``, a manifest's ``reference``), as text or ``record_values``: the
    full record (leading dim) or just the pairs, whose count EigenstateCoeffs checks."""
    values = record_values(record) if isinstance(record, str) else record
    if len(values) % 2 == 1:
        dim, values = values[0], values[1:]
        if dim != info.dim:
            raise ValueError(f"record is for dim {dim}, eigenspace has dim {info.dim}")
    return EigenstateCoeffs(info, tuple(values[0::2]), tuple(values[1::2]))
