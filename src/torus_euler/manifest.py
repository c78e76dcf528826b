"""Plain-text experiment manifests: flat key = value pairs in four sections.

Only ``simulate`` and ``stability`` read a manifest, and both run the
solver, so this module loads it (and numpy) at import time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .coeffs import EigenstateCoeffs, parse_coeffs, record_values
from .errors import ManifestError
from .euler import SolverConfig
from .lattice import LatticeBasis, classify_eigenspace, lattice_basis
from .spectral import Grid

__all__ = ["ExperimentManifest", "ManifestError"]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _pair(text: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2:
        raise ManifestError(f"a lattice generator is two numbers, got {text!r}")
    return vals


def _join(vals) -> str:
    return " ".join(map(str, vals))


# Every section and key a manifest may hold, each with its parser and its
# writer; anything else is a typo that would otherwise run silently on the
# defaults, which live in the dataclass alone.
_SCHEMA = {
    "lattice": {"preset": (str, str), "xi": (_pair, _join), "eta": (_pair, _join)},
    "grid": {"n1": (int, str), "n2": (int, str)},
    "solver": {"dt": (float, str), "t_end": (float, str), "diag_stride": (int, str),
               "snapshot_times": (_floats, _join)},
    "experiment": {"reference": (record_values, _join), "epsilons": (_floats, _join),
                   "seeds": (_ints, _join), "p_norm": (float, str), "output_dir": (str, str)},
}


def _check_names(cp: configparser.ConfigParser):
    if cp.defaults():
        raise ManifestError(f"unknown section [{cp.default_section}]")
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ManifestError(
                f"unknown section [{name}]; expected {', '.join(f'[{k}]' for k in _SCHEMA)}")
        unknown = [key for key in cp[name] if key not in _SCHEMA[name]]
        if unknown:
            raise ManifestError(
                f"unknown key {unknown[0]!r} in [{name}]; expected {', '.join(_SCHEMA[name])}")


@dataclass
class ExperimentManifest:
    """Everything needed to reproduce a run: lattice, grid, solver, experiment."""

    preset: str | None = None
    xi: tuple[float, float] | None = None
    eta: tuple[float, float] | None = None
    n1: int = 128
    n2: int = 128
    dt: float = 1e-2
    t_end: float = 20.0
    diag_stride: int = 10
    snapshot_times: tuple[float, ...] = ()
    reference: tuple[float, ...] = ()   # a coefficient record, as record_values reads it
    epsilons: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    p_norm: float = 2.0
    output_dir: str = "out"

    def __post_init__(self):
        self.basis()  # the lattice rule
        if not 1.0 <= self.p_norm < math.inf:
            raise ManifestError(f"p_norm must be finite and >= 1, got {self.p_norm}")
        if not all(0.0 <= eps < math.inf for eps in self.epsilons):
            raise ManifestError(f"epsilons must be finite and >= 0, got {self.epsilons}")
        if not all(seed >= 0 for seed in self.seeds):
            raise ManifestError(f"seeds must be >= 0, got {self.seeds}")

    # -- lattice / solver objects -------------------------------------------

    def basis(self) -> LatticeBasis:
        return lattice_basis(self.preset, self.xi, self.eta)

    def grid(self) -> Grid:
        return Grid(self.basis(), self.n1, self.n2)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(),
            dt=self.dt,
            t_end=self.t_end,
            diag_stride=self.diag_stride,
            snapshot_times=self.snapshot_times,
        )

    def reference_coeffs(self) -> EigenstateCoeffs:
        try:
            return parse_coeffs(self.reference, classify_eigenspace(self.basis()))
        except ValueError as exc:
            raise ManifestError(f"reference state: {exc}") from None

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Every key in schema order, but for the unset lattice ones."""
        blocks = []
        for section, keys in _SCHEMA.items():
            lines = [f"[{section}]"]
            for key, (_, write) in keys.items():
                value = getattr(self, key)
                if value is not None:
                    lines.append(f"{key} = {write(value)}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentManifest":
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ManifestError(f"cannot parse manifest: {exc}") from None
        _check_names(cp)
        try:
            return cls(**{key: _SCHEMA[section][key][0](raw)
                          for section in cp.sections() for key, raw in cp[section].items()})
        except ValueError as exc:
            if isinstance(exc, ManifestError):
                raise
            raise ManifestError(f"bad manifest value: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentManifest":
        return cls.from_text(Path(path).read_text())
