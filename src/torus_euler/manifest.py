"""Plain-text experiment manifests: flat key = value pairs in four sections."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .eigenstate import EigenstateCoeffs
from .euler import SolverConfig
from .lattice import LatticeBasis, classify_eigenspace, preset_basis
from .spectral import Grid

__all__ = ["ExperimentManifest", "ManifestError"]


class ManifestError(ValueError):
    """Malformed or inconsistent manifest content."""


# every section and key a manifest may hold; anything else is a typo that
# would otherwise run silently on the defaults
_KEYS = {
    "lattice": ("preset", "xi", "eta"),
    "grid": ("n1", "n2"),
    "solver": ("dt", "t_end", "dealias", "diag_stride", "snapshot_times"),
    "experiment": ("reference", "epsilons", "seeds", "p_norm", "output_dir"),
}


def _check_names(cp: configparser.ConfigParser):
    if cp.defaults():
        raise ManifestError(f"unknown section [{cp.default_section}]")
    for name in cp.sections():
        if name not in _KEYS:
            raise ManifestError(
                f"unknown section [{name}]; expected {', '.join(f'[{k}]' for k in _KEYS)}")
        unknown = [key for key in cp[name] if key not in _KEYS[name]]
        if unknown:
            raise ManifestError(
                f"unknown key {unknown[0]!r} in [{name}]; expected {', '.join(_KEYS[name])}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


@dataclass
class ExperimentManifest:
    """Everything needed to reproduce a run: lattice, grid, solver, experiment."""

    preset: str | None = None
    xi: tuple[float, float] | None = None
    eta: tuple[float, float] | None = None
    n1: int = 128
    n2: int = 128
    dt: float = 1e-2
    t_end: float = 10.0
    dealias: str = "two_thirds"
    diag_stride: int = 10
    snapshot_times: tuple[float, ...] = ()
    reference: tuple[float, ...] = ()   # flat amplitude/phase pairs
    epsilons: tuple[float, ...] = ()
    seeds: tuple[int, ...] = ()
    p_norm: float = 2.0
    output_dir: str = "out"

    def __post_init__(self):
        if self.preset is None and (self.xi is None or self.eta is None):
            raise ManifestError("manifest needs either a lattice preset or xi and eta")
        if self.preset is not None and self.xi is not None:
            raise ManifestError("give a preset or explicit generators, not both")
        if not 1.0 <= self.p_norm < math.inf:
            raise ManifestError(f"p_norm must be finite and >= 1, got {self.p_norm}")

    # -- lattice / solver objects -------------------------------------------

    def basis(self) -> LatticeBasis:
        if self.preset is not None:
            return preset_basis(self.preset)
        return LatticeBasis(self.xi, self.eta)

    def grid(self) -> Grid:
        return Grid(self.basis(), self.n1, self.n2)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            grid=self.grid(),
            dt=self.dt,
            t_end=self.t_end,
            dealias=self.dealias,
            diag_stride=self.diag_stride,
            snapshot_times=self.snapshot_times,
        )

    def reference_coeffs(self) -> EigenstateCoeffs:
        info = classify_eigenspace(self.basis())
        vals = self.reference
        if len(vals) != 2 * info.npairs:
            raise ManifestError(
                f"reference needs {info.npairs} amplitude/phase pairs for this "
                f"lattice, got {len(vals) / 2:g}"
            )
        return EigenstateCoeffs(info, tuple(vals[0::2]), tuple(vals[1::2]))

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = ["[lattice]"]
        if self.preset is not None:
            lines.append(f"preset = {self.preset}")
        else:
            lines.append(f"xi = {self.xi[0]!r} {self.xi[1]!r}")
            lines.append(f"eta = {self.eta[0]!r} {self.eta[1]!r}")
        lines += [
            "",
            "[grid]",
            f"n1 = {self.n1}",
            f"n2 = {self.n2}",
            "",
            "[solver]",
            f"dt = {self.dt!r}",
            f"t_end = {self.t_end!r}",
            f"dealias = {self.dealias}",
            f"diag_stride = {self.diag_stride}",
            f"snapshot_times = {' '.join(repr(t) for t in self.snapshot_times)}",
            "",
            "[experiment]",
            f"reference = {' '.join(repr(v) for v in self.reference)}",
            f"epsilons = {' '.join(repr(v) for v in self.epsilons)}",
            f"seeds = {' '.join(str(s) for s in self.seeds)}",
            f"p_norm = {self.p_norm!r}",
            f"output_dir = {self.output_dir}",
        ]
        return "\n".join(lines) + "\n"

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_text())

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
            lat = cp["lattice"] if cp.has_section("lattice") else {}
            grid = cp["grid"] if cp.has_section("grid") else {}
            solver = cp["solver"] if cp.has_section("solver") else {}
            exp = cp["experiment"] if cp.has_section("experiment") else {}
            xi = _floats(lat["xi"]) if "xi" in lat else None
            eta = _floats(lat["eta"]) if "eta" in lat else None
            return cls(
                preset=lat.get("preset"),
                xi=xi,
                eta=eta,
                n1=int(grid.get("n1", 128)),
                n2=int(grid.get("n2", 128)),
                dt=float(solver.get("dt", 1e-2)),
                t_end=float(solver.get("t_end", 10.0)),
                dealias=solver.get("dealias", "two_thirds"),
                diag_stride=int(solver.get("diag_stride", 10)),
                snapshot_times=_floats(solver.get("snapshot_times", "")),
                reference=_floats(exp.get("reference", "")),
                epsilons=_floats(exp.get("epsilons", "")),
                seeds=_ints(exp.get("seeds", "")),
                p_norm=float(exp.get("p_norm", 2.0)),
                output_dir=exp.get("output_dir", "out"),
            )
        except (KeyError, ValueError) as exc:
            if isinstance(exc, ManifestError):
                raise
            raise ManifestError(f"bad manifest value: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "ExperimentManifest":
        return cls.from_text(Path(path).read_text())
