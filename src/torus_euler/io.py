"""On-disk formats: TORF binary field snapshots and plain-text coefficient records."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .eigenstate import EigenstateCoeffs
from .errors import ShapeMismatch
from .lattice import EigenspaceInfo, LatticeBasis
from .manifest import record_values
from .spectral import Grid, RealField

__all__ = ["write_torf", "read_torf", "format_coeffs", "parse_coeffs"]

TORF_MAGIC = b"TORF"
TORF_VERSION = 1
_HEADER = struct.Struct("<4sIII4d")  # magic, version, n1, n2, basis


def write_torf(field: RealField, path) -> None:
    """Little-endian snapshot: header with grid and basis, then row-major f64 samples."""
    g = field.grid
    if field.samples.shape != (g.n1, g.n2):
        raise ShapeMismatch(f"samples {field.samples.shape} vs grid ({g.n1}, {g.n2})")
    header = _HEADER.pack(
        TORF_MAGIC, TORF_VERSION, g.n1, g.n2,
        g.basis.xi[0], g.basis.xi[1], g.basis.eta[0], g.basis.eta[1],
    )
    samples = np.ascontiguousarray(field.samples, dtype="<f8")
    Path(path).write_bytes(header + samples.tobytes())


def read_torf(path) -> RealField:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated TORF header")
    magic, version, n1, n2, x1, x2, e1, e2 = _HEADER.unpack_from(raw)
    if magic != TORF_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != TORF_VERSION:
        raise ValueError(f"{path}: unsupported TORF version {version}")
    expected = _HEADER.size + 8 * n1 * n2
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n1, n2)
    grid = Grid(LatticeBasis((x1, x2), (e1, e2)), n1, n2)
    return RealField(grid, samples.copy())


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
