"""On-disk format of field snapshots: TORF, a binary header and the row-major samples.

Coefficient records are plain text; ``coeffs`` reads and writes them."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ShapeMismatch
from .lattice import LatticeBasis
from .spectral import Grid, RealField

__all__ = ["write_torf", "read_torf"]

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
