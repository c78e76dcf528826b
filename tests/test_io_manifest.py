import math
import struct

import numpy as np
import pytest

from torus_euler import (
    EigenstateCoeffs,
    classify_eigenspace,
    format_coeffs,
    parse_coeffs,
    read_torf,
    write_torf,
)
from torus_euler.manifest import ExperimentManifest, ManifestError
from torus_euler.spectral import RealField, random_mean_zero_field


def test_torf_round_trip(hex_grid, rng, tmp_path):
    f = random_mean_zero_field(hex_grid, rng)
    path = tmp_path / "field.torf"
    write_torf(f, path)
    g = read_torf(path)
    assert g.grid == hex_grid
    assert np.array_equal(g.samples, f.samples)


def test_torf_header_layout(hex_grid, tmp_path):
    f = RealField(hex_grid, np.zeros((hex_grid.n1, hex_grid.n2)))
    path = tmp_path / "zero.torf"
    write_torf(f, path)
    raw = path.read_bytes()
    magic, version, n1, n2 = struct.unpack_from("<4sIII", raw)
    assert magic == b"TORF" and version == 1
    assert (n1, n2) == (hex_grid.n1, hex_grid.n2)
    basis = struct.unpack_from("<4d", raw, 16)
    assert basis == (*hex_grid.basis.xi, *hex_grid.basis.eta)
    assert len(raw) == 48 + 8 * n1 * n2


def test_torf_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.torf"
    bad.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError):
        read_torf(bad)
    bad.write_bytes(b"TORF" + struct.pack("<III4d", 9, 16, 16, 1, 0, 0, 1))
    with pytest.raises(ValueError):
        read_torf(bad)


def test_coeffs_records(hex_info):
    c = EigenstateCoeffs(hex_info, (1.5, 0.0, 0.25), (0.7, 0.0, 3.1))
    line = format_coeffs(c)
    assert line.startswith("6 ")
    back = parse_coeffs(line, hex_info)
    assert back == c
    bare = " ".join(line.split()[1:])
    assert parse_coeffs(bare, hex_info) == c


def test_coeffs_record_errors(hex_info, square_info):
    c = EigenstateCoeffs(square_info, (1.0, 2.0), (0.0, 0.0))
    line = format_coeffs(c)
    with pytest.raises(ValueError):
        parse_coeffs(line, hex_info)  # dim mismatch
    with pytest.raises(ValueError):
        parse_coeffs("1 0 1", hex_info)
    with pytest.raises(ValueError):
        parse_coeffs("", hex_info)


def test_manifest_round_trip():
    man = ExperimentManifest(
        preset="hexagonal", n1=64, n2=64, dt=0.005, t_end=2.5,
        diag_stride=5, snapshot_times=(0.0, 1.25),
        reference=(1.0, 0.0, 1.0, 0.0, 1.0, 0.0),
        epsilons=(1e-3, 1e-2), seeds=(1, 2, 3), p_norm=2.0,
        output_dir="results",
    )
    again = ExperimentManifest.from_text(man.to_text())
    assert again == man


def test_manifest_explicit_basis_round_trip():
    man = ExperimentManifest(
        xi=(2 * math.pi, 0.0), eta=(0.0, 3.0), n1=32, n2=32,
        reference=(1.0, 0.0),
    )
    again = ExperimentManifest.from_text(man.to_text())
    assert again == man
    info = classify_eigenspace(again.basis())
    assert info.dim == 2
    assert again.reference_coeffs().amps == (1.0,)


def test_manifest_objects(tmp_path):
    man = ExperimentManifest(preset="hexagonal", n1=32, n2=32,
                             reference=(1, 0, 1, 0, 1, 0))
    grid = man.grid()
    assert (grid.n1, grid.n2) == (32, 32)
    cfg = man.solver_config()
    assert cfg.dt == man.dt
    ref = man.reference_coeffs()
    assert ref.amps == (1.0, 1.0, 1.0)
    path = tmp_path / "exp.ini"
    man.to_file(path)
    assert ExperimentManifest.from_file(path) == man


def test_manifest_errors():
    with pytest.raises(ManifestError):
        ExperimentManifest()  # no lattice at all
    with pytest.raises(ManifestError):
        ExperimentManifest(preset="hexagonal", xi=(1, 0), eta=(0, 1))
    with pytest.raises(ManifestError):
        ExperimentManifest(preset="hexagonal", eta=(0, 1))  # would be dropped silently
    with pytest.raises(ManifestError):
        ExperimentManifest.from_text("not a manifest at all\n")
    man = ExperimentManifest(preset="hexagonal", reference=(1.0, 0.0))
    with pytest.raises(ManifestError):
        man.reference_coeffs()  # needs 3 pairs on the hexagonal torus
