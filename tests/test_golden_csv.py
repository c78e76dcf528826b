"""Byte-for-byte pins of the stability CSV.

The digests are the sha256 of ``Diagnostics.to_csv`` for four short 32^2
``stability_experiment`` runs.  A refactor of the solver, the diagnostics
or the CSV writer must leave them unchanged.  The last bits of an FFT can
differ between numpy releases, so they are checked only under the numpy
version they were recorded with.
"""

import hashlib
import io

import numpy as np
import pytest

from torus_euler import (
    EigenstateCoeffs,
    Grid,
    SolverConfig,
    classify_eigenspace,
    preset_basis,
    stability_experiment,
)

RECORDED_WITH_NUMPY = "2.4.6"

GOLDEN = {
    ("hexagonal", 2.0): "0a26316c8377c5f73fa575ff27ea6ba8fa30063f19c1c01998983894221a5ee4",
    ("square", 4.0): "0f0d3f614ea4fb8a4a2552c211c8de668f6c83f65ad7c021f363f4f01ffc2d5b",
    ("hexagonal", 1.0): "3ab3d44409255141e9747cd00e96efc533f4a198a5f9edb34022ee9f20f1de34",
    ("rectangular:3.0", 3.0): "3a8a39dcf9320a11b495e7f717311b4d9dfe8ae327584be35a90e1bf38b5ed0f",
}


@pytest.mark.skipif(np.__version__ != RECORDED_WITH_NUMPY,
                    reason=f"digests recorded with numpy {RECORDED_WITH_NUMPY}, "
                           f"running {np.__version__}")
@pytest.mark.parametrize("preset,p_norm", GOLDEN, ids=[f"{b}-p{p:g}" for b, p in GOLDEN])
def test_stability_csv_bytes(preset, p_norm):
    basis = preset_basis(preset)
    info = classify_eigenspace(basis)
    ref = EigenstateCoeffs(info, (1.0, 0.7, 0.5)[:info.npairs], (0.3, 1.1, -0.4)[:info.npairs])
    config = SolverConfig(Grid(basis, 32, 32), dt=1e-2, t_end=0.5, diag_stride=10)
    diag = stability_experiment(basis, ref, 1e-2, 7, p_norm, config)
    out = io.StringIO()
    diag.to_csv(out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[preset, p_norm]
