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
    ("hexagonal", 2.0): "8ffc2df3a2c2ef9c0a108449e281f1b78d2f1a2a9632f60c8409634194d16122",
    ("square", 4.0): "2466c7ae7886d9fd1138f45904544ba53dc9c5a8f3ad35d89a436b292618b9c1",
    ("hexagonal", 1.0): "90e4ffdab097bf35577625b8af787d2c6815b8deb3f9ead30157546abdc370c2",
    ("rectangular:3.0", 3.0): "74599402d86aab31228a0fc49559cc02c3eb01b1b78e468ed1a7a6178adffb19",
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
    diag = stability_experiment(ref, 1e-2, 7, p_norm, config)
    out = io.StringIO()
    diag.to_csv(out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[preset, p_norm]
