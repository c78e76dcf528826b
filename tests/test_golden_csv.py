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
    ("hexagonal", 2.0): "c854be93fff834acc5c3f00cf5a0edc89c0ecabe4c6803ffa2751dc04e1fe1ef",
    ("square", 4.0): "51e004ef3776739b82bd70d612969212aa6568b7d58f07ba34a7b64295bb1fd7",
    ("hexagonal", 1.0): "7ad88528afbe91f37c496317917af28562efdacbefa057adc57f755c5150f4c0",
    ("rectangular:3.0", 3.0): "7d28d6eaafee7445a1bf45b956286ef36759bb737613ae1f1d012544bf5a3f85",
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
