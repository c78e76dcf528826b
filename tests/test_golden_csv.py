"""Byte-for-byte pins of the stability CSV.

The digests are the sha256 of ``Diagnostics.to_csv`` for four short 32^2
``stability_experiment`` runs, and two on grids whose sides differ, where
the row and column bands of the two-thirds rule differ too.  A refactor of
the solver, the diagnostics or the CSV writer must leave them unchanged.
The last bits of an FFT can differ between numpy releases, so they are
checked only under the numpy version they were recorded with.
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
    ("hexagonal", 1.0): "e7f13fc2d768b2bf98cee0b13c21d8b575a030451357c5072ca77e53e8b580b3",
    ("rectangular:3.0", 3.0): "74599402d86aab31228a0fc49559cc02c3eb01b1b78e468ed1a7a6178adffb19",
}


# (preset, p_norm, n1, n2)
GOLDEN_NON_SQUARE = {
    ("hexagonal", 2.0, 48, 32): "f8619a14bf3568b96d0f9fa9c1ab71ddfc919f87491b11d54c7dc75e0f7d7ad7",
    ("rectangular:3.0", 3.0, 32, 48): "645d336940b993c3dcad211827c932b7970fff105dc74c6e7d1796c57e4e956d",
}

needs_recorded_numpy = pytest.mark.skipif(
    np.__version__ != RECORDED_WITH_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_WITH_NUMPY}, running {np.__version__}")


def _csv_digest(preset, p_norm, n1, n2):
    basis = preset_basis(preset)
    info = classify_eigenspace(basis)
    ref = EigenstateCoeffs(info, (1.0, 0.7, 0.5)[:info.npairs], (0.3, 1.1, -0.4)[:info.npairs])
    config = SolverConfig(Grid(basis, n1, n2), dt=1e-2, t_end=0.5, diag_stride=10)
    diag = stability_experiment(ref, 1e-2, 7, p_norm, config)
    out = io.StringIO()
    diag.to_csv(out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@needs_recorded_numpy
@pytest.mark.parametrize("preset,p_norm", GOLDEN, ids=[f"{b}-p{p:g}" for b, p in GOLDEN])
def test_stability_csv_bytes(preset, p_norm):
    assert _csv_digest(preset, p_norm, 32, 32) == GOLDEN[preset, p_norm]


@needs_recorded_numpy
@pytest.mark.parametrize("case", GOLDEN_NON_SQUARE,
                         ids=[f"{b}-p{p:g}-{n1}x{n2}" for b, p, n1, n2 in GOLDEN_NON_SQUARE])
def test_stability_csv_bytes_on_non_square_grids(case):
    assert _csv_digest(*case) == GOLDEN_NON_SQUARE[case]
