"""The benchmark's hooks into the package, as a contract on ``src/``.

``bench/`` reads the mode table's fields, prepares each workload and wraps
named package functions for its traces.  These tests import its modules
read-only and run those hooks once, without timing anything, so that a
change to the package that would break a benchmark run fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import facts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_prepares(name):
    assert workloads.prepare(name, 1) is not None


def test_working_set_reads_the_mode_table():
    sizes = facts.working_set(64)
    assert sizes["mode_table_kib"] > 0


def test_tracer_installs_and_uninstalls():
    from torus_euler import euler, spectral

    analyze, step = spectral.analyze, euler.step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.analyze is not analyze
    finally:
        tracer.uninstall()
    assert spectral.analyze is analyze and euler.step is step


def _traced_stability_metrics():
    """Layer metrics of one traced short ``stability_experiment`` on the
    stability-hex128 problem (t_end 0.06, a diagnostic row every 2 steps)."""
    import dataclasses

    from torus_euler import euler
    from torus_euler.manifest import ExperimentManifest

    spec = dataclasses.replace(workloads.STABILITY["stability-hex128"], t_end=0.06,
                               diag_stride=2)
    man = ExperimentManifest.from_text(spec.manifest_text(spec.t_end))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tracer.root("cli.main", 0, euler.stability_experiment, man.reference_coeffs(),
                    0.01, 3, 2.0, man.solver_config())
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, 1)


def test_traced_stability_metrics_repeat():
    """The six count metrics of two traced runs of the same job agree, and
    the job writes its 4 diagnostic rows."""
    keys = ["spectral.fft.per_step", "spectral.fft.per_diag_row",
            "spectral.analyze.per_diag_row", "lattice.classify_eigenspace.per_diag_row",
            "euler.diag.rows", "spectral.fft.per_op"]
    first, second = _traced_stability_metrics(), _traced_stability_metrics()
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert first["euler.diag.rows"] == 4


@pytest.mark.parametrize("name", workloads.STABILITY)
def test_bench_output_check_accepts_the_package_csv(name):
    """A short run of each stability workload's problem, written by
    ``Diagnostics.to_csv``, passes the benchmark's own output check."""
    import dataclasses
    import io

    from torus_euler import euler
    from torus_euler.manifest import ExperimentManifest

    spec = dataclasses.replace(workloads.STABILITY[name], t_end=0.2)
    man = ExperimentManifest.from_text(spec.manifest_text(spec.t_end))
    eps, seed = workloads.EPSILONS[0], 3
    diag = euler.stability_experiment(man.reference_coeffs(), eps, seed, spec.p_norm,
                                      man.solver_config())
    buf = io.StringIO()
    diag.to_csv(buf)
    problems, _ = checks.check_stability(buf.getvalue(), eps=eps, seed=seed, rows=spec.rows,
                                         hexagonal=spec.preset == "hexagonal")
    assert problems == []
