"""Tests of the benchmark's own checks, inputs and tracing.

Run with: python3 -m pytest -q bench
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from torus_euler import census, cli, eigenstate, euler, lattice  # noqa: E402
from torus_euler.errors import InconsistentMoments  # noqa: E402

SHORT = dataclasses.replace(workloads.STABILITY["stability-hex128"], t_end=0.6)  # 7 rows


@pytest.fixture(scope="module")
def stability_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("job")
    argv = SHORT.argv(SHORT.t_end) + ["--eps", "0.01", "--seed", "5", "--output", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    (path,) = out.glob("*.csv")
    return path.read_text()


def _check(text, eps=0.01, seed=5):
    problems, _ = checks.check_stability(text, eps=eps, seed=seed, rows=SHORT.rows,
                                         hexagonal=True)
    return problems


def _edit(text, column, row, fn):
    """Apply fn to one value of the CSV, keeping its shortest repr."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line == euler.CSV_HEADER) + 1
    j = euler.CSV_HEADER.split(",").index(column)
    vals = lines[start + row].split(",")
    vals[j] = repr(fn(float(vals[j])))
    lines[start + row] = ",".join(vals)
    return "\n".join(lines) + "\n"


def test_stability_output_passes(stability_csv):
    assert _check(stability_csv) == []


@pytest.mark.parametrize("column,row,fn", [
    ("energy", 3, lambda v: v * (1 + 1e-6)),
    ("casimir4", 2, lambda v: v + 1e-2),
    ("orbit_dist", 0, lambda v: 2 * v),
    ("orbit_dist", 4, lambda v: 50 * v),
    ("theta", 5, lambda v: v + 0.2),
    ("enstrophy", 1, lambda v: math.nan),
])
def test_corrupted_stability_output_fails(stability_csv, column, row, fn):
    assert _check(_edit(stability_csv, column, row, fn))


@pytest.mark.parametrize("column", ["energy", "enstrophy", "casimir6", "orbit_dist", "theta"])
def test_roundoff_in_stability_output_passes(stability_csv, column):
    bumped = _edit(stability_csv, column, 2, lambda v: math.nextafter(v, math.inf))
    assert bumped != stability_csv
    assert _check(bumped) == []


def test_stability_structure_checked(stability_csv):
    assert _check(stability_csv.replace("orbit_dist", "orbit_distance"))
    assert _check(stability_csv.rstrip("\n").rsplit("\n", 1)[0] + "\n")  # a row missing
    assert _check(stability_csv, eps=0.001)  # meta disagrees with the job


def _census_case(dim, seed=11):
    query = next(q for q in workloads.census_queries(seed) if q[0] == dim)
    _, xi, eta, amps, phases = query
    info = lattice.classify_eigenspace(lattice.LatticeBasis(xi, eta))
    ref = eigenstate.EigenstateCoeffs(info, amps, phases)
    return ref, census.orbit_census(ref)


def _with_reps(out, reps):
    return census.OrbitCensus(out.dim, tuple(reps), len(reps))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_output_passes(dim):
    ref, out = _census_case(dim)
    assert checks.check_census(ref, out, dim) == []


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_corrupted_census_fails(dim):
    ref, out = _census_case(dim)
    last = out.representatives[-1]
    bent = eigenstate.EigenstateCoeffs(last.info, tuple(a * (1 + 1e-3) for a in last.amps),
                                       last.phases)
    assert checks.check_census(ref, _with_reps(out, [*out.representatives[:-1], bent]), dim)
    others = [r for r in out.representatives if not eigenstate.same_orbit(ref, r)]
    assert checks.check_census(ref, _with_reps(out, others), dim)  # reference orbit dropped
    assert checks.check_census(ref, out, {2: 4, 4: 6, 6: 2}[dim])  # wrong dimension


def test_census_over_bound_fails():
    ref, out = _census_case(2)
    assert checks.check_census(ref, _with_reps(out, out.representatives * 2), 2)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_roundoff_in_census_passes(dim):
    ref, out = _census_case(dim)
    reps = [eigenstate.EigenstateCoeffs(r.info, tuple(math.nextafter(a, 3.0) for a in r.amps),
                                        r.phases) for r in out.representatives]
    assert checks.check_census(ref, _with_reps(out, reps), dim) == []


@pytest.mark.xfail(strict=True, raises=InconsistentMoments,
                   reason="6D census misses the reference orbit at degenerate amplitudes")
@pytest.mark.parametrize("amps,phases", [
    # a zero squared amplitude comes back as a cubic root of about 5e-13,
    # above the census's zero floor
    ((1.788129800113965, 0.1074668527168996, 0.0), (3.070842855506198, 5.915090287640561, 0.0)),
    # two amplitudes 1e-5 apart: a near-double root of the cubic
    ((0.8678429737528713, 0.8678347008283075, 1.504524085213497),
     (5.428079164339087, 5.990455003911106, 3.615577436156172)),
])
def test_census_degenerate_amplitude_defect(amps, phases):
    """The census workload keeps its amplitudes positive and 1% apart until
    these pass; then drop AMP_SEPARATION and this xfail."""
    info = lattice.classify_eigenspace(lattice.preset_basis("hexagonal"))
    census.orbit_census(eigenstate.EigenstateCoeffs(info, amps, phases))


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def take(gen, n):
        return [next(gen) for _ in range(n)]

    assert take(workloads.census_queries(4), 30) == take(workloads.census_queries(4), 30)
    assert take(workloads.census_queries(4), 30) != take(workloads.census_queries(5), 30)
    assert take(workloads.stability_jobs(4), 6) == take(workloads.stability_jobs(4), 6)
    eps = [e for e, _ in take(workloads.stability_jobs(4), 6)]
    assert sorted(set(eps)) == list(workloads.EPSILONS) and eps[0] != eps[1]


def test_census_queries_cover_dims_in_equal_shares():
    queries = [next(q) for q in [workloads.census_queries(9)] for _ in range(300)]
    dims = [q[0] for q in queries]
    assert {d: dims.count(d) for d in (2, 4, 6)} == {2: 100, 4: 100, 6: 100}
    for dim, xi, eta, amps, _ in queries:
        assert lattice.classify_eigenspace(lattice.LatticeBasis(xi, eta)).dim == dim
        assert all(abs(x - y) >= workloads.AMP_SEPARATION * max(x, y)
                   for i, x in enumerate(amps) for y in amps[i + 1:])


def _traced_counts():
    spec = dataclasses.replace(SHORT, t_end=0.06, diag_stride=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from torus_euler.manifest import ExperimentManifest

        man = ExperimentManifest.from_text(spec.manifest_text(spec.t_end))
        basis, ref = man.basis(), man.reference_coeffs()
        tracer.active = True
        tracer.root("cli.main", 0, euler.stability_experiment, basis, ref, 0.01, 3, 2.0,
                    man.solver_config())
    finally:
        tracer.active = False
        tracer.uninstall()
    steps = sum(1 for span in tracer.spans if span[0] == "euler.step")
    return steps, tracing.layer_metrics(tracer.spans, 1)


def test_trace_counts_are_exact_and_repeat():
    (steps, first), (_, second) = _traced_counts(), _traced_counts()
    keys = ["spectral.fft.per_step", "spectral.fft.per_diag_row",
            "spectral.analyze.per_diag_row", "lattice.classify_eigenspace.per_diag_row",
            "euler.diag.rows", "spectral.fft.per_op"]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert steps == 6 and first["euler.diag.rows"] == 4
    assert first["spectral.fft.per_step"] == 20.0


@pytest.mark.parametrize("source", ["from numpy.fft import ifft2 as transform",
                                    "from scipy.fft import rfft2 as transform"])
def test_fft_imported_into_the_package_is_counted(source):
    """A transform bound by name in a package module is wrapped there too."""
    import numpy as np

    probe = types.ModuleType("torus_euler._fft_probe")
    exec(source, vars(probe))
    original = probe.transform
    sys.modules[probe.__name__] = probe
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.active = True
        tracer.root("cli.main", 0, probe.transform, np.ones((8, 8)))
        tracer.active = False
        tracer.uninstall()
    finally:
        del sys.modules[probe.__name__]
    assert [s[0] for s in tracer.spans] == ["cli.main", "spectral.fft"]
    assert tracing.layer_metrics(tracer.spans, 1)["spectral.fft.per_op"] == 1.0
    assert probe.transform is original


def test_uninstall_restores_the_package():
    import numpy.fft
    from torus_euler.manifest import ExperimentManifest

    before = (euler.step, eigenstate.minimize, numpy.fft.ifft2, euler.Diagnostics.to_csv,
              ExperimentManifest.__dict__["from_text"])
    tracer = tracing.Tracer()
    tracer.install()
    assert euler.step is not before[0] and numpy.fft.ifft2 is not before[2]
    tracer.uninstall()
    assert (euler.step, eigenstate.minimize, numpy.fft.ifft2, euler.Diagnostics.to_csv,
            ExperimentManifest.__dict__["from_text"]) == before


def test_declared_per_layer_metrics_are_computed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed = set(tracing.layer_metrics([], 0)) | {
        "trace.overhead_frac", "spectral.modes.hit_ratio", "cli.csv_identical_frac",
        "cli.csv_compared"}
    assert {m["name"] for m in declared["per_layer"]} <= computed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "census-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
