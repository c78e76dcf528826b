import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torus_euler
from torus_euler.cli import main
from torus_euler.manifest import _SCHEMA, ExperimentManifest, ManifestError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_info_hexagonal(capsys):
    code, out, _ = run_cli(capsys, "lattice-info", "--preset", "hexagonal")
    assert code == 0
    assert "lambda1   = 1.33333333333" in out
    assert "dim E1    = 6" in out
    assert out.count("shortest") == 6


def test_lattice_info_square_and_rect(capsys):
    code, out, _ = run_cli(capsys, "lattice-info", "--preset", "square")
    assert code == 0
    assert "lambda1   = 1\n" in out and "dim E1    = 4" in out
    code, out, _ = run_cli(capsys, "lattice-info", "--preset", "rectangular:3.14159")
    assert code == 0
    assert "dim E1    = 2" in out


def test_eigenspace_reports_sum_relation(capsys):
    code, out, _ = run_cli(capsys, "eigenspace", "--preset", "hexagonal")
    assert code == 0
    assert "k3 = k1 + k2" in out


def test_explicit_basis_args(capsys):
    code, out, _ = run_cli(capsys, "lattice-info", "--xi", "6.283185307179586", "0",
                           "--eta", "0", "3.0")
    assert code == 0
    assert "dim E1    = 2" in out


@pytest.mark.parametrize("preset,coeffs", [("hexagonal", "1 0 1 0 1 0"), ("square", "1 0 0.5 1")],
                         ids=["hexagonal", "square"])
def test_census_command(capsys, preset, coeffs):
    code, out, _ = run_cli(capsys, "census", "--preset", preset, "--coeffs", coeffs)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("rep=")]
    assert 1 <= len(lines) <= 12
    assert any("reference_orbit=true" in ln for ln in lines)
    if preset == "square":
        # the 4-D census prints its sup-norm datum and has no phase invariant
        assert "# sup-norm cross-check: reference A1+A2 = 1.5" in out.splitlines()
        assert all(" invariant=0.0,0.0 " in ln for ln in lines)


def test_census_prints_a_phase_on_its_period_as_0(capsys):
    code, out, _ = run_cli(capsys, "census", "--preset", "hexagonal",
                           "--coeffs", "1 0.30000000000000004 1 0 1 0.3")
    assert code == 0
    assert " phases=0.0,0.0,0.0 invariant=1.0,0.0 " in out


# sha256 of the census command's stdout for three references.
CENSUS_OUTPUT = {
    ("hexagonal", "1 0.7 0.3 0.4 1.1 2.0"):
        "813dd16e2c9762b51f0d3b7bfa625484aed8e17a8f19f87c3c488cc05aa77d44",
    ("square", "1 0.5 0.5 1"):
        "9498c0ccfe0b227fd816962ef3310011881cae8ada2190eb1af30889e24c1db5",
    ("rectangular:3", "0.8 0.2"):
        "cbe49f7f6649bc00be091167e13d6dd4ac75c36c67428de2aac475b01fcd5668",
}


@pytest.mark.parametrize("preset,coeffs", CENSUS_OUTPUT, ids=[p for p, _ in CENSUS_OUTPUT])
def test_census_output_bytes(capsys, preset, coeffs):
    code, out, _ = run_cli(capsys, "census", "--preset", preset, "--coeffs", coeffs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_OUTPUT[preset, coeffs]


def test_census_prints_a_negative_zero_amplitude_as_0(capsys):
    code, out, _ = run_cli(capsys, "census", "--preset", "hexagonal",
                           "--coeffs", "-0.0 0 1 0 1 0")
    assert code == 0
    assert "rep=0 amps=0.0,1.0,1.0 phases=0.0,0.0,0.0 invariant=0.0,0.0 " in out
    assert "-0.0" not in out


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["lattice-info", "--preset", "square", "--bogus"])
    assert err.value.code == 2


def test_missing_lattice_is_config_error(capsys):
    code, _, err = run_cli(capsys, "lattice-info")
    assert code == 2
    assert "lattice" in err


def test_a_non_finite_generator_is_a_torus_error(capsys):
    code, out, err = run_cli(capsys, "lattice-info", "--xi", "nan", "0", "--eta", "1", "0")
    assert code == 2
    assert err == "error: zero or non-finite generator\n"
    assert out == ""


def test_a_missing_manifest_is_an_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--manifest", str(tmp_path / "none.ini"))
    assert code == 2
    assert err.startswith("i/o error:") and "none.ini" in err
    assert out == ""


def test_bad_manifest_is_config_error(tmp_path, capsys):
    bad = tmp_path / "broken.ini"
    bad.write_text("[grid]\nn1 = 16\n")
    code, _, err = run_cli(capsys, "simulate", "--manifest", str(bad))
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("typo", ["[solver]\nt-end = 99\n", "[experimnt]\np_norm = 4\n"],
                         ids=["key", "section"])
def test_misspelled_manifest_is_config_error(tmp_path, capsys, typo):
    text = "[lattice]\npreset = hexagonal\n\n" + typo
    with pytest.raises(ManifestError, match="unknown"):
        ExperimentManifest.from_text(text)
    bad = tmp_path / "typo.ini"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "simulate", "--manifest", str(bad))
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize("p_norm", ["inf", "nan", "0.5"])
def test_bad_p_norm_exits_2_before_any_job(tmp_path, capsys, p_norm):
    outdir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "stability", "--preset", "hexagonal",
        "--coeffs", "1 0 1 0 1 0", "--eps", "0.01", "--seed", "7",
        "--resolution", "32", "--dt", "0.02", "--t-end", "0.1",
        "--p-norm", p_norm, "--output", str(outdir),
    )
    assert code == 2
    assert "p_norm" in err
    assert not outdir.exists()
    text = f"[lattice]\npreset = hexagonal\n\n[experiment]\np_norm = {p_norm}\n"
    with pytest.raises(ManifestError, match="p_norm"):
        ExperimentManifest.from_text(text)
    bad = tmp_path / "bad_p.ini"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "stability", "--manifest", str(bad),
                           "--eps", "0.01", "--seed", "1", "--output", str(outdir))
    assert code == 2
    assert not outdir.exists()


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_bad_epsilon_exits_2_before_any_job(tmp_path, capsys, eps):
    outdir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "stability", "--preset", "hexagonal",
        "--coeffs", "1 0 1 0 1 0", "--eps", eps, "--seed", "7",
        "--resolution", "32", "--dt", "0.02", "--t-end", "0.1",
        "--output", str(outdir),
    )
    assert code == 2
    assert "epsilon" in err
    assert not outdir.exists()
    text = f"[lattice]\npreset = hexagonal\n\n[experiment]\nepsilons = 0.01 {eps}\n"
    with pytest.raises(ManifestError, match="epsilon"):
        ExperimentManifest.from_text(text)
    bad = tmp_path / "bad_eps.ini"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "stability", "--manifest", str(bad),
                           "--seed", "1", "--output", str(outdir))
    assert code == 2
    assert not outdir.exists()


@pytest.mark.parametrize("xi", ["6.283 0 5", "6.283"], ids=["three", "one"])
def test_generator_needs_two_numbers(tmp_path, capsys, xi):
    text = f"[lattice]\nxi = {xi}\neta = 0 3\n"
    with pytest.raises(ManifestError, match="two numbers"):
        ExperimentManifest.from_text(text)
    bad = tmp_path / "bad_xi.ini"
    bad.write_text(text)
    code, _, err = run_cli(capsys, "simulate", "--manifest", str(bad))
    assert code == 2
    assert "two numbers" in err


def test_stability_rejects_preset_with_generators(tmp_path, capsys):
    outdir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "stability", "--preset", "square",
        "--xi", "6.283185307179586", "0", "--eta", "0", "3.0",
        "--coeffs", "1 0 1 0", "--eps", "0.01", "--seed", "7",
        "--resolution", "32", "--dt", "0.02", "--t-end", "0.1",
        "--output", str(outdir),
    )
    assert code == 2
    assert "not both" in err
    assert not outdir.exists()


def _small_manifest(tmp_path, **overrides):
    kwargs = dict(
        preset="hexagonal", n1=32, n2=32, dt=0.02, t_end=0.2,
        diag_stride=5,
        reference=(1.0, 0.0, 1.0, 0.0, 1.0, 0.0),
        epsilons=(0.01,), seeds=(1,),
        output_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    man = ExperimentManifest(**kwargs)
    path = tmp_path / "exp.ini"
    path.write_text(man.to_text())
    return path


_PROBLEM_FLAG_VALUES = {
    "--preset": ["square"], "--xi": ["6.283185307179586", "0"], "--eta": ["0", "3.0"],
    "--coeffs": ["1 0 1 0"], "--resolution": ["64"], "--dt": ["0.01"],
    "--t-end": ["0.4"], "--p-norm": ["4"],
}


@pytest.mark.parametrize("flag", list(_PROBLEM_FLAG_VALUES))
def test_stability_manifest_rejects_problem_flags(tmp_path, capsys, flag):
    path = _small_manifest(tmp_path)
    outdir = tmp_path / "never"
    code, _, err = run_cli(capsys, "stability", "--manifest", str(path),
                           flag, *_PROBLEM_FLAG_VALUES[flag], "--output", str(outdir))
    assert code == 2
    assert flag in err and "--manifest" in err
    assert not outdir.exists()


def test_stability_manifest_takes_eps_seed_and_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORUS_EULER_THREADS", "1")
    path = _small_manifest(tmp_path)
    outdir = tmp_path / "given"
    code, _, _ = run_cli(capsys, "stability", "--manifest", str(path),
                         "--eps", "0.02", "--seed", "3", "--output", str(outdir))
    assert code == 0
    assert [f.name for f in outdir.iterdir()] == ["stability_eps0.02_seed3.csv"]
    assert not (tmp_path / "out").exists()


def test_stability_manifest_needs_an_epsilon_and_a_seed(tmp_path, capsys):
    path = _small_manifest(tmp_path, epsilons=(), seeds=())
    code, out, err = run_cli(capsys, "stability", "--manifest", str(path))
    assert code == 2
    assert "need at least one epsilon and one seed" in err
    assert out == "" and not (tmp_path / "out").exists()


def test_stability_manifest_rejects_snapshot_times(tmp_path, capsys):
    path = _small_manifest(tmp_path, snapshot_times=(0.0, 0.2))
    code, out, err = run_cli(capsys, "stability", "--manifest", str(path))
    assert code == 2
    assert "snapshot_times" in err and "simulate" in err
    assert out == "" and not (tmp_path / "out").exists()


def test_stability_run_defaults_without_a_manifest(tmp_path, capsys, monkeypatch):
    import torus_euler.euler as euler

    seen = []
    monkeypatch.setattr(euler, "stability_ensemble",
                        lambda ref, eps, seeds, p_norm, config:
                        seen.append((config.grid.n1, config.grid.n2, config.dt,
                                     config.t_end, p_norm)) or iter(()))
    code, _, _ = run_cli(capsys, "stability", "--preset", "hexagonal", "--coeffs",
                         "1 0 1 0 1 0", "--eps", "0.01", "--seed", "7",
                         "--output", str(tmp_path / "out"))
    assert code == 0
    # a manifest that leaves the run out gets the same defaults
    path = tmp_path / "bare.ini"
    path.write_text("[lattice]\npreset = hexagonal\n\n"
                    "[experiment]\nreference = 1 0 1 0 1 0\nepsilons = 0.01\nseeds = 7\n")
    code, _, _ = run_cli(capsys, "stability", "--manifest", str(path),
                         "--output", str(tmp_path / "out"))
    assert code == 0
    assert seen == [(128, 128, 1e-2, 20.0, 2.0)] * 2


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_worker_cap_exits_2_before_the_output_directory(tmp_path, capsys, monkeypatch,
                                                            threads):
    monkeypatch.setenv("TORUS_EULER_THREADS", threads)
    outdir = tmp_path / "never"
    code, _, err = run_cli(capsys, "stability", "--manifest", str(_small_manifest(tmp_path)),
                           "--output", str(outdir))
    assert code == 2
    assert "TORUS_EULER_THREADS" in err
    assert not outdir.exists()


def test_simulate_writes_artifacts(tmp_path, capsys):
    path = _small_manifest(tmp_path, snapshot_times=(0.0, 0.2), epsilons=(), seeds=())
    code, out, _ = run_cli(capsys, "simulate", "--manifest", str(path))
    assert code == 0
    outdir = tmp_path / "out"
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "snapshot_t0.torf").exists()
    assert (outdir / "snapshot_t0.2.torf").exists()
    header = (outdir / "diagnostics.csv").read_text().splitlines()
    data_start = next(i for i, ln in enumerate(header) if not ln.startswith("#"))
    assert header[data_start] == ("t,energy,enstrophy,casimir3,casimir4,casimir5,"
                                  "casimir6,meanv1,meanv2,orbit_dist,pstar1,pstar2,theta")


def test_stability_deterministic_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORUS_EULER_THREADS", "1")
    path = _small_manifest(tmp_path)
    code, _, _ = run_cli(capsys, "stability", "--manifest", str(path))
    assert code == 0
    csv = tmp_path / "out" / "stability_eps0.01_seed1.csv"
    first = csv.read_bytes()
    code, _, _ = run_cli(capsys, "stability", "--manifest", str(path))
    assert code == 0
    assert csv.read_bytes() == first
    header = first.decode().splitlines()
    assert any(ln.startswith("# seed = 1") for ln in header)


def test_stability_quick_flags(tmp_path, capsys):
    outdir = tmp_path / "quick"
    code, out, _ = run_cli(
        capsys, "stability", "--preset", "hexagonal",
        "--coeffs", "1 0 1 0 1 0", "--eps", "0.01", "--seed", "7",
        "--resolution", "32", "--dt", "0.02", "--t-end", "0.1",
        "--output", str(outdir),
    )
    assert code == 0
    files = list(outdir.glob("stability_*.csv"))
    assert len(files) == 1
    text = files[0].read_text()
    assert "orbit_dist" in text
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "t,"))]
    assert all(len(ln.split(",")) == 13 for ln in rows)


def test_stability_sweep_worker_pool(tmp_path, capsys, monkeypatch):
    path = _small_manifest(tmp_path, epsilons=(0.01, 0.001), seeds=(1, 2))
    written = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("TORUS_EULER_THREADS", threads)
        outdir = tmp_path / f"threads{threads}"
        code, out, _ = run_cli(capsys, "stability", "--manifest", str(path),
                               "--output", str(outdir))
        assert code == 0
        assert out.count("wrote ") == 4
        written[threads] = {f.name: f.read_bytes() for f in outdir.glob("stability_*.csv")}
    assert len(written["2"]) == 4
    assert written["2"] == written["1"]


# A 16^2 hexagonal manifest, and one row per manifest key: the manifest with
# that key set or changed either writes something else (CSV bytes, file names
# or their location) or exits 2 before any output.  `stability` runs the base
# with one epsilon and one seed added.
_KEY_BASE = {
    "lattice": {"preset": "hexagonal"},
    "grid": {"n1": "16", "n2": "16"},
    "solver": {"dt": "0.05", "t_end": "0.2", "diag_stride": "2"},
    "experiment": {"reference": "1 0 0.5 1 0.25 2", "p_norm": "2.0", "output_dir": "out"},
}
_SWEEP = {"experiment.epsilons": "0.01", "experiment.seeds": "1"}
_KEY_ROWS = {  # key: (the value it is set to, whether simulate, stability exit 2)
    "lattice.preset": ("square", True, True),  # whose eigenspace takes 2 reference pairs
    "lattice.xi": ("6.283185307179586 0", True, True),  # beside the preset
    "lattice.eta": ("0 6.283185307179586", True, True),
    "grid.n1": ("24", False, False),
    "grid.n2": ("24", False, False),
    "solver.dt": ("0.1", False, False),
    "solver.t_end": ("0.4", False, False),
    "solver.diag_stride": ("1", False, False),
    "solver.snapshot_times": ("0.1", False, True),
    "solver.dealias": ("two_thirds", True, True),  # not a key
    "experiment.reference": ("1 0 1 0 1 0", False, False),
    "experiment.epsilons": ("0.5", True, False),
    "experiment.seeds": ("3", True, False),
    "experiment.p_norm": ("4.0", False, False),
    "experiment.output_dir": ("elsewhere", False, False),
}


def _run_in(run_dir, monkeypatch, capsys, command, changes):
    """Exit code of ``command`` on the base manifest with ``changes``, every
    file it wrote under ``run_dir`` by relative path, and the entries there."""
    sections = {name: dict(keys) for name, keys in _KEY_BASE.items()}
    for dotted, value in changes.items():
        section, key = dotted.split(".")
        sections[section][key] = value
    run_dir.mkdir()
    (run_dir / "m.ini").write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()))
    monkeypatch.chdir(run_dir)
    monkeypatch.setenv("TORUS_EULER_THREADS", "1")
    code, _, _ = run_cli(capsys, command, "--manifest", "m.ini")
    written = {str(p.relative_to(run_dir)): p.read_bytes()
               for p in sorted(run_dir.rglob("*")) if p.is_file() and p.name != "m.ini"}
    return code, written, sorted(p.name for p in run_dir.iterdir())


def _assert_used_or_rejected(tmp_path, monkeypatch, capsys, command, base, key, rejected):
    base_code, base_written, _ = _run_in(tmp_path / "base", monkeypatch, capsys, command, base)
    assert base_code == 0
    code, written, entries = _run_in(tmp_path / "row", monkeypatch, capsys, command,
                                     {**base, key: _KEY_ROWS[key][0]})
    if rejected:
        assert code == 2 and entries == ["m.ini"]
    else:
        assert code == 0 and written != base_written


def test_the_key_table_covers_the_schema():
    assert set(_KEY_ROWS) == {f"{section}.{key}" for section, keys in _SCHEMA.items()
                              for key in keys} | {"solver.dealias"}


@pytest.mark.parametrize("key", list(_KEY_ROWS))
def test_every_manifest_key_is_used_or_rejected_by_simulate(tmp_path, monkeypatch,
                                                            capsys, key):
    _assert_used_or_rejected(tmp_path, monkeypatch, capsys, "simulate", {}, key,
                             _KEY_ROWS[key][1])


@pytest.mark.parametrize("key", list(_KEY_ROWS))
def test_every_manifest_key_is_used_or_rejected_by_stability(tmp_path, monkeypatch,
                                                             capsys, key):
    _assert_used_or_rejected(tmp_path, monkeypatch, capsys, "stability", _SWEEP, key,
                             _KEY_ROWS[key][2])


@pytest.mark.parametrize("key", ["epsilons", "seeds"])
def test_simulate_rejects_the_sweep_keys_before_any_output(tmp_path, capsys, key):
    path = _small_manifest(tmp_path, **{"epsilons": (), "seeds": (), key: (1,)})
    code, out, err = run_cli(capsys, "simulate", "--manifest", str(path))
    assert code == 2
    assert f"[experiment] {key}" in err and "stability" in err
    assert out == "" and not (tmp_path / "out").exists()


def test_stability_rejects_a_dealias_key_before_any_output(tmp_path, capsys):
    path = _small_manifest(tmp_path)
    path.write_text(path.read_text().replace("[solver]\n", "[solver]\ndealias = two_thirds\n"))
    code, out, err = run_cli(capsys, "stability", "--manifest", str(path))
    assert code == 2
    assert "unknown key 'dealias' in [solver]" in err
    assert out == "" and not (tmp_path / "out").exists()


def test_unhonourable_snapshots_exit_2(tmp_path, capsys):
    path = _small_manifest(tmp_path, snapshot_times=(0.1, 0.105), epsilons=(), seeds=())
    code, _, err = run_cli(capsys, "simulate", "--manifest", str(path))
    assert code == 2
    assert "same step" in err
    assert not (tmp_path / "out").exists()


def test_fractional_step_count_exits_2_before_any_job(tmp_path, capsys):
    outdir = tmp_path / "never"
    code, _, err = run_cli(
        capsys, "stability", "--preset", "hexagonal",
        "--coeffs", "1 0 1 0 1 0", "--eps", "0.01", "--seed", "7",
        "--resolution", "32", "--dt", "0.02", "--t-end", "0.15",
        "--output", str(outdir),
    )
    assert code == 2
    assert "whole number of steps" in err
    assert not outdir.exists()


_LATTICE_CHOICES = {
    "both": (["--preset", "square", "--xi", "1", "0", "--eta", "0", "1"],
             dict(preset="square", xi=(1.0, 0.0), eta=(0.0, 1.0))),
    "half": (["--xi", "1", "0"], dict(xi=(1.0, 0.0))),
}


@pytest.mark.parametrize("choice", list(_LATTICE_CHOICES))
@pytest.mark.parametrize("command", ["lattice-info", "eigenspace", "census"])
def test_every_command_applies_the_manifest_lattice_rule(capsys, command, choice):
    flags, keys = _LATTICE_CHOICES[choice]
    with pytest.raises(ManifestError) as rule:
        ExperimentManifest(**keys)
    extra = ["--coeffs", "1 0 1 0"] if command == "census" else []
    code, out, err = run_cli(capsys, command, *flags, *extra)
    assert code == 2
    assert err == f"configuration error: {rule.value}\n"
    assert out == ""


_QUICK = ("--eps", "0.01", "--seed", "7", "--resolution", "32", "--dt", "0.02",
          "--t-end", "0.1")
_QUICK_MANIFEST = ("[lattice]\npreset = hexagonal\n\n[grid]\nn1 = 32\nn2 = 32\n\n"
                   "[solver]\ndt = 0.02\nt_end = 0.1\n\n"
                   "[experiment]\nreference = {}\nepsilons = 0.01\nseeds = 7\n")


def test_census_stability_and_manifests_read_one_coefficient_record(tmp_path, capsys):
    """The record 'dim A1 alpha1 ...' and its bare pairs mean the same state
    to census, stability --coeffs and a manifest's reference."""
    outputs = {}
    for record in ("1 0 1 0 1 0", "6 1 0 1 0 1 0"):
        code, out, _ = run_cli(capsys, "census", "--preset", "hexagonal", "--coeffs", record)
        assert code == 0
        outdir = tmp_path / f"flags-{record}"
        code, _, err = run_cli(capsys, "stability", "--preset", "hexagonal",
                               "--coeffs", record, *_QUICK, "--output", str(outdir))
        assert code == 0, err
        path = tmp_path / f"{len(record)}.ini"
        path.write_text(_QUICK_MANIFEST.format(record))
        mandir = tmp_path / f"manifest-{record}"
        code, _, err = run_cli(capsys, "stability", "--manifest", str(path),
                               "--output", str(mandir))
        assert code == 0, err
        csv = "stability_eps0.01_seed7.csv"
        outputs[record] = (out, (outdir / csv).read_bytes(), (mandir / csv).read_bytes())
    bare, full = outputs.values()
    assert full == bare
    assert bare[1] == bare[2]


@pytest.mark.parametrize("dim, message", [
    ("4", "record is for dim 4, eigenspace has dim 6"),
    ("6.0", "invalid literal for int() with base 10: '6.0'"),
])
@pytest.mark.parametrize("source", ["census", "flags", "manifest"])
def test_a_wrong_or_non_integer_dim_exits_2_before_any_output(tmp_path, capsys, source,
                                                              dim, message):
    record, outdir = f"{dim} 1 0 1 0 1 0", tmp_path / "never"
    if source == "census":
        argv = ["census", "--preset", "hexagonal", "--coeffs", record]
    elif source == "flags":
        argv = ["stability", "--preset", "hexagonal", "--coeffs", record, *_QUICK,
                "--output", str(outdir)]
    else:
        path = tmp_path / "dim.ini"
        path.write_text(_QUICK_MANIFEST.format(record))
        argv = ["stability", "--manifest", str(path), "--output", str(outdir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == "" and not outdir.exists()


@pytest.mark.parametrize("command", ["census", "stability"])
def test_a_nan_phase_exits_2_naming_the_phases(tmp_path, capsys, command):
    outdir = tmp_path / "never"
    extra = [*_QUICK, "--output", str(outdir)] if command == "stability" else []
    code, out, err = run_cli(capsys, command, "--preset", "hexagonal",
                             "--coeffs", "1 0 1 0 1 nan", *extra)
    assert code == 2
    assert "phases must be finite" in err
    assert out == "" and not outdir.exists()


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_a_negative_seed_exits_2_before_any_output(tmp_path, capsys, source):
    outdir = tmp_path / "never"
    if source == "flag":
        argv = ["--preset", "hexagonal", "--coeffs", "1 0 1 0 1 0", "--eps", "0.01",
                "--seed", "-1", "--resolution", "32", "--dt", "0.02", "--t-end", "0.1"]
    else:
        path = _small_manifest(tmp_path)
        path.write_text(path.read_text().replace("seeds = 1\n", "seeds = -1\n"))
        argv = ["--manifest", str(path)]
    code, out, err = run_cli(capsys, "stability", *argv, "--output", str(outdir))
    assert code == 2
    assert "seeds must be >= 0" in err
    assert out == "" and not outdir.exists()


# The hexagonal torus with eta = 6 xi + (pi, pi sqrt 3): its eigenmodes are
# (0, 1), (1, 6) and (1, 7), and its |k| <= 3 rho band reaches (3, 21).
_SKEWED_HEX = dict(preset=None, xi=(6.283185307179586, 0.0),
                   eta=(40.840704496667314, 5.441398092702653))


def _data_rows(csv_path):
    lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
    return [dict(zip(lines[0].split(","), map(float, ln.split(",")))) for ln in lines[1:]]


def test_stability_refuses_a_skewed_hexagon_until_the_band_holds_it(tmp_path, capsys):
    """The grid's two-thirds band must hold the three eigenmodes (16^2 does
    not) and the |k| <= 3 rho perturbation band (32^2 does not); at 64^2 the
    run starts epsilon from the orbit, as the CSV says."""
    flags = ["--xi", *map(repr, _SKEWED_HEX["xi"]), "--eta", *map(repr, _SKEWED_HEX["eta"]),
             "--coeffs", "1 0 1 0 1 0", "--eps", "0.01", "--seed", "1",
             "--dt", "0.001", "--t-end", "0.002"]
    for n, refusal in [(16, "eigenmode (1, 6) lies outside the two-thirds band"),
                       (32, "perturbation mode (-3, -21) lies outside the two-thirds band")]:
        outdir = tmp_path / f"n{n}"
        code, out, err = run_cli(capsys, "stability", *flags, "--resolution", str(n),
                                 "--output", str(outdir))
        assert code == 2
        assert refusal in err and "use a finer grid or reduced generators" in err
        assert out == "" and not outdir.exists()
    outdir = tmp_path / "n64"
    code, _, err = run_cli(capsys, "stability", *flags, "--resolution", "64",
                           "--output", str(outdir))
    assert code == 0, err
    rows = _data_rows(outdir / "stability_eps0.01_seed1.csv")
    assert 0.0 < rows[0]["orbit_dist"] <= 0.01 * (1.0 + 1e-9)


def test_simulate_refuses_a_skewed_hexagon_its_grid_cannot_hold(tmp_path, capsys):
    def simulate(n):
        path = _small_manifest(tmp_path, **_SKEWED_HEX, n1=n, n2=n, dt=0.001, t_end=0.002,
                               epsilons=(), seeds=(), output_dir=str(tmp_path / f"out{n}"))
        return run_cli(capsys, "simulate", "--manifest", str(path))

    code, out, err = simulate(16)
    assert code == 2
    assert "eigenmode (1, 6) lies outside the two-thirds band" in err
    assert out == "" and not (tmp_path / "out16").exists()
    code, _, err = simulate(32)
    assert code == 0, err
    first = _data_rows(tmp_path / "out32" / "diagnostics.csv")[0]
    assert first["orbit_dist"] < 1e-12
    assert abs(first["pstar1"]) < 1e-12 and abs(first["pstar2"]) < 1e-12
    assert math.isfinite(first["theta"])


@pytest.mark.parametrize("reference,column", [
    ((1.0, 0.0, 1.0, 0.0, 1.0, 0.0), "pstar"),
    ((1.0, 0.3, 1.0, 0.0, 1.0, 0.30000000000000004), "theta"),
], ids=["pstar", "theta"])
def test_simulate_reports_a_steady_eigenstate_inside_the_period(tmp_path, capsys, reference,
                                                                column):
    """The steady state's translation is the origin and its theta is 0, on
    every row; neither is the far end of its period."""
    path = _small_manifest(tmp_path, n1=64, n2=64, dt=0.01, t_end=1.0, diag_stride=10,
                           reference=reference, epsilons=(), seeds=())
    code, _, err = run_cli(capsys, "simulate", "--manifest", str(path))
    assert code == 0, err
    rows = _data_rows(tmp_path / "out" / "diagnostics.csv")
    assert len(rows) == 11
    if column == "pstar":
        assert all(abs(r["pstar1"]) < 1e-12 and abs(r["pstar2"]) < 1e-12 for r in rows)
    else:
        assert all(r["theta"] == 0.0 for r in rows)


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_a_grid_too_coarse_exits_2_before_any_output(tmp_path, capsys, command):
    outdir = tmp_path / "never"
    if command == "simulate":
        path = _small_manifest(tmp_path, preset=None, xi=(1.0, 0.0), eta=(20.0, 1.0),
                               n1=16, n2=16, reference=(1.0, 0.0, 1.0, 0.0),
                               epsilons=(), seeds=(), output_dir=str(outdir))
        argv = ["simulate", "--manifest", str(path)]
    else:
        argv = ["stability", "--xi", "1", "0", "--eta", "20", "1", "--resolution", "16",
                "--coeffs", "1 0 1 0", "--eps", "0.01", "--seed", "1",
                "--output", str(outdir)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and not outdir.exists()
    assert "eigenmode (1, 20) lies outside the two-thirds band" in err


def test_blowup_exits_3(tmp_path, capsys):
    path = _small_manifest(tmp_path, reference=(200.0, 0.0, 150.0, 0.0, 0.0, 0.0),
                           dt=2.0, t_end=20.0, diag_stride=1, epsilons=(), seeds=())
    with pytest.warns(UserWarning):
        code, _, err = run_cli(capsys, "simulate", "--manifest", str(path))
    assert code == 3
    assert "numerical failure" in err


def test_verify_wiring(capsys, monkeypatch):
    import torus_euler.verify as verify
    from torus_euler.verify import CheckResult

    monkeypatch.setattr(verify, "run_battery",
                        lambda full=False: True)
    assert main(["verify"]) == 0
    monkeypatch.setattr(verify, "run_battery",
                        lambda full=False: False)
    assert main(["verify"]) == 4
    _ = CheckResult  # imported to assert the public surface exists
    capsys.readouterr()


def test_verify_lines_carry_wall_time(capsys, monkeypatch):
    import torus_euler.verify as verify
    from torus_euler.verify import CheckResult

    monkeypatch.setattr(verify, "FAST_CHECKS", [lambda: CheckResult("good", True, "fine"),
                                                lambda: CheckResult("bad", False, "off")])
    assert verify.run_battery() is False
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"\[PASS\] good: fine \(\d+\.\d\d s\)", lines[0])
    assert re.fullmatch(r"\[FAIL\] bad: off \(\d+\.\d\d s\)", lines[1])


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    src = str(Path(torus_euler.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys; {code}; sys.stderr.write(' '.join(sys.modules))"
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stderr.split())


def test_cli_import_leaves_verify_and_the_pool_unloaded():
    """The verification battery and the process pool (with the multiprocessing
    and logging modules it pulls in) load only on the paths that use them."""
    lazy = {"torus_euler.verify", "concurrent.futures.process", "multiprocessing", "logging"}
    assert not lazy & _loaded("import torus_euler.cli")


_LATTICE_INFO = {"cli", "errors", "lattice", "manifest"}
_SOLVER = _LATTICE_INFO | {"coeffs", "eigenstate", "euler", "spectral"}


@pytest.mark.parametrize("code, modules, numpy", [
    ("import torus_euler", set(), False),
    ("import torus_euler.cli", {"cli", "errors"}, False),
    ("import torus_euler.lattice", {"errors", "lattice"}, False),
    ("from torus_euler import lattice, census",
     {"census", "coeffs", "errors", "lattice", "manifest"}, False),
    ("from torus_euler.cli import main; main(['lattice-info', '--preset', 'square'])",
     _LATTICE_INFO, True),
    ("from torus_euler.cli import main; "
     "main(['census', '--preset', 'hexagonal', '--coeffs', '1 0 1 0 1 0'])",
     _LATTICE_INFO | {"census", "coeffs"}, False),
    ("from torus_euler.cli import main; main(['eigenspace', '--preset', 'square'])",
     _LATTICE_INFO, False),
    ("from torus_euler.cli import main; assert main(['stability', '--manifest', {manifest!r}, "
     "'--eps', '0.01', '--seed', '1', '--output', {out!r}]) == 0", _SOLVER, True),
    ("from torus_euler.cli import main; "
     "assert main(['simulate', '--manifest', {manifest!r}, '--output', {out!r}]) == 0",
     _SOLVER | {"io"}, True),
], ids=["package", "cli", "lattice", "from-import", "lattice-info", "census", "eigenspace",
        "stability", "simulate"])
def test_each_entry_point_loads_only_what_it_uses(tmp_path, code, modules, numpy):
    """Lattice and census work never loads the Euler solver, and neither the
    package nor the CLI loads a submodule or numpy before a command runs.
    Only lattice-info, for its shortest-vector arrays, and the solver commands
    load numpy.  The solver commands run a hexagonal 16^2 manifest for one step."""
    manifest = _small_manifest(tmp_path, n1=16, n2=16, dt=0.01, t_end=0.01,
                               epsilons=(), seeds=())
    loaded = _loaded(code.format(manifest=str(manifest), out=str(tmp_path / "out")))
    assert {m for m in loaded if m.startswith("torus_euler.")} == {
        f"torus_euler.{m}" for m in modules}
    assert ("numpy" in loaded) == numpy


# Census queries as a library user makes them: classify the torus, build the
# reference, take its census.  Each torus of dims 2, 4 and 6 is rotated and
# scaled, then given the unimodular change of basis (xi, eta) -> (xi + 2 eta,
# xi + 3 eta), which keeps the lattice but not the presets' alignment.
_CENSUS_QUERIES = """
import math
from torus_euler.census import orbit_census
from torus_euler.cli import main
from torus_euler.coeffs import EigenstateCoeffs
from torus_euler.lattice import LatticeBasis, classify_eigenspace

tau, c, s = 2.0 * math.pi, 1.3 * math.cos(0.7), 1.3 * math.sin(0.7)
tori = {2: ((tau, 0.0), (0.0, 1.4 * tau)), 4: ((tau, 0.0), (0.0, tau)),
        6: ((tau, 0.0), (tau / 2.0, tau * math.sqrt(3.0) / 2.0))}
for dim, (xi, eta) in tori.items():
    for u in (((1, 0), (0, 1)), ((1, 2), (1, 3))):
        rows = [(a * xi[0] + b * eta[0], a * xi[1] + b * eta[1]) for a, b in u]
        info = classify_eigenspace(LatticeBasis(*[(c * x - s * y, s * x + c * y)
                                                  for x, y in rows]))
        assert info.dim == dim
        ref = EigenstateCoeffs(info, (1.0, 0.7, 0.4)[:info.npairs],
                               (0.3, 1.1, 2.0)[:info.npairs])
        assert orbit_census(ref).count >= 1
assert main(['census', '--xi', '1', '0.2', '--eta', '-0.3', '1.5', '--coeffs', '1 0.5']) == 0
assert main(['census', '--preset', 'hexagonal', '--coeffs', '1 0.7 0.3 0.4 1.1 2.0']) == 0
assert main(['eigenspace', '--preset', 'hexagonal']) == 0
"""


def test_census_queries_and_commands_never_load_numpy():
    """The census is scalar Python, and so is the path to it: classifying the
    torus, building and parsing coefficient records, and the census and
    eigenspace commands.  A fresh interpreter that runs them holds no numpy."""
    assert "numpy" not in _loaded(_CENSUS_QUERIES.strip())


def test_stability_without_coeffs_or_a_manifest_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "stability", "--preset", "hexagonal",
                             "--eps", "0.01", "--seed", "1", "--output", str(tmp_path / "out"))
    assert code == 2
    assert "--coeffs is required without a manifest" in err
    assert out == "" and not (tmp_path / "out").exists()
