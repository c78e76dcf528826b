"""Command-line interface: lattice reports, censuses, simulations, verification.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 verification failure.  Each command imports the modules it uses, so the
lattice and census commands never load the solver, and ``census`` and
``eigenspace`` never load numpy.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import NumericalBlowup, TorusEulerError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


def _add_lattice_args(parser: argparse.ArgumentParser):
    parser.add_argument("--preset", help="square, hexagonal, or rectangular:<h>")
    parser.add_argument("--xi", nargs=2, type=float, metavar=("X1", "X2"),
                        help="first lattice generator")
    parser.add_argument("--eta", nargs=2, type=float, metavar=("E1", "E2"),
                        help="second lattice generator")


def _fmt_vec(v) -> str:
    return f"({v[0]:+.12g}, {v[1]:+.12g})"


def cmd_lattice_info(args) -> int:
    from .lattice import classify_eigenspace, dual_basis, shortest_vectors
    from .manifest import lattice_basis

    basis = lattice_basis(args.preset, args.xi, args.eta)
    db = dual_basis(basis)
    sv = shortest_vectors(basis)
    info = classify_eigenspace(basis)
    print(f"xi        = {_fmt_vec(basis.xi)}")
    print(f"eta       = {_fmt_vec(basis.eta)}")
    print(f"area      = {basis.area:.12g}")
    print(f"xi*       = {_fmt_vec(db.xi_star)}")
    print(f"eta*      = {_fmt_vec(db.eta_star)}")
    print(f"rho       = {sv.rho:.12g}")
    print(f"lambda1   = {info.lambda1:.12g}")
    print(f"dim E1    = {info.dim}")
    for vec, co in zip(sv.vectors, sv.coords):
        print(f"shortest  = {_fmt_vec(vec)}  coords ({co[0]}, {co[1]})")
    return EXIT_OK


def cmd_eigenspace(args) -> int:
    from .lattice import classify_eigenspace
    from .manifest import lattice_basis

    basis = lattice_basis(args.preset, args.xi, args.eta)
    info = classify_eigenspace(basis)
    print(f"dim E1  = {info.dim}")
    print(f"lambda1 = {info.lambda1:.12g}")
    for i, (k, co) in enumerate(zip(info.k, info.k_coords), start=1):
        print(f"k{i} = {_fmt_vec(k)}  coords ({co[0]}, {co[1]})"
              f"  modes cos(2pi k{i}.x), sin(2pi k{i}.x)")
    if info.dim == 6:
        print("relation: k3 = k1 + k2")
    return EXIT_OK


def cmd_census(args) -> int:
    from .census import CENSUS_BOUNDS, linf_datum, orbit_census
    from .coeffs import orbit_invariant, parse_coeffs, same_orbit
    from .lattice import classify_eigenspace
    from .manifest import lattice_basis

    basis = lattice_basis(args.preset, args.xi, args.eta)
    info = classify_eigenspace(basis)
    reference = parse_coeffs(args.coeffs, info)
    out = orbit_census(reference)
    print(f"# census dim={out.dim} count={out.count} bound={CENSUS_BOUNDS[out.dim]}")
    if out.dim == 4:
        print(f"# sup-norm cross-check: reference A1+A2 = {linf_datum(reference)!r}")
    for i, rep in enumerate(out.representatives):
        inv = orbit_invariant(rep)
        phase = inv.phase if inv.phase is not None else complex(0.0)
        member = same_orbit(reference, rep)
        print(
            f"rep={i} amps={','.join(repr(a) for a in rep.amps)} "
            f"phases={','.join(repr(p) for p in rep.phases)} "
            f"invariant={phase.real!r},{phase.imag!r} "
            f"reference_orbit={'true' if member else 'false'}"
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from pathlib import Path

    from .eigenstate import synthesize_eigenstate
    from .euler import run
    from .io import write_torf
    from .manifest import ExperimentManifest, ManifestError

    man = ExperimentManifest.from_file(args.manifest)
    for key in ("epsilons", "seeds"):
        if getattr(man, key):
            raise ManifestError(f"[experiment] {key} is not used by simulate, which runs "
                                "the unperturbed eigenstate; stability runs perturbed ones")
    config = man.solver_config()
    reference = man.reference_coeffs()
    omega0 = synthesize_eigenstate(reference, config.grid)
    outdir = Path(args.output or man.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    snapshots, diag = run(config, omega0, target=reference, p_norm=man.p_norm,
                          meta={"manifest": Path(args.manifest).name})
    for t, field in snapshots:
        write_torf(field, outdir / f"snapshot_t{t:g}.torf")
    csv_path = outdir / "diagnostics.csv"
    with open(csv_path, "w") as fh:
        diag.to_csv(fh)
    print(f"wrote {csv_path} ({len(diag)} rows) and {len(snapshots)} snapshots")
    return EXIT_OK


# The problem flags of `stability`, which a manifest sets instead.
_PROBLEM_FLAGS = ("--preset", "--xi", "--eta", "--coeffs",
                  "--resolution", "--dt", "--t-end", "--p-norm")


def cmd_stability(args) -> int:
    import dataclasses
    from pathlib import Path

    from .euler import stability_ensemble
    from .manifest import ExperimentManifest, ManifestError, record_values

    if args.manifest:
        given = [f for f in _PROBLEM_FLAGS
                 if getattr(args, f[2:].replace("-", "_")) is not None]
        if given:
            raise ManifestError(f"{', '.join(given)} cannot be combined with --manifest, "
                                "which sets the lattice, state and run")
        man = ExperimentManifest.from_file(args.manifest)
        if man.snapshot_times:
            raise ManifestError("[solver] snapshot_times is not used by stability; "
                                "simulate writes snapshots")
    else:
        if not args.coeffs:
            raise ManifestError("--coeffs is required without a manifest")
        run = {"n1": args.resolution, "n2": args.resolution,
               "dt": args.dt, "t_end": args.t_end, "p_norm": args.p_norm}
        man = ExperimentManifest(
            **{k: v for k, v in run.items() if v is not None},
            preset=args.preset,
            xi=args.xi and tuple(args.xi),
            eta=args.eta and tuple(args.eta),
            reference=record_values(args.coeffs),
        )
    man = dataclasses.replace(man, epsilons=tuple(args.eps or man.epsilons),
                              seeds=tuple(args.seed or man.seeds))
    if not man.epsilons or not man.seeds:
        raise ManifestError("need at least one epsilon and one seed")
    # a bad reference, seed, t_end, snapshot time or worker cap, and a grid too
    # coarse for the reference or its perturbation band, fail before any output
    results = stability_ensemble(man.reference_coeffs(), man.epsilons, man.seeds,
                                 man.p_norm, man.solver_config())
    outdir = Path(args.output or man.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for diag in results:
        path = outdir / f"stability_eps{diag.meta['epsilon']:g}_seed{diag.meta['seed']}.csv"
        with open(path, "w") as fh:
            diag.to_csv(fh)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_battery

    ok = run_battery(full=args.full)
    if ok:
        print("verification passed")
        return EXIT_OK
    print("verification FAILED", file=sys.stderr)
    return EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-euler",
        description="Spectral tools and a 2D Euler solver on flat tori",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="dual basis, shortest vectors, first eigenvalue")
    _add_lattice_args(p)
    p.set_defaults(func=cmd_lattice_info)

    p = sub.add_parser("eigenspace", help="first-eigenspace dimension and mode basis")
    _add_lattice_args(p)
    p.set_defaults(func=cmd_eigenspace)

    p = sub.add_parser("census", help="translation orbits sharing all moment invariants")
    _add_lattice_args(p)
    p.add_argument("--coeffs", required=True,
                   help="reference state: '[dim] A1 alpha1 [A2 alpha2 [A3 alpha3]]'")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("simulate", help="run a manifest and write diagnostics/snapshots")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", help="override the manifest output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="perturbation experiments around an eigenstate")
    _add_lattice_args(p)
    p.add_argument("--manifest")
    p.add_argument("--coeffs", help="reference state, as for census (without a manifest)")
    p.add_argument("--eps", type=float, action="append",
                   help="perturbation size; repeatable")
    p.add_argument("--seed", type=int, action="append", help="random seed; repeatable")
    p.add_argument("--resolution", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--p-norm", type=float)
    p.add_argument("--output", help="output directory")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--full", action="store_true",
                   help="include the solver-scale checks")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ManifestError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowup as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except TorusEulerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
