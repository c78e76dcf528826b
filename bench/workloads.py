"""The benchmark's workloads: inputs made from the workload seed, one operation, its check.

Stability workloads run one ``torus-euler stability`` job (one epsilon/seed
pair) per operation through ``torus_euler.cli.main``.  The census workload
runs three queries, ``classify_eigenspace`` plus ``orbit_census`` on a
lattice of each dimension 2, 4 and 6, per operation.  This module imports
nothing from torus_euler at import time, so the set-up probe can time that
import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from checks import check_census, check_stability

DEFAULT_SEED = 1
EPSILONS = (1e-3, 1e-2)
CLI_DIAG_STRIDE = 10
TAU = 2.0 * math.pi
AMP_SEPARATION = 0.01  # relative gap kept between census amplitudes


@dataclass(frozen=True)
class StabilitySpec:
    name: str
    preset: str
    reference: str
    resolution: int
    diag_stride: int
    p_norm: float
    dt: float = 1e-2
    t_end: float = 2.0

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def rows(self) -> int:
        return self.steps // self.diag_stride + 1

    def manifest_text(self, t_end: float) -> str:
        return (f"[lattice]\npreset = {self.preset}\n\n"
                f"[grid]\nn1 = {self.resolution}\nn2 = {self.resolution}\n\n"
                f"[solver]\ndt = {self.dt!r}\nt_end = {t_end!r}\n"
                f"diag_stride = {self.diag_stride}\n\n"
                f"[experiment]\nreference = {self.reference}\np_norm = {self.p_norm!r}\n")

    def argv(self, t_end: float) -> list[str]:
        """CLI flags of the job; no flag sets the diagnostics stride."""
        if self.diag_stride != CLI_DIAG_STRIDE:
            raise ValueError(f"the CLI runs diag_stride {CLI_DIAG_STRIDE}, not {self.diag_stride}")
        return ["stability", "--preset", self.preset, "--coeffs", self.reference,
                "--resolution", str(self.resolution), "--dt", repr(self.dt),
                "--t-end", repr(t_end), "--p-norm", repr(self.p_norm)]

STABILITY = {
    s.name: s for s in (
        StabilitySpec("stability-hex128", "hexagonal", "1 0 1 0 1 0", 128, 10, 2.0),
        StabilitySpec("lp-square64", "square", "1 0 0.5 1", 64, 10, 4.0),
    )
}
CENSUS = "census-mixed"
NAMES = (*STABILITY, CENSUS)


def stability_jobs(seed: int):
    """Endless (epsilon, perturbation seed) pairs; epsilon alternates."""
    rng = random.Random(seed)
    first = rng.randrange(2)
    i = 0
    while True:
        yield EPSILONS[(first + i) % 2], rng.randrange(1, 2**31 - 1)
        i += 1


def census_queries(seed: int):
    """Endless (dim, xi, eta, amps, phases) queries, in groups of three that
    hold one each of dims 2, 4 and 6.

    Each lattice is a rectangular (dim 2), square (4) or hexagonal (6) torus,
    rotated, scaled and given a random unimodular change of basis, so the
    eigenspace classification cannot rely on the presets' alignment.
    """
    rng = random.Random(seed)
    while True:
        dims = [2, 4, 6]
        rng.shuffle(dims)
        for dim in dims:
            if dim == 2:
                rows = [(TAU, 0.0), (0.0, TAU * rng.uniform(1.15, 1.6))]
            elif dim == 4:
                rows = [(TAU, 0.0), (0.0, TAU)]
            else:
                rows = [(TAU, 0.0), (TAU / 2.0, TAU * math.sqrt(3.0) / 2.0)]
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            u = [[1 + a * b, a], [b, 1]]  # [[1, a], [0, 1]] @ [[1, 0], [b, 1]]
            if rng.random() < 0.5:
                u.reverse()
            phi, scale = rng.uniform(0.0, TAU), rng.uniform(0.5, 2.0)
            c, s = math.cos(phi), math.sin(phi)
            out = []
            for ur in u:
                x = ur[0] * rows[0][0] + ur[1] * rows[1][0]
                y = ur[0] * rows[0][1] + ur[1] * rows[1][1]
                out.append((scale * (c * x - s * y), scale * (s * x + c * y)))
            # Amplitudes stay positive and at least 1% apart: the 6D census
            # fails on some references with a zero amplitude or two nearly
            # equal ones (see the xfail tests in test_bench.py).
            npairs = dim // 2
            amps = [rng.uniform(0.1, 2.0) for _ in range(npairs)]
            while any(abs(x - y) < AMP_SEPARATION * max(x, y)
                      for i, x in enumerate(amps) for y in amps[i + 1:]):
                amps = [rng.uniform(0.1, 2.0) for _ in range(npairs)]
            phases = [rng.uniform(0.0, TAU) for _ in range(npairs)]
            yield dim, out[0], out[1], tuple(amps), tuple(phases)


def prepare(name: str, seed: int):
    """What a user pays before the first operation: for a stability workload the
    manifest, grid and mode table; for the census the first classification."""
    if name == CENSUS:
        from torus_euler import lattice

        _, xi, eta, _, _ = next(census_queries(seed))
        return lattice.classify_eigenspace(lattice.LatticeBasis(xi, eta))
    from torus_euler.manifest import ExperimentManifest
    from torus_euler.spectral import modes

    spec = STABILITY[name]
    man = ExperimentManifest.from_text(spec.manifest_text(spec.t_end))
    config = man.solver_config()
    man.reference_coeffs()
    return modes(config.grid)


class StabilityWorkload:
    """One CLI stability job per operation; its CSV is checked and removed."""

    block = 2  # traced runs alternate pairs of jobs, so each side sees both epsilons
    root = "cli.main"

    def __init__(self, spec: StabilitySpec, seed: int, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.jobs = stability_jobs(seed)
        self.argv = spec.argv(spec.t_end)
        self.hexagonal = spec.preset == "hexagonal"
        self.worst = {}  # drift / threshold, worst over the run

    def next_input(self):
        return next(self.jobs)

    def _main(self, argv):
        import torus_euler.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = torus_euler.cli.main(argv)
        return rc, buf.getvalue()

    def call(self, job):
        eps, seed = job
        return self._main(self.argv + ["--eps", repr(eps), "--seed", str(seed),
                                       "--output", str(self.workdir)])

    def warm_up(self):
        rc, _ = self._main(self.spec.argv(self.spec.dt * self.spec.diag_stride)
                           + ["--eps", "0.001", "--seed", "0", "--output", str(self.workdir)])
        if rc != 0:
            raise RuntimeError(f"warm-up job exited with {rc}")

    def check(self, job, result) -> tuple[list[str], str | None]:
        """Problems with one job's output, and the sha256 of its CSV."""
        rc, stdout = result
        eps, seed = job
        if rc != 0:
            return [f"exit code {rc}"], None
        written = [line[len("wrote "):] for line in stdout.splitlines()
                   if line.startswith("wrote ")]
        if len(written) != 1:
            return [f"expected one CSV, CLI reported {written}"], None
        path = Path(written[0])
        data = path.read_bytes()
        path.unlink()
        problems, ratios = check_stability(data.decode(), eps=eps, seed=seed,
                                           rows=self.spec.rows, hexagonal=self.hexagonal)
        for k, r in ratios.items():
            self.worst[k] = max(self.worst.get(k, 0.0), r)
        return problems, hashlib.sha256(data).hexdigest()

    def digest_key(self, job) -> str:
        return f"{job[0]!r}:{job[1]}"


class CensusWorkload:
    """One operation is three census queries, one each of dimensions 2, 4 and 6,
    so every operation's latency covers every dimension."""

    block = 32
    root = "census.op"

    def __init__(self, seed: int):
        from torus_euler import census, eigenstate, lattice

        self.queries = census_queries(seed)
        self.lattice, self.census, self.eigenstate = lattice, census, eigenstate

    def next_input(self):
        return tuple(next(self.queries) for _ in range(3))

    def _query(self, query):
        _, xi, eta, amps, phases = query
        info = self.lattice.classify_eigenspace(self.lattice.LatticeBasis(xi, eta))
        ref = self.eigenstate.EigenstateCoeffs(info, amps, phases)
        return ref, self.census.orbit_census(ref)

    def call(self, triple):
        return [self._query(q) for q in triple]

    def warm_up(self):
        warm = census_queries(-1)
        for _ in range(30):
            self._query(next(warm))

    def check(self, triple, result) -> tuple[list[str], str | None]:
        return [p for q, (ref, out) in zip(triple, result)
                for p in check_census(ref, out, q[0])], None

def make(name: str, seed: int, workdir: Path):
    if name == CENSUS:
        return CensusWorkload(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    return StabilityWorkload(STABILITY[name], seed, workdir)
