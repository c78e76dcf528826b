"""torus-euler benchmark: one client in a closed loop, one operation at a time, one process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the repository root;
bench/DESIGN.md gives the reasons.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics.  Every operation's output is
checked outside the timed region; an operation that raises or fails its
check counts in ``failed``.  Results, machine facts and spans are also
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

import workloads  # noqa: E402


def setup_seconds(name: str, seed: int) -> list[float]:
    """Cold-start times of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def import_package():
    """Import torus_euler from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import torus_euler

    if Path(torus_euler.__file__).resolve().parent != SRC / "torus_euler":
        raise ImportError(f"torus_euler imported from {torus_euler.__file__}, not {SRC}")


class Loop:
    """Runs operations until the deadline, timing each and checking it afterwards."""

    def __init__(self, workload, tracer=None, digests=None):
        self.w = workload
        self.tracer = tracer
        self.digests = digests or {}
        self.ms = {False: [], True: []}   # op latencies, untraced / traced
        self.traced_ops = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.identical = self.compared = 0
        self.modes_hits = self.modes_misses = 0
        self._pending = []

    def _finish(self, inp, result, error):
        self.attempted += 1
        if error is not None:
            problems, digest = [error], None
        else:
            problems, digest = self.w.check(inp, result)
        if problems:
            self.failed += 1
            self.problems.append(f"op {self.attempted - 1} {inp!r}: {'; '.join(problems)}")
        key = self.w.digest_key(inp) if digest else None
        if key in self.digests:
            self.compared += 1
            self.identical += self.digests[key] == digest

    def compare_default_job(self):
        """For a seed without recorded digests, compare the default seed's first job."""
        job = next(workloads.stability_jobs(workloads.DEFAULT_SEED))
        self._finish(job, self.w.call(job), None)

    def _drain(self):
        for item in self._pending:
            self._finish(*item)
        self._pending.clear()

    def run_one(self, i: int, traced: bool):
        inp = self.w.next_input()
        result = error = None
        if traced:
            from torus_euler.spectral import modes

            info0 = modes.cache_info()
            self.tracer.active = True
        t0 = perf_counter()
        try:
            if traced:
                result = self.tracer.root(self.w.root, i, self.w.call, inp)
            else:
                result = self.w.call(inp)
        except Exception:  # an operation that raises is counted, and the loop goes on
            error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        dt = perf_counter() - t0
        if traced:
            self.tracer.active = False
            info1 = modes.cache_info()
            self.modes_hits += info1.hits - info0.hits
            self.modes_misses += info1.misses - info0.misses
            self.traced_ops += 1
        self.ms[traced].append(dt * 1e3)
        self._pending.append((inp, result, error))

    def run(self, seconds: float):
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            traced = self.tracer is not None and (i // self.w.block) % 2 == 0
            self.run_one(i, traced)
            i += 1
            if len(self._pending) >= self.w.block:
                self._drain()
        self._drain()


def end_to_end(loop: Loop, setup: list[float]) -> dict[str, float]:
    ms = loop.ms[False]
    return {
        "setup_s": statistics.median(setup),
        "op_ms.p50": statistics.median(ms),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(loop: Loop, tracer) -> dict[str, float]:
    import tracing

    out = tracing.layer_metrics(tracer.spans, loop.traced_ops)
    untraced, traced = loop.ms[False], loop.ms[True]
    out["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0
                                  if traced and untraced else 0.0)
    calls = loop.modes_hits + loop.modes_misses
    out["spectral.modes.hit_ratio"] = loop.modes_hits / calls if calls else 0.0
    out["cli.csv_identical_frac"] = loop.identical / loop.compared if loop.compared else 0.0
    out["cli.csv_compared"] = float(loop.compared)
    return out


def summary_lines(loop: Loop, setup: list[float], spec) -> list[str]:
    """The run in other terms (steps/s, queries/s, failed share), with sample counts."""
    ms = loop.ms[False]
    lines = [f"# failed_frac = {loop.failed / loop.attempted:.6g} "
             f"({loop.failed} of {loop.attempted} operations)"]
    if setup:
        lines.append(f"# setup_s = {statistics.median(setup):.4f} s "
                     f"(median of {len(setup)} cold starts: {', '.join(f'{t:.3f}' for t in setup)})")
    if ms and spec is not None:
        rates = sorted(spec.steps / (t / 1e3) for t in ms)
        lines.append(f"# steps_per_s = {statistics.median(rates):.4g} steps/s "
                     f"(median of {len(ms)} jobs of {spec.steps} steps, "
                     f"range {rates[0]:.4g}-{rates[-1]:.4g})")
    elif ms:
        q = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
        lines.append(f"# census_per_s = {3 * len(ms) / (sum(ms) / 1e3):.5g} queries/s "
                     f"(3 x ops_per_s); "
                     f"per operation of 3 queries (dims 2, 4, 6): "
                     f"p50 = {statistics.median(ms):.4g} ms, "
                     f"p99 = {q[98]:.4g} ms (n = {len(ms)})")
    worst = getattr(loop.w, "worst", None)
    if worst:
        lines.append("# drift / threshold, worst job: "
                     + ", ".join(f"{k} {v:.3g}" for k, v in worst.items()))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torus_euler" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'torus_euler'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ["TORUS_EULER_THREADS"] = "1"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    import_package()
    import facts

    w = workloads.make(args.workload, args.seed, workdir)
    w.warm_up()
    tracer = digests = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        digests = json.loads((BENCH / "csv_digests.json").read_text()).get(args.workload, {})
    loop = Loop(w, tracer, digests)
    loop.run(args.seconds)
    if args.trace:
        tracer.uninstall()
        if digests and loop.compared == 0:
            loop.compare_default_job()
        tracer.write(OUT / f"{tag}-spans.csv")
        metrics, section = per_layer(loop, tracer), "per_layer"
    else:
        metrics, section = end_to_end(loop, setup), "end_to_end"

    spec = workloads.STABILITY.get(args.workload)
    machine = facts.collect(ROOT, args.seed, spec.resolution if spec else None)
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared[section]},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"result": result, "all_metrics": metrics, "machine": machine,
         "setup_s": setup, "op_ms": loop.ms[False], "problems": loop.problems}, indent=1))
    for line in summary_lines(loop, setup, spec):
        print(line)
    for p in loop.problems[:5]:
        print(f"# FAILED {p}")
    print("# machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
