"""Spans around calls into the torus_euler layers, recorded from outside the package.

Each wrapped function is replaced in every namespace it is looked up from,
so calls made inside the package (``euler.run`` calling ``step``) are seen
as well as calls made by the benchmark.  A span is
``(name, start, end, parent, job, attr)``: ``parent`` is the index of the
enclosing span (-1 for a root), ``job`` the operation it belongs to, and
``attr`` a per-name number (transform flops, eigenspace dimension,
optimizer evaluations).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import functools
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")


def _fft_flops(fname, args, kwargs, result):
    """Computed flops of one transform: 5 N log2 N complex, 2.5 N log2 N real."""
    real_space = result if fname.startswith("irfft") else args[0]
    shape = getattr(real_space, "shape", ())
    axes = kwargs.get("axes")
    if axes is None:
        axes = (-2, -1) if fname.endswith("2") else tuple(range(-len(shape), 0))
    n = math.prod(shape[a] for a in axes) if shape else 1
    batch = math.prod(shape) // n if n else 0
    per = 2.5 if "rfft" in fname else 5.0
    return per * n * math.log2(n) * batch if n > 1 else 0.0


def _orbit_distance_name(args, kwargs):
    p = args[2] if len(args) > 2 else kwargs.get("p_norm", 2.0)
    return "eigenstate.orbit_distance_l2" if p == 2 else "eigenstate.orbit_distance_lp"


class Tracer:
    """Owns the span list and the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attr):
        t1 = perf_counter()
        self.stack.pop()
        self.spans[sid] = (name, t0, t1, parent, self.job, attr)

    def root(self, name, job, fn, *args):
        """Run fn(*args) as the root span of operation ``job``."""
        self.job = job
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, name, t0, 0.0)

    def wrap(self, name, fn, attr=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                nm = name_of(args, kwargs) if name_of else name
                a = attr(args, kwargs, result) if attr and result is not None else 0.0
                tracer._close(sid, parent, nm, t0, a)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, fn, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "torus_euler" or modname.startswith("torus_euler."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def install(self):
        """Wrap the layer functions; call ``uninstall`` to undo."""
        import numpy.fft
        import scipy.fft
        from torus_euler import census, eigenstate, euler, lattice, manifest, spectral

        plain = [
            ("euler.stability_experiment", euler.stability_experiment, None, None),
            ("euler.run", euler.run, None, None),
            ("euler.step", euler.step, None, None),
            ("eigenstate.orbit_distance", eigenstate.orbit_distance, None,
             _orbit_distance_name),
            ("eigenstate.project_to_e1", eigenstate.project_to_e1, None, None),
            ("eigenstate.minimize", eigenstate.minimize,
             lambda a, k, r: float(r.nfev), None),
            ("spectral.analyze", spectral.analyze, None, None),
            ("lattice.classify_eigenspace", lattice.classify_eigenspace, None, None),
            ("census.orbit_census", census.orbit_census,
             lambda a, k, r: float(a[0].info.dim), None),
            ("census.enumerate_candidates", census.enumerate_candidates, None, None),
            ("eigenstate.same_orbit", eigenstate.same_orbit, None, None),
        ]
        for name, fn, attr, name_of in plain:
            self._replace_everywhere(fn, self.wrap(name, fn, attr, name_of))
        from_text = manifest.ExperimentManifest.__dict__["from_text"].__func__
        self._set(manifest.ExperimentManifest, "from_text",
                  classmethod(self.wrap("manifest.from_text", from_text)))
        self._set(euler.Diagnostics, "to_csv",
                  self.wrap("euler.Diagnostics.to_csv", euler.Diagnostics.to_csv))
        for mod in (numpy.fft, scipy.fft):
            for fname in FFT_NAMES:
                fn = getattr(mod, fname)
                wrapper = self.wrap("spectral.fft", fn, functools.partial(_fft_flops, fname))
                self._set(mod, fname, wrapper)
                # names imported into the package (``from scipy.fft import rfft2``)
                self._replace_everywhere(fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("name", "start", "end", "parent", "job", "attr"))
            w.writerows(s for s in self.spans if s is not None)


def _p(values, q):
    """Percentile q (0-100) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    if q == 50 or len(values) == 1:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``n_ops`` traced operations."""
    name = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]
    child_sum = [0.0] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            child_sum[p] += dur[i]

    # nearest enclosing euler.step or euler.run span of every span
    under = [-1] * len(spans)
    for i, p in enumerate(parent):
        if p >= 0:
            under[i] = p if name[p] in ("euler.step", "euler.run") else under[p]

    by_name = defaultdict(list)
    for i, n in enumerate(name):
        by_name[n].append(i)

    def durs(n):
        return [dur[i] for i in by_name[n]]

    def per_op(values):
        """Busy time per traced operation, so that it does not grow with the run."""
        return sum(values) / n_ops if n_ops else 0.0

    runs = by_name["euler.run"]
    first_step = {r: math.inf for r in runs}
    run_steps = defaultdict(float)
    for i in by_name["euler.step"]:
        r = parent[i]
        if r in first_step:
            first_step[r] = min(first_step[r], spans[i][1])
            run_steps[r] += dur[i]

    def after_first_step(i):
        r = under[i]
        return r in first_step and spans[i][1] > first_step[r]

    dist = by_name["eigenstate.orbit_distance_l2"] + by_name["eigenstate.orbit_distance_lp"]
    rows = sum(1 for i in dist if under[i] in first_step)
    later_rows = sum(1 for i in dist if after_first_step(i))

    def per_later_row(n):
        count = sum(1 for i in by_name[n] if after_first_step(i))
        return count / later_rows if later_rows else 0.0

    steps = by_name["euler.step"]
    ffts = by_name["spectral.fft"]
    fft_in_steps = sum(1 for i in ffts if under[i] >= 0 and name[under[i]] == "euler.step")
    fft_time = sum(dur[i] for i in ffts)
    fft_flops = sum(spans[i][5] for i in ffts)
    roots = by_name["cli.main"] + by_name["census.op"]
    root_time = sum(dur[i] for i in roots) or math.inf
    diag_time = sum(dur[r] - run_steps[r] for r in runs)
    lp = durs("eigenstate.orbit_distance_lp")
    minimize = by_name["eigenstate.minimize"]

    queries = by_name["census.orbit_census"]
    census_dims = defaultdict(list)
    for i in by_name["census.orbit_census"]:
        census_dims[int(spans[i][5])].append(dur[i])
    same_orbit_in_census = sum(
        1 for i in by_name["eigenstate.same_orbit"]
        if parent[i] >= 0 and name[parent[i]] == "census.orbit_census")

    ms = 1e3
    out = {
        "euler.step.ms_per_op": per_op(durs("euler.step")) * ms,
        "euler.step.ms.p50": _p(durs("euler.step"), 50) * ms,
        "euler.step.ms.p99": _p(durs("euler.step"), 99) * ms,
        "euler.step.share": sum(durs("euler.step")) / root_time,
        "spectral.fft.per_op": len(ffts) / n_ops if n_ops else 0.0,
        "spectral.fft.per_step": fft_in_steps / len(steps) if steps else 0.0,
        "spectral.fft.per_diag_row": per_later_row("spectral.fft"),
        "spectral.fft.us_per_call": fft_time / len(ffts) * 1e6 if ffts else 0.0,
        "spectral.fft.gflops_computed": fft_flops / fft_time / 1e9 if fft_time else 0.0,
        "spectral.analyze.per_diag_row": per_later_row("spectral.analyze"),
        "euler.diag.rows": float(rows),
        "euler.diag.ms_per_row": diag_time / rows * ms if rows else 0.0,
        "euler.diag.share": diag_time / root_time,
        "euler.run.self_ms_per_row":
            sum(dur[r] - child_sum[r] for r in runs) / rows * ms if rows else 0.0,
        "eigenstate.orbit_distance_l2.ms.p50":
            _p(durs("eigenstate.orbit_distance_l2"), 50) * ms,
        "eigenstate.orbit_distance_l2.share":
            sum(durs("eigenstate.orbit_distance_l2")) / root_time,
        "eigenstate.project_to_e1.ms.p50": _p(durs("eigenstate.project_to_e1"), 50) * ms,
        "eigenstate.project_to_e1.share": sum(durs("eigenstate.project_to_e1")) / root_time,
        "eigenstate.orbit_distance_lp.ms.p50": _p(lp, 50) * ms,
        "eigenstate.orbit_distance_lp.ms_per_op": per_op(lp) * ms,
        "eigenstate.orbit_distance_lp.share": sum(lp) / root_time,
        "eigenstate.minimize.nfev_per_call":
            sum(spans[i][5] for i in minimize) / len(minimize) if minimize else 0.0,
        "lattice.classify_eigenspace.per_diag_row": per_later_row("lattice.classify_eigenspace"),
        "lattice.classify_eigenspace.ms_per_op": per_op(durs("lattice.classify_eigenspace")) * ms,
        "census.orbit_census.ms.p50.dim2": _p(census_dims[2], 50) * ms,
        "census.orbit_census.ms.p50.dim4": _p(census_dims[4], 50) * ms,
        "census.orbit_census.ms.p50.dim6": _p(census_dims[6], 50) * ms,
        "census.enumerate_candidates.ms_per_op": per_op(durs("census.enumerate_candidates")) * ms,
        "census.same_orbit.per_query": same_orbit_in_census / len(queries) if queries else 0.0,
        "manifest.from_text.ms": _p(durs("manifest.from_text"), 50) * ms,
        "cli.main.self_ms": _p([dur[i] - child_sum[i] for i in by_name["cli.main"]], 50) * ms,
        "euler.Diagnostics.to_csv.ms": _p(durs("euler.Diagnostics.to_csv"), 50) * ms,
        "trace.ops": float(n_ops),
    }
    return out
