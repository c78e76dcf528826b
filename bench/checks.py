"""Output checks for benchmark operations; each returns a list of problems.

The checks need no stored answers, so every workload seed is checkable.
Drifts are recomputed here from the CSV rather than taken from
``admissibility_check``, so a defect in that function cannot hide one in
the solver.
"""

from __future__ import annotations

import math

# Relative slack on orbit_dist[0] <= eps: the perturbation has unit L^p norm,
# so the initial distance is at most eps up to roundoff.
ORBIT_DIST_RTOL = 1e-9
# Criterion 10's witness on the hexagonal torus.
WITNESS_AMPLIFICATION = 10.0
WITNESS_THETA_RAD = 0.1
# Census representatives must reproduce the reference's moments to this
# fraction of (sum of amplitudes)^m.  The census itself accepts cubic roots
# whose reduced moments match to 1e-7.  Measured worst case: 5.3e-16 over
# 36000 queries with positive amplitudes, 3.2e-8 when one amplitude is zero.
MOMENT_RTOL = 1e-6


def parse_stability_csv(text: str, header: str):
    """(meta dict, column dict) of a diagnostics CSV, or raise ValueError."""
    meta, lines = {}, text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, val = lines.pop(0)[2:].partition(" = ")
        meta[key] = val
    if not lines or lines[0] != header:
        raise ValueError("header line does not match CSV_HEADER")
    names = header.split(",")
    cols = {n: [] for n in names}
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(names):
            raise ValueError(f"row has {len(vals)} fields, expected {len(names)}")
        for n, v in zip(names, vals):
            cols[n].append(float(v))
    return meta, cols


def drifts(cols, area: float) -> dict[str, float]:
    """Maximum relative drift of each conserved quantity, as the solver defines it."""
    out = {}
    z0 = abs(cols["enstrophy"][0])
    for key in ("energy", "enstrophy"):
        v0 = cols[key][0]
        out[key] = max(abs(v - v0) for v in cols[key]) / max(abs(v0), 1e-300)
    for m in (3, 4, 5, 6):
        series = cols[f"casimir{m}"]
        scale = max(abs(series[0]), area * (z0 / area) ** (m / 2.0))
        out[f"casimir{m}"] = max(abs(v - series[0]) for v in series) / max(scale, 1e-300)
    return out


def check_stability(text: str, *, eps: float, seed: int, rows: int,
                    hexagonal: bool) -> tuple[list[str], dict[str, float]]:
    """Problems with one stability CSV, and drift/threshold ratios for reporting."""
    from torus_euler.euler import CSV_HEADER, DEFAULT_DRIFT_THRESHOLDS as thresholds

    try:
        meta, cols = parse_stability_csv(text, CSV_HEADER)
    except ValueError as exc:
        return [f"csv does not parse: {exc}"], {}
    problems = []
    if len(cols["t"]) != rows:
        problems.append(f"{len(cols['t'])} rows, expected {rows}")
    if float(meta.get("epsilon", "nan")) != eps or meta.get("seed") != str(seed):
        problems.append(f"meta records eps={meta.get('epsilon')} seed={meta.get('seed')}")
    finite_cols = [n for n in cols if n != "theta" or hexagonal]
    if not all(math.isfinite(v) for n in finite_cols for v in cols[n]):
        problems.append("non-finite diagnostics")
        return problems, {}
    ratios = {k: v / thresholds[k] for k, v in drifts(cols, float(meta["area"])).items()}
    problems += [f"{k} drift {r * thresholds[k]:.3e} over threshold {thresholds[k]:g}"
                 for k, r in ratios.items() if not r <= 1.0]
    d = cols["orbit_dist"]
    if not d[0] <= eps * (1.0 + ORBIT_DIST_RTOL):
        problems.append(f"orbit_dist[0] = {d[0]!r} exceeds eps = {eps!r}")
    if hexagonal:
        amp = max(d) / d[0] if d[0] > 0 else math.inf
        th0 = cols["theta"][0]
        dth = max(abs((th - th0 + math.pi) % (2 * math.pi) - math.pi) for th in cols["theta"])
        if not amp <= WITNESS_AMPLIFICATION:
            problems.append(f"D(t)/D(0) reached {amp:.3g}")
        if not dth <= WITNESS_THETA_RAD:
            problems.append(f"theta drifted {dth:.3g} rad")
    return problems, ratios


def moment_orders(dim: int) -> tuple[int, ...]:
    """Moment orders the census matches: 2 and 4, plus 3 and 6 in the 6D case."""
    return (2, 3, 4, 6) if dim == 6 else (2, 4)


def check_census(ref, out, expected_dim: int) -> list[str]:
    """Problems with one census answer ``out`` for reference ``ref``."""
    from torus_euler.census import CENSUS_BOUNDS as bounds, moments_quadrature_oracle as oracle
    from torus_euler.eigenstate import same_orbit

    problems = []
    dim = ref.info.dim
    if dim != expected_dim:
        problems.append(f"eigenspace dimension {dim}, expected {expected_dim}")
    if out.dim != dim or out.count != len(out.representatives):
        problems.append(f"census reports dim={out.dim} count={out.count} "
                        f"for {len(out.representatives)} representatives")
    if out.count > bounds[dim]:
        problems.append(f"census of {out.count} exceeds bound {bounds[dim]}")
    if not any(same_orbit(ref, r) for r in out.representatives):
        problems.append("reference orbit missing from the census")
    for m in moment_orders(dim):
        want = oracle(ref, m)
        scale = sum(ref.amps) ** m
        for i, rep in enumerate(out.representatives):
            got = oracle(rep, m)
            if not abs(got - want) <= MOMENT_RTOL * scale:
                problems.append(f"representative {i} moment {m}: {got!r} vs {want!r}")
    return problems
