"""Enumeration of candidate translation orbits sharing all moment invariants.

Two states in the first eigenspace that are rearrangements of each other
share every power moment of the vorticity.  For the 6D (hexagonal) case the
moments of orders 2, 3, 4, 6 reduce to polynomial brackets in the squared
amplitudes and one phase combination; eliminating two unknowns leaves a
cubic, so the moment data pins the amplitudes down to at most 6 ordered
triples and hence at most 12 orbits.  Lower dimensions need only the
orders 2 and 4 and give at most 1 or 2 orbits.

That cubic is 3 (x - A1^2)(x - A2^2)(x - A3^2) in the reference's own
squared amplitudes, so ``orbit_census`` reads the solutions off the
reference: the orderings of its amplitudes and, in 6D, the phase invariants
theta and -theta.  The moment route (``moment_data``, ``reduce_to_cubic``,
``solve_cubic``, ``back_substitute``, ``enumerate_candidates``) solves the
same system numerically from the moments alone; it is the census's
certified oracle in the tests, and ``verify`` checks the factored cubic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .coeffs import (DEFAULT_ORBIT_TOL, EigenstateCoeffs, _theta, _wrap_phase, circ_dist,
                     same_orbit)
from .errors import (
    DegenerateLeadingCoefficient,
    InconsistentMoments,
    InternalInvariant,
    UnsupportedMoment,
)

__all__ = [
    "MomentData",
    "OrbitCensus",
    "moment_bracket",
    "moments_quadrature_oracle",
    "moment_data",
    "reduce_to_cubic",
    "solve_cubic",
    "back_substitute",
    "forward_moments",
    "enumerate_candidates",
    "orbit_census",
    "linf_datum",
    "CENSUS_BOUNDS",
]

CENSUS_BOUNDS = {2: 1, 4: 2, 6: 12}

TRIPLE_DEDUP = 1e-7   # max-norm below which squared-amplitude triples merge
CLAMP = 1e-9          # tolerated negative excursion of a squared amplitude


@dataclass(frozen=True)
class MomentData:
    """Reduced moment invariants of a reference state.

    ``quadratic``/``quartic``/``sextic_reduced`` are the right-hand sides of
    the polynomial system in the squared amplitudes; ``cubic`` is the
    order-3 datum A1 A2 A3 cos(theta) (6D only, else None).
    """

    dim: int
    quadratic: float
    quartic: float
    sextic_reduced: float | None = None
    cubic: float | None = None

    def __post_init__(self):
        # both are sums of squares with positive coefficients
        if self.quadratic < 0 or self.quartic < 0:
            raise ValueError(
                f"moment data out of range: quadratic={self.quadratic}, "
                f"quartic={self.quartic}"
            )


@dataclass(frozen=True)
class OrbitCensus:
    dim: int
    representatives: tuple[EigenstateCoeffs, ...]
    count: int


def moment_bracket(c: EigenstateCoeffs, m: int) -> float:
    """Closed-form bracket polynomial whose kappa_m multiple equals the
    cell mean of w^m (kappa = 1/2, 3/2, 3/8, 5/16 for m = 2, 3, 4, 6).  numpy
    loads here, not with the module, as the census needs none; plain floats
    would change bits, since numpy's powers can differ from libm's."""
    import numpy as np

    a = np.array(c.amps)
    if m == 2:
        return float(np.sum(a**2))
    if m == 4:
        s2 = np.sum(a**2)
        s4 = np.sum(a**4)
        return float(s4 + 2.0 * (s2**2 - s4))  # sum A^4 + 4 sum_{i<j} A_i^2 A_j^2
    if c.info.dim != 6:
        raise UnsupportedMoment(f"order {m} has no bracket for dim {c.info.dim}")
    if m == 3:
        return float(a[0] * a[1] * a[2] * math.cos(_theta(c)))
    if m == 6:
        sq = a**2
        cross = sum(sq[i] ** 2 * sq[j] for i in range(3) for j in range(3) if i != j)
        prod = float(sq[0] * sq[1] * sq[2])
        return float(
            np.sum(a**6) + 9.0 * cross + 27.0 * prod
            + 18.0 * prod * math.cos(_theta(c)) ** 2
        )
    raise UnsupportedMoment(f"no bracket for moment order {m}")


def moments_quadrature_oracle(c: EigenstateCoeffs, m: int) -> float:
    """Cell mean of w^m by exact trigonometric quadrature.

    The active wavevectors reduce the state to a function of one or two
    cyclic variables, so a uniform grid with more than m points per axis
    integrates w^m exactly.  Independent of moment_bracket by design.
    Orders other than whole m >= 1 raise UnsupportedMoment.
    """
    if not (m >= 1 and float(m).is_integer()):
        raise UnsupportedMoment(f"moment order must be a whole number >= 1, got {m}")
    import numpy as np

    n = max(4 * m, 8)
    u = np.arange(n) * 2.0 * math.pi / n
    if c.info.dim == 2:
        w = c.amps[0] * np.cos(u + c.phases[0])
    else:
        uu, vv = np.meshgrid(u, u, indexing="ij")
        w = c.amps[0] * np.cos(uu + c.phases[0]) + c.amps[1] * np.cos(vv + c.phases[1])
        if c.info.dim == 6:
            w = w + c.amps[2] * np.cos(uu + vv + c.phases[2])
    return float(np.mean(w**m))


def moment_data(c: EigenstateCoeffs) -> MomentData:
    b2 = moment_bracket(c, 2)
    b4 = moment_bracket(c, 4)
    if c.info.dim != 6:
        return MomentData(c.info.dim, b2, b4)
    b3 = moment_bracket(c, 3)
    b6 = moment_bracket(c, 6)
    return MomentData(6, b2, b4, b6 - 18.0 * b3**2, b3)


def reduce_to_cubic(c1: float, c2: float, c3: float) -> tuple[float, float, float, float]:
    """Coefficients of the cubic satisfied by each coordinate of a solution
    of the reduced moment system."""
    return (3.0, -3.0 * c1, 1.5 * (c2 - c1**2), 3.0 * c1 * c2 - 2.0 * c1**3 - c3)


def _polish(coeffs, r: float) -> float:
    a, b, c, d = coeffs
    for _ in range(3):
        f = ((a * r + b) * r + c) * r + d
        df = (3.0 * a * r + 2.0 * b) * r + c
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step):
            break
        r -= step
    return r


def _eval_terms(coeffs, r: float, r_scale: float) -> tuple[float, float]:
    """Value of the cubic at r and a noise-floor magnitude for that value.

    The magnitude is evaluated at max(|r|, r_scale) so that roots sitting
    near zero are still judged against the cubic's overall scale rather
    than against a vanishing local term sum.
    """
    a, b, c, d = coeffs
    val = ((a * r + b) * r + c) * r + d
    s = max(abs(r), r_scale)
    mag = abs(a) * s**3 + abs(b) * s * s + abs(c) * s + abs(d)
    return val, mag


MULT_RTOL = 1e-12  # residual gate (relative to term magnitudes) for multiple roots


def solve_cubic(coeffs) -> list[tuple[float, int]]:
    """All real roots of a*x^3 + b*x^2 + c*x + d with multiplicities.

    Multiple roots are detected structurally rather than by clustering:
    a triple root must sit at the inflection point and a double root at a
    critical point, both testable with backward-stable relative residuals.
    The remaining cases split on the discriminant into the one-real-root
    Cardano branch and the three-root trigonometric branch, followed by
    Newton polishing.
    """
    a, b, c, d = (float(v) for v in coeffs)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0 or abs(a) <= 1e-14 * scale:
        raise DegenerateLeadingCoefficient(f"leading coefficient {a} too small")

    shift = -b / (3.0 * a)
    r_scale = max(abs(b / a), math.sqrt(abs(c / a)), abs(d / a) ** (1.0 / 3.0))
    val, mag = _eval_terms(coeffs, shift, r_scale)
    dval = (3.0 * a * shift + 2.0 * b) * shift + c
    ds = max(abs(shift), r_scale)
    dmag = 3.0 * abs(a) * ds * ds + 2.0 * abs(b) * ds + abs(c)
    if abs(val) <= MULT_RTOL * (mag + 1e-300) and abs(dval) <= MULT_RTOL * (dmag + 1e-300):
        return [(shift, 3)]

    disc2 = b * b - 3.0 * a * c
    if disc2 >= 0.0:
        sq2 = math.sqrt(disc2)
        doubles = []
        for s in (1.0, -1.0):
            tc = (-b + s * sq2) / (3.0 * a)
            v, m = _eval_terms(coeffs, tc, r_scale)
            if abs(v) <= MULT_RTOL * (m + 1e-300):
                doubles.append((abs(v) / (m + 1e-300), tc))
        if doubles:
            tc = min(doubles)[1]
            simple = _polish(coeffs, -b / a - 2.0 * tc)  # Vieta: roots sum to -b/a
            out = sorted([(tc, 2), (simple, 1)])
            if abs(out[0][0] - out[1][0]) <= 1e-8:
                return [(tc, 3)]
            return out

    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a**3)
    disc = q * q / 4.0 + p**3 / 27.0
    if disc >= 0.0:
        # one real root; pick the non-cancelling cube-root branch
        sq = math.sqrt(disc)
        u3 = -q / 2.0 - sq if q > 0 else -q / 2.0 + sq
        u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        roots = [u + v + shift]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(max(3.0 * q / (p * m), -1.0), 1.0)
        phi = math.acos(arg) / 3.0
        roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]

    roots = sorted(_polish(coeffs, r) for r in roots)
    out: list[tuple[float, int]] = []
    for r in roots:
        if out and abs(r - out[-1][0]) <= 1e-8:
            out[-1] = (out[-1][0], min(out[-1][1] + 1, 3))
        else:
            out.append((r, 1))
    return out


def back_substitute(x: float, c1: float, c2: float) -> list[tuple[float, float]]:
    """Ordered pairs (y, z) completing a cubic root x to a solution triple.

    y and z are the roots of t^2 - s t + q with s = c1 - x and
    q = x^2 - c1 x + (c2 - c1^2)/2; both orderings are returned because
    the amplitude slots are distinguishable.
    """
    s = c1 - x
    q = x * x - c1 * x + 0.5 * (c2 - c1 * c1)
    # noise floor of disc includes the magnitudes cancelled inside q
    q_mag = x * x + abs(c1 * x) + 0.5 * abs(c2 - c1 * c1)
    disc = s * s - 4.0 * q
    disc_scale = s * s + 4.0 * q_mag
    if disc <= MULT_RTOL * disc_scale:
        # at or numerically below a double pair: rounding blurs the split
        if disc < -1e-9 * max(1.0, disc_scale):
            return []
        disc = 0.0
    r = math.sqrt(disc)
    y, z = 0.5 * (s + r), 0.5 * (s - r)
    pair = []
    for val in (y, z):
        if val < -CLAMP:
            return []
        pair.append(max(val, 0.0))
    y, z = pair
    if abs(y - z) <= TRIPLE_DEDUP:
        return [(y, z)]
    return [(y, z), (z, y)]


def forward_moments(x: float, y: float, z: float) -> tuple[float, float, float]:
    """The reduced moment system evaluated on a squared-amplitude triple."""
    c1 = x + y + z
    c2 = x * x + y * y + z * z + 4.0 * (x * y + x * z + y * z)
    c3 = (x**3 + y**3 + z**3
          + 9.0 * (x * x * y + x * x * z + x * y * y + y * y * z + x * z * z + y * z * z)
          + 27.0 * x * y * z)
    return c1, c2, c3


def _zero_floor(value: float, scale: float) -> float:
    """Squared amplitudes below the double-precision noise floor count as zero
    (their square roots would otherwise exceed orbit-comparison tolerances)."""
    return 0.0 if value <= 1e-13 * max(scale, 1e-300) else value


def enumerate_candidates(md: MomentData) -> list[tuple[float, float, float]]:
    """All (x, y, z) tuples of squared amplitudes consistent with 6D moment
    data, sorted, at most 6."""
    targets = (md.quadratic, md.quartic, md.sextic_reduced)
    roots = solve_cubic(reduce_to_cubic(*targets))
    triples: list[tuple[float, float, float]] = []
    for x, _multiplicity in roots:
        if x < -CLAMP:
            continue
        x = _zero_floor(max(x, 0.0), md.quadratic)
        for y, z in back_substitute(x, md.quadratic, md.quartic):
            triples.append((x, _zero_floor(y, md.quadratic),
                            _zero_floor(z, md.quadratic)))

    triples.sort()
    out: list[tuple[float, float, float]] = []
    for t in triples:
        if any(max(abs(u - v) for u, v in zip(t, o)) <= TRIPLE_DEDUP for o in out):
            continue
        fwd = forward_moments(*t)
        if all(abs(f - c) <= 1e-7 * max(1.0, abs(c)) for f, c in zip(fwd, targets)):
            out.append(t)
    if len(out) > 6:
        raise InternalInvariant(f"cubic elimination produced {len(out)} triples")
    return out


def linf_datum(c: EigenstateCoeffs) -> float:
    """Sup norm of the state, closed form (dims 2 and 4 only).

    With independent wavevectors the phases decouple, so the sup is the sum
    of the amplitudes.  Equimeasurable states have the same sup norm, so
    every representative of a 4D census shares the reference's value; the
    ``census`` command prints it as a cross-check.
    """
    if c.info.dim == 6:
        raise UnsupportedMoment("no closed-form sup norm in the 6D case")
    return float(sum(c.amps))


def _amplitude_orderings(amps: tuple[float, ...]) -> list[tuple[float, ...]]:
    """One ordering of ``amps`` per class that ``same_orbit`` cannot tell apart, sorted.

    The sorted amplitudes are merged with their neighbours within
    DEFAULT_ORBIT_TOL into classes, and an ordering's sequence of class
    labels is its canonical key.  The first ordering of each key is kept, so
    ``amps`` itself stands for its own class, and every kept tuple is an
    exact rearrangement of ``amps``.
    """
    order = sorted(range(len(amps)), key=amps.__getitem__)
    label = [0] * len(amps)
    for prev, i in zip(order, order[1:]):
        label[i] = label[prev] + (amps[i] - amps[prev] > DEFAULT_ORBIT_TOL)
    kept: dict[tuple[int, ...], tuple[float, ...]] = {}
    for key, ordering in zip(itertools.permutations(label), itertools.permutations(amps)):
        kept.setdefault(key, ordering)
    return sorted(kept.values())


def orbit_census(reference: EigenstateCoeffs) -> OrbitCensus:
    """All translation orbits whose moment invariants match the reference.

    The representatives are the distinct orderings of the reference's own
    amplitudes, with phases (0, 0, -theta) and (0, 0, theta) in the 6D case,
    theta being the reference's phase invariant.  One phase suffices where
    ``same_orbit`` cannot tell theta from -theta: where they coincide, or
    where A1 A2 A3 is within its tolerance of 0.  This is the
    solution set of the moment system, since its cubic is
    3 (x - A1^2)(x - A2^2)(x - A3^2); ``enumerate_candidates`` solves the
    same system from moment data alone and is the census's test oracle.

    The list is a superset of the orbits actually equimeasurable with the
    reference (moments of the computed orders are necessary conditions),
    bounded by 1, 2, or 12 according to the eigenspace dimension, and is
    checked to contain the reference's own orbit: the reference is a translate
    of the representative with its own amplitudes, which ``_amplitude_orderings``
    keeps as they are, and the first phase branch, so that one is compared.

    The representatives are built without re-validation from the validated
    reference: its amplitudes, and branch phases wrapped as the public
    constructor wraps them, 0.0 wherever the amplitude is 0.
    """
    info, amps = reference.info, reference.amps
    orderings = _amplitude_orderings(amps)
    if info.dim == 6:
        theta = _theta(reference)
        turns = [_wrap_phase(-theta)]
        if (amps[0] * amps[1] * amps[2] > DEFAULT_ORBIT_TOL
                and circ_dist(theta, -theta) > DEFAULT_ORBIT_TOL):
            turns.append(_wrap_phase(theta))
        reps = tuple(EigenstateCoeffs._trusted(info, o, (0.0, 0.0, t if o[2] > 0 else 0.0))
                     for o in orderings for t in turns)
    else:
        zeros = (0.0,) * info.npairs
        reps = tuple(EigenstateCoeffs._trusted(info, o, zeros) for o in orderings)
    if len(reps) > CENSUS_BOUNDS[info.dim]:
        raise InternalInvariant(
            f"census of size {len(reps)} exceeds bound {CENSUS_BOUNDS[info.dim]}"
        )
    if amps not in orderings or not same_orbit(
            reference, reps[orderings.index(amps) * len(reps) // len(orderings)]):
        raise InconsistentMoments("reference state is missing from its own census")
    return OrbitCensus(info.dim, reps, len(reps))
