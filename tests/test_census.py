import itertools
import math

import numpy as np
import pytest

from torus_euler import (
    DegenerateLeadingCoefficient,
    EigenstateCoeffs,
    InconsistentMoments,
    InternalInvariant,
    UnsupportedMoment,
    back_substitute,
    enumerate_candidates,
    moment_bracket,
    moment_data,
    moments_quadrature_oracle,
    orbit_census,
    reduce_to_cubic,
    same_orbit,
    solve_cubic,
)
from torus_euler.census import (CENSUS_BOUNDS, TRIPLE_DEDUP, MomentData, OrbitCensus, _polish,
                                forward_moments, linf_datum)
from torus_euler.coeffs import DEFAULT_ORBIT_TOL
from torus_euler.lattice import LatticeBasis, classify_eigenspace

KAPPA = {2: 0.5, 3: 1.5, 4: 0.375, 6: 5.0 / 16.0}


def test_bracket_single_wave(hex_info):
    c = EigenstateCoeffs(hex_info, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert moment_bracket(c, 2) == 1.0
    assert moment_bracket(c, 3) == 0.0
    assert moment_bracket(c, 4) == 1.0
    assert moment_bracket(c, 6) == 1.0


def test_bracket_symmetric_state(hex_info):
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert moment_bracket(c, 2) == 3.0
    assert moment_bracket(c, 3) == 1.0
    assert moment_bracket(c, 4) == 15.0
    assert moment_bracket(c, 6) == 102.0  # 3 + 9*6 + 27 + 18


def test_bracket_matches_quadrature_oracle(hex_info, rng):
    for _ in range(40):
        c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0.1, 2, 3)),
                             tuple(rng.uniform(0, 2 * math.pi, 3)))
        for m in (2, 3, 4, 6):
            oracle = moments_quadrature_oracle(c, m)
            want = KAPPA[m] * moment_bracket(c, m)
            assert abs(oracle - want) <= 1e-9 * max(1.0, abs(oracle))


def test_bracket_unsupported(square_info, hex_info):
    c4 = EigenstateCoeffs(square_info, (1.0, 2.0), (0.0, 0.0))
    assert moment_bracket(c4, 2) == 5.0
    assert moment_bracket(c4, 4) == 1 + 16 + 4 * 4
    with pytest.raises(UnsupportedMoment):
        moment_bracket(c4, 3)
    with pytest.raises(UnsupportedMoment):
        moment_bracket(EigenstateCoeffs(hex_info, (1, 1, 1), (0, 0, 0)), 5)


@pytest.mark.parametrize("m", [0, 2.5, math.nan])
def test_oracle_refuses_an_order_that_is_not_a_whole_number_from_1(hex_info, m):
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(UnsupportedMoment):
        moments_quadrature_oracle(c, m)


def test_oracle_examples(hex_info):
    c = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert abs(moments_quadrature_oracle(c, 2) - 1.5) < 1e-12
    assert abs(moments_quadrature_oracle(c, 1)) < 1e-12
    c2 = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, math.pi / 2))
    assert abs(moments_quadrature_oracle(c2, 3)) < 1e-12


def test_oracle_lower_dims(square_info, rect_info, rng):
    c4 = EigenstateCoeffs(square_info, (1.3, 0.7), (0.4, 2.0))
    assert abs(moments_quadrature_oracle(c4, 2) - 0.5 * moment_bracket(c4, 2)) < 1e-12
    assert abs(moments_quadrature_oracle(c4, 4) - 0.375 * moment_bracket(c4, 4)) < 1e-12
    c2 = EigenstateCoeffs(rect_info, (1.1,), (0.7,))
    assert abs(moments_quadrature_oracle(c2, 2) - 0.5 * 1.1**2) < 1e-12


def test_reduce_to_cubic_spot_instance():
    c1, c2, c3 = forward_moments(1.0, 2.0, 3.0)
    assert (c1, c2, c3) == (6.0, 58.0, 630.0)
    a, b, c, d = reduce_to_cubic(c1, c2, c3)
    for root in (1.0, 2.0, 3.0):
        assert abs(((a * root + b) * root + c) * root + d) <= 1e-9 * max(abs(a), abs(b), abs(c), abs(d))


def test_reduce_to_cubic_zero_and_symmetric():
    assert solve_cubic(reduce_to_cubic(0.0, 0.0, 0.0)) == [(0.0, 3)]
    t = 0.7
    coeffs = reduce_to_cubic(*forward_moments(t, t, t))
    roots = solve_cubic(coeffs)
    assert len(roots) == 1 and roots[0][1] == 3
    assert abs(roots[0][0] - t) < 1e-9


def test_solve_cubic_examples():
    roots = solve_cubic((3.0, -18.0, 33.0, -18.0))  # 3 (x-1)(x-2)(x-3)
    assert [m for _, m in roots] == [1, 1, 1]
    assert np.allclose([r for r, _ in roots], [1.0, 2.0, 3.0], atol=1e-9)

    assert solve_cubic((1.0, 0.0, 0.0, 0.0)) == [(0.0, 3)]

    roots = solve_cubic((1.0, 0.0, 1.0, 1.0))
    assert len(roots) == 1
    r = roots[0][0]
    assert abs(r**3 + r + 1) < 1e-12
    assert abs(r + 0.6823278038280193) < 1e-9


def test_solve_cubic_residual_contract(rng):
    for _ in range(300):
        coeffs = tuple(rng.uniform(-5, 5, 4))
        if abs(coeffs[0]) < 1e-3:
            continue
        scale = max(abs(v) for v in coeffs)
        for r, _ in solve_cubic(coeffs):
            val = ((coeffs[0] * r + coeffs[1]) * r + coeffs[2]) * r + coeffs[3]
            assert abs(val) <= 1e-9 * scale * max(1.0, abs(r)) ** 3


def test_solve_cubic_degenerate_leading():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_cubic((0.0, 1.0, 2.0, 3.0))


def test_back_substitute_examples():
    pairs = back_substitute(1.0, 6.0, 58.0)
    assert len(pairs) == 2
    assert any(abs(y - 3) < 1e-12 and abs(z - 2) < 1e-12 for y, z in pairs)
    assert any(abs(y - 2) < 1e-12 and abs(z - 3) < 1e-12 for y, z in pairs)

    # far-negative discriminant: no completion
    assert back_substitute(100.0, 6.0, 58.0) == []

    t = 0.4
    c1, c2, _ = forward_moments(t, t, t)
    pairs = back_substitute(t, c1, c2)
    assert len(pairs) == 1
    assert abs(pairs[0][0] - t) < 1e-9 and abs(pairs[0][1] - t) < 1e-9


def test_enumerate_candidates_examples():
    md = MomentData(6, *forward_moments(1.0, 1.0, 1.0), cubic=1.0)
    got = enumerate_candidates(md)
    assert any(np.allclose(t, (1, 1, 1), atol=1e-9) for t in got)

    md = MomentData(6, *forward_moments(4.0, 1.0, 0.0), cubic=0.0)
    got = enumerate_candidates(md)
    assert len(got) <= 6
    assert any(np.allclose(t, (4, 1, 0), atol=1e-8) for t in got)

    md = MomentData(6, 0.0, 0.0, 0.0, cubic=0.0)
    got = enumerate_candidates(md)
    assert got == [(0.0, 0.0, 0.0)]


def test_enumerate_candidates_roundtrip(rng):
    for _ in range(200):
        trip = rng.uniform(0, 2.5, 3)
        md = MomentData(6, *forward_moments(*trip), cubic=0.0)
        cands = enumerate_candidates(md)
        assert len(cands) <= 6
        err = min(max(abs(u - v) for u, v in zip(t, trip)) for t in cands)
        assert err <= 1e-6
        for t in cands:
            fwd = forward_moments(*t)
            targets = (md.quadratic, md.quartic, md.sextic_reduced)
            assert all(abs(f - c) <= 1e-7 * max(1.0, abs(c)) for f, c in zip(fwd, targets))


def test_moment_data_bridge(hex_info, rng):
    # the reduced sextic datum removes exactly the phase-dependent term
    for _ in range(50):
        c = EigenstateCoeffs(hex_info, tuple(rng.uniform(0.1, 2, 3)),
                             tuple(rng.uniform(0, 2 * math.pi, 3)))
        md = moment_data(c)
        x, y, z = (a * a for a in c.amps)
        want = forward_moments(x, y, z)
        assert abs(md.quadratic - want[0]) < 1e-9 * max(1, abs(want[0]))
        assert abs(md.quartic - want[1]) < 1e-9 * max(1, abs(want[1]))
        assert abs(md.sextic_reduced - want[2]) < 1e-9 * max(1, abs(want[2]))


# One constructed input per branch of the moment route.

@pytest.mark.parametrize("quadratic,quartic", [(-1e-12, 1.0), (1.0, -1e-12)])
def test_moment_data_refuses_a_negative_sum_of_squares(quadratic, quartic):
    with pytest.raises(ValueError, match="moment data out of range"):
        MomentData(2, quadratic, quartic)


def test_polish_stops_where_newton_has_no_step():
    # x^3 - 1 has a zero derivative at 0, and at 1e200 the cubic overflows
    assert _polish((1.0, 0.0, 0.0, -1.0), 0.0) == 0.0
    assert _polish((1.0, 0.0, 0.0, 0.0), 1e200) == 1e200


def test_solve_cubic_reads_a_double_root_next_to_a_simple_one_as_triple():
    # x^2 (x - 1e-9): the inflection point is no root, but the double root at
    # 0 and the simple one at 1e-9 lie within 1e-8 of each other
    assert solve_cubic((1.0, -1e-9, 0.0, 0.0)) == [(0.0, 3)]


def test_solve_cubic_merges_close_simple_roots():
    # roots 0, 5e-9 and 1e-4: on this scale neither critical point passes the
    # double-root gate, so the close pair is merged after the closed form
    roots = solve_cubic(tuple(np.poly([0.0, 5e-9, 1e-4])))
    assert [m for _, m in roots] == [2, 1]
    assert abs(roots[0][0]) <= 1e-8 and abs(roots[1][0] - 1e-4) <= 1e-12


def test_back_substitute_refuses_a_negative_squared_amplitude():
    # y, z = (1 +- sqrt 3) / 2: z is negative beyond CLAMP
    assert back_substitute(0.0, 1.0, 0.0) == []


def test_enumerate_candidates_skips_a_negative_cubic_root():
    # the cubic's roots are the triple's entries, -1, 1 and 2; no triple of
    # squared amplitudes has these moments
    c1, c2, c3 = forward_moments(-1.0, 1.0, 2.0)
    assert [r for r, _ in solve_cubic(reduce_to_cubic(c1, c2, c3))][0] < 0.0
    assert enumerate_candidates(MomentData(6, c1, c2, c3, cubic=0.0)) == []


def test_enumerate_candidates_merges_triples_within_the_dedup_tolerance():
    # the two small roots differ by 5e-8: both are kept as cubic roots, but
    # the triples they start differ by less than TRIPLE_DEDUP and count once
    trip = (1e-4, 1e-4 + 5e-8, 1e-3)
    md = MomentData(6, *forward_moments(*trip), cubic=0.0)
    assert len(solve_cubic(reduce_to_cubic(md.quadratic, md.quartic, md.sextic_reduced))) == 3
    got = enumerate_candidates(md)
    assert len(got) == 3
    assert all(max(abs(u - v) for u, v in zip(a, b)) > TRIPLE_DEDUP
               for i, a in enumerate(got) for b in got[i + 1:])
    assert all(min(max(abs(u - v) for u, v in zip(t, perm)) for perm in itertools.permutations(trip))
               <= 1e-10 for t in got)


def test_census_dim2(rect_info):
    ref = EigenstateCoeffs(rect_info, (1.7,), (2.0,))
    out = orbit_census(ref)
    assert out.count == 1
    assert same_orbit(ref, out.representatives[0])


def test_census_dim4(square_info):
    ref = EigenstateCoeffs(square_info, (1.0, 2.0), (0.3, 0.9))
    out = orbit_census(ref)
    assert out.count == 2
    assert {r.amps for r in out.representatives} == {(1.0, 2.0), (2.0, 1.0)}
    assert any(same_orbit(ref, r) for r in out.representatives)
    # the sup-norm cross-check datum is shared across the census
    assert all(abs(linf_datum(r) - linf_datum(ref)) < 1e-9 for r in out.representatives)


def test_census_hexagonal_reference_member(hex_info):
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    out = orbit_census(ref)
    assert out.count <= 12
    assert any(same_orbit(ref, r) for r in out.representatives)


def test_census_single_wave_permutations(hex_info):
    ref = EigenstateCoeffs(hex_info, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    out = orbit_census(ref)
    assert out.count <= 6
    assert {r.amps for r in out.representatives} == \
        {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_census_bounds_random(hex_info, square_info, rect_info, rng):
    for info in (rect_info, square_info, hex_info):
        for _ in range(60):
            amps = rng.uniform(0.1, 2.0, info.npairs)
            if info.npairs > 1 and rng.uniform() < 0.3:
                amps[rng.integers(info.npairs)] = 0.0
            ref = EigenstateCoeffs(info, tuple(amps),
                                   tuple(rng.uniform(0, 2 * math.pi, info.npairs)))
            out = orbit_census(ref)
            assert out.count <= CENSUS_BOUNDS[info.dim]
            assert any(same_orbit(ref, r) for r in out.representatives)
            for i in range(out.count):
                for j in range(i + 1, out.count):
                    assert not same_orbit(out.representatives[i], out.representatives[j])


def test_census_inconsistent_moments_guard(hex_info, monkeypatch):
    import torus_euler.census as cn

    # candidates 1e-6 off the reference's amplitudes miss its orbit
    monkeypatch.setattr(cn, "_amplitude_orderings",
                        lambda amps: [tuple(a * (1.0 + 1e-6) for a in amps)])
    ref = EigenstateCoeffs(hex_info, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(InconsistentMoments):
        cn.orbit_census(ref)
    monkeypatch.setattr(cn, "_amplitude_orderings", lambda amps: [])
    with pytest.raises(InconsistentMoments):
        cn.orbit_census(ref)


def test_census_bound_guard(hex_info, monkeypatch):
    import torus_euler.census as cn

    monkeypatch.setattr(cn, "_amplitude_orderings",
                        lambda amps: [tuple(a + 0.1 * i for a in amps) for i in range(13)])
    ref = EigenstateCoeffs(hex_info, (1.0, 0.5, 0.2), (0.0, 0.0, 1.0))
    with pytest.raises(InternalInvariant):
        cn.orbit_census(ref)


def test_linf_datum(square_info, hex_info, hex_grid):
    c = EigenstateCoeffs(square_info, (1.2, 0.7), (0.5, 1.1))
    assert linf_datum(c) == pytest.approx(1.9)
    with pytest.raises(UnsupportedMoment):
        linf_datum(EigenstateCoeffs(hex_info, (1, 1, 1), (0, 0, 0)))


# ---------------------------------------------------------------------------
# the moment route as the census's oracle

XYZ_TOL = 1e-10  # squared-amplitude product above which both phase branches exist


def _oracle_census(reference):
    """The census from moment data alone: amplitudes from the roots of the
    moment system, phases from the order-3 datum, duplicates removed
    pairwise with same_orbit."""
    import torus_euler.census as cn

    info = reference.info
    reps = []
    if info.dim == 2:
        reps.append(EigenstateCoeffs(info, reference.amps, (0.0,)))
    elif info.dim == 4:
        md = moment_data(reference)
        prod = 0.5 * (md.quartic - md.quadratic**2)  # x*y
        disc = md.quadratic**2 - 4.0 * prod
        if disc <= cn.MULT_RTOL * (md.quadratic**2 + 4.0 * abs(prod)):
            disc = 0.0
        r = math.sqrt(max(disc, 0.0))
        x, y = 0.5 * (md.quadratic + r), 0.5 * (md.quadratic - r)
        x = cn._zero_floor(max(x, 0.0), md.quadratic)
        y = cn._zero_floor(max(y, 0.0), md.quadratic)
        for sq in ((x, y), (y, x)):
            amps = (math.sqrt(sq[0]), math.sqrt(sq[1]))
            reps.append(EigenstateCoeffs(info, amps, (0.0, 0.0)))
    else:
        md = moment_data(reference)
        for t in enumerate_candidates(md):
            amps = tuple(math.sqrt(v) for v in t)
            prod = t[0] * t[1] * t[2]
            if prod > XYZ_TOL:
                cosv = min(max(md.cubic / math.sqrt(prod), -1.0), 1.0)
                for sign in (1.0, -1.0):
                    alpha3 = (-sign * math.acos(cosv)) % (2.0 * math.pi)
                    reps.append(EigenstateCoeffs(info, amps, (0.0, 0.0, alpha3)))
            else:
                reps.append(EigenstateCoeffs(info, amps, (0.0, 0.0, 0.0)))

    distinct = []
    for r in reps:
        if not any(same_orbit(r, seen) for seen in distinct):
            distinct.append(r)
    assert len(distinct) <= CENSUS_BOUNDS[info.dim]
    if not any(same_orbit(reference, r) for r in distinct):
        raise InconsistentMoments("reference state failed its own moment round-trip")
    return distinct


_ROWS = {2: None, 4: ((1.0, 0.0), (0.0, 1.0)),
         6: ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))}


def _turned_sheared_basis(rng, dim):
    """A rectangular, square or hexagonal torus, rotated, scaled and given a
    random unimodular change of basis."""
    rows = _ROWS[dim] or ((1.0, 0.0), (0.0, rng.uniform(1.15, 1.6)))
    a, b = (int(v) for v in rng.integers(-2, 3, 2))
    u = [[1 + a * b, a], [b, 1]]
    if rng.uniform() < 0.5:
        u.reverse()
    phi, scale = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0)
    c, s = math.cos(phi), math.sin(phi)
    out = []
    for ur in u:
        x = ur[0] * rows[0][0] + ur[1] * rows[1][0]
        y = ur[0] * rows[0][1] + ur[1] * rows[1][1]
        out.append((scale * (c * x - s * y), scale * (s * x + c * y)))
    return LatticeBasis(*out)


def _reference(rng, info, zero_frac=0.25, tie_frac=0.15):
    n = info.npairs
    amps = rng.uniform(0.1, 2.0, n)
    if n > 1 and rng.uniform() < zero_frac:
        amps[rng.integers(n)] = 0.0
    if n > 1 and rng.uniform() < tie_frac:
        i, j = rng.choice(n, 2, replace=False)
        amps[j] = amps[i]
    return EigenstateCoeffs(info, tuple(amps), tuple(rng.uniform(0.0, 2.0 * math.pi, n)))


def _pair_one_to_one(reps, others):
    match = [[same_orbit(r, o) for o in others] for r in reps]
    return (all(sum(row) == 1 for row in match)
            and all(sum(col) == 1 for col in zip(*match)))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_agrees_with_moment_oracle(dim):
    rng = np.random.default_rng(700 + dim)
    compared = 0
    for i in range(700):
        if i % 10 == 0:
            info = classify_eigenspace(_turned_sheared_basis(rng, dim))
            assert info.dim == dim
        ref = _reference(rng, info)
        out = orbit_census(ref)
        assert out.count == len(out.representatives) <= CENSUS_BOUNDS[dim]
        assert any(same_orbit(ref, r) for r in out.representatives)
        try:
            want = _oracle_census(ref)
        except InconsistentMoments:
            continue
        compared += 1
        assert out.count == len(want)
        assert _pair_one_to_one(out.representatives, want)
    assert compared >= 650


def _hex_bits(c):
    return [x.hex() for x in c.amps + c.phases]


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_representatives_are_the_public_constructors(dim):
    """Bench-style references with zero amplitudes, ties within the orbit
    tolerance and theta in {0, pi}: every representative is, bit for bit, the
    public constructor's state from its amplitudes and its branch phases
    (0, ..., 0, -+theta) unwrapped."""
    rng = np.random.default_rng(900 + dim)
    n = dim // 2
    for i in range(600):
        if i % 10 == 0:
            info = classify_eigenspace(_turned_sheared_basis(rng, dim))
        amps = rng.uniform(0.1, 2.0, n)
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        if n > 1 and rng.uniform() < 0.3:
            amps[rng.integers(n)] = 0.0
        if n > 1 and rng.uniform() < 0.4:
            j, k = rng.choice(n, 2, replace=False)
            amps[k] = abs(amps[j] + rng.choice([0.0, 3e-9, -7e-9, 0.5 * DEFAULT_ORBIT_TOL]))
        if dim == 6 and rng.uniform() < 0.5:
            phases[2] = phases[0] + phases[1] - rng.choice([0.0, math.pi, -math.pi])
        ref = EigenstateCoeffs(info, tuple(amps), tuple(phases))
        branches = [(0.0,) * n]
        if dim == 6:
            theta = ref.phases[0] + ref.phases[1] - ref.phases[2]
            branches = [(0.0, 0.0, -theta), (0.0, 0.0, theta)]
        out = orbit_census(ref)
        for r in out.representatives:
            assert type(r) is EigenstateCoeffs and r.info is info
            assert _hex_bits(r) == _hex_bits(EigenstateCoeffs(info, r.amps, r.phases))
            assert _hex_bits(r) in [_hex_bits(EigenstateCoeffs(info, r.amps, b))
                                    for b in branches]


@pytest.mark.parametrize("amps,phases,count", [
    # a zero amplitude, which the moment route returned as a root of 5e-13
    ((1.788129800113965, 0.1074668527168996, 0.0),
     (3.070842855506198, 5.915090287640561, 0.0), 6),
    # two amplitudes 8e-6 apart: a near-double root of the moment cubic
    ((0.8678429737528713, 0.8678347008283075, 1.504524085213497),
     (5.428079164339087, 5.990455003911106, 3.615577436156172), 12),
    ((1.0, 1.0, 1.0000001), (0.0, 0.0, 0.0), 3),
    ((1.0, 1.001, 0.7), (0.0, 0.0, 0.0), 6),
    # a tie inside same_orbit's tolerance: the two orderings of each such
    # pair sort apart, with an ordering of a different orbit between them
    ((1.0, 1.0 + 5e-9, 2.0), (0.3, 0.7, 0.0), 6),
    # an amplitude product of 5e-6: same_orbit still tells theta from -theta
    ((1.0, 1.0, 5e-6), (0.3, 0.7, 0.0), 6),
], ids=["zero", "near-tie", "tie-1e-7", "tie-1e-3", "tie-5e-9", "small-product"])
def test_census_at_degenerate_amplitudes(hex_info, amps, phases, count):
    ref = EigenstateCoeffs(hex_info, amps, phases)
    out = orbit_census(ref)
    assert out.count == count
    assert any(same_orbit(ref, r) for r in out.representatives)
    for i, r in enumerate(out.representatives):
        assert sorted(r.amps) == sorted(ref.amps)
        assert not any(same_orbit(r, o) for o in out.representatives[i + 1:])


# ---------------------------------------------------------------------------
# the census as it was, before it built the phases directly and compared the
# reference with one representative, kept as a bit-for-bit oracle


def _amplitude_orderings_oracle(amps):
    order = sorted(range(len(amps)), key=amps.__getitem__)
    label = [0] * len(amps)
    for prev, i in zip(order, order[1:]):
        label[i] = label[prev] + (amps[i] - amps[prev] > DEFAULT_ORBIT_TOL)
    kept = {}
    for perm in itertools.permutations(range(len(amps))):
        kept.setdefault(tuple(label[i] for i in perm), tuple(amps[i] for i in perm))
    return sorted(kept.values())


def _census_oracle(reference):
    """The census from label-tuple orderings, per-branch phase tuples with the
    zero-amplitude rule, and ``any(same_orbit)`` over all representatives."""
    from torus_euler.coeffs import _theta, _wrap_phase, circ_dist

    info = reference.info
    branches = [(0.0,) * info.npairs]
    if info.dim == 6:
        theta = _theta(reference)
        a1, a2, a3 = reference.amps
        branches = [(0.0, 0.0, _wrap_phase(-theta))]
        if a1 * a2 * a3 > DEFAULT_ORBIT_TOL and circ_dist(theta, -theta) > DEFAULT_ORBIT_TOL:
            branches.append((0.0, 0.0, _wrap_phase(theta)))
    reps = tuple(
        EigenstateCoeffs._trusted(
            info, amps, tuple(p if a > 0 else 0.0 for a, p in zip(amps, phases)))
        for amps in _amplitude_orderings_oracle(reference.amps) for phases in branches)
    if len(reps) > CENSUS_BOUNDS[info.dim]:
        raise InternalInvariant(
            f"census of size {len(reps)} exceeds bound {CENSUS_BOUNDS[info.dim]}"
        )
    if not any(same_orbit(reference, r) for r in reps):
        raise InconsistentMoments("reference state is missing from its own census")
    return OrbitCensus(info.dim, reps, len(reps))


def _census_bits(reference, census=orbit_census):
    try:
        out = census(reference)
    except (InconsistentMoments, InternalInvariant) as e:
        return type(e).__name__
    assert all(r.info is reference.info for r in out.representatives)
    return [out.dim, out.count] + [_hex_bits(r) for r in out.representatives]


def _mixed_reference(rng, dim):
    """A query as the census benchmark makes them: a fresh turned, scaled,
    sheared torus and amplitudes in [0.1, 2), with the benchmark's 1 % spacing
    left out, so that close amplitudes occur too."""
    info = classify_eigenspace(_turned_sheared_basis(rng, dim))
    n = dim // 2
    return EigenstateCoeffs(info, tuple(rng.uniform(0.1, 2.0, n)),
                            tuple(rng.uniform(0.0, 2.0 * math.pi, n)))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_matches_its_oracle_bit_for_bit_on_mixed_queries(dim):
    rng = np.random.default_rng(1100 + dim)
    for _ in range(3000):
        ref = _mixed_reference(rng, dim)
        assert _census_bits(ref) == _census_bits(ref, _census_oracle)


def _degenerate_references(rng, info):
    """Zero amplitudes, ties within the orbit tolerance, theta at 0 and pi,
    and amplitude products below the tolerance, alone and combined."""
    n = info.npairs
    ties = [0.0, 3e-9, -7e-9, 0.5 * DEFAULT_ORBIT_TOL, DEFAULT_ORBIT_TOL, 2e-8]
    for i in range(600):
        amps = rng.uniform(0.1, 2.0, n)
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        if i % 2 and n > 1:
            amps[rng.integers(n)] = 0.0
        if i % 3 and n > 1:
            j, k = rng.choice(n, 2, replace=False)
            amps[k] = abs(amps[j] + rng.choice(ties))
        if n == 3 and i % 4 < 2:
            phases[2] = phases[0] + phases[1] - rng.choice([0.0, math.pi, -math.pi])
        if n == 3 and i % 5 == 0:
            amps = amps * rng.choice([1e-3, 2e-3, 5e-3])  # A1 A2 A3 below 1e-8
        yield EigenstateCoeffs(info, tuple(amps), tuple(phases))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_matches_its_oracle_bit_for_bit_at_degenerate_references(dim):
    rng = np.random.default_rng(1200 + dim)
    info = classify_eigenspace(_turned_sheared_basis(rng, dim))
    small = 0
    for ref in _degenerate_references(rng, info):
        small += dim == 6 and math.prod(ref.amps) <= DEFAULT_ORBIT_TOL
        assert _census_bits(ref) == _census_bits(ref, _census_oracle)
    assert dim != 6 or small >= 100


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_compares_one_representative_and_validates_none(dim, monkeypatch):
    """Work counts, not timings: one ``same_orbit`` call per census, and no
    representative through the validating constructor."""
    import torus_euler.census as cn

    rng = np.random.default_rng(1300 + dim)
    refs = [_mixed_reference(rng, dim) for _ in range(20)]
    calls = {"same_orbit": 0, "__post_init__": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cn, "same_orbit", counted("same_orbit", cn.same_orbit))
    monkeypatch.setattr(EigenstateCoeffs, "__post_init__",
                        counted("__post_init__", EigenstateCoeffs.__post_init__))
    for ref in refs:
        out = cn.orbit_census(ref)
        assert out.count >= 1
    assert calls == {"same_orbit": len(refs), "__post_init__": 0}
    EigenstateCoeffs(refs[0].info, refs[0].amps, refs[0].phases)  # the wrapper counts
    assert calls["__post_init__"] == 1


def test_census_own_orbit_check_sees_a_turned_phase(hex_info, monkeypatch):
    """A branch phase 0.1 off moves the reference's own representative off its
    orbit, which the one comparison catches."""
    import torus_euler.census as cn

    ref = EigenstateCoeffs(hex_info, (1.0, 0.5, 0.2), (0.3, 1.1, 2.0))
    assert cn.orbit_census(ref).count == 12
    wrap = cn._wrap_phase
    monkeypatch.setattr(cn, "_wrap_phase", lambda a: wrap(a) + 0.1)
    with pytest.raises(InconsistentMoments):
        cn.orbit_census(ref)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_census_without_the_own_ordering_is_inconsistent_moments(dim, monkeypatch):
    import torus_euler.census as cn

    orderings = cn._amplitude_orderings
    monkeypatch.setattr(cn, "_amplitude_orderings",
                        lambda amps: [o for o in orderings(amps) if o != amps])
    ref = _mixed_reference(np.random.default_rng(1400 + dim), dim)
    with pytest.raises(InconsistentMoments):
        cn.orbit_census(ref)
