"""Module-level property batteries not already covered by the acceptance suite."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from torus_euler import census, euler, lattice, verify
from torus_euler.verify import (
    check_census_factored_cubic,
    check_lattice_invariance,
    check_orbit_distance,
    check_poincare,
    check_rhs_forms,
    check_shortest_vector_geometry,
    check_spectral_transforms,
    check_time_reversal,
)


@pytest.mark.parametrize("check", [
    check_shortest_vector_geometry,
    check_lattice_invariance,
    check_spectral_transforms,
    check_poincare,
    check_orbit_distance,
    check_census_factored_cubic,
    check_time_reversal,
    check_rhs_forms,
], ids=lambda fn: fn.__name__)
def test_property_battery(check):
    result = check()
    assert result.ok, f"{result.name}: {result.detail}"


def test_checks_take_no_arguments():
    """Each check runs its one configuration, so the acceptance suite and
    `verify --full` run the same inputs."""
    assert [fn for fn in verify.FAST_CHECKS + verify.FULL_CHECKS
            if inspect.signature(fn).parameters] == []
    assert list(inspect.signature(verify._random_basis).parameters) == ["rng"]


def test_factored_cubic_check_sees_a_wrong_constant_term(monkeypatch):
    reduce = census.reduce_to_cubic

    def off(c1, c2, c3):
        a, b, c, d = reduce(c1, c2, c3)
        return a, b, c, d * (1.0 + 1e-11)

    monkeypatch.setattr(census, "reduce_to_cubic", off)
    assert not check_census_factored_cubic().ok


def test_time_reversal_check_sees_a_step_even_in_dt(monkeypatch):
    step = euler._Kernel.step

    def biased(self, c, dt):
        step(self, c, dt)
        c[0, 1] += dt * dt  # the same for dt and -dt, so not reversible

    monkeypatch.setattr(euler._Kernel, "step", biased)
    assert not check_time_reversal().ok


@pytest.mark.parametrize("term", [0, 1], ids=["dxx-dyy", "dxdy"])
def test_rhs_forms_check_sees_a_flipped_multiplier(monkeypatch, term):
    init = euler._Kernel.__init__

    def flipped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.comb[term] *= -1.0

    # a kernel that ``rhs`` cached before or during the mutant would outlive it
    euler._public_kernel.cache_clear()
    monkeypatch.setattr(euler._Kernel, "__init__", flipped)
    try:
        assert not check_rhs_forms().ok
    finally:
        euler._public_kernel.cache_clear()


def test_lattice_invariance_check_sees_a_skipped_reduction(monkeypatch):
    # the [-2, 2]^2 window searched on the raw dual basis misses shortest
    # vectors of skewed generators
    monkeypatch.setattr(lattice, "_lagrange_gauss", lambda b0, b1: ((b0, b1), ((1, 0), (0, 1))))
    assert not check_lattice_invariance().ok


def test_shortest_vector_check_sees_a_turned_hexagon_vector(monkeypatch):
    shortest = lattice.shortest_vectors
    turn = np.array([[math.cos(1e-6), -math.sin(1e-6)], [math.sin(1e-6), math.cos(1e-6)]])

    def turned(basis):
        sv = shortest(basis)
        if sv.size != 6:
            return sv
        # turn vector 0 and its antipode, so that the shell stays closed under negation
        vecs = np.array(sv.vectors)
        j = int(np.argmin(np.abs(vecs + vecs[0]).sum(axis=1)))
        vecs[[0, j]] = vecs[[0, j]] @ turn.T
        return dataclasses.replace(sv, vectors=tuple(map(tuple, vecs.tolist())))

    monkeypatch.setattr(lattice, "shortest_vectors", turned)
    result = check_shortest_vector_geometry()
    assert not result.ok
    assert "angle below pi/3" in result.detail
