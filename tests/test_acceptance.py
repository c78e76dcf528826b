"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s` or on
failure) and asserts the criterion.  The checks live in torus_euler.verify,
which also backs the `torus-euler verify --full` command.
"""

import pytest

from torus_euler.verify import (
    check_census_bounds,
    check_conservation,
    check_cubic_roundtrip,
    check_dual_basis_identities,
    check_energy_enstrophy_gap,
    check_golden_lattice_presets,
    check_moment_certification,
    check_orbit_equivalence,
    check_rk4_order,
    check_solver_steadiness,
    check_stability_witness,
)


def _report(number, result):
    line = f"[{'PASS' if result.ok else 'FAIL'}] criterion {number} ({result.name}): {result.detail}"
    print(line)
    assert result.ok, line


def test_criterion_01_golden_lattice_values():
    _report(1, check_golden_lattice_presets())


def test_criterion_02_dual_basis_identities():
    _report(2, check_dual_basis_identities())


def test_criterion_03_energy_enstrophy_gap():
    _report(3, check_energy_enstrophy_gap())


def test_criterion_04_moment_certification():
    _report(4, check_moment_certification())


def test_criterion_05_cubic_roundtrip():
    _report(5, check_cubic_roundtrip())


def test_criterion_06_census_bounds():
    _report(6, check_census_bounds())


def test_criterion_07_orbit_equivalence():
    _report(7, check_orbit_equivalence())


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_08_solver_steadiness():
    _report(8, check_solver_steadiness())


def test_criterion_09_conservation():
    _report(9, check_conservation())


def test_criterion_10_stability_witness():
    _report(10, check_stability_witness())


def test_criterion_11_rk4_order():
    _report(11, check_rk4_order())
