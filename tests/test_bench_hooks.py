"""The benchmark's hooks into the package, as a contract on ``src/``.

``bench/`` reads the mode table's fields, prepares each workload and wraps
named package functions for its traces.  These tests import its modules
read-only and run those hooks once, without timing anything, so that a
change to the package that would break a benchmark run fails here first.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import facts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_prepares(name):
    assert workloads.prepare(name, 1) is not None


def test_working_set_reads_the_mode_table():
    sizes = facts.working_set(64)
    assert sizes["mode_table_kib"] > 0


def test_tracer_installs_and_uninstalls():
    from torus_euler import euler, spectral

    analyze, step = spectral.analyze, euler.step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.analyze is not analyze
    finally:
        tracer.uninstall()
    assert spectral.analyze is analyze and euler.step is step
