"""pyproject.toml turns every warning into an error but one: the
DeprecationWarning that hypothesis's report hook raises on a failing test."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_any_other_deprecation_warning_still_fails_a_test():
    with pytest.raises(DeprecationWarning, match="some other API"):
        warnings.warn("some other API is deprecated", DeprecationWarning)
    warnings.warn("mypy_extensions.TypedDict is deprecated, and will be removed",
                  DeprecationWarning)


def test_a_failing_hypothesis_test_leaves_the_session_reporting(tmp_path):
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_plain():\n"
        "    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, timeout=120).stdout
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
