"""The repository's pytest configuration on a failing hypothesis test."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_warns():
    warnings.warn("still an error", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # a failing @given test makes hypothesis import libcst to write a
    # patch; its import-time DeprecationWarning must not become an
    # INTERNALERROR that stops the run, while any other warning still fails
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_fails" in out
    assert "FAILED test_probe.py::test_warns" in out
    assert "2 failed, 1 passed" in out
