"""The repo's pytest settings, run on throwaway test files in a subprocess.

Warnings are errors, so a numpy overflow fails a test; a failing
hypothesis test must still print its falsifying example.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''

NUMPY_OVERFLOW = '''
import numpy as np


def test_overflow():
    np.float64(1e308) * 10.0
'''


def _pytest(tmp_path, source):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_throwaway.py").write_text(source)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return result.returncode, result.stdout + result.stderr


def test_failing_property_prints_its_falsifying_example(tmp_path):
    pytest.importorskip("hypothesis")
    rc, out = _pytest(tmp_path, FAILING_PROPERTY)
    assert rc == 1
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_numpy_overflow_still_fails_a_test(tmp_path):
    rc, out = _pytest(tmp_path, NUMPY_OVERFLOW)
    assert rc == 1
    assert "1 failed" in out and "RuntimeWarning: overflow" in out
