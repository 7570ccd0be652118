"""pyproject.toml's filterwarnings turns deprecation warnings into errors.
A failing @given test must still be reported as one failure: hypothesis
explains it through libcst, whose import warns, and that warning as an
error would end the whole pytest run in INTERNALERROR (exit 3)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

CASES = '''\
import warnings

import pytest
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_deprecation_is_still_an_error():
    with pytest.raises(DeprecationWarning):
        warnings.warn("old call", DeprecationWarning)
'''


def test_failing_given_test_is_reported_not_internal_error(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_cases.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "INTERNALERROR" not in out, out
