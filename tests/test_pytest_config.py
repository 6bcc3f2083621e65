"""The suite's pytest configuration still reports a failing property test.

The configuration turns DeprecationWarning into an error.  Hypothesis
imports libcst to report a falsifying example, and that import warns, so
without the configuration's filter for it pytest stops with an internal
error and exit code 3 and shows neither the example nor the traceback.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_test_shows_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    argv = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
