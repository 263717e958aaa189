"""The project's pytest configuration, run on a deliberately failing test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10
'''


def test_failing_given_test_reports_its_falsifying_example(tmp_path):
    # warnings are errors under the project's config; a DeprecationWarning
    # raised inside hypothesis' failure report used to end the run in an
    # INTERNALERROR with the example lost
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "test_fails(" in out, out
    assert "INTERNALERROR" not in out, out
